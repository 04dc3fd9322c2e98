"""Consistent hashing with virtual nodes (Karger et al., STOC '97).

The DSO layer places a shared object by hashing its reference
``(type, key)`` onto the ring, exactly as Section 4.1 describes
(Cassandra-style).  Virtual nodes smooth the load distribution; the
``preference_list`` of the first ``rf`` *distinct* owners clockwise
from the hash point is the object's replica set.

Properties verified by the test suite:

* balance — with enough virtual nodes, keys spread near-uniformly;
* monotonicity — adding one member only moves keys to it, and the
  ring rebuilt without one member only moves that member's keys
  (minimal service interruption, the property Section 4.1 calls out
  for persistent objects; the DSO rebuilds its ring from every view);
* disjoint replica sets — ``preference_list`` returns distinct nodes.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Hashable, Iterable, Sequence


def _hash64(data: str) -> int:
    digest = hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ConsistentHashRing:
    """Maps hashable keys to member names."""

    def __init__(self, members: Iterable[str] = (), virtual_nodes: int = 128):
        if virtual_nodes <= 0:
            raise ValueError(f"virtual_nodes must be positive: {virtual_nodes}")
        self.virtual_nodes = virtual_nodes
        self._members: set[str] = set()
        self._points: list[int] = []
        self._owners: dict[int, str] = {}
        for member in members:
            self.add(member)

    # -- membership ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._members)

    def add(self, member: str) -> None:
        if member in self._members:
            raise ValueError(f"member {member!r} already on the ring")
        self._members.add(member)
        for replica in range(self.virtual_nodes):
            point = _hash64(f"{member}#{replica}")
            # blake2b collisions across distinct labels are negligible,
            # but stay deterministic if one ever occurs.
            while point in self._owners:
                point = (point + 1) % (1 << 64)
            self._owners[point] = member
            bisect.insort(self._points, point)

    # -- lookup -------------------------------------------------------------

    def key_point(self, key: Hashable) -> int:
        return _hash64(repr(key))

    def lookup(self, key: Hashable) -> str:
        """The primary owner of ``key``."""
        return self.preference_list(key, 1)[0]

    def preference_list(self, key: Hashable, count: int) -> Sequence[str]:
        """The first ``count`` distinct owners clockwise from the key.

        This is the replica set for a persistent object with
        ``rf == count``.
        """
        if not self._members:
            raise LookupError("hash ring is empty")
        count = min(count, len(self._members))
        start = bisect.bisect_right(self._points, self.key_point(key))
        owners: list[str] = []
        seen: set[str] = set()
        n = len(self._points)
        for step in range(n):
            owner = self._owners[self._points[(start + step) % n]]
            if owner not in seen:
                seen.add(owner)
                owners.append(owner)
                if len(owners) == count:
                    break
        return tuple(owners)
