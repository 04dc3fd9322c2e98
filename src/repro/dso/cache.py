"""Lease-based client-side caching for the DSO read path.

Every DSO read normally pays a full client -> primary round trip, so
read-heavy workloads (Fig. 8 inference serving, Fig. 5 centroid
fetches) are bounded by network latency.  This module adapts the two
levers the stateful-FaaS literature identifies — function-host caching
with a coherence protocol (Cloudburst, arXiv:2001.04592) and
lease/watch-style invalidation (FaaSKeeper, arXiv:2203.14859) — to
Crucial's method-shipping model:

* Shared-object classes mark side-effect-free methods with
  :func:`readonly` (``KvSlot.get`` and the read methods of the Table 1
  built-ins are pre-marked).
* When the read cache is enabled (``DsoLayer(read_cache=True)`` — it
  is **off by default**, preserving the paper's always-ship model and
  the Table 2 calibration), a read-only invocation that reaches the
  primary returns a *lease*: a snapshot of the object plus a validity
  window of ``DsoTimings.lease_ttl`` virtual seconds.  The client
  caches the snapshot per execution site (one :class:`ObjectCache` per
  FaaS container endpoint) and serves subsequent read-only invocations
  locally while the lease is valid.
* The primary tracks outstanding leases in a :class:`LeaseTable` on
  the :class:`~repro.dso.server.ObjectContainer`.  Any mutating
  invocation revokes them **before acknowledging**: an invalidation
  message is posted to every holder at once (the writer waits for the
  slowest hop, not the sum), and a holder that is unreachable or lost
  mid-flight is waited out to its lease expiry — so no cached read can
  be served after a write is acknowledged.
* Leases are additionally bound to the placement *version*: failover,
  rebalancing, and restore all bump it, so a promoted backup — which
  cannot know the leases its dead predecessor granted — conservatively
  revokes all of them (no write is acknowledged by a new primary under
  a placement version for which any lease was cut).
* Cache lifetime equals container lifetime: the FaaS platform reports
  reclaimed containers (keep-alive expiry or chaos kill) and the layer
  drops their caches, so warm containers keep their working set and
  cold starts begin empty.

Linearizability argument: a cached read linearizes at its local
cache-consult instant.  While a lease is valid at version ``v``, any
conflicting write either (a) executes at the same primary, which
revokes the lease before acknowledging, or (b) executes at a different
primary, which requires a placement-version bump that invalidates the
entry first.  Either way no read observes a value older than the
latest acknowledged write.  ``tests/linearizability/test_cached_reads``
checks exactly this on recorded histories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.dso.reference import DsoReference
from repro.simulation.kernel import current_thread
from repro.trace.tracer import NO_SPAN

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dso.layer import DsoLayer

#: Sentinel distinguishing "cache miss" from a cached ``None`` result.
CACHE_MISS = object()


def readonly(method: Callable) -> Callable:
    """Mark a shared-object method as side-effect-free.

    Read-only methods are eligible to be served from a leased client
    cache (when the layer enables it) instead of being shipped to the
    primary.  Marking a mutating method ``readonly`` voids the
    coherence guarantee — the marker is a promise, exactly like the
    determinism requirement SMR places on replicated methods.
    """
    method.__dso_readonly__ = True
    return method


def is_readonly(cls: type, method: str) -> bool:
    """Whether ``method`` on ``cls`` is marked with :func:`readonly`.

    The creation ping ``__dso_touch__`` is treated as read-only (it
    never mutates), so it does not revoke leases; it is still never
    served from a cache (there is nothing to apply locally).
    """
    if method == "__dso_touch__":
        return True
    return bool(getattr(getattr(cls, method, None),
                        "__dso_readonly__", False))


@dataclass
class LeaseGrant:
    """What a lease-granting reply carries back over the wire."""

    #: Snapshot of the object at grant time (wire-copied by the reply
    #: transfer, so it never aliases the primary's live instance).
    snapshot: Any
    #: Virtual time at which the lease self-expires.
    expiry: float
    #: Placement version the lease is bound to; any failover /
    #: rebalance / restore bumps it and voids the lease.
    version: int


@dataclass
class CacheEntry:
    """One leased snapshot in a client-side :class:`ObjectCache`."""

    snapshot: Any
    expiry: float
    version: int


class LeaseTable:
    """Outstanding read leases of one object container (primary side).

    Maps holder endpoint -> lease expiry (virtual time).  Plain data,
    deliberately *not* replicated: a promoted backup starts with an
    empty table and relies on the placement-version bump to invalidate
    every lease its predecessor granted.
    """

    def __init__(self) -> None:
        self._holders: dict[str, float] = {}

    def __len__(self) -> int:
        return len(self._holders)

    def grant(self, holder: str, expiry: float) -> None:
        current = self._holders.get(holder, 0.0)
        self._holders[holder] = max(current, expiry)

    def active(self, now: float) -> list[tuple[str, float]]:
        """Holders whose leases have not yet expired, with expiries."""
        return [(holder, expiry) for holder, expiry
                in self._holders.items() if expiry > now]

    def clear(self) -> None:
        self._holders.clear()

    def holders(self) -> list[str]:
        return list(self._holders)


class ObjectCache:
    """Per-execution-site cache of leased object snapshots.

    One instance exists per endpoint that performed cacheable reads
    (the client process, or one per FaaS container); eviction is LRU
    over the ``cache_max_objects`` knob.  Entries self-expire with
    their lease and are additionally dropped by revocation messages,
    placement-version mismatches, and container reclamation.
    """

    def __init__(self, limit: int = 256):
        self.limit = limit
        self._entries: dict[tuple[str, str], CacheEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, ident: tuple[str, str]) -> CacheEntry | None:
        entry = self._entries.get(ident)
        if entry is not None:
            # dict preserves insertion order; re-inserting keeps the
            # cache ordered by recency so eviction hits the coldest.
            del self._entries[ident]
            self._entries[ident] = entry
        return entry

    def put(self, ident: tuple[str, str], entry: CacheEntry) -> None:
        self._entries.pop(ident, None)
        self._entries[ident] = entry
        while len(self._entries) > self.limit:
            del self._entries[next(iter(self._entries))]

    def invalidate(self, ident: tuple[str, str]) -> bool:
        return self._entries.pop(ident, None) is not None

    def clear(self) -> None:
        self._entries.clear()

    def idents(self) -> list[tuple[str, str]]:
        return list(self._entries)


class EndpointCaches:
    """Client side of the lease protocol: one :class:`ObjectCache` per
    execution site (client process or FaaS container endpoint)."""

    def __init__(self, layer: DsoLayer, enabled: bool):
        self._layer = layer
        #: Off by default: the paper's model ships every read, and
        #: Table 2 is calibrated against that.
        self.enabled = enabled
        self._caches: dict[str, ObjectCache] = {}

    def of(self, endpoint: str) -> ObjectCache | None:
        """The endpoint's object cache, if it has one (introspection)."""
        return self._caches.get(endpoint)

    def drop(self, endpoint: str) -> None:
        """Discard ``endpoint``'s object cache: its FaaS container was
        reclaimed (``FaasPlatform.on_container_reclaim``).  Leases the
        endpoint still holds at primaries expire by TTL (or are revoked
        by the next write)."""
        self._caches.pop(endpoint, None)

    def invalidate(self, endpoint: str, ident: tuple[str, str]) -> None:
        """Drop ``endpoint``'s entry for ``ident`` (lease revoked)."""
        cache = self._caches.get(endpoint)
        if cache is not None:
            cache.invalidate(ident)

    def purge(self, ident: tuple[str, str]) -> None:
        """Drop ``ident`` everywhere (delete/restore control plane:
        those reset the placement version, so version matching alone
        cannot be trusted to fence pre-existing entries)."""
        for cache in self._caches.values():
            cache.invalidate(ident)

    def cacheable(self, ctor: tuple | None, method: str) -> bool:
        """Whether this invocation may use the leased read cache.

        Classified from the constructor recipe's class — available
        client-side and independent of cache state, so the decision
        (and hence session-stamp assignment for the remaining calls)
        is deterministic across runs and named-session replays.
        """
        return (self.enabled and ctor is not None
                and method != "__dso_touch__"
                and is_readonly(ctor[0], method))

    def read(self, client: str, ref: DsoReference, method: str,
             args: tuple, kwargs: dict, cost: float) -> Any:
        """Serve a read-only invocation locally, or ``CACHE_MISS``.

        A hit requires an unexpired lease whose placement version
        still matches — failover, rebalance, and restore all bump the
        version, which is how a promoted backup conservatively
        revokes every lease its dead predecessor granted.
        """
        layer = self._layer
        cache = self._caches.get(client)
        entry = cache.get(ref.ident) if cache is not None else None
        placement = layer.placements.live(ref)
        if (entry is None or placement is None
                or entry.version != placement.version
                or entry.expiry <= layer.kernel.now):
            if entry is not None:
                cache.invalidate(ref.ident)
            layer.stats.cache_misses += 1
            return CACHE_MISS
        tracer = layer.kernel.tracer
        with (tracer.span("dso.cache_hit", kind="client", endpoint=client,
                          attributes={"key": ref.key, "method": method})
              if tracer.enabled else NO_SPAN):
            overhead = layer.config.dso.cache_hit_overhead
            if overhead + cost > 0:
                current_thread().sleep(overhead + cost)
            bound = getattr(entry.snapshot, method, None)
            if bound is None or not callable(bound):
                raise AttributeError(
                    f"{type(entry.snapshot).__name__} has no method "
                    f"{method!r}")
            result = bound(*args, **kwargs)
        layer.stats.cache_hits += 1
        # Copy out: the caller must never mutate the cached snapshot
        # through an aliased result (same wire discipline as ship()).
        return layer.shippable(result)

    def store(self, client: str, ref: DsoReference,
              grant: LeaseGrant) -> None:
        """Install the snapshot a lease-granting reply carried."""
        cache = self._caches.get(client)
        if cache is None:
            cache = self._caches[client] = ObjectCache(
                limit=self._layer.config.dso.cache_max_objects)
        cache.put(ref.ident, CacheEntry(snapshot=grant.snapshot,
                                        expiry=grant.expiry,
                                        version=grant.version))
