"""Classic ZooKeeper recipes over :mod:`repro.coordination.keeper`.

The paper built its barrier and semaphore directly on DSO server
objects; these rebuild both (plus leader election and config
fan-out) on the keeper's znodes, sessions, and ordered watches —
the FaaSKeeper shape, with the standard recipes:

* :class:`KeeperBarrier` — one parent znode per round; each party
  adds an ephemeral-sequential child and leaves when the child
  count reaches the party count (a children watch replaces polling).
* :class:`KeeperSemaphore` — ephemeral-sequential lease nodes; the
  ``permits`` lowest hold the semaphore, everyone else watches.
* :class:`LeaderElector` — the lowest ephemeral-sequential candidate
  leads; each candidate watches only its predecessor, so a failover
  wakes exactly one successor (no herd).
* :class:`ConfigWatcher` — read-with-watch plus re-register on every
  change: the fan-out subscriber for hundreds of watchers.

All waiting loops are watch-driven but *re-check state* on every
wakeup (and on a timeout), so a missed or foreign event — sessions
share one delivery queue — only costs a retry, never correctness.
"""

from __future__ import annotations

from typing import Any

from repro.coordination.keeper import KeeperSession, WatchEvent
from repro.errors import NodeExistsError, NoNodeError, SimTimeoutError

#: Recipes re-check state at least this often while waiting.
_RECHECK = 1.0


def _ensure(session: KeeperSession, path: str) -> None:
    """Create a persistent znode (and its ancestors), tolerating
    concurrent creators."""
    parts = path.strip("/").split("/")
    prefix = ""
    for part in parts:
        prefix = f"{prefix}/{part}"
        try:
            session.create(prefix)
        except NodeExistsError:
            pass


class KeeperBarrier:
    """A cyclic rendezvous: round ``n`` completes once ``parties``
    ephemeral-sequential children exist under ``<path>/round-<n>``."""

    def __init__(self, session: KeeperSession, path: str, parties: int):
        if parties < 1:
            raise ValueError("parties must be >= 1")
        self.session = session
        self.path = path.rstrip("/")
        self.parties = parties
        _ensure(session, self.path)

    def wait(self, round_number: int, timeout: float = 120.0) -> None:
        """Announce arrival and block until the round is full."""
        round_path = f"{self.path}/round-{round_number}"
        try:
            self.session.create(round_path)
        except NodeExistsError:
            pass
        self.session.create(f"{round_path}/p-", data=self.session.sid,
                            ephemeral=True, sequential=True)
        deadline = self.session._service._env.now + timeout
        while True:
            arrived = self.session.children(round_path, watch=True)
            if len(arrived) >= self.parties:
                return
            if self.session._service._env.now >= deadline:
                raise SimTimeoutError(
                    f"barrier {round_path}: "
                    f"{len(arrived)}/{self.parties} after {timeout}s")
            self.session.next_event(timeout=_RECHECK)


class KeeperSemaphore:
    """``permits`` concurrent holders via ephemeral-sequential leases."""

    def __init__(self, session: KeeperSession, path: str, permits: int):
        if permits < 1:
            raise ValueError("permits must be >= 1")
        self.session = session
        self.path = path.rstrip("/")
        self.permits = permits
        self._held: str | None = None
        _ensure(session, self.path)

    def acquire(self, timeout: float = 120.0) -> str:
        """Block until this session holds one of the permits; returns
        the lease znode's path."""
        if self._held is not None:
            raise RuntimeError("semaphore already held by this session")
        lease = self.session.create(f"{self.path}/lease-",
                                    data=self.session.sid,
                                    ephemeral=True, sequential=True)
        mine = lease.rsplit("/", 1)[1]
        deadline = self.session._service._env.now + timeout
        while True:
            # children() returns sorted names; zero-padded suffixes
            # make lexicographic order == grant order.
            queue = self.session.children(self.path, watch=True)
            if mine in queue[:self.permits]:
                self._held = lease
                return lease
            if self.session._service._env.now >= deadline:
                raise SimTimeoutError(f"semaphore {self.path}: "
                                      f"no permit after {timeout}s")
            self.session.next_event(timeout=_RECHECK)

    def release(self) -> None:
        if self._held is None:
            raise RuntimeError("semaphore not held")
        self.session.delete(self._held)
        self._held = None

    def __enter__(self) -> "KeeperSemaphore":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()


class LeaderElector:
    """Lowest-ephemeral-sequential-node leader election.

    Each candidate watches only its immediate predecessor, so a dead
    leader wakes exactly one successor; the winner publishes itself
    at ``<path>/leader`` (a plain znode config fan-out can watch).
    """

    def __init__(self, session: KeeperSession, path: str, member: str):
        self.session = session
        self.path = path.rstrip("/")
        self.member = member
        self._me: str | None = None
        _ensure(session, f"{self.path}/candidates")

    @property
    def candidate_node(self) -> str | None:
        return self._me

    def volunteer(self) -> str:
        self._me = self.session.create(
            f"{self.path}/candidates/n-", data=self.member,
            ephemeral=True, sequential=True)
        return self._me

    def _standings(self) -> tuple[list[str], str]:
        assert self._me is not None, "volunteer() first"
        mine = self._me.rsplit("/", 1)[1]
        queue = list(self.session.children(f"{self.path}/candidates"))
        return queue, mine

    def is_leader(self) -> bool:
        queue, mine = self._standings()
        return bool(queue) and queue[0] == mine

    def lead(self, timeout: float = 300.0) -> None:
        """Block until this candidate is the lowest node, then
        announce at ``<path>/leader``."""
        env = self.session._service._env
        deadline = env.now + timeout
        while True:
            queue, mine = self._standings()
            if mine not in queue:
                raise NoNodeError(
                    f"candidate node {self._me} vanished (session "
                    "expired?)")
            rank = queue.index(mine)
            if rank == 0:
                self._announce()
                return
            # Watch the predecessor only: its deletion promotes us or
            # shortens the queue; either way, re-check.
            predecessor = f"{self.path}/candidates/{queue[rank - 1]}"
            if self.session.exists(predecessor, watch=True) is None:
                continue
            if env.now >= deadline:
                raise SimTimeoutError(f"election {self.path}: "
                                      f"no leadership after {timeout}s")
            self.session.next_event(timeout=_RECHECK)

    def _announce(self) -> None:
        try:
            self.session.create(f"{self.path}/leader", data=self.member)
        except NodeExistsError:
            self.session.set(f"{self.path}/leader", self.member)


class ConfigWatcher:
    """Fan-out subscriber: hold the current value of a config znode,
    re-arming the one-shot data watch on every change."""

    def __init__(self, session: KeeperSession, path: str):
        self.session = session
        self.path = path
        self.value: Any = None
        self.version: int | None = None
        self._sync()

    def _sync(self) -> None:
        try:
            self.value, self.version = self.session.get(self.path,
                                                        watch=True)
        except NoNodeError:
            self.value, self.version = None, None
            self.session.exists(self.path, watch=True)

    def await_change(self, timeout: float = 30.0) -> WatchEvent | None:
        """Block until *this* config path changes (returns the event
        and refreshes :attr:`value`), or ``None`` on timeout.  Events
        for other paths the session happens to watch are consumed and
        skipped — share a session with other recipes and those events
        belong to them, not to the config feed."""
        env = self.session._service._env
        deadline = env.now + timeout
        while True:
            remaining = deadline - env.now
            if remaining <= 0:
                return None
            event = self.session.next_event(timeout=remaining)
            if event is None:
                return None
            if event.path == self.path:
                self._sync()
                return event
