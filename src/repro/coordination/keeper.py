"""A ZooKeeper-like coordination service on DSO + notifications.

FaaSKeeper showed a full ZooKeeper equivalent can run serverless; this
module rebuilds that shape on the repo's own substrate (ROADMAP item
3).  One replicated :class:`_KeeperTree` DSO object holds the whole
hierarchical znode tree — per-node data versions, sequential znodes,
sessions with lease expiries, ephemeral ownership — and every
mutation is a deterministic method shipped through the exactly-once
DSO layer, so rf≥2 SMR replication and crash failover come for free.

**Watches.**  ZooKeeper's hardest guarantee is that a client observes
all its watch events *in the global order of the writes that fired
them*.  The tree assigns each fired event a per-session delivery
sequence number under the object lock (so sequence order == zxid
order by construction) and parks the event in an in-state outbox —
deterministic at every replica.  A client-side pump drains the outbox
and fans events out through the SQS model's ``deliver`` path, whose
heavy-tailed delivery lag happily reorders messages; the session's
*watch fence* re-orders arrivals by sequence number before the
application sees them.  Delivery is pushed: a write that can fire
watches wakes the pump (its period is only a backstop), and a session
acknowledges what it received without waiting for the ack, so an
event reaches the application when its message turns visible.  The
``"no-watch-fence"`` mutant disables the fence at delivery — the
planted bug the ``watch-order`` hunt of
``tests/explore/test_guarantees.py`` must catch.

**Sessions.**  A session is a server-side lease.  The sessions one
endpoint holds at one TTL share its fate (a reclaimed container
abandons them together), so they share one heartbeat too: one
``Kernel.every`` per (endpoint, TTL) renews all of them with one
batched ``touch`` at a third of the TTL, as a ZooKeeper follower pings
for all its sessions at once.  A periodic sweeper invokes
``expire_sessions(now)`` with the clock sampled *caller-side* (the
method stays deterministic for SMR).  Expiry deletes the session's
ephemeral znodes and fires their watches — exactly once, because the
deletions are ordinary tree mutations riding the same zxid log.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from repro.core.shared import shared
from repro.core.runtime import CrucialEnvironment, current_environment, \
    current_location
from repro.errors import (
    BadVersionError,
    CloudError,
    KeeperError,
    NoNodeError,
    NodeExistsError,
    NoSuchKeyError,
    NotEmptyError,
    ReproError,
    SessionExpiredError,
)
from repro.linearizability.znode import SEQUENTIAL_WIDTH
from repro.mutation import PLANTED
from repro.trace.tracer import NO_SPAN

if TYPE_CHECKING:
    from repro.linearizability.history import HistoryRecorder

#: Outbox messages drained per pump invocation.
_PUMP_BATCH = 64

#: Tree writes whose success can fire watches (``expire_sessions``
#: only when it deleted an ephemeral): each wakes the delivery pump.
_FIRING = frozenset({"create", "set", "delete", "close_session"})


def _fired(method: str, result: Any) -> bool:
    """Whether a tree call that returned ``result`` may have parked
    watch events in the outbox."""
    if method == "expire_sessions":
        return any(deleted for _sid, deleted in result)
    return method in _FIRING and bool(result)


@dataclass(frozen=True)
class WatchEvent:
    """One fired watch, as delivered to the watching session.

    ``seq`` is the per-session delivery sequence number the tree
    assigned under its object lock — consecutive from 1, in zxid
    order.  The watch fence releases events to the application
    strictly in ``seq`` order.
    """

    kind: str   # "created" | "changed" | "deleted" | "children"
    path: str
    #: zxid of the write that fired this watch.
    zxid: int
    #: Per-session delivery sequence number (1-based, dense).
    seq: int


# ---------------------------------------------------------------------------
# Server side: the replicated znode tree
# ---------------------------------------------------------------------------

#: Error classes an op may return over the recorded-history channel.
_ERRORS: dict[str, type[KeeperError]] = {
    cls.__name__: cls for cls in (
        KeeperError, NoNodeError, NodeExistsError, BadVersionError,
        NotEmptyError, SessionExpiredError)
}


class _Znode:
    """One node of the tree (plain attributes: picklable, SMR-able)."""

    __slots__ = ("data", "version", "czxid", "mzxid", "owner",
                 "children", "cseq")

    def __init__(self, data: Any, czxid: int, owner: str | None):
        self.data = data
        self.version = 0
        self.czxid = czxid
        self.mzxid = czxid
        #: Owning session id for ephemerals, else None.
        self.owner = owner
        #: Child *names* (dict for deterministic order + O(1) ops).
        self.children: dict[str, None] = {}
        #: Next sequential-child counter: dense, bumped only on a
        #: successful sequential create under this node.
        self.cseq = 0

    def __getstate__(self):
        return (self.data, self.version, self.czxid, self.mzxid,
                self.owner, self.children, self.cseq)

    def __setstate__(self, state):
        (self.data, self.version, self.czxid, self.mzxid,
         self.owner, self.children, self.cseq) = state


class _Session:
    """Server-side session record: a lease plus its ephemerals."""

    __slots__ = ("ttl", "expires_at", "ephemerals", "seq")

    def __init__(self, ttl: float, expires_at: float):
        self.ttl = ttl
        self.expires_at = expires_at
        #: Paths of ephemerals owned by this session (ordered dict-set).
        self.ephemerals: dict[str, None] = {}
        #: Watch-event delivery sequence already assigned (dense, 1-based).
        self.seq = 0

    def __getstate__(self):
        return (self.ttl, self.expires_at, self.ephemerals, self.seq)

    def __setstate__(self, state):
        self.ttl, self.expires_at, self.ephemerals, self.seq = state


def _split(path: str) -> tuple[str, str]:
    parent, _, name = path.rpartition("/")
    return parent or "/", name


class _KeeperTree:
    """The whole znode tree as one deterministic shared object.

    Deliberately *not* a :class:`~repro.dso.server.ServerObject`: no
    server-side conditions, no blocking — every method runs to
    completion under the object lock, so the tree replicates with
    rf≥2 SMR and survives primary crashes with its zxid log intact.
    All blocking (watch waits, session polls) happens client-side.

    Methods validate **before** mutating: a raising call leaves no
    state change, so failed ops are safely not replicated.
    """

    def __init__(self):
        self.nodes: dict[str, _Znode] = {"/": _Znode(None, 0, None)}
        #: Global write counter; every successful mutation gets one.
        self.zxid = 0
        self.sessions: dict[str, _Session] = {}
        #: One-shot watch registrations: path -> ordered set of sids.
        self.data_watches: dict[str, dict[str, None]] = {}
        self.child_watches: dict[str, dict[str, None]] = {}
        #: Fired events awaiting the delivery pump: (sid, event).
        self.outbox: list[tuple[str, WatchEvent]] = []
        #: Append-only audit log of applied writes: (zxid, op, path).
        self.applied: list[tuple[int, str, str]] = []
        #: Total events ever assigned per session (survives expiry).
        self.assigned: dict[str, int] = {}

    # -- internals ---------------------------------------------------------------

    def _live(self, sid: str | None) -> _Session | None:
        if sid is None:
            return None
        session = self.sessions.get(sid)
        if session is None:
            raise SessionExpiredError(f"session {sid!r} is gone")
        return session

    def _node(self, path: str) -> _Znode:
        node = self.nodes.get(path)
        if node is None:
            raise NoNodeError(f"no znode at {path!r}")
        return node

    def _fire(self, registry: dict[str, dict[str, None]], path: str,
              kind: str, zxid: int) -> None:
        watchers = registry.pop(path, None)
        if not watchers:
            return
        for sid in watchers:
            session = self.sessions.get(sid)
            if session is None:
                continue  # watcher's session died first: drop
            session.seq += 1
            self.assigned[sid] = session.seq
            self.outbox.append(
                (sid, WatchEvent(kind=kind, path=path, zxid=zxid,
                                 seq=session.seq)))

    def _register(self, registry: dict[str, dict[str, None]], path: str,
                  sid: str | None) -> None:
        if sid is not None:
            registry.setdefault(path, {})[sid] = None

    # -- znode operations ----------------------------------------------------------

    def create(self, path: str, data: Any = None, sid: str | None = None,
               ephemeral: bool = False,
               sequential: bool = False) -> tuple[str, int]:
        """Create a znode; returns ``(actual_path, zxid)``.

        Sequential creates append a dense zero-padded counter scoped
        to the parent; ephemeral creates require a live session and
        die with it.
        """
        session = self._live(sid)
        if ephemeral and session is None:
            raise KeeperError("ephemeral znodes require a session")
        parent_path, name = _split(path)
        if not name:
            raise KeeperError(f"invalid znode path {path!r}")
        parent = self._node(parent_path)
        if parent.owner is not None:
            raise KeeperError(
                f"ephemeral znode {parent_path!r} cannot have children")
        if sequential:
            name = f"{name}{parent.cseq:0{SEQUENTIAL_WIDTH}d}"
            path = (parent_path.rstrip("/") + "/" + name)
        if path in self.nodes:
            raise NodeExistsError(f"znode {path!r} already exists")
        self.zxid += 1
        zxid = self.zxid
        if sequential:
            parent.cseq += 1
        self.nodes[path] = _Znode(data, zxid, sid if ephemeral else None)
        parent.children[name] = None
        if ephemeral:
            session.ephemerals[path] = None
        self.applied.append((zxid, "create", path))
        self._fire(self.data_watches, path, "created", zxid)
        self._fire(self.child_watches, parent_path, "children", zxid)
        return path, zxid

    def get(self, path: str, sid: str | None = None,
            watch: bool = False) -> tuple[Any, int]:
        """Read ``(data, version)``; optionally leave a data watch."""
        self._live(sid)
        node = self._node(path)
        if watch:
            self._register(self.data_watches, path, sid)
        return node.data, node.version

    def set(self, path: str, data: Any, version: int = -1,
            sid: str | None = None) -> tuple[int, int]:
        """Write data; returns ``(new_version, zxid)``.

        ``version >= 0`` is a compare-and-set guard against the
        node's current data version.
        """
        self._live(sid)
        node = self._node(path)
        if version >= 0 and version != node.version:
            raise BadVersionError(
                f"{path!r}: expected version {version}, "
                f"have {node.version}")
        self.zxid += 1
        node.data = data
        node.version += 1
        node.mzxid = self.zxid
        self.applied.append((self.zxid, "set", path))
        self._fire(self.data_watches, path, "changed", self.zxid)
        return node.version, self.zxid

    def delete(self, path: str, version: int = -1,
               sid: str | None = None) -> int:
        """Delete a childless znode; returns the zxid."""
        self._live(sid)
        node = self._node(path)
        if node.children:
            raise NotEmptyError(f"{path!r} still has children")
        if version >= 0 and version != node.version:
            raise BadVersionError(
                f"{path!r}: expected version {version}, "
                f"have {node.version}")
        return self._delete_now(path, node)

    def _delete_now(self, path: str, node: _Znode) -> int:
        parent_path, name = _split(path)
        self.zxid += 1
        zxid = self.zxid
        del self.nodes[path]
        self.nodes[parent_path].children.pop(name, None)
        if node.owner is not None:
            owner = self.sessions.get(node.owner)
            if owner is not None:
                owner.ephemerals.pop(path, None)
        self.applied.append((zxid, "delete", path))
        self._fire(self.data_watches, path, "deleted", zxid)
        # ZooKeeper also tells the deleted node's children-watchers...
        self._fire(self.child_watches, path, "deleted", zxid)
        # ...and the parent's, whose child list just shrank.
        self._fire(self.child_watches, parent_path, "children", zxid)
        return zxid

    def exists(self, path: str, sid: str | None = None,
               watch: bool = False) -> int | None:
        """Data version if the znode exists, else ``None``.

        A watch set on an absent path fires on its creation.
        """
        self._live(sid)
        if watch:
            self._register(self.data_watches, path, sid)
        node = self.nodes.get(path)
        return None if node is None else node.version

    def children(self, path: str, sid: str | None = None,
                 watch: bool = False) -> tuple[str, ...]:
        """Sorted child names; optionally leave a children watch."""
        self._live(sid)
        node = self._node(path)
        if watch:
            self._register(self.child_watches, path, sid)
        return tuple(sorted(node.children))

    # -- sessions ----------------------------------------------------------------

    def create_session(self, sid: str, ttl: float, now: float) -> bool:
        if sid in self.sessions:
            raise KeeperError(f"session {sid!r} already exists")
        self.sessions[sid] = _Session(ttl, now + ttl)
        return True

    def touch(self, sids: tuple[str, ...], now: float) \
            -> tuple[float | None, ...]:
        """Renew every listed lease in one call; returns each session's
        new expiry instant, or ``None`` for a session that is gone."""
        expiries = []
        for sid in sids:
            session = self.sessions.get(sid)
            if session is not None:
                session.expires_at = now + session.ttl
                expiries.append(session.expires_at)
            else:
                expiries.append(None)
        return tuple(expiries)

    def close_session(self, sid: str) -> tuple[tuple[str, int], ...]:
        """Graceful goodbye: drop the session and its ephemerals.

        Idempotent — closing an already-expired session is a no-op
        (its ephemerals are long gone)."""
        if sid not in self.sessions:
            return ()
        return self._end_session(sid)

    def expire_sessions(self, now: float) \
            -> tuple[tuple[str, tuple[tuple[str, int], ...]], ...]:
        """Expire every session whose lease lapsed before ``now``.

        ``now`` is an *argument* — the sweeper samples the clock
        caller-side — so the method replays identically at every SMR
        backup.  Returns ``((sid, ((path, zxid), ...)), ...)``.
        """
        lapsed = sorted(sid for sid, session in self.sessions.items()
                        if session.expires_at <= now)
        return tuple((sid, self._end_session(sid)) for sid in lapsed)

    def _end_session(self, sid: str) -> tuple[tuple[str, int], ...]:
        session = self.sessions.pop(sid)
        deleted = tuple(
            (path, self._delete_now(path, self.nodes[path]))
            for path in sorted(session.ephemerals)
            if path in self.nodes)
        # Drop the dead session's watch registrations.
        for registry in (self.data_watches, self.child_watches):
            for watchers in registry.values():
                watchers.pop(sid, None)
        return deleted

    # -- delivery + audit ---------------------------------------------------------

    def drain_outbox(self, limit: int = _PUMP_BATCH) \
            -> tuple[tuple[str, WatchEvent], ...]:
        """Remove and return up to ``limit`` pending (sid, event)
        pairs.  A mutation: exactly-once under session dedup, so a
        pump retry across a failover never re-delivers a batch."""
        batch = tuple(self.outbox[:limit])
        del self.outbox[:limit]
        return batch

    def outbox_depth(self) -> int:
        return len(self.outbox)

    def latest_zxid(self) -> int:
        return self.zxid

    def zxid_log(self) -> tuple[tuple[int, str, str], ...]:
        """The applied-write audit log: ``(zxid, op, path)``."""
        return tuple(self.applied)

    def assigned_counts(self) -> dict[str, int]:
        """Watch events ever assigned, per session (incl. expired)."""
        return dict(self.assigned)

    def dump(self) -> dict[str, tuple[Any, int, str | None]]:
        """Quiescent snapshot for audits: path -> (data, version,
        ephemeral owner)."""
        return {path: (node.data, node.version, node.owner)
                for path, node in sorted(self.nodes.items())}


# ---------------------------------------------------------------------------
# Client side: service + sessions
# ---------------------------------------------------------------------------


class KeeperService:
    """Client-side handle on one replicated keeper tree.

    Owns the two service threads every ZooKeeper ensemble hides
    inside the server — here they are explicit clients of the
    replicated tree:

    * the **delivery pump**, draining the tree's watch outbox into
      one SQS queue per session (the notification fan-out path) as
      soon as a write may have fired a watch, and every
      ``pump_period`` as a backstop, and
    * the **session sweeper**, invoking ``expire_sessions(now)`` so
      lapsed leases lose their ephemerals within a bounded delay
      (``sweep_period`` defaults to a third of the session TTL, so
      detection lands well inside 2× TTL).

    Construct inside ``env.run(main)``; sessions opened from FaaS
    containers are tied to container liveness via the platform's
    reclaim hook (a reclaimed container's sessions stop heartbeating
    and expire, FaaSKeeper-style).
    """

    def __init__(self, name: str = "keeper", *, rf: int = 2,
                 session_ttl: float = 3.0, pump_period: float = 0.1,
                 sweep_period: float | None = None,
                 recorder: HistoryRecorder | None = None,
                 env: CrucialEnvironment | None = None):
        self._env = env if env is not None else current_environment()
        self.name = name
        self.session_ttl = session_ttl
        self.pump_period = pump_period
        self.sweep_period = (sweep_period if sweep_period is not None
                             else session_ttl / 3.0)
        self._recorder = recorder
        self._record_key = f"keeper:{name}"
        # rf>=2 keeper trees are persistent DSO objects: SMR-replicated,
        # so the zxid log and every ephemeral/watch survives a primary
        # crash.  rf=1 is for cheap single-node test setups.
        self._proxy = shared(_KeeperTree, name, persistent=rf >= 2, rf=rf)
        self._proxy._ensure()
        self._sessions: dict[str, KeeperSession] = {}
        #: One shared heartbeat per (home endpoint, TTL).
        self._heartbeats: dict[tuple[str, float], _Heartbeat] = {}
        self._sids = itertools.count(1)
        #: Pump/sweeper invocations that failed after DSO retries
        #: (e.g. a failover outlasting the retry deadline).
        self.service_errors = 0
        kernel = self._env.kernel
        self._pump = kernel.every(pump_period, self._pump_step,
                                  name=f"{name}-pump", delay=0)
        self._sweeper = kernel.every(self.sweep_period, self._sweep,
                                     name=f"{name}-sweeper")
        self._env.platform.on_container_reclaim(self._container_reclaimed)

    # -- invocation (with optional history recording) -------------------------------

    def _invoke(self, method: str, *args: Any) -> Any:
        """Ship one tree call.  A write that may have fired watches
        pokes the delivery pump, so its events leave the outbox now,
        not at the pump's next tick."""
        # Proxy._invoke, not getattr: tree method names like "delete"
        # and "get" would otherwise shadow DsoProxy's own attributes.
        result = self._proxy._invoke(method, *args)
        if _fired(method, result):
            self._pump.poke()
        return result

    def _call(self, method: str, *args: Any) -> Any:
        if self._recorder is None:
            return self._invoke(method, *args)

        def attempt() -> Any:
            try:
                return self._invoke(method, *args)
            except KeeperError as exc:
                # Errors are *results* to the sequential spec: the
                # model returns the same sentinel instead of raising
                # (class name only, so messages never skew replay).
                return ("err", type(exc).__name__)

        outcome = self._recorder.record(current_location(), method, args,
                                        attempt, key=self._record_key)
        if isinstance(outcome, tuple) and len(outcome) == 2 \
                and outcome[0] == "err" and outcome[1] in _ERRORS:
            raise _ERRORS[outcome[1]](f"{method} {args[:1]}: {outcome[1]}")
        return outcome

    # -- sessions ----------------------------------------------------------------

    def _queue_name(self, sid: str) -> str:
        return f"{self.name}-events-{sid}"

    def session(self, ttl: float | None = None, *,
                name: str | None = None,
                home: str | None = None) -> "KeeperSession":
        """Open a session: a lease on the tree and a watch-event
        queue.  The session joins its endpoint's heartbeat for this
        TTL, which renews it at a third of the TTL.

        ``home`` ties the session to an endpoint's liveness (default:
        wherever the call runs).  A function handler passes its
        ``ctx.endpoint`` so the session dies with the container.
        """
        ttl = ttl if ttl is not None else self.session_ttl
        sid = name or f"{self.name}-s{next(self._sids)}"
        self._env.queue_service.create_queue(self._queue_name(sid))
        self._call("create_session", sid, ttl, self._env.now)
        session = KeeperSession(self, sid, ttl,
                                home=home or current_location())
        self._sessions[sid] = session
        key = (session.home, ttl)
        heartbeat = self._heartbeats.get(key)
        if heartbeat is None or heartbeat.done:  # done: a beat failed
            heartbeat = self._heartbeats[key] = _Heartbeat(self, *key)
        heartbeat.join(session)
        return session

    def _container_reclaimed(self, endpoint: str) -> None:
        # FaaSKeeper's liveness rule: a session opened from a function
        # container dies with the container.  No goodbye — the
        # heartbeat just stops and the lease runs out.
        for session in list(self._sessions.values()):
            if session.home == endpoint and session.state == "open":
                session.abandon()

    # -- service threads ------------------------------------------------------------

    def _pump_step(self) -> None:
        queues = self._env.queue_service
        tracer = self._env.kernel.tracer
        while True:
            with (tracer.span("keeper.pump.drain")
                  if tracer.enabled else NO_SPAN) as span:
                try:
                    batch = self._proxy._invoke("drain_outbox",
                                                _PUMP_BATCH)
                except CloudError:
                    self.service_errors += 1
                    batch = ()
                for sid, event in batch:
                    try:
                        queues.deliver(self._queue_name(sid), event)
                    except NoSuchKeyError:
                        pass  # a session some other client owns
                if tracer.enabled:
                    span.set("events", len(batch))
            # A full batch may have left more behind: drain again now.
            if len(batch) < _PUMP_BATCH or self._pump.cancelled:
                return

    def _sweep(self) -> None:
        now = self._env.now
        invoked = self._env.now
        try:
            expired = self._invoke("expire_sessions", now)
        except CloudError:
            self.service_errors += 1
            return
        if expired and self._recorder is not None:
            self._recorder.add(current_location(), "expire_sessions",
                               (now,), expired, invoked,
                               self._env.now, key=self._record_key)
        for sid, _deleted in expired:
            local = self._sessions.pop(sid, None)
            if local is not None:
                local._mark_expired()

    def stop(self) -> None:
        """Stop the pump, sweeper and heartbeats (sessions keep their
        state)."""
        self._pump.cancel()
        self._sweeper.cancel()
        for heartbeat in list(self._heartbeats.values()):
            heartbeat.stop()

    # -- audit accessors -------------------------------------------------------------

    def zxid_log(self) -> tuple[tuple[int, str, str], ...]:
        return self._proxy._invoke("zxid_log")

    def assigned_counts(self) -> dict[str, int]:
        return self._proxy._invoke("assigned_counts")

    def dump(self) -> dict[str, tuple[Any, int, str | None]]:
        return self._proxy._invoke("dump")

    def latest_zxid(self) -> int:
        return self._proxy._invoke("latest_zxid")

    def outbox_depth(self) -> int:
        return self._proxy._invoke("outbox_depth")


class _Heartbeat:
    """The lease renewals of every session one endpoint holds at one
    TTL: one periodic thread, one batched ``touch`` per period.

    A third of the TTL survives two lost or late beats before a lease
    lapses (ZooKeeper pings at a third of the timeout).  A session
    that joins mid-period is renewed at the group's next beat, sooner
    than a period after it joined; the group stops once its last
    member leaves.
    """

    def __init__(self, service: KeeperService, home: str, ttl: float):
        self._service = service
        self.home = home
        self.ttl = ttl
        #: Member session ids, in join order.
        self.members: dict[str, None] = {}
        self._beating = False
        self._thread = service._env.kernel.every(
            ttl / 3.0, self._beat,
            name=f"{service.name}-{home}-ttl{ttl:g}-heartbeat")

    @property
    def done(self) -> bool:
        return self._thread.done

    def join(self, session: KeeperSession) -> None:
        self.members[session.sid] = None
        session._heartbeat = self
        if self._beating:
            # Not in the batch in flight: the next beat follows it at
            # once instead of a period later.
            self._thread.poke()

    def leave(self, sid: str) -> None:
        if sid in self.members:
            del self.members[sid]
            if not self.members:
                self.stop()

    def stop(self) -> None:
        self._thread.cancel()
        heartbeats = self._service._heartbeats
        if heartbeats.get((self.home, self.ttl)) is self:
            del heartbeats[(self.home, self.ttl)]

    def _beat(self) -> None:
        service = self._service
        tracer = service._env.kernel.tracer
        sids = tuple(self.members)
        with (tracer.span("keeper.heartbeat", endpoint=self.home)
              if tracer.enabled else NO_SPAN) as span:
            self._beating = True
            try:
                expiries = service._call("touch", sids, service._env.now)
            except ReproError:
                # A failover outlasting the retries: the server may
                # have given every lease away, so none is renewed again.
                self.stop()
                return
            finally:
                self._beating = False
            # A lapsed lease stays lapsed: its session leaves the group.
            gone = [sid for sid, expiry in zip(sids, expiries)
                    if expiry is None]
            for sid in gone:
                self.leave(sid)
            if tracer.enabled:
                span.set("renewed", len(sids) - len(gone))
                span.set("dropped", len(gone))


class KeeperSession:
    """One client's lease-backed view of the tree.

    All znode methods ship through the service's proxy with this
    session's id attached; watch events arrive on the session's own
    SQS queue and are released by :meth:`next_event` strictly in the
    tree-assigned sequence order (the watch fence) — unless the
    ``"no-watch-fence"`` mutation is planted.
    """

    def __init__(self, service: KeeperService, sid: str, ttl: float,
                 home: str):
        self._service = service
        self.sid = sid
        self.ttl = ttl
        #: Endpoint the session was opened from ("client" or a
        #: container name); container sessions die with the container.
        self.home = home
        self.state = "open"  # open | closed | killed | expired
        #: Events released to the application, in release order.
        self.delivered: list[WatchEvent] = []
        #: Acknowledged writes: (op, path, zxid).
        self.acked: list[tuple[str, str, int]] = []
        self._buffer: dict[int, WatchEvent] = {}
        self._arrivals: list[WatchEvent] = []
        self._next_seq = 1
        self._queue = service._queue_name(sid)
        #: The endpoint's heartbeat for this TTL (set when it joins).
        self._heartbeat: _Heartbeat | None = None

    # -- liveness ----------------------------------------------------------------

    def close(self) -> None:
        """Graceful goodbye: ephemerals are deleted immediately."""
        if self.state != "open":
            return
        self.state = "closed"
        self._heartbeat.leave(self.sid)
        self._service._call("close_session", self.sid)
        self._service._sessions.pop(self.sid, None)

    def kill(self) -> None:
        """Chaos: the holder fail-stops mid-heartbeat.  No goodbye —
        the lease lapses and the sweeper reaps the ephemerals."""
        if self.state == "open":
            self.state = "killed"
        self._heartbeat.leave(self.sid)

    #: A reclaimed container's sessions are abandoned the same way.
    abandon = kill

    def _mark_expired(self) -> None:
        if self.state in ("open", "killed"):
            self.state = "expired"
        self._heartbeat.leave(self.sid)

    @property
    def expired(self) -> bool:
        return self.state == "expired"

    def __enter__(self) -> "KeeperSession":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- znode operations ----------------------------------------------------------

    def _check_open(self) -> None:
        if self.state not in ("open", "killed"):
            # A killed session is a zombie: it may still issue ops
            # until the server expires it — exactly the race the
            # server-side liveness check exists for.
            raise SessionExpiredError(f"session {self.sid} is {self.state}")

    def create(self, path: str, data: Any = None, *,
               ephemeral: bool = False, sequential: bool = False) -> str:
        self._check_open()
        actual, zxid = self._service._call(
            "create", path, data, self.sid, ephemeral, sequential)
        self.acked.append(("create", actual, zxid))
        return actual

    def get(self, path: str, *, watch: bool = False) -> tuple[Any, int]:
        self._check_open()
        return self._service._call("get", path, self.sid, watch)

    def set(self, path: str, data: Any, *, version: int = -1) -> int:
        self._check_open()
        new_version, zxid = self._service._call(
            "set", path, data, version, self.sid)
        self.acked.append(("set", path, zxid))
        return new_version

    def delete(self, path: str, *, version: int = -1) -> None:
        self._check_open()
        zxid = self._service._call("delete", path, version, self.sid)
        self.acked.append(("delete", path, zxid))

    def exists(self, path: str, *, watch: bool = False) -> int | None:
        self._check_open()
        return self._service._call("exists", path, self.sid, watch)

    def children(self, path: str, *,
                 watch: bool = False) -> tuple[str, ...]:
        self._check_open()
        return self._service._call("children", path, self.sid, watch)

    # -- watch delivery (the fence) --------------------------------------------------

    def _admit(self, event: WatchEvent) -> None:
        if "no-watch-fence" in PLANTED:
            self._arrivals.append(event)
        elif event.seq >= self._next_seq and event.seq not in self._buffer:
            self._buffer[event.seq] = event

    def _pop_ready(self) -> WatchEvent | None:
        if "no-watch-fence" in PLANTED:
            if self._arrivals:
                return self._arrivals.pop(0)
            if self._buffer:  # anything fenced before the mutation landed
                return self._buffer.pop(min(self._buffer))
            return None
        event = self._buffer.pop(self._next_seq, None)
        if event is not None:
            self._next_seq += 1
        return event

    def next_event(self, timeout: float = 5.0) -> WatchEvent | None:
        """The next watch event in global write order, or ``None``
        after ``timeout`` virtual seconds.

        The fence: an event is released only once every
        lower-sequence event of this session has been released, so
        the application's view follows zxid order no matter how the
        queue's delivery lag shuffled arrivals.
        """
        env = self._service._env
        queues = env.queue_service
        deadline = env.now + timeout
        while True:
            event = self._pop_ready()
            if event is not None:
                self.delivered.append(event)
                return event
            remaining = deadline - env.now
            if remaining <= 0:
                return None
            batch = queues.receive(self._queue, max_messages=10,
                                   wait=min(remaining, 2.0))
            if batch:
                # Acknowledged off the critical path: a copy redelivered
                # before the ack lands fails the fence's seq check.
                queues.ack(self._queue, [m.receipt for m in batch])
                for message in batch:
                    self._admit(message.body)

    def events(self, count: int, timeout: float = 30.0) \
            -> Iterator[WatchEvent]:
        """Yield up to ``count`` events within an overall timeout."""
        deadline = self._service._env.now + timeout
        for _ in range(count):
            event = self.next_event(
                timeout=deadline - self._service._env.now)
            if event is None:
                return
            yield event
