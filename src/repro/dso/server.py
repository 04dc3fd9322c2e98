"""DSO server nodes: object containers, per-object locks, parking.

Each node hosts *containers*: the object instance, the per-object
mutual-exclusion lock that makes method invocations linearizable, and
any server-side conditions the object uses (synchronization objects
block callers with wait/notify, Section 5).

When a node crashes, every parked waiter on its objects is released
with an error, and the containers are marked dead so late arrivals
fail fast.

A node is also where a shipped op *runs*: :meth:`DsoNode.execute` is
the primary-side half of an invocation (lock, dedup, apply, lease
revoke/grant, SMR).  Persistent objects (``rf >= 2``): each invocation
is applied, in the same order, at every replica before the client is
acknowledged — state machine replication.  The inter-replica ordering
round adds two one-way hops plus replica-side work, reproducing
Table 2's latency doubling; on a node crash the surviving replicas
take over after failure detection and acknowledged writes survive
(``rf - 1`` joint failures tolerated, Section 4.4).
:meth:`DsoNode.replicate` is the DSO's one replication path — a cost
model of that round, checked against the message-passing reference in
:mod:`repro.smr` by ``tests/dso/test_smr_properties.py``.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Sequence

from repro.cluster.node import Node
from repro.dso.cache import LeaseGrant, LeaseTable, is_readonly
from repro.dso.reference import DsoReference
from repro.dso.session import SessionEntry, SessionStamp, SessionTable
from repro.dso.txn import is_unreplicated
from repro.errors import (
    NetworkError,
    NodeCrashedError,
    SessionReplayError,
    TxnPrepareLostError,
)
from repro.mutation import PLANTED
from repro.simulation.kernel import current_thread
from repro.simulation.primitives import Condition, Lock
from repro.trace.tracer import NO_SPAN

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dso.layer import DsoLayer
    from repro.dso.placement import Placement


class StaleContainer(Exception):
    """Internal: the container moved while we queued on its lock."""


#: Infrastructure failures a client retries until failure detection
#: re-homes the object; everything else propagates to the caller.
TRANSIENT = (StaleContainer, NetworkError, NodeCrashedError)


class ServerObject:
    """Base class for objects needing server-side facilities.

    Methods of a ``ServerObject`` receive the current :class:`DsoCall`
    as their first argument and may park it on conditions created with
    :meth:`new_condition` — the wait/notify pattern the paper's
    synchronization objects use.  Server objects are never replicated
    (footnote 2: synchronization objects are ephemeral).
    """

    _container: ObjectContainer | None = None

    def attach(self, container: ObjectContainer) -> None:
        self._container = container

    def new_condition(self) -> ServerCondition:
        assert self._container is not None, "object not hosted yet"
        return self._container.condition()


class DsoCall:
    """Tracks one in-progress method invocation at its primary replica.

    Owns (at most) the container's object lock and one node worker
    slot; :class:`ServerCondition` releases and re-acquires both when
    the object parks the caller.
    """

    def __init__(self, container: "ObjectContainer"):
        self.container = container
        self.lock_held = False
        self.worker_held = False
        self.aborted = False

    def acquire(self) -> None:
        """Object lock first (linearization order), then a worker."""
        self.container.lock.acquire()
        self.lock_held = True
        self.container.node.node.workers.acquire()
        self.worker_held = True

    def release_worker(self) -> None:
        """Free the worker slot while keeping the object lock.

        Used before cross-node work (SMR replication): holding a
        worker on node A while queueing for a worker on node B would
        deadlock two saturated nodes replicating toward each other.
        """
        if self.worker_held:
            self.container.node.node.workers.release()
            self.worker_held = False

    def release(self) -> None:
        self.release_worker()
        if self.lock_held:
            self.container.lock.release()
            self.lock_held = False


class ServerCondition:
    """A wait/notify condition owned by a server-side object.

    Synchronization objects (barrier, semaphore, future) block calls on
    these; the container releases every waiter with
    :class:`NodeCrashedError` if the hosting node dies.
    """

    def __init__(self, container: "ObjectContainer"):
        self.container = container
        self._condition = Condition(container.node.kernel)
        container._conditions.append(self)

    def wait(self, call: DsoCall) -> None:
        """Park ``call`` until notified (Java's ``Object.wait()``).

        Releases the object lock and the worker slot while parked; on
        wake, re-acquires both — unless the node died, in which case
        the waiter aborts with :class:`NodeCrashedError`.
        """
        call.release()
        container = self.container
        tracer = container.node.kernel.tracer
        with (tracer.span("dso.wait", kind="server",
                          endpoint=container.node.name,
                          attributes={"object": "/".join(container.key)})
              if tracer.enabled else NO_SPAN):
            with self._condition:
                self._condition.wait()
            if container.dead:
                call.aborted = True
                raise NodeCrashedError(
                    f"{container.node.name} crashed while a caller "
                    f"waited on {container.key}")
        call.acquire()

    def notify_all(self) -> None:
        with self._condition:
            self._condition.notify_all()


class ObjectContainer:
    """One replica of one shared object on one node.

    Besides the instance and its linearization lock, every container
    carries the :class:`SessionTable` that makes shipped invocations
    exactly-once: retransmissions find their cached reply here instead
    of re-executing (see :mod:`repro.dso.session`).

    Transactional objects (:class:`repro.dso.txn.TxnCell`) add two
    pieces of container-scoped soft state: the instance's ``prepared``
    map (primary-local — ``__txn_prepare__`` is unreplicated, so a
    promoted backup starts with it empty and the commit fence catches
    retries whose prepare died with the old primary) and *pinned*
    session entries (the prepare's dedup record is pinned until the
    transaction resolves, so LRU pressure can never evict the evidence
    that a commit retry needs — see :meth:`pinned_txns`).
    """

    def __init__(self, node: "DsoNode", key: tuple[str, str], instance: Any,
                 sessions: SessionTable | None = None):
        self.node = node
        self.key = key
        self.instance = instance
        self.lock = Lock(node.kernel)
        self.dead = False
        self.applied_ops = 0
        self.sessions = sessions if sessions is not None \
            else SessionTable(limit=node.session_limit)
        #: Outstanding client read leases (primary side; deliberately
        #: not replicated — see repro.dso.cache).  Fresh on every
        #: host(), so a promoted or rebalanced replica starts with no
        #: leases and the placement-version bump voids the old ones.
        self.leases = LeaseTable()
        self._conditions: list[ServerCondition] = []

    def condition(self) -> ServerCondition:
        return ServerCondition(self)

    def pinned_txns(self) -> set[str]:
        """Transaction ids with an unresolved prepare at this replica.

        Union of the instance's ``prepared`` soft state and the pinned
        session entries; tests use this to assert that the pin set
        drains once every transaction commits or aborts.
        """
        txns = set(self.sessions.pinned_tokens())
        prepared = getattr(self.instance, "prepared", None)
        if prepared:
            txns.update(prepared)
        return txns

    def apply(self, method: str, args: tuple, kwargs: dict,
              call: DsoCall | None) -> Any:
        """Run ``method`` on this replica's instance (no locking, no
        timing: callers own both)."""
        instance = self.instance
        if method == "__dso_touch__":
            return None  # creation ping from Proxy._ensure()
        bound = getattr(instance, method, None)
        if bound is None or not callable(bound):
            raise AttributeError(
                f"{type(instance).__name__} has no method {method!r}")
        self.applied_ops += 1
        if isinstance(instance, ServerObject) and call is not None:
            return bound(call, *args, **kwargs)
        result = bound(*args, **kwargs)
        if method in ("__txn_commit__", "__txn_abort__"):
            # The prepare's pinned dedup record may now be reclaimed;
            # runs wherever the op applies (primary, SMR backups, and
            # rebalanced tables that travelled with pins).
            self.sessions.unpin(args[0])
        return result

    def mark_dead(self) -> None:
        self.dead = True
        self.leases.clear()
        for condition in self._conditions:
            condition.notify_all()


class DsoNode:
    """A DSO storage server of one :class:`~repro.dso.layer.DsoLayer`
    deployment (which supplies the timings, peers, network and stats)."""

    def __init__(self, layer: DsoLayer, name: str):
        self.layer = layer
        self.kernel = layer.kernel
        self.name = name
        self.node = Node(layer.kernel, layer.network, name,
                         workers=layer.config.dso.node_workers)
        self.containers: dict[tuple[str, str], ObjectContainer] = {}
        self.session_limit = layer.config.dso.session_table_max
        #: Service-time multiplier; the chaos layer raises it to model
        #: a degraded node (noisy neighbour, GC storm, EBS stall).
        self.slow_factor: float = 1.0

    def set_slow(self, factor: float) -> None:
        """Stretch every service time on this node by ``factor``."""
        if factor <= 0:
            raise ValueError(f"slow factor must be positive: {factor}")
        self.slow_factor = factor

    @property
    def alive(self) -> bool:
        return self.node.endpoint.alive

    def host(self, key: tuple[str, str], instance: Any,
             sessions: SessionTable | None = None) -> ObjectContainer:
        """Host a replica; ``sessions`` carries the exactly-once table
        when the object (and its dedup state) migrates here."""
        previous = self.containers.get(key)
        container = ObjectContainer(self, key, instance, sessions=sessions)
        if previous is not None and not previous.dead:
            # Re-hosting over a live replica (rebalance converging):
            # never forget remembered replies.
            container.sessions.merge_from(previous.sessions)
        self.containers[key] = container
        if isinstance(instance, ServerObject):
            instance.attach(container)
        return container

    def evict(self, key: tuple[str, str]) -> None:
        self.containers.pop(key, None)

    def crash(self) -> None:
        """Fail-stop: lose every hosted object and release waiters."""
        self.node.crash()
        for container in list(self.containers.values()):
            container.mark_dead()
        self.containers.clear()

    # ------------------------------------------------------------------
    # Executing shipped ops (primary side)
    # ------------------------------------------------------------------

    def _hosted(self, ref: DsoReference) -> ObjectContainer:
        container = self.containers.get(ref.ident)
        if container is None or container.dead:
            raise StaleContainer(f"{ref} not hosted on {self.name}")
        return container

    def execute(self, client: str, ref: DsoReference, method: str,
                args: tuple, kwargs: dict, cost: float,
                raw_service: float | None, stamp: SessionStamp | None,
                placement: Placement, lease_version: int | None = None,
                smr_context: dict | None = None
                ) -> tuple[Any, LeaseGrant | None]:
        """Run one shipped op at its primary: lock, dedup, apply, SMR.

        Shared by the synchronous path and the batched path
        (:mod:`repro.dso.pipeline`), which executes many ops per round
        trip: ``smr_context`` then makes consecutive replicated ops
        share a single SMR ordering round (see :meth:`replicate`).
        ``lease_version`` is the placement version the client captured
        before shipping a cacheable read, or ``None`` for no lease.
        Returns ``(result, lease grant or None)``; the caller owns the
        reply transfer back to the client.
        """
        layer = self.layer
        container = self._hosted(ref)
        call = DsoCall(container)
        grant: LeaseGrant | None = None
        tracer = self.kernel.tracer
        with (tracer.span("dso.primary", kind="server", endpoint=self.name,
                          attributes={"method": method})
              if tracer.enabled else NO_SPAN):
            call.acquire()
            try:
                if self.containers.get(ref.ident) is not container:
                    raise StaleContainer(f"{ref} moved off {self.name}")
                if (not placement.replicas
                        or placement.replicas[0] != self.name):
                    # A rebalance re-homed the primary while this op
                    # queued on the lock (possibly without evicting the
                    # local copy, if only the replica *order* changed).
                    # Fence rather than apply: an op applied here would
                    # never reach the new primary.
                    raise StaleContainer(f"{ref} re-homed off {self.name}")
                entry = (container.sessions.lookup(stamp)
                         if stamp is not None else None)
                if entry is not None:
                    return self._dedup_hit(
                        placement, ref, container, call, entry, stamp,
                        method, args, kwargs, cost, smr_context), None
                service = (raw_service if raw_service is not None
                           else layer.config.dso.method_call_overhead)
                current_thread().sleep((service + cost) * self.slow_factor)
                if not self.alive or container.dead:
                    raise NodeCrashedError(
                        f"{self.name} crashed during {ref}.{method}")
                # Commit fence: a txn commit is only valid at a
                # primary still holding the prepared entry.  A
                # promoted backup never saw the (unreplicated)
                # prepare, so the commit is turned back *before*
                # any mutation or session record — the client
                # re-prepares there and retries with a fresh
                # stamp.  The "no-commit-fence" mutation drops the
                # write instead (see repro.mutation).
                fence_dropped = False
                if method == "__txn_commit__":
                    prepared = getattr(container.instance, "prepared", None)
                    if prepared is not None and args[0] not in prepared:
                        if "no-commit-fence" in PLANTED:
                            fence_dropped = True
                        else:
                            layer.stats.txn_fence_trips += 1
                            raise TxnPrepareLostError(
                                f"{ref}: no prepared entry for txn "
                                f"{args[0]!r} at {self.name}; "
                                f"re-prepare before committing")
                layer.stats.invocations += 1
                if fence_dropped:
                    result = args[1]
                else:
                    result = container.apply(method, args, kwargs, call)
                # Replicate to the *current* backup set whenever one
                # exists, whatever placement version the client
                # captured: a concurrent rebalance bumps the version
                # while writes queue on the lock, and an acked write
                # that silently stays primary-only is lost with the
                # primary.  The primary fence above already rejects
                # ops at a node that is no longer ``replicas[0]``; from
                # the current primary, replicating under the current
                # replica list is always correct.
                replicated = (len(placement.replicas) > 1
                              and not fence_dropped
                              and not is_unreplicated(
                                  type(container.instance), method))
                if stamp is not None:
                    # Remember the reply *before* replication: if we
                    # crash mid-replication, a retry must dedup here
                    # rather than mutate twice.  committed=False until
                    # every backup has it.  A txn prepare's record is
                    # pinned under its txn id — LRU eviction must not
                    # reclaim it before the commit/abort resolves.
                    entry = container.sessions.record(
                        stamp, layer.shippable(result),
                        committed=not replicated,
                        pin=(args[0] if method == "__txn_prepare__"
                             else None))
                if layer.caches.enabled:
                    if not is_readonly(type(container.instance), method):
                        # Coherence: no cached read may be served
                        # after this write acks.  Runs after the
                        # session record, so a crash mid-revocation
                        # still dedups the client's retry.
                        self._revoke_leases(container)
                        if not self.alive or container.dead:
                            raise NodeCrashedError(
                                f"{self.name} crashed revoking "
                                f"leases for {ref}.{method}")
                    elif lease_version is not None and not isinstance(
                            container.instance, ServerObject):
                        expiry = self.kernel.now + layer.config.dso.lease_ttl
                        container.leases.grant(client, expiry)
                        layer.stats.leases_granted += 1
                        grant = LeaseGrant(snapshot=container.instance,
                                           expiry=expiry,
                                           version=lease_version)
                if replicated:
                    # Free the primary worker before queueing for
                    # backup workers (keeps saturated replicating
                    # nodes deadlock-free); the object lock still
                    # serializes the op stream, preserving SMR's
                    # total order.
                    call.release_worker()
                    self.replicate(placement, ref, method, args, kwargs,
                                   cost, stamp, result, smr_context)
                    if entry is not None:
                        entry.committed = True
            finally:
                if not call.aborted:
                    call.release()
        return result, grant

    def _dedup_hit(self, placement: Placement, ref: DsoReference,
                   container: ObjectContainer, call: DsoCall,
                   entry: SessionEntry, stamp: SessionStamp, method: str,
                   args: tuple, kwargs: dict, cost: float,
                   smr_context: dict | None) -> Any:
        """Answer a retransmission from the session table.

        Charges only lookup-grade service time, and — crucially — if
        the original attempt died before replication finished
        (``committed`` is false), re-runs replication so the cached
        acknowledgement is as durable as a fresh one.  Backups dedup
        the re-sent op themselves.
        """
        self.layer.stats.dedup_hits += 1
        tracer = self.kernel.tracer
        with (tracer.span("dso.dedup_hit", kind="server", endpoint=self.name,
                          attributes={"method": method, "session": stamp.sid,
                                      "seq": stamp.seq})
              if tracer.enabled else NO_SPAN):
            current_thread().sleep(self.layer.config.dso.get_service
                                   * self.slow_factor)
            if not self.alive or container.dead:
                raise NodeCrashedError(
                    f"{self.name} crashed during {ref}.{method} dedup")
            if not entry.committed:
                # Same rule as the fresh-apply path: a surviving
                # backup set must get the op no matter how many view
                # changes raced the retry; only the version is stale,
                # not this node's primaryship (fenced by the caller).
                if len(placement.replicas) > 1:
                    call.release_worker()
                    self.replicate(placement, ref, method, args, kwargs,
                                   cost, stamp, entry.reply, smr_context)
                entry.committed = True
        return entry.reply

    def replicate(self, placement: Placement, ref: DsoReference,
                  method: str, args: tuple, kwargs: dict, cost: float,
                  stamp: SessionStamp | None, reply: Any,
                  smr_context: dict | None) -> None:
        """Apply the op at every backup before acknowledging (SMR).

        Methods must be deterministic: each replica executes them on
        its own copy — the state-machine-replication contract.  The
        session ``stamp`` and primary ``reply`` replicate with the op,
        so any backup promoted to primary can still deduplicate the
        client's retries.

        ``smr_context`` (a per-batch dict) lets the batched invoke path
        charge the two inter-replica ordering hops once per batch: the
        ops travel to the backups in a single totally-ordered round,
        while per-op replica work is still paid in full.
        """
        layer = self.layer
        hop = layer.config.dso.replica_replica
        rng = self.kernel.rng.stream(f"dso.{layer.name}.smr")
        charge_hops = (smr_context is None
                       or not smr_context.get("hops_charged"))
        if smr_context is not None:
            smr_context["hops_charged"] = True
        tracer = self.kernel.tracer
        with (tracer.span("dso.replicate", kind="server", endpoint=self.name,
                          attributes={"backups": len(placement.replicas) - 1})
              if tracer.enabled else NO_SPAN):
            if charge_hops:
                current_thread().sleep(hop.sample(rng))  # ordering round out
            for backup_name in placement.replicas[1:]:
                backup = layer.nodes.get(backup_name)
                if backup is None or not backup.alive:
                    continue  # repaired at the next view
                if not layer.network.reachable(self.name, backup_name):
                    # Partitioned replica: SMR cannot acknowledge without
                    # it (fail-stop durability contract).  Surface as a
                    # suspected failure; the client retries until the
                    # partition heals or a view change expels the replica.
                    raise NodeCrashedError(
                        f"{backup_name} unreachable from {self.name} "
                        "during replication")
                bcontainer = backup.containers.get(ref.ident)
                if bcontainer is None or bcontainer.dead:
                    continue
                if stamp is not None and "no-backup-dedup" not in PLANTED:
                    # A re-replication after a dedup hit (or a rebalance
                    # that already shipped the table): this backup may
                    # have applied the op already.
                    try:
                        if bcontainer.sessions.lookup(stamp) is not None:
                            continue
                    except SessionReplayError:
                        continue  # applied and since truncated: done
                with (tracer.span("dso.smr_apply", kind="server",
                                  endpoint=backup_name)
                      if tracer.enabled else NO_SPAN):
                    backup.node.workers.acquire()
                    try:
                        current_thread().sleep(
                            (layer.config.dso.smr_replica_overhead + cost)
                            * backup.slow_factor)
                        bcontainer.apply(method, args, kwargs, None)
                        if stamp is not None:
                            bcontainer.sessions.record(
                                stamp, layer.shippable(reply),
                                committed=False)
                    finally:
                        backup.node.workers.release()
            if charge_hops:
                current_thread().sleep(hop.sample(rng))  # commit round back

    # ------------------------------------------------------------------
    # Unordered reads (no object lock, no SMR round)
    # ------------------------------------------------------------------

    def read_local(self, ref: DsoReference, method: str, args: tuple,
                   cost: float) -> Any:
        """Serve ``read_any``: apply a read on whatever this replica
        holds, charging one worker slot and the method's service time."""
        container = self._hosted(ref)
        self.node.workers.acquire()
        try:
            current_thread().sleep(
                (self.layer.config.dso.method_call_overhead + cost)
                * self.slow_factor)
            if not self.alive or container.dead:
                raise NodeCrashedError(
                    f"{self.name} crashed during {ref}.{method} read")
            result = container.apply(method, args, {}, None)
        finally:
            self.node.workers.release()
        self.layer.stats.invocations += 1
        return result

    def read_group(self, refs: Sequence[DsoReference], method: str,
                   per_read_cost: float) -> list[Any]:
        """Serve one ``read_bulk`` group: one worker slot for the whole
        request, but per-object service time — node capacity, the
        quantity Fig. 8 stresses, is modelled faithfully."""
        service_each = (self.layer.config.dso.method_call_overhead
                        + per_read_cost)
        self.node.workers.acquire()
        try:
            current_thread().sleep(service_each * len(refs)
                                   * self.slow_factor)
            if not self.alive:
                raise NodeCrashedError(f"{self.name} crashed mid-read")
            results = []
            for ref in refs:
                container = self.containers.get(ref.ident)
                if container is None or container.dead:
                    raise StaleContainer(f"{ref} moved")
                results.append(container.apply(method, (), {}, None))
        finally:
            self.node.workers.release()
        return results

    # ------------------------------------------------------------------
    # Read leases (repro.dso.cache), primary side
    # ------------------------------------------------------------------

    def _revoke_leases(self, container: ObjectContainer) -> None:
        """Invalidate every outstanding lease before a write acks.

        Every reachable holder is posted its invalidation at once, as a
        one-way message (:meth:`Network.post`, charged like any
        transfer), and the writer sleeps once, to the last arrival: k
        holders stall the write for the slowest hop, not the sum.  A
        holder the primary cannot reach — at send time or because it
        failed or was cut off mid-flight — is waited out to its lease
        expiry instead, after which its cache entry is stale by time.
        Those holders are waited out *together*: their leases expire
        concurrently, so the stall is the max remaining TTL.  Runs
        under the object lock, so no new lease can be granted
        concurrently.
        """
        holders = container.leases.active(self.kernel.now)
        container.leases.clear()
        if not holders:
            return
        layer = self.layer
        key = container.key
        tracer = self.kernel.tracer
        with (tracer.span("dso.lease_revoke", kind="server",
                          endpoint=self.name,
                          attributes={"object": "/".join(key),
                                      "holders": len(holders)})
              if tracer.enabled else NO_SPAN) as span:
            invalidated: set[str] = set()

            def invalidate(holder: str, _message: Any) -> None:
                # At the holder, in kernel context (non-blocking).
                layer.caches.invalidate(holder, key)
                invalidated.add(holder)

            # Timers and the wakeup below are all ``now + flight``, and
            # the timers are queued first: the writer wakes after the
            # last delivery, having slept the slowest hop only.
            flights = []
            for holder, _ in holders:
                try:
                    flights.append(layer.network.post(
                        self.name, holder, ("dso.lease_revoke", key),
                        partial(invalidate, holder)))
                except NetworkError:
                    continue
            if tracer.enabled:
                span.set("fanout", len(flights))
            if flights:
                current_thread().sleep(max(flights))
            unreachable = [(holder, expiry) for holder, expiry in holders
                           if holder not in invalidated]
            if unreachable:
                remaining = (max(expiry for _, expiry in unreachable)
                             - self.kernel.now)
                if remaining > 0:
                    current_thread().sleep(remaining)
                for holder, _ in unreachable:
                    layer.caches.invalidate(holder, key)
            layer.stats.lease_revocations += len(holders)
