"""The DSO layer: a deployment of storage nodes plus the client stub.

Clients never hold object state: they ship method invocations to the
object's *primary* replica, located by consistent-hashing the
``(type, key)`` reference over the current membership view
(Section 4.1).  Linearizability comes from a per-object lock at the
primary: invocations acquire it in arrival order and execute one at a
time.

This module is the composition root and the client verbs; every other
concern lives beside the data it owns:

* ``placements`` (:mod:`repro.dso.placement`) — the directory, view
  changes, background rebalancing, passivation;
* ``nodes`` (:mod:`repro.dso.server`) — primary-side execution, state
  machine replication of persistent (``rf >= 2``) objects, read leases;
* ``sessions`` (:mod:`repro.dso.session`) — exactly-once shipping: calls
  carry a deterministic stamp and retries receive the cached reply
  (the paper leaves this to application idempotence, Section 4.4; see
  DESIGN.md "Exactly-once method shipping");
* ``caches`` (:mod:`repro.dso.cache`) — leased client-side caching of
  read-only methods, off by default (the paper always ships);
* ``txns`` (:mod:`repro.dso.txn`);
* method shipping (:mod:`repro.dso.pipeline`): every call is a batch —
  a blocking call the batch of one — shipped by the thread that waits
  for it, and async ops queue per endpoint and calling thread.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Sequence

from repro.cluster.membership import MembershipService
from repro.config import Config, DEFAULT_CONFIG
from repro.core.retry import RetryPolicy
from repro.dso.cache import CACHE_MISS, EndpointCaches, readonly
from repro.dso.pipeline import DsoFuture, _attempt, _Pipeline
from repro.dso.placement import PlacementDirectory
from repro.dso.reference import DsoReference
from repro.dso.server import TRANSIENT, DsoNode
from repro.dso.session import ClientSessions, SessionStamp
from repro.dso.txn import Transactions, Txn
from repro.errors import NetworkError, NoSuchObjectError
from repro.mutation import PLANTED
from repro.net.network import Network, ship
from repro.simulation.kernel import Kernel, current_thread
from repro.trace.tracer import NO_SPAN


class KvSlot:
    """A plain value cell: the raw GET/PUT path measured in Table 2.

    Lives here because its import path is on the wire: lease grants
    pickle the instance, so moving the class changes payload bytes —
    and with them every calibrated transfer latency.
    """

    def __init__(self, value: Any = None):
        self.value = value

    @readonly
    def get(self) -> Any:
        return self.value

    def set(self, value: Any) -> None:
        self.value = value


@dataclass
class LayerStats:
    invocations: int = 0
    retries: int = 0
    creations: int = 0
    rebalanced_objects: int = 0
    lost_objects: int = 0
    #: Retransmissions answered from a cached session reply instead of
    #: re-executing (the exactly-once guarantee doing its job).
    dedup_hits: int = 0
    #: Read-only invocations served from a leased client-side cache
    #: (no network round trip) / ones that had to ship after all.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Leases handed out by primaries with read-only replies.
    leases_granted: int = 0
    #: Leases revoked by mutating invocations before acknowledging.
    lease_revocations: int = 0
    #: Revoked leases a write re-armed with a one-way refresh post.
    lease_refreshes: int = 0
    #: Ops shipped through the pipelined async path, and the batch
    #: round trips that carried them (repro.dso.pipeline).
    pipelined_ops: int = 0
    batches: int = 0
    #: Read-atomic multi-object transactions (repro.dso.txn).
    txns_committed: int = 0
    txns_aborted: int = 0
    #: Prepare ops shipped by transaction commits (including
    #: re-prepares after failover).
    txn_prepares: int = 0
    #: Commit-fence rejections: a commit reached a primary with no
    #: prepared entry (crash-failover lost it) and was turned back
    #: for re-prepare instead of silently dropping the write.
    txn_fence_trips: int = 0
    #: Transactional reads that retried because no version was
    #: consistent with the read set yet, and reads answered from a
    #: prepared entry forced by a committed sibling (RAMP-style).
    txn_read_retries: int = 0
    txn_forced_fetches: int = 0


class DsoLayer:
    """A deployment of DSO storage nodes plus its client-side logic."""

    def __init__(self, kernel: Kernel, network: Network,
                 config: Config = DEFAULT_CONFIG, name: str = "dso",
                 read_cache: bool = False):
        self.kernel = kernel
        self.network = network
        self.config = config
        self.name = name
        self.membership = MembershipService(
            kernel, failure_detection_delay=config.dso.failure_detection)
        self.nodes: dict[str, DsoNode] = {}
        self.stats = LayerStats()
        self.placements = PlacementDirectory(self)
        #: Lease-based client-side caching of read-only invocations.
        self.caches = EndpointCaches(self, enabled=read_cache)
        #: Exactly-once session state (client side).
        self.sessions = ClientSessions(self)
        self.txns = Transactions(self)
        #: Async op queues (repro.dso.pipeline), one per (endpoint,
        #: calling thread's tid) with ops queued or in flight: made by
        #: invoke_async, dropped by their last shipper once empty.  The
        #: sync path pays one truth test while the dict is empty.
        self._pipelines: dict[tuple[str, int], _Pipeline] = {}
        self._node_ids = itertools.count()
        timings = config.dso
        self._retry_policy = RetryPolicy(
            backoff=timings.retry_backoff,
            multiplier=timings.retry_backoff_multiplier,
            max_backoff=timings.retry_backoff_max,
            jitter=timings.retry_jitter)
        self._failure_detector = None
        self.membership.subscribe(self.placements.on_view)

    # ------------------------------------------------------------------
    # Deployment management
    # ------------------------------------------------------------------

    def add_node(self, name: str | None = None) -> DsoNode:
        """Provision one storage node and announce it to the group."""
        if name is None:
            name = f"{self.name}-{next(self._node_ids)}"
        node = DsoNode(self, name)
        self.nodes[name] = node
        latency = self.config.dso.replica_replica
        for other in self.nodes.values():
            if other is not node:
                self.network.set_link(name, other.name, latency)
        self.membership.join(node.node)
        return node

    def enable_failure_detector(self, period: float = 1.0,
                                timeout: float | None = None):
        """Switch from modelled detection delay to a real heartbeat
        detector: crashes are then *noticed*, not announced."""
        from repro.cluster.failure_detector import HeartbeatFailureDetector

        if timeout is None:
            timeout = self.config.dso.failure_detection
        self._failure_detector = HeartbeatFailureDetector(
            self.kernel, self.network, self.membership,
            period=period, timeout=timeout,
            name=f"{self.name}-fd").start()
        return self._failure_detector

    def crash_node(self, name: str) -> None:
        """Fail-stop ``name``; detection takes ``failure_detection`` s
        (or, with a heartbeat detector enabled, its detection bound).

        Must run in a simulated thread (it releases parked waiters).
        """
        node = self.nodes[name]
        node.crash()
        if self._failure_detector is None:
            self.membership.report_crash(name)

    def restart_node(self, name: str) -> DsoNode:
        """Bring a crashed node back as a fresh, empty member.

        Its previous containers died with the crash (in-memory store);
        it rejoins the group and the rebalancer migrates objects onto
        it.  Must run in a simulated thread if detection of the crash
        is still pending (it waits for the expulsion view first, so
        the join installs a clean successor view).
        """
        node = self.nodes[name]
        if node.alive:
            return node
        while name in self.membership.view.members:
            current_thread().sleep(self.config.dso.retry_backoff)
        node.node.restart()
        node.slow_factor = 1.0
        self.membership.join(node.node)
        return node

    def remove_node(self, name: str) -> None:
        """Graceful departure: announce first, let rebalancing drain."""
        self.membership.leave(name)

    def live_nodes(self) -> list[DsoNode]:
        return [n for n in self.nodes.values() if n.alive]

    def member_nodes(self) -> list[DsoNode]:
        """Live nodes that are in the *current membership view*.

        Differs from :meth:`live_nodes` after a graceful
        :meth:`remove_node`: the departed node keeps running while the
        rebalancer drains it, but it is no longer part of the serving
        fleet — capacity controllers and rent meters count members,
        not survivors.
        """
        view = self.membership.view
        return [n for n in self.nodes.values()
                if n.alive and n.name in view]

    def live_node(self, name: str) -> DsoNode:
        node = self.nodes.get(name)
        if node is None or not node.alive:
            raise NetworkError(f"{name} is down")
        return node

    def connect(self, client: str, node_name: str) -> None:
        """Make sure ``client`` has a client-server link to the node
        (a link that already is the model was made here, by the call
        that also registered the endpoint)."""
        latency = self.config.dso.client_server
        if self.network.link(client, node_name) is not latency:
            self.network.ensure_endpoint(client)
            self.network.set_link(client, node_name, latency)

    def placement_of(self, ref: DsoReference) -> tuple[str, ...]:
        placement = self.placements.get(ref)
        if placement is None:
            raise NoSuchObjectError(f"{ref} does not exist")
        return tuple(placement.replicas)

    def object_counts(self) -> dict[str, int]:
        return {name: len(node.containers)
                for name, node in self.nodes.items() if node.alive}

    # ------------------------------------------------------------------
    # Sessions, transactions, read cache: entry points of collaborators
    # ------------------------------------------------------------------

    def session(self, name: str) -> ContextManager[str]:
        """Run a block under a *named* session; see
        :meth:`repro.dso.session.ClientSessions.named`."""
        return self.sessions.named(name)

    def retire_session(self, client: str, name: str) -> int:
        """Drop a named session's cached replies from every live node;
        see :meth:`repro.dso.session.ClientSessions.retire`."""
        return self.sessions.retire(client, name)

    def transaction(self, client: str, rf: int = 1) -> Txn:
        """Open one read-atomic transaction (use as a ``with`` block).

        The block's reads observe an atomic-visibility snapshot,
        writes are buffered, and a clean exit commits all of them
        atomically (an exception aborts).  ``rf >= 2`` keys survive
        primary crashes mid-commit — the commit fence re-prepares at
        the promoted backup, and session dedup keeps the retried
        commit exactly-once.
        """
        return Txn(self, client, rf=rf)

    def enable_read_cache(self) -> None:
        """Turn on leased client-side caching of read-only methods."""
        self.caches.enabled = True

    # ------------------------------------------------------------------
    # Transient-failure retry: one deadline, one backoff step, one driver
    # ------------------------------------------------------------------

    def retry_window(self) -> float:
        """For how long transient failures are retried before surfacing:
        detection + view installation + the configured grace."""
        timings = self.config.dso
        return (timings.failure_detection + timings.view_change_pause
                + timings.retry_grace)

    def retry_deadline(self) -> float:
        """Until when an operation starting now retries."""
        return self.kernel.now + self.retry_window()

    def backoff(self, attempts: int, deadline: float) -> bool:
        """Sleep the backoff after failed attempt number ``attempts``
        (exponential with deterministic seeded jitter), clamped to
        ``deadline``; ``False`` means the retry window is spent.

        A backoff that would overshoot the window instead waits out
        the window and gives up — without the clamp, one over-long
        sleep fires an extra attempt past the documented budget.
        """
        if self.kernel.now >= deadline:
            return False
        rng = self.kernel.rng.stream(f"dso.{self.name}.retry")
        delay = self._retry_policy.delay(attempts - 1, rng)
        remaining = deadline - self.kernel.now
        current_thread().sleep(min(delay, remaining))
        return delay < remaining

    def _retry_transient(self, attempt: Callable[..., Any], *args,
                         span=None) -> Any:
        """Run ``attempt(*args)`` until it succeeds, retrying transient
        infrastructure failures until failure detection re-homes the
        object or the retry window closes (the last failure then
        surfaces).  The one retry loop: every shipped batch (a blocking
        call's included) and ``read_bulk`` run under it.
        """
        started = self.kernel.now  # the window opens with the operation
        attempts = 0
        while True:
            attempts += 1
            try:
                result = attempt(*args)
            except TRANSIENT:
                self.stats.retries += 1
                if not self.backoff(attempts,
                                    started + self.retry_window()):
                    raise
            else:
                if span is not None and attempts > 1:
                    span.set("retries", attempts - 1)
                return result

    def _preflight(self, client: str) -> None:
        """Program order across the sync/async boundary: a blocking
        verb must not overtake async ops the *calling thread* already
        queued on ``client`` — the :meth:`flush` barrier.  It waits for
        nothing another thread queued: their ops are as concurrent with
        this verb as the threads themselves."""
        if "no-own-barrier" not in PLANTED:
            self.flush(client)

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------

    def invoke(self, client: str, ref: DsoReference, method: str,
               args: tuple = (), kwargs: dict | None = None,
               ctor: tuple | None = None, cost: float = 0.0,
               raw_service: float | None = None) -> Any:
        """Ship a method invocation to ``ref``'s primary replica and
        wait for its reply: a batch of one (:mod:`repro.dso.pipeline`)
        that the calling thread ships itself, once its own queue on
        ``client`` has drained.

        ``ctor = (cls, ctor_args, ctor_kwargs)`` creates the object on
        first touch.  ``cost`` is the modelled CPU seconds the method
        burns server-side (beyond fixed dispatch overhead).  Transient
        infrastructure failures are retried until failure detection
        re-homes the object; a method's exception is its recorded outcome
        (a retry gets it back, never re-applies it) and reaches the caller.
        """
        kwargs = kwargs or {}
        if self._pipelines:  # one truth test while no thread has a queue
            self._preflight(client)
        cacheable = self.caches.cacheable(ctor, method)
        if cacheable:
            hit = self.caches.read(client, ref, method, args, kwargs, cost)
            if hit is not CACHE_MISS:
                return hit
            # Read-only invocations are idempotent and never shipped
            # under a session stamp (re-execution on retry is
            # harmless); skipping the stamp keeps sequence numbers —
            # and named-session replays — independent of cache state.
            session = stamp = None
        else:
            session = self.sessions.current(client)
            # Stamp once, outside the retry loop: every retransmission
            # of this logical call carries the identical (sid, seq),
            # which is what lets servers recognise and deduplicate it.
            stamp = session.stamp()
        call = DsoFuture(None, ref, method, args, kwargs, ctor, cost,
                         raw_service, session, stamp, lease=cacheable)
        tracer = self.kernel.tracer
        with (self._invoke_span(client, ref, method, stamp)
              if tracer.enabled else NO_SPAN) as span:
            # The batch path's one driver, run by the caller: a
            # failure that outlives the retry window raises here.
            self._retry_transient(_attempt, self, client, [call], span,
                                  span=span)
            if call._error is not None:
                raise call._error
            return call._value

    def _invoke_span(self, client: str, ref: DsoReference, method: str,
                     stamp: SessionStamp | None):
        """The client span of one traced :meth:`invoke`."""
        attributes = {"key": ref.key, "rf": ref.rf}
        if stamp is None:
            attributes["readonly"] = True
        else:
            attributes["session"] = stamp.sid
            attributes["seq"] = stamp.seq
        return self.kernel.tracer.span(
            f"dso.invoke:{ref.type_name}.{method}", kind="client",
            endpoint=client, attributes=attributes)

    def _kv_ref(self, key: str, rf: int) -> DsoReference:
        return DsoReference("KvSlot", key, persistent=rf > 1, rf=rf)

    def get(self, client: str, key: str, rf: int = 1) -> Any:
        """Raw 1-value GET (the Table 2 code path)."""
        return self.invoke(client, self._kv_ref(key, rf), "get",
                           ctor=(KvSlot, (), {}),
                           raw_service=self.config.dso.get_service)

    def put(self, client: str, key: str, value: Any, rf: int = 1) -> None:
        """Raw 1-value PUT (the Table 2 code path)."""
        self.invoke(client, self._kv_ref(key, rf), "set", args=(value,),
                    ctor=(KvSlot, (), {}),
                    raw_service=self.config.dso.put_service)

    # ------------------------------------------------------------------
    # Pipelined asynchronous shipping (repro.dso.pipeline)
    # ------------------------------------------------------------------

    def invoke_async(self, client: str, ref: DsoReference, method: str,
                     args: tuple = (), kwargs: dict | None = None,
                     ctor: tuple | None = None, cost: float = 0.0,
                     raw_service: float | None = None) -> DsoFuture:
        """Queue a method invocation for batched shipping.

        Returns a :class:`DsoFuture` immediately; the op joins the
        calling thread's queue on ``client``, which ships when someone
        waits on it (:meth:`flush`, ``future.result()``, a synchronous
        verb) or, if nobody does, when it fills a batch or its flush
        window passes.  One thread's ops on one object apply in
        submission order and its batches ship one at a time; ops of one
        flush on different primaries, and batches of different
        threads, ship concurrently (see :mod:`repro.dso.pipeline` for
        the contract).  The session stamp is drawn here, on the
        submitting thread, so the exactly-once sequence numbers are
        identical to sequential :meth:`invoke` — batching is invisible
        to the dedup machinery.  Cacheable reads bypass the queue
        (served locally or shipped unstamped) and return an
        already-resolved future.
        """
        kwargs = kwargs or {}
        if self.caches.cacheable(ctor, method):
            future = DsoFuture(None, ref, method, args, kwargs, ctor, cost,
                               raw_service, None, None)
            try:
                future._resolve(self.invoke(client, ref, method, args,
                                            kwargs, ctor, cost,
                                            raw_service))
            except Exception as exc:  # noqa: BLE001 - surfaced by result()
                future._fail(exc)
            return future
        key = (client, current_thread().tid)
        pipeline = self._pipelines.get(key)
        if pipeline is None:
            pipeline = self._pipelines[key] = _Pipeline(self, client, key)
        session = self.sessions.current(client)
        future = DsoFuture(pipeline, ref, method, args, kwargs, ctor, cost,
                           raw_service, session, session.stamp(inflight=True))
        pipeline.submit(future)
        return future

    def get_async(self, client: str, key: str, rf: int = 1) -> DsoFuture:
        """Pipelined raw GET (async counterpart of :meth:`get`)."""
        return self.invoke_async(client, self._kv_ref(key, rf), "get",
                                 ctor=(KvSlot, (), {}),
                                 raw_service=self.config.dso.get_service)

    def put_async(self, client: str, key: str, value: Any,
                  rf: int = 1) -> DsoFuture:
        """Pipelined raw PUT (async counterpart of :meth:`put`)."""
        return self.invoke_async(client, self._kv_ref(key, rf), "set",
                                 args=(value,), ctor=(KvSlot, (), {}),
                                 raw_service=self.config.dso.put_service)

    def flush(self, client: str | None = None) -> None:
        """Barrier: block until every async op the *calling thread*
        queued (on ``client``, or on every endpoint) has settled.

        Must run in a simulated thread, which ships those ops itself
        (after letting a batch already in flight land).  Returns once
        each has settled; what other threads queued is neither shipped
        early nor waited for.
        """
        pipelines = self._pipelines
        if not pipelines:
            return
        tid = current_thread().tid
        if client is not None:
            pipeline = pipelines.get((client, tid))
            if pipeline is not None:
                pipeline.drain()
            return
        for (_, owner), pipeline in list(pipelines.items()):
            if owner == tid:
                pipeline.drain()

    # ------------------------------------------------------------------
    # Bulk reads: one request per hosting node
    # ------------------------------------------------------------------

    def read_bulk(self, client: str, refs: Sequence[DsoReference],
                  method: str = "get", per_read_cost: float = 0.0) -> list[Any]:
        """Read many objects with one request per hosting node.

        Used by inference serving (Fig. 8): reading a 200-centroid
        model issues one batched request per node instead of 200
        round trips, but still charges per-object service time, so
        node capacity — the quantity the experiment stresses — is
        modelled faithfully.

        **No cross-object atomicity.**  Each per-node group observes
        its objects at that group's own service instant; a write that
        lands between two groups is seen by the later group only, so
        one bulk read can return *half* of a concurrent multi-object
        update — a fractured read.  This is by design (the sweep is
        the cheapest possible read) and asserted as expected
        behaviour in ``tests/dso/test_txn.py::
        test_read_bulk_fractures_under_mid_sweep_write``.  Callers
        that need an atomic multi-object snapshot must read inside a
        transaction instead (:meth:`transaction` /
        :class:`repro.dso.txn.Txn`), whose read-set validation
        guarantees read-atomic isolation.

        A transient failure retries only the *unfinished* per-node
        groups: objects whose group already completed keep their
        results and are not re-read, so node service time is charged
        once per completed group rather than once per attempt.
        """
        results: list[Any] = [None] * len(refs)
        pending = set(range(len(refs)))

        def attempt() -> None:
            # One pass over the *unfinished* groups.  Each group's
            # indexes leave ``pending`` as soon as its reply lands, so
            # a failure in a later group leaves earlier groups
            # finished — the retry re-reads only what actually failed,
            # instead of re-charging every node for the whole batch.
            groups: dict[str, list[int]] = {}
            for index in sorted(pending):
                placement = self.placements.lookup(refs[index])
                groups.setdefault(placement.replicas[0], []).append(index)
            for primary_name, indexes in sorted(groups.items()):
                node = self.live_node(primary_name)
                self.connect(client, primary_name)
                self.network.transfer(client, primary_name,
                                      [refs[i].ident for i in indexes])
                values = node.read_group([refs[i] for i in indexes],
                                         method, per_read_cost)
                for i, value in zip(indexes, values):
                    results[i] = value
                self.network.transfer(primary_name, client, len(indexes))
                pending.difference_update(indexes)

        self._preflight(client)
        tracer = self.kernel.tracer
        with (tracer.span("dso.read_bulk", kind="client", endpoint=client,
                          attributes={"objects": len(refs)})
              if tracer.enabled else NO_SPAN):
            self._retry_transient(attempt)
            self.stats.invocations += len(refs)
            return ship(results)
