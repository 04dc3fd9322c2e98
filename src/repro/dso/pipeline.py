"""Pipelined + batched DSO method shipping (client side).

``DsoLayer.invoke`` is one synchronous round trip per op: the caller
pays two client<->server hops for every invocation, even when it does
not need the reply yet.  This module adds the asynchronous path
Cloudburst-style stateful-serverless systems use to amortize that cost:

* :meth:`DsoLayer.invoke_async` stamps the op with the caller's session
  (at **submit** time, on the submitting thread — so exactly-once
  sequence numbers are exactly what they would be for sequential
  ``invoke``), enqueues it on the :class:`_Pipeline` of the calling
  *(endpoint, simulated thread)* pair, and returns a
  :class:`DsoFuture` immediately.
* The pipeline's pump thread flushes the queue when it reaches
  ``pipeline_max_batch`` ops, when ``pipeline_flush_window`` of virtual
  time has passed since the batch started forming, or when someone
  blocks on a future / calls ``flush()``.  A pump lives only while its
  queue has work: once nothing is queued or in flight it retires with
  its pipeline, and the thread's next submit starts a fresh one (a
  pooled worker, so a thread that used ``put_async`` once pins
  nothing).
* At flush time the batch is grouped **by primary** (scatter) and every
  group ships as one round trip, all groups at once (gather): one
  request transfer carries the whole group, the primary runs it as
  **per-object chains** — one object's ops in submission order,
  sharing one SMR ordering round; different objects concurrently, up
  to ``node_workers`` — where each chain holds its object's lock once,
  as one critical section (so a hot key's run of writes pays one lease
  revocation round, not one per write), and every op still
  deduplicates against the session table and charges its own service
  time; one reply transfer carries the results back, demultiplexed to
  the futures.  A flush costs its slowest primary's round trip, and a
  group its slowest object, not the sums.

The ordering contract is the paper's (Section 4.1: each object is
linearizable on its own, nothing is promised across objects), and its
unit is the calling thread — per-thread program order is the strongest
order anyone can ask for:

* one thread's ops on **one object** apply in submission order — an
  object has one primary, so its ops share a group, and one chain of
  it that keeps queue order;
* ops of one flush on **different objects** are concurrent, exactly
  as if independent threads had issued them;
* ``flush()``, ``future.result()`` and every synchronous verb
  (``invoke``, ``read_bulk``, ``read_any``, which drain the caller's
  own queue on that endpoint first) are **barriers for the calling
  thread**: what this thread submitted before one completes before
  anything it does after, so mixed sync/async code keeps its program
  order.  A barrier waits for nothing another thread queued.

One thread's batches ship one at a time; batches of different threads
overlap, as the threads themselves would.  Leases and cacheable reads
bypass the pipeline entirely (they are either served locally or
idempotent and unstamped).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.dso.reference import DsoReference
from repro.dso.server import TRANSIENT, DsoNode, StaleContainer
from repro.dso.session import SessionStamp, _ClientSession
from repro.errors import (
    NoSuchObjectError,
    ObjectLostError,
    SerializationError,
    ServiceUnavailableError,
)
from repro.mutation import PLANTED
from repro.net.network import ship
from repro.simulation.primitives import Condition, Event
from repro.trace.tracer import NO_SPAN

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dso.layer import DsoLayer


class DsoFuture:
    """Handle to one asynchronously shipped invocation.

    ``result()`` blocks (in virtual time) until the op's reply arrives,
    re-raising any application exception the method raised remotely —
    the same surface a synchronous ``invoke`` would have had.  Blocking
    on an unflushed future requests an immediate flush first, so a
    submit-then-wait pattern never stalls for the flush window.
    """

    __slots__ = ("_pipeline", "_event", "_value", "_error", "_done")

    def __init__(self, pipeline: "_Pipeline | None" = None):
        self._pipeline = pipeline
        self._event = (Event(pipeline.layer.kernel)
                       if pipeline is not None else None)
        self._value: Any = None
        self._error: BaseException | None = None
        self._done = False

    @property
    def done(self) -> bool:
        """Whether the reply (or failure) has arrived."""
        return self._done

    def result(self) -> Any:
        """Wait for and return the op's reply."""
        if self.exception() is not None:
            raise self._error
        return self._value

    def exception(self) -> BaseException | None:
        """Wait for completion; the failure, or ``None`` on success."""
        if not self._done:
            self._pipeline.request_flush()
            self._event.wait()
        return self._error

    # -- pump side ---------------------------------------------------------

    def _resolve(self, value: Any) -> None:
        self._value = value
        self._done = True
        if self._event is not None:
            self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done = True
        if self._event is not None:
            self._event.set()


@dataclass(slots=True, eq=False)
class _PendingOp:
    """One queued invocation: wire arguments plus client-side context."""

    ref: DsoReference
    method: str
    args: tuple
    kwargs: dict
    ctor: tuple | None
    cost: float
    raw_service: float | None
    session: _ClientSession
    stamp: SessionStamp
    future: DsoFuture

    def resolve(self, value: Any) -> None:
        """The reply arrived: acknowledge it, then wake the caller."""
        self.session.acknowledge(self.stamp.seq)
        self.future._resolve(value)

    def fail(self, error: BaseException) -> None:
        """Give the op up: it will never be retransmitted, so it stops
        holding the session's acknowledgement watermark back."""
        self.session.abandon(self.stamp.seq)
        self.future._fail(error)


class _Pipeline:
    """One thread's op queue on one endpoint, plus the daemon pump that
    flushes it while it has work.

    Registered in ``layer._pipelines`` under ``key`` — ``(endpoint,
    tid)`` of the thread that submits to it — from the submit that
    creates it until the pump retires, so a registered pipeline always
    has ops queued or in flight.
    """

    def __init__(self, layer: DsoLayer, client: str, key: tuple[str, int]):
        self.layer = layer
        self.client = client
        self.key = key
        self.pending: deque[_PendingOp] = deque()
        self._cv = Condition(layer.kernel)
        self._flush_requested = False
        #: Ops taken off the queue and currently executing in the pump.
        self.inflight = 0
        layer.kernel.spawn(self._run, daemon=True,
                           name=f"{layer.name}-pipe-{client}")

    def submit(self, op: _PendingOp) -> None:
        with self._cv:
            self.pending.append(op)
            self._cv.notify_all()

    def request_flush(self) -> None:
        """Flush now instead of waiting out the batching window."""
        with self._cv:
            self._flush_requested = True
            self._cv.notify_all()

    def drain(self) -> None:
        """Block until every op queued here has settled: the one
        barrier.  Only the owning thread submits here, so these are
        exactly the ops the calling thread queued on this endpoint."""
        with self._cv:
            self._flush_requested = True
            self._cv.notify_all()
            while self.pending or self.inflight:
                self._cv.wait()

    def _run(self) -> None:
        timings = self.layer.config.dso
        kernel = self.layer.kernel
        while True:
            with self._cv:
                if not self.pending:
                    # Nothing queued and nothing in flight: retire.
                    # The owner's next submit registers a new pipeline.
                    del self.layer._pipelines[self.key]
                    return
                # Let a partial batch fill up, bounded by the window.
                window_end = kernel.now + timings.pipeline_flush_window
                while (not self._flush_requested
                       and len(self.pending) < timings.pipeline_max_batch):
                    remaining = window_end - kernel.now
                    if remaining <= 0:
                        break
                    self._cv.wait(remaining)
                batch = []
                while self.pending and len(batch) < timings.pipeline_max_batch:
                    batch.append(self.pending.popleft())
                self.inflight = len(batch)
            try:
                self._run_batch(batch)
            finally:
                with self._cv:
                    self.inflight = 0
                    self._cv.notify_all()

    def _run_batch(self, ops: list[_PendingOp]) -> None:
        """Ship one flushed batch, retrying transient failures.

        A transient infrastructure failure retries only the unfinished
        ops; ops that already applied dedup against the session table
        on the retry, so a re-shipped batch never double-applies.  At
        the retry deadline the surviving failure is delivered to every
        unfinished future — the pump thread itself never dies.
        """
        layer = self.layer
        remaining = [op for op in ops if not op.future.done]
        if not remaining:
            return
        deadline = layer.retry_deadline()
        attempts = 0
        while remaining:
            attempts += 1
            try:
                self._attempt(remaining)
            except TRANSIENT as exc:
                layer.stats.retries += 1
                survivors = []
                for op in remaining:
                    if op.future.done:
                        continue
                    if layer.placements.lost(op.ref):
                        op.fail(ObjectLostError(
                            f"{op.ref} was lost in a storage-node "
                            f"failure"))
                    else:
                        survivors.append(op)
                remaining = survivors
                # Same deadline/backoff step as the blocking verbs, but
                # failures land in the futures instead of unwinding
                # the pump thread.
                if remaining and not layer.backoff(attempts, deadline):
                    for op in remaining:
                        op.fail(exc)
                    return
            else:
                return  # a clean pass settles every op it was given

    def _fan_out(self, run, items: list[tuple[str, tuple]]) -> None:
        """Run ``run(*args)`` for every ``(label, args)`` item at once.

        The calling thread runs the first item itself and a pooled lane
        thread each other one, so a single item spawns nothing.  Every
        lane is joined before anything leaves; a transient failure of
        any item then surfaces (the first one raised), so the retry
        loop sees exactly the ops that are still unfinished.
        """
        layer = self.layer
        (_, first), *others = items
        lanes = [layer.kernel.spawn(
                     run, *args, daemon=True,
                     name=f"{layer.name}-lane-{self.client}-{label}")
                 for label, args in others]
        failure = None
        try:
            run(*first)
        except TRANSIENT as exc:
            failure = exc
        for lane in lanes:
            try:
                lane.join()  # re-raises what the lane raised
            except TRANSIENT as exc:
                if "swallow-lane-error" not in PLANTED:
                    failure = failure or exc
        if failure is not None:
            raise failure

    def _attempt(self, ops: list[_PendingOp]) -> None:
        """One scatter-gather pass over a batch: grouped by primary,
        queue order kept, the groups shipped at once (:meth:`_fan_out`)."""
        layer = self.layer
        groups: dict[str, list[_PendingOp]] = {}
        for op in ops:
            if op.future.done:
                continue
            try:
                placement = layer.placements.lookup(op.ref, op.ctor)
            except (ObjectLostError, NoSuchObjectError,
                    ServiceUnavailableError) as exc:
                op.fail(exc)
                continue
            groups.setdefault(placement.replicas[0], []).append(op)
        if not groups:
            return
        tracer = layer.kernel.tracer
        with (tracer.span("dso.flush", kind="client", endpoint=self.client,
                          attributes={"ops": sum(map(len, groups.values())),
                                      "groups": len(groups)})
              if tracer.enabled else NO_SPAN):
            # Lanes spawned inside the span are its children in a trace.
            self._fan_out(self._ship_or_fail,
                          [(primary, (primary, group))
                           for primary, group in groups.items()])

    def _ship_or_fail(self, primary_name: str,
                      group: list[_PendingOp]) -> None:
        """:meth:`_ship_group`, with a failure that no retry can cure
        delivered to the group's unfinished futures instead of
        unwinding the pump (or a lane): transient failures propagate
        to the retry loop, nothing else leaves."""
        try:
            self._ship_group(primary_name, group)
        except TRANSIENT:
            raise
        except Exception as exc:  # noqa: BLE001 - delivered, not swallowed
            for op in group:
                if not op.future.done:
                    op.fail(exc)

    def _ship_group(self, primary_name: str,
                    group: list[_PendingOp]) -> None:
        """One batched round trip to one primary.

        A single request transfer carries every op of the group; the
        primary runs them as per-object chains (:meth:`_run_chain`),
        each one critical section on its object, the chains
        concurrent up to ``node_workers`` — a wider group runs in
        waves on the node's worker semaphore — so the group costs its
        slowest object, not the sum; a single reply transfer carries
        the results back, demultiplexed to the futures.  Application
        exceptions — and an argument or a reply that cannot be encoded
        — fail only their own future; infrastructure failures abort
        the group once every chain has stopped and surface to the retry
        loop (completed-but-unacknowledged ops dedup on the retry,
        which is when their replies reach the client).
        """
        layer = self.layer
        client = self.client
        node = layer.live_node(primary_name)
        layer.connect(client, primary_name)
        tracer = layer.kernel.tracer
        with (tracer.span("dso.batch", kind="client", endpoint=client,
                          attributes={"primary": primary_name,
                                      "ops": len(group)})
              if tracer.enabled else NO_SPAN):
            request = [(op.method, op.args, op.kwargs, op.stamp)
                       for op in group]
            try:
                shipped = layer.network.transfer(client, primary_name,
                                                 request)
            except SerializationError:
                unencodable = _unencodable(request)
                for index, exc in unencodable.items():
                    group[index].fail(exc)
                group = [op for index, op in enumerate(group)
                         if index not in unencodable]
                if not group:
                    return
                shipped = layer.network.transfer(
                    client, primary_name,
                    [entry for index, entry in enumerate(request)
                     if index not in unencodable])
            chains: dict[Any, list] = {}
            for index, (op, wire) in enumerate(zip(group, shipped)):
                chain = index if "chain-per-op" in PLANTED else op.ref.ident
                chains.setdefault(chain, []).append((index, op, wire))
            reply: list = [None] * len(group)
            self._fan_out(self._run_chain,
                          [(f"{primary_name}-{chain[0][1].ref.key}",
                            (node, chain, reply))
                           for chain in chains.values()])
            try:
                replies = layer.network.transfer(primary_name, client, reply)
            except SerializationError:
                for index, exc in _unencodable(reply).items():
                    reply[index] = (False, exc)
                replies = layer.network.transfer(primary_name, client, reply)
            layer.stats.batches += 1
            layer.stats.pipelined_ops += len(group)
            for op, (ok, value) in zip(group, replies):
                if ok:
                    op.resolve(value)
                else:
                    op.fail(value)

    def _run_chain(self, node: DsoNode, chain: list, reply: list) -> None:
        """One object's ops of a group, at its primary, in submission
        order, as one critical section: the object's lock and a worker
        are taken once (:meth:`DsoNode.hold`), every op runs under
        them, and they are released after the last.  So no other
        site's read is leased the object between two of the chain's
        writes, and the chain pays one lease revocation round, not one
        per write.  The chain's replicated ops share one SMR ordering
        round; each op's ``(ok, value)`` lands in ``reply`` at the op's
        place in the group."""
        placements = self.layer.placements
        smr_context: dict = {}
        call = node.hold(chain[0][1].ref)
        try:
            for index, op, (method, args, kwargs, stamp) in chain:
                placement = placements.live(op.ref)
                if placement is None:
                    raise StaleContainer(f"{op.ref} no longer placed")
                if placement.replicas[0] != node.name:
                    raise StaleContainer(
                        f"{op.ref} moved off {node.name} mid-batch")
                try:
                    result, _ = node.execute(
                        call, self.client, op.ref, method, args, kwargs,
                        op.cost, op.raw_service, stamp, placement,
                        smr_context=smr_context)
                except TRANSIENT:
                    raise
                except Exception as exc:  # noqa: BLE001 - app-level error
                    reply[index] = (False, exc)
                else:
                    reply[index] = (True, result)
        finally:
            call.release()


def _unencodable(entries: list) -> dict[int, SerializationError]:
    """Which entries of a message that failed to encode cannot cross
    the wire on their own, with the error each raises.  Only a failed
    transfer asks: the hot path encodes a group once, as a whole."""
    found = {}
    for index, entry in enumerate(entries):
        try:
            ship(entry)
        except SerializationError as exc:
            found[index] = exc
    return found
