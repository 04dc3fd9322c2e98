"""DSO method shipping, client side: every call is a batch, shipped by
the thread that waits for it.

Every invocation is a :class:`DsoFuture` (the op and, once settled,
its outcome), and every round trip ships a batch of them through one
path: :func:`_attempt`, repeated by the layer's one retry driver.

* :meth:`DsoLayer.invoke` is the batch of one.  The calling thread
  drains its own queue on the endpoint, then ships the op inline — never
  merged into a queued batch, whose ops on other objects it would race.
* :meth:`DsoLayer.invoke_async` stamps the op at **submit** time (so
  exactly-once sequence numbers are those of sequential ``invoke``),
  queues it on the calling *(endpoint, thread)* pair's :class:`_Pipeline`
  and returns the future.
* **Whoever waits ships.**  A thread that blocks on a queue — a
  ``flush()``, a synchronous verb's barrier, any thread's
  ``future.result()`` — ships it.  A pump thread runs only for a queue
  nobody waits on: ``pipeline_flush_window`` after its batch began
  forming, or once it holds ``pipeline_max_batch`` ops.  **One shipper
  per queue**: a waiter lets the batch in flight land before shipping
  the next, so a queue's batches ship in order.
* A batch is grouped **by primary** and the groups ship at once, one
  round trip each; a primary runs its group as **per-object chains** —
  one object's ops in order, as one critical section (a hot key's run of
  writes pays one lease revocation round) sharing one SMR ordering
  round; different objects concurrently, up to ``node_workers`` — and
  one reply carries every outcome back — a method's exception is one,
  recorded, replicated and replayed like a value.  A flush costs its
  slowest primary, and a group its slowest object.  A group of one
  travels bare (:func:`_carry`): a synchronous call's bytes are as ever.

The ordering contract is the paper's (Section 4.1: each object is
linearizable on its own, nothing is promised across objects), and its
unit is the calling thread: its ops on **one object** apply in
submission order (they share a group, and one chain of it); ops of one
flush on **different objects** are concurrent, as if independent
threads had issued them; ``flush()``, ``future.result()`` and every
synchronous verb are **barriers for the calling thread** — they wait for
nothing another thread queued, and different threads' batches overlap.
Cacheable reads never queue: they are served locally or shipped
unstamped as a blocking call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.dso.reference import DsoReference
from repro.dso.server import TRANSIENT, DsoNode
from repro.dso.session import SessionStamp, _ClientSession
from repro.errors import (
    NoSuchObjectError,
    ObjectLostError,
    SerializationError,
    ServiceUnavailableError,
)
from repro.mutation import PLANTED
from repro.net.network import ship as encode
from repro.simulation.primitives import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dso.layer import DsoLayer
    from repro.dso.placement import Placement


@dataclass(slots=True, eq=False)
class DsoFuture:
    """One shipped invocation: its wire arguments and, once it settles,
    its outcome.

    ``result()`` blocks (in virtual time) until the op's reply arrives,
    re-raising any application exception the method raised remotely —
    the same surface a synchronous ``invoke`` has.  Waiting on a queued
    op ships its queue, so a submit-then-wait pattern never stalls for
    the flush window.
    """

    #: The queue the op waits in; ``None`` for a blocking call's.
    _pipeline: _Pipeline | None
    ref: DsoReference
    method: str
    args: tuple
    kwargs: dict
    ctor: tuple | None
    cost: float
    raw_service: float | None
    session: _ClientSession | None
    stamp: SessionStamp | None
    #: Ask the primary for a read lease (a cacheable blocking read).
    lease: bool = False
    #: Where the current attempt ships it.
    placement: Placement | None = field(default=None, init=False)
    lease_version: int | None = field(default=None, init=False)
    _value: Any = field(default=None, init=False)
    _error: BaseException | None = field(default=None, init=False)
    _done: bool = field(default=False, init=False)

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
            self._pipeline.drain(self)
        return self._error

    # -- shipper side ------------------------------------------------------

    def _resolve(self, value: Any) -> None:
        """The reply arrived: acknowledge it, then settle."""
        if self.session is not None:
            self.session.acknowledge(self.stamp.seq)
        self._value = value
        self._done = True

    def _fail(self, error: BaseException) -> None:
        """Give the op up: it will never be retransmitted, so it stops
        holding the session's acknowledgement watermark back."""
        if self.session is not None:
            self.session.abandon(self.stamp.seq)
        self._error = error
        self._done = True


class _Pipeline:
    """One thread's op queue on one endpoint.

    Registered in ``layer._pipelines`` under ``key`` — ``(endpoint,
    tid)`` of the thread that submits to it — from the submit that
    creates it until it is empty with nobody shipping it.
    """

    def __init__(self, layer: DsoLayer, client: str, key: tuple[str, int]):
        self.layer = layer
        self.client = client
        self.key = key
        self.pending: deque[DsoFuture] = deque()
        #: Set while no thread ships this queue.
        self._idle = Event(layer.kernel)
        self._idle.set()
        #: The flush window of a batch forming with nobody shipping.
        self._window = None

    def submit(self, op: DsoFuture) -> None:
        self.pending.append(op)
        self._unattended()

    def drain(self, until: DsoFuture | None = None) -> None:
        """The one barrier: ship this queue, batch by batch, until
        ``until`` has settled (by default: until it is empty).  While
        another thread's batch is in flight, wait for it to land first —
        one shipper per queue, so its batches ship in order."""
        idle = self._idle
        while ((until is None or not until._done)
               and (self.pending or not idle.is_set())):
            if idle.is_set():
                self._claim()
                self._ship_batch()
            elif "second-shipper" in PLANTED and self.pending:
                self._ship_batch()
            else:
                idle.wait()
        self._unattended()

    def _claim(self) -> None:
        """Make the caller (or the pump it spawns) the one shipper."""
        self._idle.clear()
        if self._window is not None:
            self._window.cancel()
            self._window = None

    def _ship_batch(self) -> None:
        """Ship the next batch, then step down as the shipper.  A
        failure that outlives the retry window settles the batch's
        unsettled ops: the shipper itself never dies."""
        layer = self.layer
        pending = self.pending
        batch = [pending.popleft() for _ in range(
            min(len(pending), layer.config.dso.pipeline_max_batch))]
        try:
            layer._retry_transient(_attempt, layer, self.client, batch, None)
        except TRANSIENT as exc:
            for op in batch:
                if not op._done:
                    op._fail(exc)
        finally:
            self._idle.set()

    def _unattended(self) -> None:
        """A queue nobody ships: a full batch gets a pump now, a partial
        one when its flush window passes, and an empty queue retires."""
        if not self._idle.is_set():
            return  # its shipper comes back here when the batch lands
        layer = self.layer
        if not self.pending:
            if layer._pipelines.get(self.key) is self:
                del layer._pipelines[self.key]
        elif len(self.pending) >= layer.config.dso.pipeline_max_batch:
            self._pump()
        elif self._window is None:
            self._window = layer.kernel.call_later(
                layer.config.dso.pipeline_flush_window, self._pump)

    def _pump(self) -> None:
        """Spawn a daemon that ships the batch nobody waits for, then
        drains the queue like any waiter."""
        self._claim()

        def pump() -> None:
            self._ship_batch()
            self.drain()

        self.layer.kernel.spawn(pump, daemon=True,
                                name=f"{self.layer.name}-pipe-{self.client}")


# ---------------------------------------------------------------------------
# The round trip
# ---------------------------------------------------------------------------


def _attempt(layer: DsoLayer, client: str, ops: list[DsoFuture],
             span) -> None:
    """One scatter-gather pass over a batch's unsettled ops, grouped by
    primary in queue order, the groups shipped at once (:func:`_fan_out`).
    A transient failure fails the ops whose object a view change lost
    and surfaces to the retry driver if any op is left.  ``span`` is a
    blocking call's own (its batch records no ``dso.flush`` /
    ``dso.batch`` span and no batch stats), ``None`` for a queue's."""
    placements = layer.placements
    groups: dict[str, list[DsoFuture]] = {}
    items = []
    for op in ops:
        if op._done:
            continue
        try:
            placement = op.placement = placements.lookup(op.ref, op.ctor)
        except (ObjectLostError, NoSuchObjectError,
                ServiceUnavailableError) as exc:
            op._fail(exc)
            continue
        if op.lease:
            op.lease_version = placement.version
        primary = placement.replicas[0]
        if primary in groups:
            groups[primary].append(op)
        else:
            groups[primary] = group = [op]
            items.append((primary, (layer, client, primary, group, span)))
    if not items:
        return
    tracer = layer.kernel.tracer
    try:
        if span is None and tracer.enabled:
            # Lanes spawned inside the span are its children in a trace.
            with tracer.span("dso.flush", kind="client", endpoint=client,
                             attributes={"ops": sum(map(len, groups.values())),
                                         "groups": len(groups)}):
                _fan_out(layer, client, _ship_or_fail, items)
        elif len(items) == 1:  # one primary: no lane to spawn or join
            _ship_or_fail(*items[0][1])
        else:
            _fan_out(layer, client, _ship_or_fail, items)
    except TRANSIENT:
        for op in ops:
            if not op._done and placements.lost(op.ref):
                op._fail(ObjectLostError(
                    f"{op.ref} was lost in a storage-node failure"))
        if not all(op._done for op in ops):
            raise


def _fan_out(layer: DsoLayer, client: str, run,
             items: list[tuple[str, tuple]]) -> None:
    """Run ``run(*args)`` for every ``(label, args)`` item at once.

    The calling thread runs the first item itself and a pooled lane
    thread each other one, so a single item spawns nothing.  Every
    lane is joined before anything leaves; a transient failure of
    any item then surfaces (the first one raised), so the retry
    loop sees exactly the ops that are still unsettled.
    """
    (_, first), *others = items
    lanes = []
    for label, args in others:
        lanes.append(layer.kernel.spawn(
            run, *args, daemon=True,
            name=f"{layer.name}-lane-{client}-{label}"))
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


def _ship_or_fail(layer: DsoLayer, client: str, primary_name: str,
                  group: list[DsoFuture], span) -> None:
    """:func:`_ship_group`, with a failure that no retry can cure
    settling the group's unsettled ops instead of unwinding the
    shipper (or a lane): transient failures propagate to the retry
    driver, nothing else leaves."""
    tracer = layer.kernel.tracer
    try:
        if span is None and tracer.enabled:
            with tracer.span("dso.batch", kind="client", endpoint=client,
                             attributes={"primary": primary_name,
                                         "ops": len(group)}):
                _ship_group(layer, client, primary_name, group, span)
        else:
            _ship_group(layer, client, primary_name, group, span)
    except TRANSIENT:
        raise
    except Exception as exc:  # noqa: BLE001 - delivered, not swallowed
        for op in group:
            if not op._done:
                op._fail(exc)


def _ship_group(layer: DsoLayer, client: str, primary_name: str,
                group: list[DsoFuture], span) -> None:
    """One round trip to one primary.

    One request transfer carries the group; the primary runs it as
    per-object chains (:func:`_run_chain`), concurrent up to
    ``node_workers`` (a wider group runs in waves), so it costs its
    slowest object; one reply transfer brings every outcome back,
    demultiplexed to the futures, a lease grant into the client's
    cache.  An application exception — or an argument or a reply that
    cannot be encoded — fails only its own op, its reply paying the hop
    like any result.  Infrastructure failures abort the group once
    every chain has stopped and surface to the retry driver (ops that
    completed dedup on the retry, when their replies reach the client).

    A cached site's writes carry their own invalidation (see
    :meth:`ObjectCache.ship`) and settle with the reply, fenced at its
    grants' generations, or at the current one if it fails.
    """
    node = layer.live_node(primary_name)
    layer.connect(client, primary_name)
    request = [(op.method, op.args, op.kwargs, op.stamp) for op in group]
    site = writes = None
    if layer.caches.enabled and "writer-unmarked" not in PLANTED:
        writes = [op.ref.ident for op in group if op.stamp is not None]
        site = layer.caches.site(client)
        site.ship(writes)
    shipped = None
    try:
        shipped = _carry(layer, client, primary_name, request)
        # Each op's reply lands in its request's slot: the arrived
        # copies move into the chains below, so the list is free.
        reply = shipped
        if len(group) == 1:  # one op is one chain: no split, no lane
            _run_chain(layer, client, node, [(0, group[0], shipped[0])], reply)
        else:
            chains: dict[Any, list] = {}
            items = []
            for index, op in enumerate(group):
                key = index if "chain-per-op" in PLANTED else op.ref.ident
                if key in chains:
                    chains[key].append((index, op, shipped[index]))
                else:
                    chains[key] = chain = [(index, op, shipped[index])]
                    items.append((f"{primary_name}-{op.ref.key}",
                                  (layer, client, node, chain, reply)))
            _fan_out(layer, client, _run_chain, items)
        try:
            replies = _carry(layer, primary_name, client, reply, True)
        except SerializationError:
            for index, exc in _unencodable(
                    [entry[1:] for entry in reply]).items():
                reply[index] = (False, exc, None)
            replies = _carry(layer, primary_name, client, reply, True)
    except BaseException as exc:
        if site is not None:  # a write may have applied
            for ident in writes:
                site.settle(ident, layer.caches.generation)
        if shipped is not None or not isinstance(exc, SerializationError):
            raise
        # The request itself could not be encoded: nothing ran.
        unencodable = _unencodable(request)
        for index, error in unencodable.items():
            group[index]._fail(error)
        rest = [op for index, op in enumerate(group)
                if index not in unencodable]
        if rest:
            _ship_group(layer, client, primary_name, rest, span)
        return
    if span is None:
        layer.stats.batches += 1
        layer.stats.pipelined_ops += len(group)
    if site is not None:  # every write settles before a grant installs
        for op, (_, _, grant) in zip(group, replies):
            if op.stamp is not None:
                site.settle(op.ref.ident, grant.generation if grant else 0)
    for op, (ok, value, grant) in zip(group, replies):
        if grant is not None:
            layer.caches.store(client, op.ref.ident, grant, grant.generation)
        if ok:
            op._resolve(value)
        else:
            op._fail(value)


def _run_chain(layer: DsoLayer, client: str, node: DsoNode, chain: list,
               reply: list) -> None:
    """One object's ops of a group, at its primary, in submission
    order, as one critical section: the object's lock and a worker
    are taken once (:meth:`DsoNode.hold`), every op runs under them,
    and they are released after the last.  So no other site's read is
    leased the object between two of the chain's writes, and the
    chain pays one lease revocation round, not one per write, and
    refreshes the holders it reached as the section ends.  The
    chain's replicated ops share one SMR ordering round; each op's
    reply entry (``(False, error, None)`` for an error raised before or
    outside apply) lands in ``reply`` at the op's place in the group."""
    smr_context: dict = {}
    call = node.hold(chain[0][1].ref)
    try:
        for index, op, (method, args, kwargs, stamp) in chain:
            try:
                reply[index] = node.execute(
                    call, client, op.ref, method, args, kwargs, op.cost,
                    op.raw_service, stamp, op.placement, op.lease_version,
                    smr_context)
            except TRANSIENT:
                raise
            except Exception as exc:  # noqa: BLE001 - raised outside apply
                reply[index] = (False, exc, None)
        if call.refresh:
            node.refresh_leases(call, client)
    finally:
        call.release()


def _carry(layer: DsoLayer, src: str, dst: str, entries: list,
           reply: bool = False) -> list:
    """Move a group's request or reply entries in one transfer; return
    them as they arrive.

    The wire rule: **a group of one travels bare**, its entry and not a
    list, and **only a grant fills a reply's grant slot**.  A request
    entry is ``(method, args, kwargs, stamp)``; a reply entry ``(ok,
    value, grant)`` travels as ``(ok, value[, grant])`` in a larger group
    and alone as ``value`` or ``(value, grant)``, its ``ok`` riding in
    the reply's status, which like every header (the grant's lease
    generation too) costs no bytes: a synchronous put gets 4 B back.
    """
    transfer = layer.network.transfer
    if len(entries) > 1:
        if not reply:
            return transfer(src, dst, entries)
        arrived = transfer(src, dst, [entry[:2] if entry[2] is None
                                      else entry for entry in entries])
        for entry, (_, _, grant) in zip(arrived, entries):
            if grant is not None:
                entry[2].generation = grant.generation
        return [(*entry, None)[:3] for entry in arrived]
    (entry,) = entries
    if not reply:
        return [transfer(src, dst, entry)]
    ok, value, grant = entry
    if grant is None:
        return [(ok, transfer(src, dst, value), None)]
    value, arrived = transfer(src, dst, (value, grant))
    arrived.generation = grant.generation  # a header, like ``ok``
    return [(ok, value, arrived)]


def _unencodable(entries: list) -> dict[int, SerializationError]:
    """Which entries of a message that failed to encode cannot cross
    the wire on their own, with the error each raises.  Only a failed
    transfer asks: the hot path encodes a group once, as a whole."""
    found = {}
    for index, entry in enumerate(entries):
        try:
            encode(entry)
        except SerializationError as exc:
            found[index] = exc
    return found
