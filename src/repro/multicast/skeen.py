"""Skeen's total-order multicast (Birman & Joseph '87 formulation).

This is the algorithm Infinispan/JGroups use for total-order delivery
(Section 5: "The current implementation uses Skeen's algorithm").

Protocol for a message ``m`` from sender ``s`` to group ``G``:

1. ``s`` sends ``REQUEST(m)`` to every member of ``G``.
2. Each member ``i`` increments its logical clock, stores ``m`` as
   *pending* with proposed timestamp ``clock_i``, and replies
   ``PROPOSE(m, clock_i)``.
3. When ``s`` has every proposal it assigns the *final* timestamp
   ``max_i(clock_i)`` and sends ``COMMIT(m, final)``.
4. On commit, members mark ``m`` deliverable with its final timestamp
   and deliver pending messages in timestamp order — a deliverable
   message is delivered once no pending (uncommitted) message could
   receive a smaller final timestamp.

Ties are broken by ``(timestamp, sender, sequence)``, which is a total
order, so all members deliver identical sequences — the property the
test suite checks with randomized delays (hypothesis).

Messages travel through :class:`~repro.net.network.Network` timers;
delivery callbacks run in kernel context and must not block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from repro.net.network import Network
from repro.simulation.kernel import Kernel

DeliverFn = Callable[[str, Any], None]  # (member, payload)


@dataclass
class _Pending:
    payload: Any
    sender: str
    seq: int
    timestamp: int
    committed: bool = False

    def order_key(self) -> tuple[int, str, int]:
        return (self.timestamp, self.sender, self.seq)


@dataclass
class _MemberState:
    clock: int = 0
    pending: dict[Hashable, _Pending] = field(default_factory=dict)
    delivered_ids: set = field(default_factory=set)


class SkeenMulticast:
    """A closed group of members exchanging totally-ordered messages."""

    def __init__(self, kernel: Kernel, network: Network,
                 members: list[str], deliver: DeliverFn):
        if not members:
            raise ValueError("a multicast group needs at least one member")
        self.kernel = kernel
        self.network = network
        self.members = list(members)
        #: Members whose proposals are required before commit; view
        #: synchrony shrinks this set when a member is expelled.
        self.expected: set[str] = set(members)
        self.deliver = deliver
        self._states = {m: _MemberState() for m in members}
        self._seq = itertools.count()
        #: msg_id -> {"proposals": {member: ts}, "payload", "sender",
        #:            "seq", "on_delivered": {member: cb}}
        self._in_flight: dict[Hashable, dict] = {}
        #: Per-link earliest next delivery time; models the FIFO (TCP)
        #: channels JGroups runs over, without which Skeen's algorithm
        #: would not preserve per-sender order.
        self._link_clock: dict[tuple[str, str], float] = {}

    # -- API -------------------------------------------------------------------

    def multicast(self, sender: str, payload: Any,
                  on_delivered: Callable[[str], None] | None = None) -> Hashable:
        """Send ``payload`` to the whole group in total order.

        ``on_delivered(member)`` fires (in kernel context) each time a
        member delivers the message.  Returns the message id.
        """
        seq = next(self._seq)
        msg_id = (sender, seq)
        # One span covers the whole protocol round: request fan-out
        # through the last expected member's delivery.  It is not
        # activated (the protocol advances via kernel timers, not the
        # calling thread) and is closed by ``_try_deliver``.
        span = self.kernel.tracer.start_span(
            "multicast.total_order", kind="producer", endpoint=sender,
            attributes={"members": len(self.members)}, activate=False)
        self._in_flight[msg_id] = {
            "proposals": {},
            "payload": payload,
            "sender": sender,
            "seq": seq,
            "on_delivered": on_delivered,
            "span": span,
            "deliveries": 0,
        }
        for member in self.members:
            self._send(sender, member,
                       lambda m=member: self._on_request(m, msg_id))
        return msg_id

    def _send(self, src: str, dst: str, action: Callable[[], None]) -> None:
        """Deliver ``action`` at ``dst`` after link latency.

        Messages to/from crashed or partitioned endpoints are silently
        dropped (fail-stop model); view synchrony unblocks the stalled
        multicast when the membership change is installed.
        """
        if not self.network.reachable(src, dst):
            return
        arrival = self.kernel.now + self.network.delay(src, dst)
        link = (src, dst)
        arrival = max(arrival, self._link_clock.get(link, 0.0))
        self._link_clock[link] = arrival
        epoch = self.network.endpoint(dst).epoch

        def deliver_if_alive():
            if self.network.reachable(src, dst) and \
                    self.network.endpoint(dst).epoch == epoch:
                action()

        self.kernel.call_at(arrival, deliver_if_alive)

    # -- protocol steps ----------------------------------------------------------

    def _on_request(self, member: str, msg_id: Hashable) -> None:
        flight = self._in_flight.get(msg_id)
        if flight is None:
            return
        state = self._states[member]
        if msg_id in state.pending or msg_id in state.delivered_ids:
            return  # duplicate (e.g. flush retransmitted it already)
        state.clock += 1
        state.pending[msg_id] = _Pending(
            payload=flight["payload"], sender=flight["sender"],
            seq=flight["seq"], timestamp=state.clock)
        self._send(member, flight["sender"],
                   lambda m=member, ts=state.clock:
                   self._on_propose(msg_id, m, ts))

    def _on_propose(self, msg_id: Hashable, member: str, timestamp: int) -> None:
        flight = self._in_flight.get(msg_id)
        if flight is None:
            return
        flight["proposals"][member] = timestamp
        self._maybe_commit(msg_id)

    def _maybe_commit(self, msg_id: Hashable) -> None:
        flight = self._in_flight.get(msg_id)
        if flight is None or flight.get("committed"):
            return
        proposals = flight["proposals"]
        if not all(m in proposals for m in self.expected):
            return
        live = {m: ts for m, ts in proposals.items() if m in self.expected}
        if not live:
            return
        flight["committed"] = True
        final = max(live.values())
        flight["final"] = final
        for target in self.members:
            self._send(flight["sender"], target,
                       lambda m=target: self._on_commit(m, msg_id, final))

    def _on_commit(self, member: str, msg_id: Hashable, final: int) -> None:
        state = self._states[member]
        pending = state.pending.get(msg_id)
        if pending is None:
            return
        pending.timestamp = final
        pending.committed = True
        state.clock = max(state.clock, final)
        self._try_deliver(member)

    def _try_deliver(self, member: str) -> None:
        state = self._states[member]
        while state.pending:
            head = min(state.pending.values(), key=_Pending.order_key)
            if not head.committed:
                return
            # Any uncommitted message's final timestamp will be >= its
            # proposal; head is safe only if it precedes every proposal.
            msg_id = next(k for k, v in state.pending.items() if v is head)
            del state.pending[msg_id]
            state.delivered_ids.add(msg_id)
            self.deliver(member, head.payload)
            flight = self._in_flight.get(msg_id)
            if flight is None:
                continue
            if flight["on_delivered"] is not None:
                flight["on_delivered"](member)
            flight["deliveries"] += 1
            if flight["deliveries"] >= len(self.expected):
                self.kernel.tracer.end_span(flight["span"])
