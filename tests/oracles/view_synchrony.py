"""View-synchronous total-order multicast.

Section 4.1: "To handle membership changes, the DSO layer relies on a
variation of view synchrony... In a given view, for some object x, the
operations accessing x are sent using total order multicast."

Skeen's algorithm blocks if a member dies before proposing a timestamp.
View synchrony repairs this: when the membership service installs a new
view, every in-flight multicast is *flushed* — proposals awaited only
from surviving members — and subsequent messages use the new view's
membership.  Views are installed in the same total order at every
member, and no message delivery straddles a view boundary.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from repro.cluster.membership import MembershipService, View
from repro.net.network import Network
from repro.simulation.kernel import Kernel
from tests.oracles.skeen import SkeenMulticast

DeliverFn = Callable[[str, Any], None]


class ViewSynchronousGroup:
    """Totally-ordered multicast that survives membership changes."""

    def __init__(self, kernel: Kernel, network: Network,
                 membership: MembershipService, deliver: DeliverFn,
                 on_view: Callable[[View], None] | None = None):
        self.kernel = kernel
        self.network = network
        self.membership = membership
        self.deliver = deliver
        self.on_view = on_view
        self._skeen: SkeenMulticast | None = None
        self._view: View | None = None
        membership.subscribe(self._install_view)
        if membership.view.members:
            self._install_view(membership.view)

    @property
    def view(self) -> View | None:
        return self._view

    def multicast(self, sender: str, payload: Any,
                  on_delivered: Callable[[str], None] | None = None) -> Hashable:
        if self._skeen is None:
            raise RuntimeError("no view installed yet")
        return self._skeen.multicast(sender, payload, on_delivered)

    # -- view installation -------------------------------------------------------

    def _install_view(self, view: View) -> None:
        previous = self._skeen
        self._view = view
        if view.members:
            self._skeen = SkeenMulticast(
                self.kernel, self.network, list(view.members), self.deliver)
        else:
            self._skeen = None
        if previous is not None:
            self._flush(previous, set(view.members))
        if self.on_view is not None:
            self.on_view(view)

    def _flush(self, skeen: SkeenMulticast, survivors: set[str]) -> None:
        """Reconcile unstable messages before the new view.

        View synchrony's flush protocol: survivors exchange every
        *unstable* (in-flight) message, so each one either reaches all
        of them or none.  Concretely, for each in-flight message we

        1. retransmit it to any survivor that never saw the REQUEST
           (covers requests dropped at, or commits stranded in, the
           crashed member — including a crashed *sender*),
        2. recover proposals directly from survivor state (covers
           PROPOSE replies lost with the crash),
        3. assign the final timestamp over survivors only and commit
           at every survivor, bypassing the dead coordinator.

        Departed members' pending queues are dropped (their deliveries
        are moot).
        """
        from tests.oracles.skeen import _Pending

        expected = [m for m in skeen.members if m in survivors]
        skeen.expected = set(expected)
        for member in skeen.members:
            if member not in survivors:
                skeen._states[member].pending.clear()
        for msg_id, flight in list(skeen._in_flight.items()):
            for member in expected:
                state = skeen._states[member]
                if msg_id in state.delivered_ids:
                    continue
                pending = state.pending.get(msg_id)
                if pending is None:
                    # Flush retransmission: propose locally now.
                    state.clock += 1
                    pending = _Pending(
                        payload=flight["payload"],
                        sender=flight["sender"], seq=flight["seq"],
                        timestamp=state.clock)
                    state.pending[msg_id] = pending
                flight["proposals"][member] = max(
                    flight["proposals"].get(member, 0),
                    pending.timestamp)
            for member in list(flight["proposals"]):
                if member not in survivors:
                    del flight["proposals"][member]
            if flight.get("committed"):
                final = flight["final"]
            else:
                live = {m: ts for m, ts in flight["proposals"].items()
                        if m in skeen.expected}
                if not live:
                    continue
                final = max(live.values())
                flight["committed"] = True
                flight["final"] = final
            for member in expected:
                skeen._on_commit(member, msg_id, final)
        for member in expected:
            skeen._try_deliver(member)
