"""A replicated state machine over view-synchronous multicast.

Replicas hold identical copies of a deterministic object.  A client
submits an operation through any *live* member; the operation is
multicast with total-order delivery, every member applies it to its
local copy in delivery order, and a designated responder (the first
live member of the current view — "a distinct replica (primary) is in
charge of sending back the result", Section 4.1) completes the
client's future.

View changes re-home the responder role; operations stalled on a
crashed member are flushed by the view-synchrony layer.  Because every
surviving replica applied the same prefix, any acknowledged operation
survives ``n - 1`` member crashes.

Operations may carry a :class:`repro.dso.session.SessionStamp`; each
member then keeps a session table alongside its copy (included in
state transfer), so a client retransmitting an operation after a
responder crash gets the cached reply instead of applying it twice —
the same exactly-once contract the DSO layer offers.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from repro.cluster.membership import MembershipService, View
from repro.dso.session import SessionStamp, SessionTable
from repro.errors import ServiceUnavailableError, SessionReplayError
from repro.net.network import Network, ship
from repro.simulation.kernel import Kernel
from repro.simulation.primitives import Event
from tests.oracles.view_synchrony import ViewSynchronousGroup


class ReplicatedStateMachine:
    """N replicas of one deterministic object, totally ordered."""

    def __init__(self, kernel: Kernel, network: Network,
                 membership: MembershipService,
                 factory: Callable[[], Any], name: str = "rsm"):
        self.kernel = kernel
        self.network = network
        self.membership = membership
        self.name = name
        self.factory = factory
        #: member -> local copy of the object
        self.copies: dict[str, Any] = {}
        #: member -> applied operation log (op ids, for the tests)
        self.logs: dict[str, list] = {}
        #: member -> exactly-once session table (replicated state)
        self.sessions: dict[str, SessionTable] = {}
        self._ids = itertools.count()
        #: op_id -> {"event": Event, "result": Any, "applied": set}
        self._pending: dict[int, dict] = {}
        self.group = ViewSynchronousGroup(
            kernel, network, membership, deliver=self._deliver,
            on_view=self._on_view)
        for member in membership.view.members:
            self._ensure_copy(member)

    # -- membership ---------------------------------------------------------------

    def _ensure_copy(self, member: str) -> None:
        if member not in self.copies:
            self.copies[member] = self.factory()
            self.logs[member] = []
            self.sessions[member] = SessionTable()

    def _on_view(self, view: View) -> None:
        for member in view.members:
            if member not in self.copies and self.copies:
                # State transfer: a joiner copies a survivor's state —
                # session tables included, so dedup survives the join.
                donor = next(m for m in self.copies
                             if self.network.endpoint(m).alive)
                self.copies[member] = ship(self.copies[donor])
                self.logs[member] = list(self.logs[donor])
                self.sessions[member] = ship(self.sessions[donor])
            else:
                self._ensure_copy(member)
        # Complete acks whose responder died before responding.
        for record in self._pending.values():
            if record["applied"] and not record["event"].is_set() \
                    and record["responder"] not in view.members:
                record["event"].set()

    def _responder(self) -> str:
        view = self.membership.view
        for member in view.members:
            if self.network.endpoint(member).alive:
                return member
        raise ServiceUnavailableError(f"{self.name}: no live replica")

    # -- operation path ----------------------------------------------------------------

    def _deliver(self, member: str, payload: Any) -> None:
        op_id, method, args, stamp = payload
        copy = self.copies.get(member)
        if copy is None:
            return
        entry = None
        if stamp is not None:
            try:
                entry = self.sessions[member].lookup(stamp)
            except SessionReplayError:
                return  # applied here and since truncated
        if entry is not None:
            result = entry.reply  # duplicate: replay, don't re-apply
        else:
            result = getattr(copy, method)(*ship(args))
            self.logs[member].append(op_id)
            if stamp is not None:
                # Total-order delivery means an op recorded here is
                # recorded everywhere: committed from the start.
                self.sessions[member].record(stamp, result,
                                             committed=True)
        record = self._pending.get(op_id)
        if record is None:
            return
        record["applied"].add(member)
        if member == record["responder"]:
            record["result"] = result
            record["event"].set()

    def invoke(self, client: str, method: str, *args: Any,
               session: SessionStamp | None = None) -> Any:
        """Apply ``method`` at every replica; return the result.

        Blocks the calling simulated thread until the responder
        delivered (hence every earlier op is stable at all replicas).
        ``session`` stamps the operation for exactly-once semantics: a
        retransmission with the same stamp replays the cached reply.
        """
        responder = self._responder()
        self.network.transfer(client, responder, (method, args))
        op_id = next(self._ids)
        record = {"event": Event(self.kernel), "result": None,
                  "applied": set(), "responder": responder}
        self._pending[op_id] = record
        self.group.multicast(responder, (op_id, method, ship(args), session))
        record["event"].wait()
        if not record["applied"]:
            raise ServiceUnavailableError(
                f"{self.name}: operation lost in a view change")
        if record["responder"] not in record["applied"]:
            # Responder died mid-protocol; any survivor's result is
            # equal by determinism — re-read from one.
            survivor = next(iter(record["applied"]))
            record["result"] = None if not self.logs[survivor] else \
                record["result"]
        self.network.transfer(responder if
                              self.network.endpoint(responder).alive
                              else self._responder(), client, None)
        del self._pending[op_id]
        return record["result"]

    # -- inspection -----------------------------------------------------------------------

    def copy_of(self, member: str) -> Any:
        return self.copies[member]

    def log_of(self, member: str) -> list:
        return list(self.logs[member])
