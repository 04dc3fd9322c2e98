"""Property-based tests: SMR replicas stay byte-identical.

The DSO layer replicates through a *cost model* of the ordering round
(``DsoNode.replicate``); :mod:`tests.oracles.replica` implements the
same contract from scratch over message-passing total-order multicast.
Both run the same generated plans here and must satisfy the same
properties — that is what makes the oracle a reference the layer is
checked against.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import MembershipService, Node
from repro.dso import DsoLayer, DsoReference
from repro.dso.session import SessionStamp
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from repro.simulation.thread import spawn
from tests.oracles.replica import ReplicatedStateMachine

REPLICAS = 3


class Ledger:
    """A richer state machine than a counter: ordered log + balances.

    Non-commutative (a transfer bounces or not depending on what came
    first), so replicas that applied different orders diverge visibly.
    Every op carries a ``tag`` naming its issuer and position, which
    makes the log comparable against what clients were acknowledged.
    """

    def __init__(self):
        self.log = []
        self.balances = {}

    def credit(self, tag, account, amount):
        self.balances[account] = self.balances.get(account, 0) + amount
        self.log.append((tag, "credit", account, amount))
        return self.balances[account]

    def transfer(self, tag, src, dst, amount):
        if self.balances.get(src, 0) < amount:
            self.log.append((tag, "bounced", src, dst, amount))
            return False
        self.balances[src] -= amount
        self.balances[dst] = self.balances.get(dst, 0) + amount
        self.log.append((tag, "transfer", src, dst, amount))
        return True

    def snapshot(self):
        return dict(self.balances)


class DsoMachine:
    """One rf=3 Ledger object on the DSO layer's replication path."""

    def __init__(self, kernel, network):
        self.layer = DsoLayer(kernel, network)
        for _ in range(REPLICAS):
            self.layer.add_node()
        self.ref = DsoReference("Ledger", "bank", persistent=True,
                                rf=REPLICAS)

    def invoke(self, method, args):
        return self.layer.invoke("client", self.ref, method, args,
                                 ctor=(Ledger, (), {}))

    def retransmit(self, method, args):
        """The same stamped op shipped twice: a named session replays
        its stamps on re-entry."""
        replies = []
        for _ in range(2):
            with self.layer.session("retransmit"):
                replies.append(self.invoke(method, args))
        return replies

    def copies(self):
        replicas = self.layer.placement_of(self.ref)
        return [self.layer.nodes[name].containers[self.ref.ident].instance
                for name in replicas]


class SmrMachine:
    """The same Ledger behind the oracle's multicast rounds."""

    def __init__(self, kernel, network):
        membership = MembershipService(kernel, failure_detection_delay=1.0)
        for i in range(REPLICAS):
            membership.join(Node(kernel, network, f"r{i}"))
        self.rsm = ReplicatedStateMachine(kernel, network, membership,
                                          Ledger)

    def invoke(self, method, args):
        return self.rsm.invoke("client", method, *args)

    def retransmit(self, method, args):
        stamp = SessionStamp("retransmit", 0)
        return [self.rsm.invoke("client", method, *args, session=stamp)
                for _ in range(2)]

    def copies(self):
        return list(self.rsm.copies.values())


OPS = st.tuples(
    st.sampled_from(["credit", "transfer"]),
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from(["a", "b", "c"]),
    st.integers(1, 50),
)


@pytest.mark.parametrize("machine_cls", [DsoMachine, SmrMachine])
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 9999),
    plans=st.lists(st.lists(OPS, min_size=1, max_size=4),
                   min_size=1, max_size=4),
)
def test_replicas_apply_identical_sequences(machine_cls, seed, plans):
    """After concurrent method streams, every replica of the object
    holds byte-identical state (the SMR contract): one op log
    everywhere, containing exactly the acknowledged ops in an order
    that respects each client's program order, with a stamped
    retransmission applied once."""
    with Kernel(seed=seed) as kernel:
        network = Network(kernel, LatencyModel(0.0001))
        network.ensure_endpoint("client")
        machine = machine_cls(kernel, network)
        acked = []

        def worker(index, plan):
            for position, (op, x, y, amount) in enumerate(plan):
                tag = (index, position)
                if op == "credit":
                    machine.invoke("credit", (tag, x, amount))
                else:
                    machine.invoke("transfer", (tag, x, y, amount))
                acked.append(tag)

        def main():
            threads = [spawn(worker, index, plan)
                       for index, plan in enumerate(plans)]
            for t in threads:
                t.join()
            first, again = machine.retransmit("credit", ("retx", "a", 1))
            assert first == again
            acked.append("retx")

        kernel.run_main(main)
        kernel.run()  # let trailing deliveries reach every replica
        copies = machine.copies()
        assert len(copies) == REPLICAS
        states = [pickle.dumps(copy.__dict__) for copy in copies]
        assert all(state == states[0] for state in states)
        # The log is a permutation of the acknowledged ops (the
        # retransmission counted once) ...
        tags = [entry[0] for entry in copies[0].log]
        assert sorted(tags, key=repr) == sorted(acked, key=repr)
        # ... that preserves every client's program order.
        for index in range(len(plans)):
            mine = [tag for tag in tags
                    if tag != "retx" and tag[0] == index]
            assert mine == sorted(mine)
        # Balances are conserved: sum == total credited.
        credited = sum(entry[3] for entry in copies[0].log
                       if entry[1] == "credit")
        assert sum(copies[0].balances.values()) == credited
