"""Tests for the message-driven replicated state machine."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import MembershipService, Node
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from repro.simulation.thread import sleep, spawn
from tests.oracles.replica import ReplicatedStateMachine


class Register:
    def __init__(self):
        self.value = 0
        self.writes = []

    def write(self, value):
        self.value = value
        self.writes.append(value)
        return value

    def read(self):
        return self.value


def build(kernel, members=3, detection=1.0):
    network = Network(kernel, LatencyModel(0.0005), copy_messages=False)
    network.ensure_endpoint("client")
    membership = MembershipService(kernel,
                                   failure_detection_delay=detection)
    nodes = {}
    for i in range(members):
        node = Node(kernel, network, f"r{i}")
        nodes[node.name] = node
        membership.join(node)
    rsm = ReplicatedStateMachine(kernel, network, membership, Register)
    return network, membership, nodes, rsm


def test_single_op_applied_everywhere():
    with Kernel(seed=181) as kernel:
        _net, _mem, _nodes, rsm = build(kernel)

        def main():
            return rsm.invoke("client", "write", 7)

        assert kernel.run_main(main) == 7
        kernel.run()
        assert all(copy.value == 7 for copy in rsm.copies.values())


def test_concurrent_ops_same_order_at_all_replicas():
    with Kernel(seed=182) as kernel:
        _net, _mem, _nodes, rsm = build(kernel)

        def writer(values):
            for value in values:
                rsm.invoke("client", "write", value)

        def main():
            threads = [spawn(writer, [i * 10 + j for j in range(4)])
                       for i in range(3)]
            for t in threads:
                t.join()

        kernel.run_main(main)
        kernel.run()
        logs = [tuple(rsm.log_of(m)) for m in rsm.copies]
        assert len(logs[0]) == 12
        assert logs[0] == logs[1] == logs[2]
        writes = [tuple(copy.writes) for copy in rsm.copies.values()]
        assert writes[0] == writes[1] == writes[2]


def test_acknowledged_write_survives_crash():
    with Kernel(seed=183) as kernel:
        network, membership, nodes, rsm = build(kernel)

        def main():
            rsm.invoke("client", "write", 42)
            victim = membership.view.members[0]
            nodes[victim].crash()
            membership.report_crash(victim)
            sleep(2.0)  # ride out detection
            return rsm.invoke("client", "read")

        assert kernel.run_main(main) == 42


def test_no_members_rejected():
    with Kernel(seed=184) as kernel:
        network = Network(kernel, LatencyModel(0.0005))
        network.ensure_endpoint("client")
        membership = MembershipService(kernel)
        rsm = ReplicatedStateMachine(kernel, network, membership,
                                     Register)

        def main():
            rsm.invoke("client", "write", 1)

        with pytest.raises(Exception):
            kernel.run_main(main)


def test_joiner_receives_state_transfer():
    with Kernel(seed=185) as kernel:
        network, membership, nodes, rsm = build(kernel, members=2)

        def main():
            rsm.invoke("client", "write", 9)
            node = Node(kernel, network, "late")
            membership.join(node)
            rsm.invoke("client", "write", 10)
            sleep(1.0)

        kernel.run_main(main)
        kernel.run()
        assert rsm.copy_of("late").value == 10
        # The joiner's history includes the pre-join prefix via the
        # state transfer (log copied from a donor).
        assert len(rsm.log_of("late")) >= 2


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 9999),
       batches=st.lists(st.integers(0, 99), min_size=1, max_size=12))
def test_property_replica_states_identical(seed, batches):
    with Kernel(seed=seed) as kernel:
        _net, _mem, _nodes, rsm = build(kernel)

        def main():
            threads = [spawn(lambda v=value: rsm.invoke(
                "client", "write", v)) for value in batches]
            for t in threads:
                t.join()

        kernel.run_main(main)
        kernel.run()
        states = {pickle.dumps(copy.__dict__)
                  for copy in rsm.copies.values()}
        assert len(states) == 1
