"""Unit tests for view-synchronous multicast."""

import pytest

from repro.cluster import MembershipService, Node
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from tests.oracles.view_synchrony import ViewSynchronousGroup


def build(kernel, names=("n0", "n1", "n2"), detection=1.0):
    network = Network(kernel, LatencyModel(0.001), copy_messages=False)
    membership = MembershipService(kernel, failure_detection_delay=detection)
    nodes = {}
    log: dict[str, list] = {}
    views = []
    group = ViewSynchronousGroup(
        kernel, network, membership,
        deliver=lambda m, p: log[m].append(p),
        on_view=views.append)
    for name in names:
        node = Node(kernel, network, name)
        nodes[name] = node
        log[name] = []
        membership.join(node)
    return network, membership, nodes, group, log, views


def test_views_delivered_in_order():
    with Kernel(seed=1) as kernel:
        _, _, _, group, _, views = build(kernel)
        ids = [v.view_id for v in views]
        assert ids == sorted(ids)
        assert views[-1].members == ("n0", "n1", "n2")


def test_multicast_in_current_view():
    with Kernel(seed=2) as kernel:
        _, _, _, group, log, _ = build(kernel)
        group.multicast("n0", "m")
        kernel.run()
        assert all(log[n] == ["m"] for n in ("n0", "n1", "n2"))


def test_multicast_without_view_rejected():
    with Kernel(seed=3) as kernel:
        network = Network(kernel, LatencyModel(0.001))
        membership = MembershipService(kernel)
        group = ViewSynchronousGroup(kernel, network, membership,
                                     deliver=lambda m, p: None)
        with pytest.raises(RuntimeError):
            group.multicast("x", "y")


def test_crash_mid_multicast_is_flushed():
    """A message stalled on a dead member completes at the new view."""
    with Kernel(seed=4) as kernel:
        network, membership, nodes, group, log, _ = build(kernel)
        # Crash n2 immediately; its REQUEST is dropped, so the message
        # stalls until failure detection installs the new view.
        nodes["n2"].crash()
        membership.report_crash("n2")
        group.multicast("n0", "survivor-message")
        kernel.run()
        assert log["n0"] == ["survivor-message"]
        assert log["n1"] == ["survivor-message"]
        assert log["n2"] == []


def test_messages_after_view_change_use_new_membership():
    with Kernel(seed=5) as kernel:
        network, membership, nodes, group, log, _ = build(kernel)
        kernel.run()
        nodes["n1"].crash()
        membership.report_crash("n1")
        kernel.run(until=2.0)  # detection delay is 1s
        assert group.view.members == ("n0", "n2")
        group.multicast("n0", "post-change")
        kernel.run()
        assert log["n0"] == ["post-change"]
        assert log["n2"] == ["post-change"]
        assert log["n1"] == []


def test_join_mid_stream_total_order_among_common_members():
    with Kernel(seed=6) as kernel:
        network, membership, nodes, group, log, _ = build(
            kernel, names=("n0", "n1"))
        group.multicast("n0", 1)
        kernel.run()
        node = Node(kernel, network, "n2")
        log["n2"] = []
        membership.join(node)
        group.multicast("n1", 2)
        kernel.run()
        assert log["n0"] == [1, 2]
        assert log["n1"] == [1, 2]
        assert log["n2"] == [2]  # joined after message 1
