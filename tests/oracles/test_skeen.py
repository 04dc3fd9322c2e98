"""Unit and property tests for Skeen's total-order multicast."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from tests.oracles.skeen import SkeenMulticast

MEMBERS = ["m0", "m1", "m2"]


def build(kernel, sigma=0.0, members=MEMBERS):
    network = Network(kernel, LatencyModel(0.001, sigma=sigma),
                      copy_messages=False)
    for m in members:
        network.register(m)
    log: dict[str, list] = {m: [] for m in members}
    group = SkeenMulticast(kernel, network, members,
                           deliver=lambda m, p: log[m].append(p))
    return network, group, log


def test_single_message_delivered_to_all():
    with Kernel(seed=1) as kernel:
        _, group, log = build(kernel)
        group.multicast("m0", "hello")
        kernel.run()
        assert all(log[m] == ["hello"] for m in MEMBERS)


def test_empty_group_rejected():
    with Kernel(seed=1) as kernel:
        network = Network(kernel, LatencyModel(0.001))
        with pytest.raises(ValueError):
            SkeenMulticast(kernel, network, [], deliver=lambda m, p: None)


def test_total_order_two_concurrent_senders():
    with Kernel(seed=2) as kernel:
        _, group, log = build(kernel, sigma=0.4)
        for i in range(10):
            group.multicast("m0", ("a", i))
            group.multicast("m1", ("b", i))
        kernel.run()
        sequences = [tuple(log[m]) for m in MEMBERS]
        assert len(sequences[0]) == 20
        assert sequences[0] == sequences[1] == sequences[2]


def test_on_delivered_callback_fires_per_member():
    with Kernel(seed=3) as kernel:
        _, group, _ = build(kernel)
        delivered = []
        group.multicast("m0", "x", on_delivered=delivered.append)
        kernel.run()
        assert sorted(delivered) == MEMBERS


def test_sender_sequence_preserved_fifo():
    """Messages from one sender are delivered in send order."""
    with Kernel(seed=4) as kernel:
        _, group, log = build(kernel, sigma=0.5)
        for i in range(15):
            group.multicast("m2", i)
        kernel.run()
        for m in MEMBERS:
            assert log[m] == sorted(log[m])


def test_delivery_waits_for_commit():
    """Nothing is delivered before the full three-phase exchange."""
    with Kernel(seed=5) as kernel:
        _, group, log = build(kernel)
        group.multicast("m0", "x")
        # one-way latency is 1ms; request+propose+commit needs >= 3ms.
        kernel.run(until=0.0025)
        assert all(not entries for entries in log.values())
        kernel.run()
        assert all(entries == ["x"] for entries in log.values())


def test_message_to_crashed_member_is_dropped():
    with Kernel(seed=6) as kernel:
        network, group, log = build(kernel)
        network.endpoint("m2").crash()
        group.expected.discard("m2")  # what view synchrony would do
        group.multicast("m0", "x")
        kernel.run()
        assert log["m0"] == ["x"]
        assert log["m1"] == ["x"]
        assert log["m2"] == []


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    batches=st.lists(
        st.tuples(st.sampled_from(MEMBERS), st.integers(0, 99)),
        min_size=1, max_size=25),
)
def test_property_total_order_under_random_delays(seed, batches):
    """All members deliver the exact same sequence, whatever the jitter."""
    with Kernel(seed=seed) as kernel:
        _, group, log = build(kernel, sigma=0.8)
        for sender, value in batches:
            group.multicast(sender, (sender, value))
        kernel.run()
        sequences = {m: tuple(log[m]) for m in MEMBERS}
        assert len(sequences["m0"]) == len(batches)
        assert sequences["m0"] == sequences["m1"] == sequences["m2"]
