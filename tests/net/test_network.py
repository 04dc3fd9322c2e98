"""Unit tests for the network substrate."""

import pickle

import pytest

from repro.errors import NetworkError, SerializationError
from repro.net import LatencyModel, Network
from repro.net.network import payload_size
from repro.simulation import Kernel
from repro.simulation.thread import now, sleep


@pytest.fixture
def kernel():
    with Kernel(seed=13) as k:
        yield k


@pytest.fixture
def network(kernel):
    net = Network(kernel, LatencyModel(0.010))
    net.register("a")
    net.register("b")
    return net


def test_transfer_charges_latency(kernel, network):
    def main():
        network.transfer("a", "b", {"x": 1})
        return now()

    assert kernel.run_main(main) == pytest.approx(0.010)


def test_transfer_copies_payload(kernel, network):
    original = {"nested": [1, 2, 3]}

    def main():
        return network.transfer("a", "b", original)

    shipped = kernel.run_main(main)
    assert shipped == original
    assert shipped is not original
    assert shipped["nested"] is not original["nested"]


class _CountsEncodes:
    """A payload that counts how often pickle asks it for its form."""

    encodes = 0

    def __reduce__(self):
        type(self).encodes += 1
        return (_CountsEncodes, ())


def test_transfer_encodes_the_payload_once(kernel, network):
    """The one encode both sizes the message and is the shipped copy
    (it used to be two: ``payload_size`` then ``ship``)."""
    _CountsEncodes.encodes = 0
    payload = _CountsEncodes()

    def main():
        return network.transfer("a", "b", payload)

    shipped = kernel.run_main(main)
    assert _CountsEncodes.encodes == 1
    assert isinstance(shipped, _CountsEncodes) and shipped is not payload
    assert network.bytes_sent == len(pickle.dumps(payload))


@pytest.mark.parametrize("scalar", [None, False, 12345678901, 0.25,
                                    "s" * 100, b"b" * 100])
def test_immutable_scalars_are_sized_but_not_copied(kernel, network, scalar):
    def main():
        return network.transfer("a", "b", scalar)

    assert kernel.run_main(main) is scalar
    assert network.bytes_sent == len(pickle.dumps(scalar))


def test_transfer_ships_the_value_as_it_was_at_send_time(kernel, network):
    original = {"nested": [1]}

    def main():
        kernel.call_later(0.005, lambda: original["nested"].append(2))
        return network.transfer("a", "b", original)

    assert kernel.run_main(main) == {"nested": [1]}
    assert original == {"nested": [1, 2]}


@pytest.mark.parametrize("nbytes", [None, 64])
def test_transfer_unserializable_payload_rejected(kernel, network, nbytes):
    """Rejected at send time: no latency charged, nothing counted."""
    def main():
        try:
            network.transfer("a", "b", lambda: None, nbytes=nbytes)
        finally:
            assert now() == 0.0

    with pytest.raises(SerializationError):
        kernel.run_main(main)
    assert network.messages_sent == 0
    assert network.bytes_sent == 0


def test_transfer_to_dead_endpoint_fails(kernel, network):
    network.endpoint("b").crash()

    def main():
        network.transfer("a", "b", 1)

    with pytest.raises(NetworkError):
        kernel.run_main(main)


def test_crash_mid_flight_fails_transfer(kernel, network):
    kernel.call_later(0.005, network.endpoint("b").crash)

    def main():
        network.transfer("a", "b", 1)

    with pytest.raises(NetworkError):
        kernel.run_main(main)


def test_posts_fan_out_in_one_hop_and_deliver_copies(kernel, network):
    """Three one-way messages cost the sender one flight, not three;
    each is delivered at its own arrival, as a shipped copy, and is
    counted like a transfer."""
    network.register("c")
    payload = {"x": [1]}
    arrived = []

    def main():
        flights = [network.post("a", dst, payload,
                                lambda value, dst=dst: arrived.append(
                                    (dst, kernel.now, value)))
                   for dst in ("b", "c", "b")]
        assert now() == 0.0 and arrived == []  # post never blocks
        sleep(max(flights))
        return flights

    flights = kernel.run_main(main)
    assert kernel.now == pytest.approx(0.010)
    assert [(dst, when) for dst, when, _ in arrived] \
        == [("b", flights[0]), ("c", flights[1]), ("b", flights[2])]
    assert all(value == payload and value is not payload
               for _, _, value in arrived)
    assert network.messages_sent == 3
    assert network.bytes_sent == 3 * payload_size(payload)


@pytest.mark.parametrize("fault", ["crash", "crash+restart", "partition"])
def test_post_lost_in_flight_is_not_delivered(kernel, network, fault):
    def lose_b():
        if fault == "partition":
            network.partition({"a"}, {"b"})
        else:
            network.endpoint("b").crash()
            if fault == "crash+restart":
                network.endpoint("b").restart()

    kernel.call_later(0.005, lose_b)
    arrived = []

    def main():
        sleep(network.post("a", "b", 1, arrived.append))
        sleep(0.010)

    kernel.run_main(main)
    assert arrived == []
    assert network.messages_sent == 1  # it did leave


def test_post_to_unreachable_endpoint_fails_at_send(kernel, network):
    network.partition({"a"}, {"b"})

    def main():
        network.post("a", "b", 1, lambda value: None)

    with pytest.raises(NetworkError):
        kernel.run_main(main)
    assert network.messages_sent == 0


def test_dropped_post_is_counted_and_never_delivered(kernel, network):
    network.set_drop_rate("a", "b", 1.0)
    arrived = []

    def main():
        sleep(2 * network.post("a", "b", 1, arrived.append))

    kernel.run_main(main)
    assert arrived == []
    assert (network.messages_sent, network.messages_dropped) == (1, 1)


def test_payload_size_is_pickle_length():
    value = {"nested": [1, 2, 3], "blob": b"x" * 100}
    assert payload_size(value) == len(pickle.dumps(value))


def test_payload_size_rejects_unserializable():
    """Regression: ``payload_size`` used to return 0 for unpicklable
    values, silently sizing the transfer as free for exactly the
    payloads that could never cross a real wire.  It now raises like
    :func:`ship` does."""
    with pytest.raises(SerializationError):
        payload_size(lambda: None)


def test_partition_blocks_both_directions(kernel, network):
    network.partition({"a"}, {"b"})
    assert not network.reachable("a", "b")
    assert not network.reachable("b", "a")
    network.heal()
    assert network.reachable("a", "b")


def test_link_override(kernel, network):
    network.set_link("a", "b", LatencyModel(1.0))

    def main():
        network.transfer("a", "b", None, nbytes=0)
        return now()

    assert kernel.run_main(main) == pytest.approx(1.0)


def test_bandwidth_term(kernel):
    net = Network(kernel, LatencyModel(0.0, bandwidth=1000.0))
    net.register("a")
    net.register("b")

    def main():
        net.transfer("a", "b", None, nbytes=500)
        return now()

    assert kernel.run_main(main) == pytest.approx(0.5)


def test_duplicate_registration_rejected(kernel, network):
    with pytest.raises(NetworkError):
        network.register("a")


def test_unknown_endpoint_rejected(kernel, network):
    with pytest.raises(NetworkError):
        network.endpoint("zzz")


def test_message_accounting(kernel, network):
    def main():
        network.transfer("a", "b", b"xxxx")
        network.transfer("b", "a", b"yyyy")

    kernel.run_main(main)
    assert network.messages_sent == 2
    assert network.bytes_sent > 0


def test_latency_model_mean_and_scaling():
    model = LatencyModel(0.1, sigma=0.0, bandwidth=100.0)
    assert model.mean() == pytest.approx(0.1)
    assert model.mean(nbytes=10) == pytest.approx(0.2)
    assert model.scaled(2.0).base == pytest.approx(0.2)


def test_latency_jitter_is_seeded(kernel):
    model = LatencyModel(0.1, sigma=0.5)
    rng_a = Kernel(seed=1).rng.stream("x")
    rng_b = Kernel(seed=1).rng.stream("x")
    samples_a = [model.sample(rng_a) for _ in range(10)]
    samples_b = [model.sample(rng_b) for _ in range(10)]
    assert samples_a == samples_b
    assert len(set(samples_a)) > 1
