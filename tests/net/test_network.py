"""Unit tests for the network substrate."""

import pickle
import threading

import numpy as np
import pytest

from repro.errors import NetworkError, SerializationError
from repro.net import LatencyModel, Network
from repro.net.network import (MAPPED_BUFFER_BYTES, payload_size, ship,
                                ship_sized)
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


class _Point:
    """A user class: always crosses by pickle."""

    def __init__(self, x):
        self.x = x


class _Sub(np.ndarray):
    pass


class _Fields:
    """A user class with named fields, as a CloudThread's Runnable: it
    crosses by the out-of-band round trip."""

    def __init__(self, **fields):
        vars(self).update(fields)


def _runnables():
    """User objects holding each array layout the out-of-band round
    trip copies, and the in-band ones around them."""
    large = np.arange(MAPPED_BUFFER_BYTES // 8, dtype=np.float64)
    read_only = np.arange(4.0)
    read_only.flags.writeable = False
    base = np.arange(10)
    return {
        "user: large and small": _Fields(large=large, small=np.arange(3)),
        "user: large F-order": _Fields(f=np.asfortranarray(
            large.reshape(128, -1))),
        "user: read-only": _Fields(weights=read_only),
        "user: non-contiguous view": _Fields(strided=large[::3]),
        "user: transposed": _Fields(axes=np.arange(24.0).reshape(
            2, 3, 4).transpose(1, 0, 2)),
        "user: view of a field": _Fields(base=base, window=base[2:6]),
        "user: one array twice": _Fields(a=base, b=base),
        "user: bytearray": _Fields(blob=bytearray(b"abc"), n=1),
        "user: 0-d": _Fields(scalar=np.array(7.5)),
    }


def _wire_payloads():
    read_only = np.arange(5.0)
    read_only.flags.writeable = False
    shared = np.arange(3)
    cyclic = [1]
    cyclic.append(cyclic)
    tuple_cycle = ([],)
    tuple_cycle[0].append(tuple_cycle)
    return {
        **{f"kind-{code}": np.arange(6).astype(code).reshape(2, 3)
           for code in ("?", "i1", "i8", "u2", "u8", "f2", "f4", "f8",
                        "c8", "c16")},
        "numpy-scalars": [np.float64(1.5), np.int64(-3), np.bool_(True)],
        "0-d": np.array(2.5),
        "fortran": np.asfortranarray(np.arange(12.0).reshape(3, 4)),
        "non-contiguous": np.arange(20).reshape(4, 5)[:, ::2],
        "read-only": read_only,
        "[a, a]": [shared, shared],
        "self-referencing list": cyclic,
        "tuple in a cycle": tuple_cycle,
        "nested": {"a": (1, (2.0, np.ones(2))),
                   ("k", 1): {"x": [np.zeros((2, 2)), None, "s"]}},
        "subclass": np.arange(3).view(_Sub),
        "object dtype": np.array([1, "x", None], dtype=object),
        "structured": np.zeros(2, dtype=[("a", "i4"), ("b", "f8")]),
        "user class": _Point([np.arange(2), {"y": 1}]),
        **_runnables(),
    }


def _assert_same_form(got, want, seen):
    """``got`` matches ``want`` in type, array form and values, and in
    which of its parts are one object (``seen`` pairs their ids)."""
    assert type(got) is type(want)
    if type(got) in (type(None), bool, int, float, str, bytes) \
            or isinstance(got, np.generic):
        assert got == want
        return
    if id(got) in seen:
        assert seen[id(got)] == id(want)
        return
    assert id(want) not in seen.values()
    seen[id(got)] = id(want)
    if isinstance(got, bytearray):
        assert got == want
        return
    if isinstance(got, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tolist() == want.tolist()
        for flag in ("c_contiguous", "f_contiguous", "writeable"):
            assert getattr(got.flags, flag) == getattr(want.flags, flag)
        return
    if isinstance(got, dict):
        assert list(got) == list(want)
        pairs = zip(got.values(), want.values())
    elif isinstance(got, (list, tuple)):
        assert len(got) == len(want)
        pairs = zip(got, want)
    else:
        pairs = zip(vars(got).values(), vars(want).values())
    for got_item, want_item in pairs:
        _assert_same_form(got_item, want_item, seen)


def _arrays(value, seen):
    """Every ndarray reachable from ``value``."""
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        items = value.values()
    elif isinstance(value, (list, tuple)):
        items = value
    else:
        items = vars(value).values() if hasattr(value, "__dict__") else ()
    return [array for item in items for array in _arrays(item, seen)]


def _mutate(value, seen):
    """Write into every list, dict, bytearray and numeric array
    reachable from ``value``."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        if value.flags.writeable and value.dtype.kind in "biufc":
            value[...] = ~value if value.dtype.kind == "b" else value + 1
    elif isinstance(value, bytearray):
        value[:] = b"mutated"
    elif isinstance(value, list):
        for item in list(value):
            _mutate(item, seen)
        value.append("mutated")
    elif isinstance(value, dict):
        for item in list(value.values()):
            _mutate(item, seen)
        value["mutated"] = True
    elif isinstance(value, tuple):
        for item in value:
            _mutate(item, seen)
    elif hasattr(value, "__dict__"):
        _mutate(vars(value), seen)


@pytest.mark.parametrize("label", list(_wire_payloads()))
def test_ship_matches_the_pickle_round_trip(label):
    """Every way onto the wire arrives as pickle's round trip would,
    and the sender's later writes never reach the receiver."""
    payload = _wire_payloads()[label]
    reference = pickle.loads(pickle.dumps(payload))
    shipped = ship(payload)
    via_nominal, nominal = ship_sized(payload, 7)
    via_encode, nbytes = ship_sized(payload)
    assert (nominal, nbytes) == (7, len(pickle.dumps(payload)))
    sent = _arrays(payload, set())
    for copy in (shipped, via_nominal, via_encode):
        assert not any(np.shares_memory(got, array)
                       for got in _arrays(copy, set()) for array in sent)
    _mutate(payload, set())
    for copy in (shipped, via_nominal, via_encode):
        _assert_same_form(copy, reference, {})


@pytest.mark.parametrize("nbytes", [None, 64])
def test_ship_rejects_a_lock_inside_a_user_object(nbytes):
    payload = _Fields(weights=np.arange(3.0), lock=threading.Lock())
    with pytest.raises(SerializationError):
        ship_sized(payload, nbytes)


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
