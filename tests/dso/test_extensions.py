"""Tests for the DSO extensions: passivation and eventual reads."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.dso import DsoLayer, DsoReference
from repro.errors import ObjectLostError, ServiceUnavailableError
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from repro.simulation.thread import now, sleep
from repro.storage import ObjectStore


class Counter:
    def __init__(self, value=0):
        self.value = value

    def add(self, delta):
        self.value += delta
        return self.value

    def get(self):
        return self.value


CTOR = (Counter, (), {})


@pytest.fixture
def kernel():
    with Kernel(seed=111) as k:
        yield k


@pytest.fixture
def setup(kernel):
    network = Network(kernel, LatencyModel(0.0001))
    network.ensure_endpoint("client")
    layer = DsoLayer(kernel, network)
    for _ in range(3):
        layer.add_node()
    store = ObjectStore(kernel)
    return layer, store


def ref(key, rf=1):
    return DsoReference("Counter", key, persistent=rf > 1, rf=rf)


# -- passivation ---------------------------------------------------------------


def test_passivate_and_restore_after_total_loss(kernel, setup):
    """An ephemeral object checkpointed to S3 survives losing every
    in-memory copy — the training/inference handoff pattern."""
    layer, store = setup
    r = ref("model")

    def main():
        layer.invoke("client", r, "add", (41,), ctor=CTOR)
        key = layer.placements.passivate("client", r, store)
        layer.crash_node(layer.placement_of(r)[0])
        sleep(DEFAULT_CONFIG.dso.failure_detection + 1.0)
        with pytest.raises(ObjectLostError):
            layer.invoke("client", r, "get", ctor=CTOR)
        layer.placements.restore("client", r, store, key)
        return layer.invoke("client", r, "add", (1,), ctor=CTOR)

    assert kernel.run_main(main) == 42


def test_restore_rejects_live_object(kernel, setup):
    layer, store = setup
    r = ref("live")

    def main():
        layer.invoke("client", r, "add", (1,), ctor=CTOR)
        layer.placements.passivate("client", r, store)
        with pytest.raises(ServiceUnavailableError):
            layer.placements.restore("client", r, store)

    kernel.run_main(main)


def test_passivation_is_a_snapshot_not_a_link(kernel, setup):
    layer, store = setup
    r = ref("snap")

    def main():
        layer.invoke("client", r, "add", (10,), ctor=CTOR)
        layer.placements.passivate("client", r, store)
        layer.invoke("client", r, "add", (5,), ctor=CTOR)  # after snapshot
        layer.placements.delete("client", r)
        layer.placements.restore("client", r, store)
        return layer.invoke("client", r, "get", ctor=CTOR)

    assert kernel.run_main(main) == 10  # post-snapshot write not included


def test_restored_object_is_replicated_per_ref(kernel, setup):
    layer, store = setup
    r = ref("dup", rf=2)

    def main():
        layer.invoke("client", r, "add", (3,), ctor=CTOR)
        layer.placements.passivate("client", r, store)
        layer.placements.delete("client", r)
        layer.placements.restore("client", r, store)
        return layer.placement_of(r)

    replicas = kernel.run_main(main)
    assert len(replicas) == 2


# -- eventual reads ------------------------------------------------------------------


def test_read_any_returns_current_value_when_quiescent(kernel, setup):
    layer, _ = setup
    r = ref("quiet", rf=2)

    def main():
        layer.invoke("client", r, "add", (7,), ctor=CTOR)
        return [layer.read_any("client", r, "get") for _ in range(6)]

    assert kernel.run_main(main) == [7] * 6


def test_read_any_is_faster_than_linearizable_read(kernel, setup):
    """No lock, no SMR round: an any-replica read of a replicated
    object is roughly a plain round trip."""
    layer, _ = setup
    r = ref("fast", rf=2)
    ops = 40

    def main():
        layer.invoke("client", r, "add", (1,), ctor=CTOR)
        t0 = now()
        for _ in range(ops):
            layer.invoke("client", r, "get", ctor=CTOR)
        linearizable = (now() - t0) / ops
        t1 = now()
        for _ in range(ops):
            layer.read_any("client", r, "get")
        eventual = (now() - t1) / ops
        return linearizable, eventual

    linearizable, eventual = kernel.run_main(main)
    assert eventual < 0.75 * linearizable


def test_read_any_spreads_load_across_replicas(kernel, setup):
    layer, _ = setup
    r = ref("spread", rf=2)

    def main():
        layer.invoke("client", r, "add", (1,), ctor=CTOR)
        for _ in range(50):
            layer.read_any("client", r, "get")

    kernel.run_main(main)
    replicas = layer.placement_of(r)
    served = [layer.nodes[name].containers[r.ident].applied_ops
              for name in replicas]
    assert all(count > 5 for count in served)


def test_read_any_requires_existing_object(kernel, setup):
    from repro.errors import NoSuchObjectError

    layer, _ = setup

    def main():
        layer.read_any("client", ref("ghost"), "get")

    with pytest.raises(NoSuchObjectError):
        kernel.run_main(main)
