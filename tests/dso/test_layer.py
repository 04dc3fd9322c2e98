"""Unit tests for the DSO layer: placement, invocation, SMR, failover."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.dso import DsoLayer, DsoReference
from repro.dso.layer import KvSlot
from repro.errors import (
    NoSuchObjectError,
    ObjectLostError,
    ServiceUnavailableError,
)
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from repro.simulation.thread import now, sleep, spawn


class Counter:
    """A module-level shared class (picklable, deterministic)."""

    def __init__(self, value=0):
        self.value = value

    def add(self, delta):
        self.value += delta
        return self.value

    def get(self):
        return self.value


@pytest.fixture
def kernel():
    with Kernel(seed=37) as k:
        yield k


@pytest.fixture
def network(kernel):
    net = Network(kernel, LatencyModel(0.0001))
    net.ensure_endpoint("client")
    return net


def make_layer(kernel, network, nodes=1):
    layer = DsoLayer(kernel, network)
    for _ in range(nodes):
        layer.add_node()
    return layer


CTOR = (Counter, (), {})


def ref(key="c", persistent=False, rf=1):
    return DsoReference("Counter", key, persistent=persistent, rf=rf)


def test_create_on_first_touch_and_invoke(kernel, network):
    layer = make_layer(kernel, network)

    def main():
        r = ref()
        assert layer.invoke("client", r, "add", (5,), ctor=CTOR) == 5
        return layer.invoke("client", r, "get", ctor=CTOR)

    assert kernel.run_main(main) == 5
    assert layer.stats.creations == 1


def test_same_reference_shares_one_instance(kernel, network):
    layer = make_layer(kernel, network, nodes=3)

    def main():
        layer.invoke("client", ref(), "add", (1,), ctor=CTOR)
        layer.invoke("client", ref(), "add", (2,), ctor=CTOR)
        return layer.invoke("client", ref(), "get", ctor=CTOR)

    assert kernel.run_main(main) == 3
    assert layer.stats.creations == 1


def test_distinct_keys_are_distinct_objects(kernel, network):
    layer = make_layer(kernel, network)

    def main():
        layer.invoke("client", ref("a"), "add", (1,), ctor=CTOR)
        layer.invoke("client", ref("b"), "add", (10,), ctor=CTOR)
        return (layer.invoke("client", ref("a"), "get", ctor=CTOR),
                layer.invoke("client", ref("b"), "get", ctor=CTOR))

    assert kernel.run_main(main) == (1, 10)


def test_invoke_unknown_object_without_ctor(kernel, network):
    layer = make_layer(kernel, network)

    def main():
        layer.invoke("client", ref("ghost"), "get")

    with pytest.raises(NoSuchObjectError):
        kernel.run_main(main)


def test_no_nodes_is_unavailable(kernel, network):
    layer = DsoLayer(kernel, network)

    def main():
        layer.invoke("client", ref(), "get", ctor=CTOR)

    with pytest.raises(ServiceUnavailableError):
        kernel.run_main(main)


def test_raw_put_get_latency_matches_table2(kernel, network):
    layer = make_layer(kernel, network)
    ops = 50

    def main():
        layer.put("client", "k", b"x" * 1024)
        t0 = now()
        for _ in range(ops):
            layer.get("client", "k")
        return (now() - t0) / ops

    avg_get = kernel.run_main(main)
    # Table 2: Crucial GET = 229 us.
    assert avg_get == pytest.approx(229e-6, rel=0.15)


def test_replicated_put_doubles_latency(kernel, network):
    layer = make_layer(kernel, network, nodes=2)
    ops = 50

    def main():
        layer.put("client", "k", b"x" * 1024, rf=2)
        t0 = now()
        for _ in range(ops):
            layer.get("client", "k", rf=2)
        return (now() - t0) / ops

    avg_get = kernel.run_main(main)
    # Table 2: Crucial rf=2 GET = 505 us.
    assert avg_get == pytest.approx(505e-6, rel=0.15)


def test_replicas_hold_identical_state(kernel, network):
    layer = make_layer(kernel, network, nodes=3)
    r = ref("counter", persistent=True, rf=2)

    def main():
        for i in range(5):
            layer.invoke("client", r, "add", (i,), ctor=CTOR)

    kernel.run_main(main)
    replicas = layer.placement_of(r)
    assert len(replicas) == 2
    values = [layer.nodes[name].containers[r.ident].instance.value
              for name in replicas]
    assert values == [10, 10]


def test_acknowledged_writes_survive_primary_crash(kernel, network):
    layer = make_layer(kernel, network, nodes=3)
    r = ref("important", persistent=True, rf=2)

    def main():
        layer.invoke("client", r, "add", (42,), ctor=CTOR)
        primary = layer.placement_of(r)[0]
        layer.crash_node(primary)
        # Retry loop inside invoke rides out failure detection (4 s).
        return layer.invoke("client", r, "get", ctor=CTOR)

    assert kernel.run_main(main) == 42
    assert layer.stats.retries > 0


def test_ephemeral_object_lost_on_crash(kernel, network):
    layer = make_layer(kernel, network, nodes=2)
    r = ref("volatile")

    def main():
        layer.invoke("client", r, "add", (1,), ctor=CTOR)
        primary = layer.placement_of(r)[0]
        layer.crash_node(primary)
        with pytest.raises(ObjectLostError):
            layer.invoke("client", r, "get", ctor=CTOR)

    kernel.run_main(main)
    assert layer.stats.lost_objects >= 1


def test_rebalance_on_node_addition(kernel, network):
    layer = make_layer(kernel, network, nodes=1)

    def main():
        for i in range(30):
            layer.put("client", f"key-{i}", i)
        layer.add_node()
        # Wait for view-change pause + per-object transfers.
        sleep(DEFAULT_CONFIG.dso.view_change_pause
              + 31 * DEFAULT_CONFIG.dso.transfer_per_object + 1.0)
        return layer.object_counts()

    counts = kernel.run_main(main)
    assert sum(counts.values()) == 30
    assert all(count > 0 for count in counts.values())
    assert layer.stats.rebalanced_objects > 0


def test_data_survives_rebalancing(kernel, network):
    layer = make_layer(kernel, network, nodes=1)

    def main():
        for i in range(20):
            layer.put("client", f"key-{i}", i * 11)
        layer.add_node()
        sleep(DEFAULT_CONFIG.dso.view_change_pause
              + 21 * DEFAULT_CONFIG.dso.transfer_per_object + 1.0)
        return [layer.get("client", f"key-{i}") for i in range(20)]

    values = kernel.run_main(main)
    assert values == [i * 11 for i in range(20)]


def test_concurrent_increments_are_linearizable_count(kernel, network):
    layer = make_layer(kernel, network, nodes=2)

    def worker():
        for _ in range(10):
            layer.invoke("client", ref("shared"), "add", (1,), ctor=CTOR)

    def main():
        threads = [spawn(worker) for _ in range(8)]
        for t in threads:
            t.join()
        return layer.invoke("client", ref("shared"), "get", ctor=CTOR)

    assert kernel.run_main(main) == 80


def test_method_cost_charged(kernel, network):
    layer = make_layer(kernel, network)

    def main():
        r = ref("pricey")
        layer.invoke("client", r, "get", ctor=CTOR)  # create
        t0 = now()
        layer.invoke("client", r, "get", ctor=CTOR, cost=0.5)
        return now() - t0

    elapsed = kernel.run_main(main)
    assert elapsed >= 0.5


def test_delete_object(kernel, network):
    layer = make_layer(kernel, network)
    r = ref("temp")

    def main():
        layer.invoke("client", r, "add", (1,), ctor=CTOR)
        layer.placements.delete("client", r)
        assert layer.placements.live(r) is None
        with pytest.raises(NoSuchObjectError):
            layer.placements.delete("client", r)

    kernel.run_main(main)


def test_read_bulk_returns_all_values(kernel, network):
    layer = make_layer(kernel, network, nodes=3)

    def main():
        refs = []
        for i in range(12):
            r = DsoReference("KvSlot", f"m-{i}")
            layer.invoke("client", r, "set", (i * 2,),
                         ctor=(KvSlot, (), {}))
            refs.append(r)
        return layer.read_bulk("client", refs, method="get")

    assert kernel.run_main(main) == [i * 2 for i in range(12)]


def test_application_exception_propagates(kernel, network):
    layer = make_layer(kernel, network)

    def main():
        r = ref("x")
        layer.invoke("client", r, "get", ctor=CTOR)
        layer.invoke("client", r, "no_such_method", ctor=CTOR)

    with pytest.raises(AttributeError):
        kernel.run_main(main)


def test_graceful_node_removal_moves_objects(kernel, network):
    layer = make_layer(kernel, network, nodes=2)

    def main():
        for i in range(20):
            layer.put("client", f"key-{i}", i)
        victim = layer.live_nodes()[0].name
        layer.remove_node(victim)
        sleep(DEFAULT_CONFIG.dso.view_change_pause
              + 21 * DEFAULT_CONFIG.dso.transfer_per_object + 1.0)
        return victim, [layer.get("client", f"key-{i}") for i in range(20)]

    victim, values = kernel.run_main(main)
    assert values == list(range(20))
    counts = layer.object_counts()
    survivor_total = sum(count for name, count in counts.items()
                         if name != victim)
    assert survivor_total == 20
