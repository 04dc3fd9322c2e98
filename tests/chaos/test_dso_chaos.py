"""Chaos tests for the DSO layer's paper invariants.

The headline property is Section 4.4's: with ``rf = 2`` the layer
tolerates any single storage-node failure without losing acknowledged
state.  The tests drive that with both hand-written plans and the
randomized (but seed-replayable) schedule generator.
"""

import pytest

from repro.chaos import ChaosInjector, ChaosScheduleGenerator, FaultPlan
from repro.config import DEFAULT_CONFIG
from repro.dso import DsoReference
from repro.metrics import fault_summary
from repro.simulation import Kernel
from repro.simulation.thread import sleep
from tests.conftest import make_layer


class Counter:
    def __init__(self, value=0):
        self.value = value

    def add(self, delta):
        self.value += delta
        return self.value

    def get(self):
        return self.value


CTOR = (Counter, (), {})


def ref(key, rf=2):
    return DsoReference("Counter", key, persistent=True, rf=rf)


@pytest.fixture
def kernel():
    with Kernel(seed=101) as k:
        yield k


def test_rf2_durability_under_generated_crash_schedule(kernel, network):
    """No acknowledged write is lost under a randomized single-failure
    crash/restart schedule (the generator pairs every crash with a
    restart and keeps at most one node down)."""
    layer = make_layer(kernel, network, nodes=4)
    layer.enable_failure_detector()
    injector = ChaosInjector(kernel, network=network, dso=layer)
    generator = ChaosScheduleGenerator(kernel)
    plan = generator.generate(
        20.0, nodes=list(layer.nodes), kinds=["crash_node"],
        mean_faults=3, recovery=8.0)
    injector.schedule(plan)
    r = ref("durable")

    def main():
        acked = 0
        for _ in range(40):
            layer.invoke("client", r, "add", (1,), ctor=CTOR)
            acked += 1
            sleep(0.5)
        # Quiesce: let any in-flight recovery settle, then audit.
        sleep(DEFAULT_CONFIG.dso.failure_detection + 2.0)
        return acked, layer.invoke("client", r, "get", ctor=CTOR)

    acked, final = kernel.run_main(main)
    assert acked == 40
    # Exactly-once: acknowledged increments can never go missing, and
    # session dedup keeps failover retries from double-applying.
    assert final == acked
    crashes = injector.log.counts("inject").get("crash_node", 0)
    restarts = injector.log.counts("inject").get("restart_node", 0)
    assert crashes >= 1
    assert restarts >= 1


def test_partition_blocks_replication_until_it_heals(kernel, network):
    """A partition between the two replicas stalls SMR-backed writes;
    the client retry loop rides it out and succeeds after the heal."""
    layer = make_layer(kernel, network, nodes=2)
    injector = ChaosInjector(kernel, network=network, dso=layer)
    key = "part"

    def main():
        layer.put("client", key, "v0", rf=2)
        primary, backup = layer.placement_of(
            layer._kv_ref(key, 2))
        injector.schedule(FaultPlan().add(
            0.0, "partition", groups=((primary,), (backup,)),
            duration=2.0))
        sleep(0.5)
        layer.put("client", key, "v1", rf=2)
        return layer.get("client", key, rf=2)

    assert kernel.run_main(main) == "v1"
    assert layer.stats.retries >= 1
    assert injector.log.counts("inject") == {"partition": 1}
    assert injector.log.counts("revert") == {"partition": 1}


def test_slow_node_stretches_latency_then_reverts(kernel, network):
    layer = make_layer(kernel, network, nodes=1)
    injector = ChaosInjector(kernel, network=network, dso=layer)
    (name,) = layer.nodes
    injector.schedule(FaultPlan().add(
        0.0, "slow_node", name, factor=10.0, duration=5.0))
    r = DsoReference("Counter", "slow")  # ephemeral, rf=1

    def main():
        sleep(0.1)  # let the fault land
        before = kernel.now
        layer.invoke("client", r, "add", (1,), ctor=CTOR, cost=0.1)
        slowed = kernel.now - before
        sleep(6.0)  # past the fault's end: factor reverted
        before = kernel.now
        layer.invoke("client", r, "add", (1,), ctor=CTOR, cost=0.1)
        return slowed, kernel.now - before

    slowed, normal = kernel.run_main(main)
    assert slowed > 5 * normal
    assert layer.nodes[name].slow_factor == 1.0


def test_message_drops_force_retries_then_converge(kernel, network):
    layer = make_layer(kernel, network, nodes=1)
    injector = ChaosInjector(kernel, network=network, dso=layer)
    (name,) = layer.nodes

    def main():
        layer.put("client", "k", "v0")
        injector.schedule(FaultPlan().add(
            kernel.now, "drop_messages", ("client", name),
            rate=1.0, duration=1.0))
        sleep(0.1)
        layer.put("client", "k", "v1")
        return layer.get("client", "k")

    assert kernel.run_main(main) == "v1"
    assert network.messages_dropped >= 1
    assert layer.stats.retries >= 1
    assert network.drop_rate("client", name) == 0.0


def test_fault_summary_reports_injections_and_retries(kernel, network):
    layer = make_layer(kernel, network, nodes=3)
    layer.enable_failure_detector()
    injector = ChaosInjector(kernel, network=network, dso=layer)
    r = ref("rep")

    def main():
        layer.invoke("client", r, "add", (1,), ctor=CTOR)
        victim = layer.placement_of(r)[0]
        injector.schedule(FaultPlan().add(1.0, "crash_node", victim))
        sleep(1.5)
        layer.invoke("client", r, "add", (1,), ctor=CTOR)
        return layer.invoke("client", r, "get", ctor=CTOR)

    assert kernel.run_main(main) >= 2
    assert layer.stats.retries >= 1
    report = fault_summary(injector.log,
                           retries={"dso": layer.stats.retries})
    assert "crash_node" in report
    assert "dso retries" in report
    assert str(layer.stats.retries) in report
