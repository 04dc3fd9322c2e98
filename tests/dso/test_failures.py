"""Failure-injection tests for the DSO layer beyond the basics."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.dso import DsoReference
from repro.errors import ObjectLostError
from repro.simulation import Kernel
from repro.simulation.thread import sleep, spawn
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


def ref(key, persistent=False, rf=1):
    return DsoReference("Counter", key, persistent=persistent, rf=rf)


@pytest.fixture
def kernel():
    with Kernel(seed=101) as k:
        yield k


def test_backup_crash_is_transparent(kernel, network):
    """Losing a backup (not the primary) never surfaces to clients."""
    layer = make_layer(kernel, network, nodes=3)
    r = ref("x", persistent=True, rf=2)

    def main():
        layer.invoke("client", r, "add", (7,), ctor=CTOR)
        backup = layer.placement_of(r)[1]
        layer.crash_node(backup)
        # Immediately readable (primary alive), before detection.
        value_now = layer.invoke("client", r, "get", ctor=CTOR)
        sleep(DEFAULT_CONFIG.dso.failure_detection + 1.0)
        value_later = layer.invoke("client", r, "get", ctor=CTOR)
        return value_now, value_later

    assert kernel.run_main(main) == (7, 7)


def test_rf2_re_replication_after_crash(kernel, network):
    """After failover, the rebalancer restores rf=2."""
    layer = make_layer(kernel, network, nodes=3)
    r = ref("y", persistent=True, rf=2)

    def main():
        layer.invoke("client", r, "add", (1,), ctor=CTOR)
        victim = layer.placement_of(r)[0]
        layer.crash_node(victim)
        sleep(DEFAULT_CONFIG.dso.failure_detection
              + DEFAULT_CONFIG.dso.view_change_pause
              + 2 * DEFAULT_CONFIG.dso.transfer_per_object + 2.0)
        return layer.placement_of(r)

    replicas = kernel.run_main(main)
    assert len(replicas) == 2
    assert len(set(replicas)) == 2


def test_joint_failure_of_all_replicas_loses_object(kernel, network):
    """rf=2 tolerates rf-1 failures; two joint failures lose data."""
    layer = make_layer(kernel, network, nodes=3)
    r = ref("z", persistent=True, rf=2)

    def main():
        layer.invoke("client", r, "add", (1,), ctor=CTOR)
        first, second = layer.placement_of(r)
        layer.crash_node(first)
        layer.crash_node(second)
        sleep(DEFAULT_CONFIG.dso.failure_detection + 2.0)
        with pytest.raises(ObjectLostError):
            layer.invoke("client", r, "get", ctor=CTOR)

    kernel.run_main(main)
    assert layer.stats.lost_objects >= 1


def test_writes_during_failover_are_not_lost(kernel, network):
    """A writer hammering the object through a crash keeps a
    consistent count: every acknowledged add is reflected exactly
    once — session dedup prevents failover retries from re-applying."""
    layer = make_layer(kernel, network, nodes=3)
    r = ref("w", persistent=True, rf=2)
    acknowledged = []

    def writer():
        for i in range(30):
            value = layer.invoke("client", r, "add", (1,), ctor=CTOR)
            acknowledged.append(value)
            sleep(0.3)

    def main():
        thread = spawn(writer)
        sleep(2.0)
        layer.crash_node(layer.placement_of(r)[0])
        thread.join()
        return layer.invoke("client", r, "get", ctor=CTOR)

    final = kernel.run_main(main)
    # Every acknowledged increment survives, and none is applied
    # twice: exactly-once, not at-least-once.
    assert final == len(acknowledged) == 30
    assert final == acknowledged[-1]


def test_operations_queue_behind_rebalancing_object(kernel, network):
    """Rebalance holds an object's lock only for its own transfer;
    in-flight ops retry and complete."""
    layer = make_layer(kernel, network, nodes=1)

    def main():
        for i in range(10):
            layer.put("client", f"key-{i}", i)
        layer.add_node()
        results = []

        def reader():
            for i in range(10):
                results.append(layer.get("client", f"key-{i}"))
                sleep(0.2)

        thread = spawn(reader)
        thread.join()
        return results

    assert kernel.run_main(main) == list(range(10))


def test_read_bulk_retries_only_failed_groups(kernel, network):
    """Regression: a transient failure used to re-read the *whole*
    batch, double-charging nodes whose group had already succeeded.
    Now only unfinished groups are retried: per-node applied-op counts
    show each object on the healthy node was read exactly once."""
    layer = make_layer(kernel, network, nodes=2)

    def main():
        refs, by_node = [], {}
        for i in range(8):
            r = ref(f"bulk-{i}")
            layer.invoke("client", r, "add", (i,), ctor=CTOR)
            refs.append(r)
            by_node.setdefault(layer.placement_of(r)[0], []).append(r)
        assert len(by_node) == 2, "keys must span both nodes"
        first_node, second_node = sorted(by_node)

        def applied(node_name):
            node = layer.nodes[node_name]
            return {r.key: node.containers[r.ident].applied_ops
                    for r in by_node[node_name]}

        baseline = applied(first_node)
        # Fail every message to the second-sorted node: the first
        # group completes, the second fails and is retried alone.
        network.set_drop_rate("client", second_node, 1.0)
        kernel.call_later(
            1.0, lambda: network.set_drop_rate("client", second_node, 0.0))
        values = layer.read_bulk("client", refs)
        delta = {key: applied(first_node)[key] - baseline[key]
                 for key in baseline}
        return values, delta

    values, delta = kernel.run_main(main)
    assert values == list(range(8))
    assert layer.stats.retries >= 1
    # The healthy node's objects were each read exactly once — the
    # retry loop did not re-charge the group that had succeeded.
    assert all(count == 1 for count in delta.values()), delta


def test_crash_during_rebalance_leaves_no_stuck_lock(kernel, network):
    """Crash the transfer source mid-rebalance: the guarded release in
    the rebalancer's ``finally`` must neither double-release nor leave
    the (re-hosted) object's lock stuck, and the layer keeps serving."""
    layer = make_layer(kernel, network, nodes=2)
    r = ref("reb", persistent=True, rf=2)

    def main():
        layer.invoke("client", r, "add", (9,), ctor=CTOR)
        source = layer.placement_of(r)[0]
        # Joining a node triggers a rebalance pass; crash the source
        # inside the per-object transfer window.
        layer.add_node()
        sleep(DEFAULT_CONFIG.dso.view_change_pause
              + DEFAULT_CONFIG.dso.transfer_per_object / 2)
        layer.crash_node(source)
        sleep(DEFAULT_CONFIG.dso.failure_detection
              + DEFAULT_CONFIG.dso.view_change_pause
              + 2 * DEFAULT_CONFIG.dso.transfer_per_object + 2.0)
        # Still serving: acknowledged state survived on the backup and
        # no lock is wedged from the aborted transfer.
        layer.invoke("client", r, "add", (1,), ctor=CTOR)
        return layer.invoke("client", r, "get", ctor=CTOR)

    assert kernel.run_main(main) == 10
    for node in layer.live_nodes():
        container = node.containers.get(r.ident)
        if container is not None:
            assert not container.lock.locked


def test_stats_track_retries_and_invocations(kernel, network):
    layer = make_layer(kernel, network, nodes=2)
    r = ref("s", persistent=True, rf=2)

    def main():
        layer.invoke("client", r, "add", (1,), ctor=CTOR)
        layer.crash_node(layer.placement_of(r)[0])
        layer.invoke("client", r, "get", ctor=CTOR)

    kernel.run_main(main)
    assert layer.stats.invocations >= 2
    assert layer.stats.retries >= 1
