"""Chaos schedules against the lease-based read cache.

The dangerous window the protocol must survive: the primary dies while
clients hold unexpired leases.  The promoted backup has an empty lease
table (leases are deliberately not replicated), so correctness hangs
entirely on the placement-version bump fencing every pre-crash lease —
these tests kill primaries inside that window and check no stale read
is ever served after a post-failover write acknowledges.
"""

import dataclasses

import pytest

from repro.chaos import ChaosInjector, FaultPlan
from repro.config import DEFAULT_CONFIG
from repro.dso import DsoLayer
from repro.linearizability import HistoryRecorder, LinearizabilityChecker
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from repro.simulation.thread import sleep, spawn


def config_with(**dso_overrides):
    return dataclasses.replace(
        DEFAULT_CONFIG,
        dso=dataclasses.replace(DEFAULT_CONFIG.dso, **dso_overrides))


@pytest.fixture
def kernel():
    with Kernel(seed=101) as k:
        yield k


@pytest.fixture
def network(kernel):
    net = Network(kernel, LatencyModel(0.0001))
    net.ensure_endpoint("client")
    return net


def make_layer(kernel, network, nodes, config=DEFAULT_CONFIG):
    layer = DsoLayer(kernel, network, config, read_cache=True)
    for _ in range(nodes):
        layer.add_node()
    return layer


class KvSpec:
    """Sequential spec of one KvSlot for the linearizability checker.

    Starts at 0 — the value of the unrecorded setup ``put`` that
    creates the object before the concurrent history begins.
    """

    def __init__(self):
        self.value = 0

    def get(self):
        return self.value

    def set(self, value):
        self.value = value


def test_kill_primary_while_leases_outstanding(kernel, network):
    """Leases outlive their grantor: the TTL is far longer than
    failure detection, so when the primary dies the client still holds
    a live lease.  A write acknowledged by the promoted backup must
    fence it (version bump), never letting the stale snapshot serve."""
    config = config_with(lease_ttl=300.0)
    layer = make_layer(kernel, network, nodes=3, config=config)
    injector = ChaosInjector(kernel, network=network, dso=layer)
    network.ensure_endpoint("writer")

    def main():
        layer.put("client", "k", "v0", rf=2)
        assert layer.get("client", "k", rf=2) == "v0"  # lease granted
        primary = layer.placement_of(layer._kv_ref("k", 2))[0]
        injector.schedule(FaultPlan().add(1.0, "crash_node", primary))
        sleep(1.0 + DEFAULT_CONFIG.dso.failure_detection + 1.0)
        layer.put("writer", "k", "v1", rf=2)  # acked by the new primary
        return layer.get("client", "k", rf=2)

    assert kernel.run_main(main) == "v1"
    assert injector.log.counts("inject") == {"crash_node": 1}
    # The client's lease was still unexpired — only the version bump
    # could have (and did) fence it.
    assert layer.stats.cache_hits == 0


def test_cached_reads_linearizable_under_kill_primary_schedule(kernel,
                                                               network):
    """Recorded history: concurrent cached readers and writers while a
    chaos plan kills the primary mid-run.  The history must stay
    linearizable and every acknowledged write must survive."""
    config = config_with(lease_ttl=60.0)
    layer = make_layer(kernel, network, nodes=3, config=config)
    injector = ChaosInjector(kernel, network=network, dso=layer)
    recorder = HistoryRecorder(clock=lambda: kernel.now)
    for i in range(3):
        network.ensure_endpoint(f"c{i}")

    def main():
        layer.put("client", "k", 0, rf=2)
        primary = layer.placement_of(layer._kv_ref("k", 2))[0]
        injector.schedule(FaultPlan().add(2.5, "crash_node", primary))

        def worker(wid):
            for step in range(6):
                endpoint = f"c{wid}"
                if (wid + step) % 3 == 0:
                    value = (wid, step)
                    recorder.record(
                        f"t{wid}", "set", (value,),
                        lambda v=value, e=endpoint:
                        layer.put(e, "k", v, rf=2))
                else:
                    recorder.record(
                        f"t{wid}", "get", (),
                        lambda e=endpoint: layer.get(e, "k", rf=2))
                sleep(1.0)

        threads = [spawn(worker, wid) for wid in range(3)]
        for t in threads:
            t.join()

    kernel.run_main(main)
    checker = LinearizabilityChecker(KvSpec)
    assert checker.check(recorder.operations), \
        checker.explain(recorder.operations)
    assert injector.log.counts("inject") == {"crash_node": 1}
    stats = layer.stats
    assert stats.leases_granted >= 1
    assert stats.retries >= 1  # the kill actually hit in-flight work


def test_kill_primary_mid_txn_commit_fences_leases(kernel, network):
    """A transaction commit that rides through a primary crash must
    still fence outstanding read leases: once the commit acknowledges,
    no client may be served its pre-commit cached snapshot — whether
    the fence was an explicit revoke, the dead primary waiting out an
    unreachable holder's TTL, or the failover's version bump.  The
    TTL is kept inside the retry window so the wait-out path completes
    before the commit's retry deadline."""
    config = config_with(lease_ttl=2.0)
    layer = make_layer(kernel, network, nodes=3, config=config)
    injector = ChaosInjector(kernel, network=network, dso=layer)
    network.ensure_endpoint("writer")
    ctor = layer.txns.ctor()
    ref = layer.txns.ref("k", 2)

    def main():
        with layer.transaction("writer", rf=2) as txn:
            txn.write("k", "v0")
            txn.write("j", "v0")
        # The client reads and now holds a long-TTL cached snapshot.
        assert layer.invoke("client", ref, "get", ctor=ctor) == "v0"
        primary = layer.placement_of(ref)[0]
        # Land the crash inside the commit protocol's window.
        injector.schedule(
            FaultPlan().add(kernel.now + 0.0005, "crash_node", primary))
        with layer.transaction("writer", rf=2) as txn:
            txn.write("k", "v1")
            txn.write("j", "v1")
        # Commit acknowledged: the cached "v0" must never serve again.
        after_ack = layer.invoke("client", ref, "get", ctor=ctor)
        sleep(DEFAULT_CONFIG.dso.failure_detection + 2.0)
        settled = layer.invoke("client", ref, "get", ctor=ctor)
        return after_ack, settled

    after_ack, settled = kernel.run_main(main)
    assert injector.log.counts("inject") == {"crash_node": 1}
    assert after_ack == "v1"
    assert settled == "v1"
    assert layer.stats.leases_granted >= 1
