"""Lease-based read caching: hits, coherence, TTL, LRU, lifetimes.

Covers the protocol of :mod:`repro.dso.cache` end to end at the layer
level — cache hits skip the network, writes revoke leases before they
are acknowledged, leases expire by TTL and die with placement-version
bumps — plus the FaaS wiring (cache lifetime == container lifetime).
"""

import dataclasses

import pytest

from repro import AtomicLong, CloudThread, CrucialEnvironment
from repro.config import DEFAULT_CONFIG
from repro.dso import DsoLayer
from repro.dso.cache import LeaseTable, ObjectCache, is_readonly, readonly
from repro.dso.layer import KvSlot
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


def make_layer(kernel, network, nodes, config=DEFAULT_CONFIG,
               read_cache=True):
    layer = DsoLayer(kernel, network, config, read_cache=read_cache)
    for _ in range(nodes):
        layer.add_node()
    return layer


# ---------------------------------------------------------------------------
# Marker and data-structure units
# ---------------------------------------------------------------------------


def test_readonly_marker_classification():
    assert is_readonly(KvSlot, "get")
    assert not is_readonly(KvSlot, "set")
    assert is_readonly(KvSlot, "__dso_touch__")  # creation ping
    assert not is_readonly(KvSlot, "no_such_method")

    class Custom:
        @readonly
        def peek(self):
            return 1

        def poke(self):
            return 2

    assert is_readonly(Custom, "peek")
    assert not is_readonly(Custom, "poke")


def test_lease_table_tracks_active_holders():
    table = LeaseTable()
    table.grant("a", expiry=5.0)
    table.grant("b", expiry=2.0)
    table.grant("a", expiry=3.0)  # never shortens an existing lease
    assert dict(table.active(1.0)) == {"a": 5.0, "b": 2.0}
    assert dict(table.active(4.0)) == {"a": 5.0}
    table.clear()
    assert len(table) == 0


def test_object_cache_evicts_lru():
    from repro.dso.cache import CacheEntry

    cache = ObjectCache(limit=2)
    entry = CacheEntry(snapshot=None, expiry=1.0, version=0)
    cache.put(("T", "a"), entry)
    cache.put(("T", "b"), entry)
    cache.get(("T", "a"))  # refresh recency: "b" is now coldest
    cache.put(("T", "c"), entry)
    assert set(cache.idents()) == {("T", "a"), ("T", "c")}


# ---------------------------------------------------------------------------
# Layer-level protocol
# ---------------------------------------------------------------------------


def test_warm_read_served_from_cache(kernel, network):
    layer = make_layer(kernel, network, nodes=1)

    def main():
        layer.put("client", "k", "v")
        layer.get("client", "k")  # miss: ships, returns with a lease
        before_msgs = network.messages_sent
        start = kernel.now
        value = layer.get("client", "k")  # hit: local
        return value, kernel.now - start, network.messages_sent - before_msgs

    value, elapsed, messages = kernel.run_main(main)
    assert value == "v"
    assert messages == 0  # the hit never touched the network
    assert elapsed == pytest.approx(DEFAULT_CONFIG.dso.cache_hit_overhead)
    assert layer.stats.cache_hits == 1
    assert layer.stats.cache_misses == 1
    assert layer.stats.leases_granted >= 1


def test_cache_disabled_by_default(kernel, network):
    layer = make_layer(kernel, network, nodes=1, read_cache=False)

    def main():
        layer.put("client", "k", "v")
        layer.get("client", "k")
        layer.get("client", "k")

    kernel.run_main(main)
    assert layer.stats.cache_hits == 0
    assert layer.stats.cache_misses == 0
    assert layer.stats.leases_granted == 0
    assert layer.caches.of("client") is None


def test_write_revokes_lease_before_acknowledging(kernel, network):
    layer = make_layer(kernel, network, nodes=1)
    network.ensure_endpoint("writer")

    def main():
        layer.put("client", "k", "v0")
        layer.get("client", "k")  # client now holds a lease
        layer.put("writer", "k", "v1")  # must revoke before acking
        return layer.get("client", "k")

    assert kernel.run_main(main) == "v1"  # never the stale snapshot
    assert layer.stats.lease_revocations == 1
    # The post-write read had to ship again (its entry was invalidated).
    assert layer.stats.cache_misses == 2


def test_lease_expires_by_ttl(kernel, network):
    config = config_with(lease_ttl=1.0)
    layer = make_layer(kernel, network, nodes=1, config=config)

    def main():
        layer.put("client", "k", "v")
        layer.get("client", "k")
        sleep(1.5)  # past the lease window
        layer.get("client", "k")

    kernel.run_main(main)
    assert layer.stats.cache_hits == 0
    assert layer.stats.cache_misses == 2


def test_unreachable_holder_is_waited_out(kernel, network):
    """A writer that cannot deliver an invalidation waits out the
    holder's lease TTL before acknowledging — no cached read can be
    served after the ack even though the revoke message was lost."""
    config = config_with(lease_ttl=2.0)
    layer = make_layer(kernel, network, nodes=1, config=config)
    network.ensure_endpoint("writer")
    (node_name,) = layer.nodes

    def main():
        layer.put("client", "k", "v0")
        layer.get("client", "k")  # lease granted to "client"
        granted_at = kernel.now
        network.partition({node_name}, {"client"})
        start = kernel.now
        layer.put("writer", "k", "v1")
        write_latency = kernel.now - start
        network.heal()
        return granted_at, write_latency

    granted_at, write_latency = kernel.run_main(main)
    # The write stalled until the lease self-expired.
    assert granted_at + write_latency >= granted_at + 1.9
    assert layer.stats.lease_revocations == 1


def test_revocation_stalls_for_the_slowest_hop_not_the_sum(kernel, network):
    """Six reachable holders are invalidated in one hop: the write
    stalls for about one node -> client flight, where one blocking
    invalidation per holder cost six."""
    layer = make_layer(kernel, network, nodes=1)
    holders = [f"reader-{i}" for i in range(6)]
    for name in holders + ["writer"]:
        network.ensure_endpoint(name)
    hop = DEFAULT_CONFIG.dso.client_server.mean()

    def timed_put(value):
        start = kernel.now
        layer.put("writer", "k", value)
        return kernel.now - start

    def main():
        layer.put("writer", "k", 0)
        plain = timed_put(1)  # nobody holds a lease
        for name in holders:
            assert layer.get(name, "k") == 1
        revoking = timed_put(2)
        return plain, revoking, [layer.get(name, "k") for name in holders]

    tracer = kernel.enable_tracing()
    plain, revoking, reads = kernel.run_main(main)
    assert reads == [2] * 6
    assert layer.stats.lease_revocations == 6
    assert 0.8 * hop < revoking - plain < 1.5 * hop
    (revoke,) = tracer.find("dso.lease_revoke")
    assert revoke.attributes["holders"] == revoke.attributes["fanout"] == 6
    assert 0.8 * hop < revoke.duration < 1.5 * hop


@pytest.mark.parametrize("fault", ["partition", "crash"])
def test_holder_lost_mid_invalidation_is_waited_out(kernel, network, fault):
    """The invalidation is already in flight when its holder is cut
    off (or dies and comes back): it is never delivered, so the write
    waits out that lease — while the reachable holder was invalidated
    in one hop — and no read that starts after the ack is stale."""
    config = config_with(lease_ttl=2.0)
    layer = make_layer(kernel, network, nodes=1, config=config)
    for name in ("lost", "near", "writer"):
        network.ensure_endpoint(name)
    (node_name,) = layer.nodes
    post = network.post

    def post_then_fail(src, dst, value, deliver):
        flight = post(src, dst, value, deliver)
        if dst == "lost":  # the message has left; now lose its target
            if fault == "partition":
                network.partition({node_name}, {"lost"})
            else:
                network.endpoint("lost").crash()
                network.endpoint("lost").restart()
        return flight

    reads = []

    def reader(name):
        while kernel.now < 3.0:
            start = kernel.now
            reads.append((name, start, layer.get(name, "k")))
            sleep(0.05)

    def main():
        layer.put("writer", "k", "v0")
        for name in ("lost", "near"):
            assert layer.get(name, "k") == "v0"  # both hold a lease
        granted = kernel.now
        network.post = post_then_fail
        readers = [spawn(reader, name) for name in ("lost", "near")]
        layer.put("writer", "k", "v1")
        acked = kernel.now
        network.post = post
        network.heal()
        for thread in readers:
            thread.join()
        return granted, acked

    granted, acked = kernel.run_main(main)
    # Waited out to the lost holder's expiry, not acknowledged early.
    assert granted + 1.9 <= acked <= granted + 2.1
    assert layer.stats.lease_revocations == 2
    # Before the ack the lost holder may still serve its lease (the
    # write has not happened yet for anyone); after it, nobody may.
    assert any(value == "v0" for name, start, value in reads
               if name == "lost" and start < acked)
    assert all(value == "v1" for _, start, value in reads if start >= acked)
    assert sum(1 for _, start, _ in reads if start >= acked) > 10


def test_lru_eviction_respects_configured_limit(kernel, network):
    config = config_with(cache_max_objects=2)
    layer = make_layer(kernel, network, nodes=1, config=config)

    def main():
        for key in ("a", "b", "c"):
            layer.put("client", key, key)
            layer.get("client", key)

    kernel.run_main(main)
    cache = layer.caches.of("client")
    assert len(cache) == 2
    assert ("KvSlot", "a") not in cache.idents()


def test_failover_invalidates_leases_via_version(kernel, network):
    """A promoted backup cannot know its predecessor's leases; the
    placement-version bump invalidates them conservatively, so a read
    under a still-unexpired lease re-fetches instead of serving the
    pre-crash snapshot."""
    config = config_with(lease_ttl=120.0)  # far beyond detection time
    layer = make_layer(kernel, network, nodes=3, config=config)
    network.ensure_endpoint("writer")

    def main():
        layer.put("client", "k", "v0", rf=2)
        layer.get("client", "k", rf=2)  # lease at the old primary
        primary = layer.placement_of(layer._kv_ref("k", 2))[0]
        layer.crash_node(primary)
        sleep(DEFAULT_CONFIG.dso.failure_detection + 1.0)
        # The new primary acknowledges a write knowing nothing of the
        # old lease — correct only because the version bump fenced it.
        layer.put("writer", "k", "v1", rf=2)
        return layer.get("client", "k", rf=2)

    assert kernel.run_main(main) == "v1"
    assert layer.stats.cache_hits == 0  # the stale entry never served


def test_delete_purges_cached_snapshots(kernel, network):
    config = config_with(lease_ttl=120.0)
    layer = make_layer(kernel, network, nodes=1, config=config)

    def main():
        layer.put("client", "k", "old")
        layer.get("client", "k")
        layer.placements.delete("client", layer._kv_ref("k", 1))
        layer.put("client", "k", "new")  # re-created at version 0 again
        return layer.get("client", "k")

    assert kernel.run_main(main) == "new"
    assert layer.stats.cache_hits == 0


def test_drop_endpoint_cache_forgets_working_set(kernel, network):
    layer = make_layer(kernel, network, nodes=1)

    def main():
        layer.put("client", "k", "v")
        layer.get("client", "k")
        assert layer.caches.of("client") is not None
        layer.caches.drop("client")
        assert layer.caches.of("client") is None
        layer.get("client", "k")  # must ship again

    kernel.run_main(main)
    assert layer.stats.cache_hits == 0
    assert layer.stats.cache_misses == 2


# ---------------------------------------------------------------------------
# Transactions: leases are fenced at commit
# ---------------------------------------------------------------------------


def test_txn_commit_revokes_lease_before_acknowledging(kernel, network):
    """A reader's lease on a TxnCell is revoked before the writing
    transaction's commit acknowledges — the txn write path honours
    the same coherence contract as plain writes."""
    layer = make_layer(kernel, network, nodes=1)
    network.ensure_endpoint("writer")
    ctor = layer.txns.ctor()
    ref = layer.txns.ref("k", 1)

    def main():
        with layer.transaction("writer") as txn:
            txn.write("k", "v0")
        layer.invoke("client", ref, "get", ctor=ctor)  # miss + lease
        hit = layer.invoke("client", ref, "get", ctor=ctor)
        with layer.transaction("writer") as txn:
            txn.write("k", "v1")
        after = layer.invoke("client", ref, "get", ctor=ctor)
        return hit, after

    assert kernel.run_main(main) == ("v0", "v1")  # never the snapshot
    assert layer.stats.cache_hits == 1
    assert layer.stats.lease_revocations >= 1
    # The post-commit read had to ship again.
    assert layer.stats.cache_misses == 2


def test_mid_txn_lease_on_written_key_is_fenced_at_commit(
        kernel, network):
    """The satellite case: a ``@readonly`` lease granted *mid-txn*
    (the txn's own read of a key it then writes) is invalidated by
    the commit, so no later cached read serves the pre-commit
    snapshot."""
    layer = make_layer(kernel, network, nodes=1)
    ctor = layer.txns.ctor()
    ref = layer.txns.ref("k", 1)

    def main():
        with layer.transaction("client") as txn:
            txn.write("k", "v0")
        with layer.transaction("client") as txn:
            old = txn.read("k")  # __txn_read__ is @readonly: leased
            txn.write("k", "v1")
        cached = layer.invoke("client", ref, "get", ctor=ctor)
        return old, cached

    assert kernel.run_main(main) == ("v0", "v1")
    assert layer.stats.lease_revocations >= 1


# ---------------------------------------------------------------------------
# FaaS wiring: cache lifetime == container lifetime
# ---------------------------------------------------------------------------


class _ReadTwice:
    def __init__(self):
        self.counter = AtomicLong("hot")

    def run(self):
        self.counter.get()
        return self.counter.get()


def test_container_cache_survives_warm_reuse_and_dies_on_kill():
    with CrucialEnvironment(seed=3, dso_nodes=1, read_cache=True) as env:
        def main():
            AtomicLong("hot").get()  # create (and lease to the client)
            first = CloudThread(_ReadTwice())
            first.start()
            first.join()
            hits_after_first = env.dso.stats.cache_hits
            second = CloudThread(_ReadTwice())
            second.start()
            second.join()
            return hits_after_first

        hits_after_first = env.run(main)
        container = env.platform.records[-1].container
        # Both invocations reused one warm container, so the second
        # body's reads all hit the cache the first body populated.
        assert env.platform.records[-2].container == container
        assert hits_after_first >= 1
        assert env.dso.stats.cache_hits >= hits_after_first + 2
        cache = env.dso.caches.of(container)
        assert cache is not None and len(cache) == 1
        # Chaos (or keep-alive expiry) reclaims the container: the
        # platform hook drops its cache with it.
        assert env.platform.kill_container(container)
        assert env.dso.caches.of(container) is None
