"""The StorageBackend protocol: every store speaks it, every request
bills into the ledger."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.errors import NoSuchKeyError
from repro.metrics.cost import CostLedger
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from repro.storage import (
    BackendProfile,
    BlockStore,
    DataGrid,
    MemoryStore,
    ObjectStore,
    RedisCluster,
    StorageBackend,
    TieredStore,
)


@pytest.fixture
def kernel():
    with Kernel(seed=31) as k:
        yield k


@pytest.fixture
def network(kernel):
    net = Network(kernel, LatencyModel(0.0001))
    net.ensure_endpoint("client")
    return net


def all_backends(kernel, network, ledger):
    grid = DataGrid(kernel, network, nodes=2)
    redis = RedisCluster(kernel, network, shards=2)
    memory = MemoryStore(kernel, name="mem2", ledger=ledger)
    cold = ObjectStore(kernel, name="s3-2", ledger=ledger)
    return {
        "s3": ObjectStore(kernel, ledger=ledger),
        "gp3": BlockStore(kernel, ledger=ledger),
        "memory": MemoryStore(kernel, ledger=ledger),
        "grid": grid.backend(ledger=ledger),
        "redis": redis.backend(ledger=ledger),
        "tiered": TieredStore(kernel, [memory, cold], ledger=ledger),
    }


def test_every_store_satisfies_the_protocol(kernel, network):
    ledger = CostLedger()
    for label, store in all_backends(kernel, network, ledger).items():
        assert isinstance(store, StorageBackend), label
        store.profile.validate()


def test_profiles_carry_the_hardware_numbers():
    cfg = DEFAULT_CONFIG
    with Kernel(seed=1) as kernel:
        s3 = ObjectStore(kernel).profile
        gp3 = BlockStore(kernel).profile
        memory = MemoryStore(kernel).profile
    # S3: 2019 list prices, >10ms access.
    assert s3.tier == "object"
    assert s3.dollars_per_gb_month == pytest.approx(0.023)
    assert s3.put_request_dollars == pytest.approx(0.005 / 1000)
    assert s3.get_request_dollars == pytest.approx(0.0004 / 1000)
    assert s3.get_latency.base > 0.010
    assert s3.visibility_lag == cfg.storage.s3_visibility_lag
    # gp3: 1-2ms, free requests, 125 MB/s.
    assert gp3.tier == "block"
    assert gp3.dollars_per_gb_month == pytest.approx(0.081)
    assert gp3.get_request_dollars == 0.0
    assert 0.001 <= gp3.get_latency.base <= 0.002
    assert gp3.get_latency.bandwidth == pytest.approx(125e6)
    # Memory: RAM rent dominates; latency matches the Table 2 grid.
    assert memory.tier == "memory"
    assert memory.dollars_per_gb_month == pytest.approx(5.75)
    assert memory.get_latency.base < 0.001


def test_profile_validation_rejects_nonsense():
    good = BackendProfile(name="x", tier="object",
                          get_latency=LatencyModel(0.01),
                          put_latency=LatencyModel(0.01),
                          dollars_per_gb_month=0.02)
    good.validate()
    with pytest.raises(ValueError):
        BackendProfile(name="x", tier="floppy",
                       get_latency=LatencyModel(0.01),
                       put_latency=LatencyModel(0.01),
                       dollars_per_gb_month=0.02).validate()
    with pytest.raises(ValueError):
        BackendProfile(name="x", tier="object",
                       get_latency=LatencyModel(0.01),
                       put_latency=LatencyModel(0.01),
                       dollars_per_gb_month=-1.0).validate()


def test_round_trip_on_every_backend(kernel, network):
    ledger = CostLedger()
    stores = all_backends(kernel, network, ledger)

    lag = DEFAULT_CONFIG.storage.s3_visibility_lag

    def main():
        from repro.simulation.thread import sleep

        for label, store in stores.items():
            store.put(f"{label}/k", {"v": label})
            assert store.get(f"{label}/k") == {"v": label}, label
            sleep(lag + 0.001)  # S3 listings are eventually consistent
            assert store.exists(f"{label}/k") is True, label
            assert f"{label}/k" in store.list_prefix(f"{label}/"), label
            store.delete(f"{label}/k")
            assert f"{label}/k" not in store.list_prefix(f"{label}/"), label

    kernel.run_main(main)


def test_a_missed_get_is_a_request_on_every_backend(kernel, network):
    """The server answered "no such key": counted and billed like a
    hit, on the flat stores and through the RPC adapters alike."""
    ledger = CostLedger()
    stores = all_backends(kernel, network, ledger)

    def main():
        for label, store in stores.items():
            with pytest.raises(NoSuchKeyError):
                store.get("missing")
            assert store.stats.gets == 1, label
            # A tiered store's misses are billed by its cold tier.
            billed = "s3-2" if label == "tiered" else store.name
            assert ledger.bills[billed].requests == 1, label

    kernel.run_main(main)


def test_every_request_class_is_counted_and_billed(kernel):
    """Satellite: exists/list_prefix charge request cost and count in
    per-backend stats exactly like get/put."""
    store = ObjectStore(kernel)

    def main():
        store.put("k", 1)
        store.get("k")
        store.list_prefix("")
        store.exists("k")
        store.delete("k")

    kernel.run_main(main)
    assert store.stats.puts == 1
    assert store.stats.gets == 1
    assert store.stats.lists == 1
    assert store.stats.heads == 1
    assert store.stats.deletes == 1
    assert store.stats.requests == 5
    fee = store.profile
    expected = (2 * fee.put_request_dollars   # put + delete
                + 3 * fee.get_request_dollars)  # get + list + head
    assert store.stats.request_dollars == pytest.approx(expected)
    bill = store.ledger.bills[store.name]
    assert bill.requests == 5
    assert bill.request_dollars == pytest.approx(expected)


def test_capacity_rent_accrues_over_virtual_time(kernel):
    from repro.storage.backend import MONTH_SECONDS

    store = ObjectStore(kernel)
    gb = 10**9

    def main():
        from repro.simulation.thread import sleep

        store.seed("big", b"", nbytes=gb)
        sleep(MONTH_SECONDS / 2)

    kernel.run_main(main)
    store.settle()
    bill = store.ledger.bills[store.name]
    # 1 GB for half a month at $0.023/GB-month.
    assert bill.storage_dollars == pytest.approx(0.023 / 2, rel=1e-6)


def test_shared_ledger_splits_by_backend(kernel):
    ledger = CostLedger()
    s3 = ObjectStore(kernel, ledger=ledger)
    gp3 = BlockStore(kernel, ledger=ledger)

    def main():
        s3.put("a", 1)
        gp3.put("b", 2)
        gp3.get("b")

    kernel.run_main(main)
    ledger.settle()
    assert set(ledger.bills) == {"s3", "gp3"}
    assert ledger.bills["s3"].requests == 1
    assert ledger.bills["gp3"].requests == 2
    assert ledger.bills["gp3"].request_dollars == 0.0  # gp3 I/O is free
    assert ledger.total_dollars == pytest.approx(
        ledger.bills["s3"].total_dollars + ledger.bills["gp3"].total_dollars)


def test_block_store_latency_sits_between_memory_and_s3(kernel):
    memory = MemoryStore(kernel)
    gp3 = BlockStore(kernel)
    s3 = ObjectStore(kernel)

    def timed_get(store, key):
        from repro.simulation.thread import now

        t0 = now()
        store.get(key)
        return now() - t0

    def main():
        for store in (memory, gp3, s3):
            store.seed("k", b"x" * 1024)
        return (timed_get(memory, "k"), timed_get(gp3, "k"),
                timed_get(s3, "k"))

    mem_t, gp3_t, s3_t = kernel.run_main(main)
    assert mem_t < gp3_t < s3_t
