"""TieredStore: placement, heat-driven migration, and the no-lost-
writes guarantee under concurrent puts."""

import dataclasses

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG
from repro.errors import NetworkError, NoSuchKeyError
from repro.metrics.cost import CostLedger
from repro.simulation import Kernel
from repro.simulation.thread import sleep
from repro.storage import MemoryStore, ObjectStore, TieredStore


def config_with(**tiering_overrides):
    return dataclasses.replace(
        DEFAULT_CONFIG,
        tiering=dataclasses.replace(DEFAULT_CONFIG.tiering,
                                    **tiering_overrides))


@pytest.fixture
def kernel():
    with Kernel(seed=41) as k:
        yield k


def make_tiered(kernel, config=DEFAULT_CONFIG, ledger=None):
    ledger = ledger if ledger is not None else CostLedger()
    hot = MemoryStore(kernel, config, name="memory", ledger=ledger)
    cold = ObjectStore(kernel, config, name="s3", ledger=ledger)
    return TieredStore(kernel, [hot, cold], config, ledger=ledger)


def test_put_lands_hot_seed_lands_cold(kernel):
    store = make_tiered(kernel)

    def main():
        store.put("written", 1)
        store.seed("dataset", 2)
        assert store.tier_of("written") == 0
        assert store.tier_of("dataset") == 1
        assert store.get("written") == 1
        assert store.get("dataset") == 2

    kernel.run_main(main)
    assert store.tiers[0].size() == 1
    assert store.tiers[1].size() == 1


def test_idle_keys_demote_and_stay_readable(kernel):
    config = config_with(demote_after=5.0, sweep_period=1.0)
    store = make_tiered(kernel, config)

    def main():
        store.start_sweeper()
        store.put("k", b"x" * 64)
        sleep(10.0)
        assert store.tier_of("k") == 1  # swept down to the cold tier
        assert store.get("k") == b"x" * 64

    kernel.run_main(main)
    assert store.tiering.demotions == 1
    # The hot copy is gone: no double residency, no double rent.
    assert store.tiers[0].size() == 0
    assert store.tiers[1].size() == 1


def test_restarted_sweeper_sweeps_once_per_period(kernel):
    """Regression: stop + start within one period left the first
    sweeper asleep but alive, so two sweepers ran side by side."""
    store = make_tiered(kernel, config_with(sweep_period=1.0))
    sweeps = []
    store.sweep = lambda: sweeps.append(kernel.now)

    def main():
        store.start_sweeper()
        sleep(0.5)
        store.stop_sweeper()
        store.start_sweeper()
        sleep(10.25)
        store.stop_sweeper()

    kernel.run_main(main)
    assert sweeps == [1.5 + i for i in range(10)]


def test_hot_keys_promote_after_repeated_access(kernel):
    config = config_with(promote_hits=3, heat_window=100.0)
    store = make_tiered(kernel, config)

    def main():
        store.seed("k", "v")
        for _ in range(2):
            store.get("k")
        sleep(1.0)
        assert store.tier_of("k") == 1  # two hits: not hot yet
        store.get("k")  # third hit crosses the threshold
        sleep(1.0)
        assert store.tier_of("k") == 0
        assert store.get("k") == "v"

    kernel.run_main(main)
    assert store.tiering.promotions == 1
    assert store.tiers[1].size() == 0


def test_a_frozen_array_promotes(kernel):
    """The promotion re-PUTs the read-only value its GET returned."""
    config = config_with(promote_hits=1, heat_window=100.0)
    store = make_tiered(kernel, config)
    dataset = np.arange(4.0)

    def main():
        store.seed("k", dataset)
        store.get("k")
        sleep(1.0)
        assert store.tier_of("k") == 0
        return store.get("k")

    promoted = kernel.run_main(main)
    assert store.tiering.promotions == 1
    assert np.array_equal(promoted, dataset)
    assert not promoted.flags.writeable


def test_capacity_eviction_is_lru(kernel):
    config = config_with(hot_capacity_bytes=150, demote_after=3600.0)
    store = make_tiered(kernel, config)

    def main():
        store.put("old", b"x" * 100)
        sleep(1.0)
        store.put("new", b"y" * 100)
        sleep(1.0)
        store.get("old")  # "new" is now the least recently used
        store.sweep()
        sleep(1.0)
        return store.tier_of("old"), store.tier_of("new")

    old_tier, new_tier = kernel.run_main(main)
    assert old_tier == 0
    assert new_tier == 1


def test_concurrent_put_during_demotion_is_not_lost(kernel):
    """The no-lost-writes guard: a put racing the migration's copy
    window wins, and the migration abandons its stale copy."""
    config = config_with(demote_after=1.0)
    store = make_tiered(kernel, config)

    def main():
        store.put("k", "v0")
        sleep(2.0)
        store.demote("k")  # migration copies v0 toward the cold tier
        store.put("k", "v1")  # lands while the copy is in flight
        sleep(5.0)  # let the migration finish/abort
        assert store.get("k") == "v1"
        # And nothing stale serves after another round trip either.
        sleep(5.0)
        assert store.get("k") == "v1"

    kernel.run_main(main)
    assert store.tiering.aborted_migrations == 1
    assert store.tiering.demotions == 0
    # Exactly one resident copy of the surviving value.
    assert store.tiers[0].size() + store.tiers[1].size() == 1


class _FlakyTier:
    """Protocol wrapper whose requests can be made to fail transiently
    (a brief network outage in front of an otherwise healthy tier)."""

    def __init__(self, inner):
        self._inner = inner
        self.fail_gets = 0
        self.fail_puts = 0

    def get(self, key):
        if self.fail_gets > 0:
            self.fail_gets -= 1
            raise NetworkError(f"{self._inner.name}: transient outage")
        return self._inner.get(key)

    def put(self, key, value, nbytes=None):
        if self.fail_puts > 0:
            self.fail_puts -= 1
            raise NetworkError(f"{self._inner.name}: transient outage")
        return self._inner.put(key, value, nbytes=nbytes)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_put_racing_migration_eviction_is_never_lost():
    """Schedule sweep over the demotion window: wherever the racing
    put lands relative to the migration's copy and source eviction,
    the acknowledged value must survive with one resident copy."""
    config = config_with(demote_after=1.0)
    for offset_ms in range(0, 80, 4):
        with Kernel(seed=97) as kernel:
            store = make_tiered(kernel, config)

            def main():
                store.put("k", "v0")
                sleep(2.0)
                store.demote("k")
                sleep(offset_ms / 1000.0)
                store.put("k", "v1")
                sleep(5.0)
                assert store.get("k") == "v1", f"offset {offset_ms}ms"
                sleep(5.0)  # any delayed eviction must not eat it either
                assert store.get("k") == "v1", f"offset {offset_ms}ms"

            kernel.run_main(main)
            assert store.tiers[0].size() + store.tiers[1].size() == 1, \
                f"offset {offset_ms}ms: duplicate or missing copy"


def test_put_falling_to_cold_tier_survives_promotion_eviction():
    """Lost-write regression: a put that falls through to the cold
    tier (hot tier briefly refusing writes) while a promotion is
    evicting its cold source copy must not have its freshly installed
    value swept away by that eviction's delayed delete."""
    config = config_with(promote_hits=2, heat_window=100.0)
    for offset_ms in range(0, 60, 5):
        with Kernel(seed=83) as kernel:
            flaky = _FlakyTier(MemoryStore(kernel, config, name="memory"))
            cold = ObjectStore(kernel, config, name="s3",
                               ledger=flaky.ledger)
            store = TieredStore(kernel, [flaky, cold], config)

            def main():
                store.seed("k", "v0")
                store.get("k")
                store.get("k")  # promotion (s3 -> memory) starts
                flaky.fail_puts = 1  # hot tier rejects the racing put
                sleep(offset_ms / 1000.0)
                store.put("k", "v1")  # acknowledged on the cold tier
                sleep(5.0)
                assert store.get("k") == "v1", f"offset {offset_ms}ms"
                sleep(5.0)
                assert store.get("k") == "v1", f"offset {offset_ms}ms"

            kernel.run_main(main)
            assert store.tiers[0].size() + store.tiers[1].size() == 1, \
                f"offset {offset_ms}ms: duplicate or missing copy"


def test_read_racing_promotion_eviction_never_misses():
    """A large-object read in flight on the cold tier when the
    promotion's source eviction lands must follow the key to its new
    home instead of surfacing a spurious NoSuchKeyError (the GET
    outlasts the size-independent DELETE, so the blob can vanish
    mid-read)."""
    config = config_with(promote_hits=2, heat_window=100.0)
    for offset_ms in range(0, 100, 5):
        with Kernel(seed=29) as kernel:
            store = make_tiered(kernel, config)

            def main():
                store.seed("k", "v", nbytes=4_000_000)
                store.get("k")
                store.get("k")  # crosses the threshold: promotion starts
                sleep(offset_ms / 1000.0)
                assert store.get("k") == "v", f"offset {offset_ms}ms"
                sleep(1.0)
                assert store.get("k") == "v", f"offset {offset_ms}ms"

            kernel.run_main(main)


def test_transient_owner_failure_never_adopts_stale_copy():
    """A reader falling back while a superseded migration is settling
    must never turn the migration's stale copy into the authoritative
    value (and the cold tier must not end up holding it)."""
    config = config_with(demote_after=1.0)
    for offset_ms in range(10, 60, 5):
        with Kernel(seed=41) as kernel:
            flaky = _FlakyTier(MemoryStore(kernel, config, name="memory"))
            cold = ObjectStore(kernel, config, name="s3",
                               ledger=flaky.ledger)
            store = TieredStore(kernel, [flaky, cold], config)

            def main():
                store.put("k", "v0")
                sleep(2.0)
                store.demote("k")     # migration snapshots v0
                store.put("k", "v1")  # acknowledged: supersedes it
                sleep(offset_ms / 1000.0)
                flaky.fail_gets = 1   # owner hiccups mid-settling
                try:
                    value = store.get("k")
                except NoSuchKeyError:
                    value = None  # an honest degraded miss is fine...
                assert value != "v0", \
                    f"offset {offset_ms}ms: stale value served"
                sleep(5.0)
                assert store.get("k") == "v1", f"offset {offset_ms}ms"
                assert store.tier_of("k") == 0, f"offset {offset_ms}ms"

            kernel.run_main(main)
            # No stale copy left resident (and leaking rent) on cold.
            assert store.tiers[1].size() == 0, f"offset {offset_ms}ms"


def test_migrations_emit_spans(kernel):
    kernel.enable_tracing()
    config = config_with(demote_after=1.0, promote_hits=2,
                         heat_window=100.0)
    store = make_tiered(kernel, config)

    def main():
        store.put("k", 1)
        sleep(2.0)
        store.demote("k")
        sleep(1.0)
        store.get("k")
        store.get("k")  # second hit promotes
        sleep(1.0)

    kernel.run_main(main)
    names = [span.name for span in kernel.tracer.spans]
    demote = [s for s in kernel.tracer.spans if s.name == "storage.demote"]
    promote = [s for s in kernel.tracer.spans
               if s.name == "storage.promote"]
    assert len(demote) == 1 and len(promote) == 1, names
    assert demote[0].attributes["key"] == "k"
    assert demote[0].attributes["from"] == "memory"
    assert demote[0].attributes["to"] == "s3"
    assert promote[0].attributes["from"] == "s3"
    assert promote[0].attributes["to"] == "memory"


def test_shared_ledger_splits_rent_by_tier(kernel):
    ledger = CostLedger()
    config = config_with(demote_after=5.0, sweep_period=1.0)
    store = make_tiered(kernel, config, ledger=ledger)

    def main():
        store.start_sweeper()
        store.put("k", b"", nbytes=10**6)
        sleep(100.0)

    kernel.run_main(main)
    ledger.settle()
    memory_bill = ledger.bills["memory"]
    s3_bill = ledger.bills["s3"]
    # Rent accrued on both tiers: RAM until the demotion, S3 after.
    assert memory_bill.byte_seconds > 0
    assert s3_bill.byte_seconds > 0
    # The data spent most of the run on the *cheap* tier.
    assert s3_bill.byte_seconds > memory_bill.byte_seconds
    assert memory_bill.storage_dollars > s3_bill.storage_dollars  # RAM is dearer


def test_list_prefix_unions_tiers(kernel):
    store = make_tiered(kernel)

    def main():
        store.put("a/hot", 1)
        store.seed("a/cold", 2)
        sleep(DEFAULT_CONFIG.storage.s3_visibility_lag + 0.1)
        return store.list_prefix("a/")

    assert kernel.run_main(main) == ["a/cold", "a/hot"]


def test_delete_routes_to_owning_tier(kernel):
    store = make_tiered(kernel)

    def main():
        store.put("k", 1)
        store.delete("k")
        with pytest.raises(NoSuchKeyError):
            store.get("k")

    kernel.run_main(main)
    assert store.size() == 0


def test_effective_capacity_price_tracks_placement(kernel):
    config = config_with(demote_after=5.0, sweep_period=1.0)
    store = make_tiered(kernel, config)
    hot_price = store.tiers[0].profile.dollars_per_gb_month
    cold_price = store.tiers[1].profile.dollars_per_gb_month

    def main():
        store.put("k", b"x" * 1000)
        all_hot = store.dollars_per_gb_month()
        store.start_sweeper()
        sleep(20.0)
        return all_hot, store.dollars_per_gb_month()

    all_hot, after_demotion = kernel.run_main(main)
    assert all_hot == pytest.approx(hot_price)
    assert after_demotion == pytest.approx(cold_price)
