"""Tiered storage: one workload, three placements, one bill.

A Zipf-skewed read workload over a 40-object dataset runs against
(a) everything in RAM, (b) everything on the S3-like object store,
and (c) a :class:`~repro.TieredStore` that starts cold and promotes
the hot keys next to compute.  Every request and every byte-month of
occupancy accrues dollars into a shared :class:`~repro.CostLedger`;
the tiered run lands between the extremes on latency while paying
RAM rent only for the working set — the cost/latency trade the
storage layer exists to navigate.
"""

from repro import (
    CostLedger,
    MemoryStore,
    ObjectStore,
    TieredStore,
    cost_summary,
)
from repro.simulation.kernel import Kernel, current_thread

OBJECTS = 40
OBJECT_BYTES = 256 * 1024
READS = 400


def workload(kernel, store, label):
    """Seed the dataset, run Zipf-skewed reads, return mean latency."""
    rng = kernel.rng.stream(f"example.{label}")
    for i in range(OBJECTS):
        store.seed(f"obj-{i:03d}", b"", nbytes=OBJECT_BYTES)
    latencies = []

    def main():
        if isinstance(store, TieredStore):
            store.start_sweeper()
        thread = current_thread()
        for _ in range(READS):
            # Zipf-ish skew: a few keys take most of the traffic.
            index = min(int(rng.zipf(1.5)) - 1, OBJECTS - 1)
            t0 = kernel.now
            store.get(f"obj-{index:03d}")
            latencies.append(kernel.now - t0)
            thread.sleep(0.05)

    kernel.run_main(main)
    return sum(latencies) / len(latencies)


def main():
    results = {}
    for label in ("all-hot", "all-cold", "tiered"):
        with Kernel(seed=11) as kernel:
            ledger = CostLedger()
            if label == "all-hot":
                store = MemoryStore(kernel, name="memory", ledger=ledger)
            elif label == "all-cold":
                store = ObjectStore(kernel, name="s3", ledger=ledger)
            else:
                hot = MemoryStore(kernel, name="memory", ledger=ledger)
                cold = ObjectStore(kernel, name="s3", ledger=ledger)
                store = TieredStore(kernel, [hot, cold], ledger=ledger)
            mean = workload(kernel, store, label)
            ledger.settle()
            # Capacity price of where the data ended up resting: the
            # steady-state dollars this placement pays per GB each month.
            if isinstance(store, TieredStore):
                gb_month = store.dollars_per_gb_month()
            else:
                gb_month = store.profile.dollars_per_gb_month
            results[label] = (mean, gb_month)
            print(f"--- {label}: mean read {mean * 1000:7.3f} ms, "
                  f"capacity ${gb_month:.3f}/GB-month, "
                  f"requests ${ledger.request_dollars:.6f}")
            print(cost_summary(ledger))
            print()

    hot_ms, hot_cost = results["all-hot"]
    cold_ms, cold_cost = results["all-cold"]
    tier_ms, tier_cost = results["tiered"]
    # Tiering dominates all-cold on latency and all-hot on capacity $.
    assert tier_ms < cold_ms
    assert tier_cost < hot_cost
    return results


if __name__ == "__main__":
    main()
