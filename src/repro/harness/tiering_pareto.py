"""Cost-versus-latency Pareto sweep across storage placements.

One Zipf-skewed read-mostly workload runs against four placements of
the same dataset:

* **all-hot** — everything in an in-memory tier (RAM prices);
* **gp3** — everything on a block volume (1–2 ms, free requests);
* **all-cold** — everything on the S3-like object store;
* **tiered** — a memory → gp3 → S3 :class:`~repro.storage.tiering.
  TieredStore` that starts fully cold and lets the heat policy place
  the working set.

Each point reports the read-latency distribution (mean / p99), the
*effective capacity price* actually accrued over the run (storage
dollars per GB-month, time-averaged — the number the placement policy
optimizes), and the per-request bill.  The claim mirrored by the
benchmark floor: the tiered point strictly dominates all-cold on
latency and all-hot on dollars — the point of Crucial-style hot data
living next to compute is exactly that you only pay RAM rent for data
that earns it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from repro.config import Config, DEFAULT_CONFIG
from repro.harness.claims import Claim, above, at_most, below, claim_lines
from repro.metrics.cost import CostLedger
from repro.metrics.recorder import percentile
from repro.metrics.report import render_table
from repro.simulation.kernel import Kernel
from repro.storage.backend import (
    MONTH_SECONDS,
    BlockStore,
    MemoryStore,
    StorageBackend,
)
from repro.storage.object_store import ObjectStore
from repro.storage.tiering import TieredStore
from repro.workload.distributions import ZipfSampler

#: Placement labels, hot to cold (tiered last).
POINTS = ("all-hot", "gp3", "all-cold", "tiered")


def _tiered_over(metric: str, point: str, other: str | None = None):
    """The tiered point's ``metric`` over ``point``'s ``other`` (by
    default the same metric)."""
    return lambda r: (getattr(r.points["tiered"], metric)
                      / getattr(r.points[point], other or metric))


CLAIMS = [
    # Pareto: tiered dominates all-cold on latency and all-hot on
    # dollars, paying under half the RAM price, and a read that finds
    # its key in memory costs at most 1.5x the all-in-memory mean.
    Claim("tiering.latency_vs_cold", "tiered mean read over all-cold's",
          None, _tiered_over("mean_read", "all-cold"), below(1.0)),
    Claim("tiering.dollars_vs_hot", "tiered $/GB-month over all-hot's",
          None, _tiered_over("dollars_per_gb_month", "all-hot"),
          at_most(0.5)),
    Claim("tiering.hot_read", "tiered memory-tier read over all-hot's",
          None, _tiered_over("hot_read", "all-hot", "mean_read"),
          at_most(1.5)),
    Claim("tiering.moved_both_ways", "fewer of tiered promotions and "
          "demotions", None, lambda r: min(r.points["tiered"].promotions,
                                           r.points["tiered"].demotions),
          above(0), "{:d}"),
]


@dataclass
class ParetoPoint:
    label: str
    mean_read: float
    p99_read: float
    #: Mean over reads that found their key already on the hottest
    #: tier (== ``mean_read`` for the single-tier points).
    hot_read: float
    #: Time-averaged capacity price actually accrued ($/GB-month).
    dollars_per_gb_month: float
    request_dollars: float
    #: Fraction of dataset bytes resting on the hottest tier at end.
    hot_fraction: float
    promotions: int = 0
    demotions: int = 0


@dataclass
class ParetoResult:
    points: dict[str, ParetoPoint]
    objects: int
    object_bytes: int
    reads: int


def _build(label: str, kernel: Kernel, config: Config,
           ledger: CostLedger) -> StorageBackend:
    if label == "all-hot":
        return MemoryStore(kernel, config, name="memory", ledger=ledger)
    if label == "gp3":
        return BlockStore(kernel, config, name="gp3", ledger=ledger)
    if label == "all-cold":
        return ObjectStore(kernel, config, name="s3", ledger=ledger)
    return TieredStore(
        kernel,
        [MemoryStore(kernel, config, name="memory", ledger=ledger),
         BlockStore(kernel, config, name="gp3", ledger=ledger),
         ObjectStore(kernel, config, name="s3", ledger=ledger)],
        config, ledger=ledger)


def _run_point(label: str, objects: int, object_bytes: int, reads: int,
               think: float, config: Config, seed: int) -> ParetoPoint:
    kernel = Kernel(seed=seed)
    ledger = CostLedger()
    store = _build(label, kernel, config, ledger)
    rng = kernel.rng.stream("tiering_pareto.workload")
    # Zipf-skewed key choice: a handful of keys carry most of the
    # traffic, the tail is touched rarely — the shape that makes
    # tiering pay.  The shared alias-table sampler replaced an earlier
    # draw that clamped numpy's unbounded zipf tail onto the last key,
    # handing one nominally-cold key tens of percent of the traffic.
    sampler = ZipfSampler(objects, s=1.2, rng=rng)
    for i in range(objects):
        store.seed(f"obj-{i:04d}", b"", nbytes=object_bytes)
    t_start = kernel.now
    latencies: list[float] = []
    hot_latencies: list[float] = []

    def main():
        from repro.simulation.kernel import current_thread

        if isinstance(store, TieredStore):
            store.start_sweeper()
        thread = current_thread()
        for _ in range(reads):
            key = f"obj-{sampler.sample():04d}"
            was_hot = (store.tier_of(key) == 0
                       if isinstance(store, TieredStore) else True)
            t0 = kernel.now
            store.get(key)
            elapsed = kernel.now - t0
            latencies.append(elapsed)
            if was_hot:
                hot_latencies.append(elapsed)
            thread.sleep(think)
        if isinstance(store, TieredStore):
            store.stop_sweeper()

    kernel.run_main(main)
    ledger.settle()
    elapsed = kernel.now - t_start
    total_gb = objects * object_bytes / 1e9
    months = elapsed / MONTH_SECONDS
    effective = (ledger.storage_dollars / (total_gb * months)
                 if total_gb > 0 and months > 0 else 0.0)
    if isinstance(store, TieredStore):
        hot_bytes = store.tiers[0].stored_bytes()
        promotions = store.tiering.promotions
        demotions = store.tiering.demotions
    else:
        hot_bytes = (store.stored_bytes()
                     if store.profile.tier == "memory" else 0)
        promotions = demotions = 0
    return ParetoPoint(
        label=label,
        mean_read=sum(latencies) / len(latencies),
        p99_read=percentile(latencies, 99.0),
        hot_read=(sum(hot_latencies) / len(hot_latencies)
                  if hot_latencies else float("nan")),
        dollars_per_gb_month=effective,
        request_dollars=ledger.request_dollars,
        hot_fraction=hot_bytes / (objects * object_bytes),
        promotions=promotions,
        demotions=demotions)


def run(objects: int = 64, object_bytes: int = 256 * 1024,
        reads: int = 600, think: float = 0.25,
        config: Config = DEFAULT_CONFIG, seed: int = 11) -> ParetoResult:
    """Run the sweep: same workload, one point per placement."""
    points = {
        label: _run_point(label, objects, object_bytes, reads, think,
                          config, seed)
        for label in POINTS
    }
    return ParetoResult(points=points, objects=objects,
                        object_bytes=object_bytes, reads=reads)


def report(result: ParetoResult) -> str:
    rows = []
    for label in POINTS:
        point = result.points[label]
        rows.append((
            label,
            f"{point.mean_read * 1000:8.3f}",
            f"{point.p99_read * 1000:8.3f}",
            f"${point.dollars_per_gb_month:.3f}",
            f"${point.request_dollars:.6f}",
            f"{point.hot_fraction * 100:5.1f}%",
            f"{point.promotions}/{point.demotions}",
        ))
    table = render_table(
        ["placement", "mean ms", "p99 ms", "$/GB-mo", "request $",
         "hot bytes", "promo/demo"],
        rows,
        title=(f"tiering Pareto sweep - {result.objects} objects x "
               f"{result.object_bytes // 1024} KiB, "
               f"{result.reads} zipf reads"))
    return table + "\n" + claim_lines(CLAIMS, result)


def bench(result: ParetoResult) -> dict:
    """The measurements CI uploads as ``BENCH_tiering.json``: each
    point's ``X_read`` latency becomes ``X_read_ms`` (NaN: ``None``)."""
    def field(name, value):
        if not name.endswith("_read"):
            return name, value
        return f"{name}_ms", None if math.isnan(value) else value * 1e3

    points = [dict(field(*item) for item in asdict(point).items())
              for point in result.points.values()]
    return {"objects": result.objects, "object_bytes": result.object_bytes,
            "reads": result.reads, "points": points}
