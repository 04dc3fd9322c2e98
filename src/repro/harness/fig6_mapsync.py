"""Fig. 6: synchronizing a map phase — five strategies compared.

100 cloud threads each run 100 M Monte-Carlo draws; the reducer learns
completion through one of: S3 polling (PyWren), in-memory KV polling
(Infinispan), Amazon SQS, Crucial futures, or in-store auto-reduce.
Paper shape: SQS slowest; S3 slow with high variance; Infinispan
faster but still polling; futures better; auto-reduce ~2x faster than
the S3 solution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import CrucialEnvironment
from repro.coordination.mapsync import MapSyncExperiment
from repro.harness.claims import (
    INFO, Claim, above, at_most, below, claim_lines)
from repro.metrics.report import render_table

ORDER = ("sqs", "s3-polling", "grid-polling", "future", "auto-reduce")


def _ratio(a: str, b: str):
    """Mean sync time of strategy ``a`` over that of ``b``."""
    return lambda r: r.mean(a) / r.mean(b)


CLAIMS = [
    Claim("fig6.auto_vs_future", "auto-reduce over futures", None,
          _ratio("auto-reduce", "future"), at_most(1.0)),
    Claim("fig6.future_vs_grid", "futures over grid polling", None,
          _ratio("future", "grid-polling"), below(1.0)),
    Claim("fig6.grid_vs_s3", "grid polling over S3 polling", None,
          _ratio("grid-polling", "s3-polling"), below(1.0)),
    Claim("fig6.sqs_vs_future", "SQS over futures", None,
          _ratio("sqs", "future"), above(3.0), "{:.1f}x"),
    Claim("fig6.sqs_vs_s3", "SQS over S3 polling (SQS among the "
          "slowest)", None, _ratio("sqs", "s3-polling"), above(0.5)),
    Claim("fig6.s3_vs_auto", "S3 polling over auto-reduce", 2.0,
          _ratio("s3-polling", "auto-reduce"), above(2.0), "{:.1f}x"),
    Claim("fig6.sync_share", "sync share of the run, mean of strategies",
          0.23, lambda r: sum(r.mean(n) / r.total_times[n]
                              for n in ORDER) / len(ORDER), INFO, "{:.0%}"),
]


@dataclass
class MapSyncComparison:
    #: strategy -> list of sync times (one per repetition)
    sync_times: dict[str, list[float]]
    n_threads: int
    total_times: dict[str, float]

    def mean(self, strategy: str) -> float:
        times = self.sync_times[strategy]
        return sum(times) / len(times)


def run(n_threads: int = 100, draws: int = 100_000_000,
        repetitions: int = 2, seed: int = 8) -> MapSyncComparison:
    sync_times: dict[str, list[float]] = {name: [] for name in ORDER}
    total_times: dict[str, float] = {}
    for repetition in range(repetitions):
        for name in ORDER:
            with CrucialEnvironment(seed=seed + repetition,
                                    dso_nodes=1) as env:
                def main():
                    experiment = MapSyncExperiment(
                        name, n_threads=n_threads, draws=draws,
                        run_id=f"fig6-{name}-{repetition}")
                    return experiment.execute()

                result = env.run(main)
            sync_times[name].append(result.sync_time)
            total_times[name] = result.total_time
    return MapSyncComparison(sync_times=sync_times, n_threads=n_threads,
                             total_times=total_times)


def report(result: MapSyncComparison) -> str:
    rows = []
    for name in ORDER:
        times = result.sync_times[name]
        mean = result.mean(name)
        spread = max(times) - min(times)
        rows.append((name, f"{mean:.2f}s", f"{min(times):.2f}s",
                     f"{max(times):.2f}s", f"{spread:.2f}s"))
    table = render_table(
        ["strategy", "mean sync", "min", "max", "spread"], rows,
        title=(f"Fig. 6 - map-phase synchronization time, "
               f"{result.n_threads} threads"))
    from repro.metrics.ascii_plot import bar_chart

    table += "\n" + bar_chart(
        list(ORDER), [result.mean(name) for name in ORDER], unit="s")
    table += "\n" + claim_lines(CLAIMS, result)
    return table
