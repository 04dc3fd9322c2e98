"""Fig. 8: inference serving under storage-node churn.

A 200-centroid k-means model is stored in 3 DSO nodes with rf=2; 100
cloud threads perform inferences in closed loop.  One node is crashed
a third of the way through and a fresh node added at two thirds.
Paper shape: ~490 inferences/s steady state; the crash costs ~30% of
throughput (a third of serving capacity); adding a node restores the
initial throughput after a rebalancing ramp (~20 s in the paper); the
system never blocks.

The paper's run lasts 360 s; the default here is a 120 s run with the
same proportions (crash at T/3, join at 2T/3) — pass
``duration=360`` for the full-length version.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import CrucialEnvironment
from repro.harness.claims import Claim, above, between, claim_lines
from repro.metrics.report import render_table
from repro.ml.inference import (
    InferenceRunResult,
    deploy_model,
    run_inference_load,
)
from repro.simulation.thread import sleep, spawn

CLAIMS = [
    Claim("fig8.steady", "steady-state throughput", 490.0,
          lambda r: r.steady(), between(380, 600), "{:.0f} inf/s"),
    Claim("fig8.crash_drop", "throughput lost to the crash", 0.30,
          lambda r: 1.0 - r.degraded() / r.steady(), between(0.2, 0.45),
          "{:.0%}"),
    Claim("fig8.degraded", "throughput after the crash (never blocks)",
          None, lambda r: r.degraded(), above(100), "{:.0f} inf/s"),
    Claim("fig8.recovered", "throughput after the join, of steady", 1.0,
          lambda r: r.recovered() / r.steady(), above(0.9), "{:.0%}"),
]


@dataclass
class PersistenceResult:
    run: InferenceRunResult
    crash_at: float
    join_at: float
    detection: float

    def steady(self) -> float:
        return self.run.throughput_between(0.2 * self.crash_at,
                                           0.9 * self.crash_at)

    def degraded(self) -> float:
        start = min(self.crash_at + self.detection + 2.0,
                    0.5 * (self.crash_at + self.join_at))
        return self.run.throughput_between(start, self.join_at)

    def recovered(self) -> float:
        return self.run.throughput_between(0.92 * self.run.duration,
                                           self.run.duration)


def run(duration: float = 120.0, n_threads: int = 100,
        n_objects: int = 200, seed: int = 12) -> PersistenceResult:
    crash_at = duration / 3.0
    join_at = 2.0 * duration / 3.0
    with CrucialEnvironment(seed=seed, dso_nodes=3) as env:
        detection = env.config.dso.failure_detection

        def main():
            deploy_model("fig8", k=n_objects, rf=2, seed=seed)

            def chaos():
                sleep(crash_at)
                victim = env.dso.live_nodes()[0].name
                env.dso.crash_node(victim)
                sleep(join_at - crash_at)
                env.dso.add_node()

            spawn(chaos, name="chaos", daemon=True)
            return run_inference_load("fig8", n_threads=n_threads,
                                      duration=duration,
                                      n_objects=n_objects)

        result = env.run(main)
    return PersistenceResult(run=result, crash_at=crash_at,
                             join_at=join_at, detection=detection)


def report(result: PersistenceResult) -> str:
    steady = result.steady()
    degraded = result.degraded()
    recovered = result.recovered()
    drop = 1.0 - degraded / steady if steady else 0.0
    rows = [
        ("steady state", f"{steady:.0f} inf/s"),
        (f"after crash (t={result.crash_at:.0f}s + detection)",
         f"{degraded:.0f} inf/s ({drop:-.0%} vs steady)"),
        (f"after join (t={result.join_at:.0f}s) + rebalance",
         f"{recovered:.0f} inf/s"),
    ]
    table = render_table(["window", "throughput"], rows,
                         title="Fig. 8 - inference serving under churn")
    from repro.metrics.ascii_plot import sparkline

    table += (
        "\n" + claim_lines(CLAIMS, result)
        + f"\nthroughput series (1s buckets, crash at "
        f"{result.crash_at:.0f}s, join at {result.join_at:.0f}s):"
        f"\n  {sparkline(result.run.per_second[:int(result.run.duration)], width=72)}"
        f"\nper-second series (5s buckets): "
        + " ".join(
            f"{sum(result.run.per_second[i:i + 5]) / 5:.0f}"
            for i in range(0, int(result.run.duration), 5)))
    return table
