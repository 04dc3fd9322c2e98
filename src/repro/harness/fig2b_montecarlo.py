"""Fig. 2b: scalability of the Monte Carlo simulation (Listing 1).

1 to 800 cloud threads draw 100 M points each and aggregate into one
shared counter.  The paper reports linear scaling with a 512x speedup
at 800 threads and 8.4 billion points/second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import CrucialEnvironment
from repro.apps.montecarlo import estimate_pi
from repro.harness.claims import Claim, above, below, between, claim_lines
from repro.metrics.report import render_table

CLAIMS = [
    Claim("fig2b.speedup_800", "speedup at 800 threads", 512.0,
          lambda r: r.speedup(800) if 800 in r.runs else None,
          between(400, 700), "{:.0f}x"),
    Claim("fig2b.points_800", "points/s at 800 threads", 8.4,
          lambda r: r.runs[800][2] / 1e9 if 800 in r.runs else None,
          between(6.0, 10.0), "{:.1f}G/s"),
    Claim("fig2b.speedup_50", "speedup at 50 threads (near-linear)", None,
          lambda r: r.speedup(50) if 50 in r.runs else None, above(40),
          "{:.0f}x"),
    Claim("fig2b.pi_error", "worst error of a pi estimate", None,
          lambda r: max(abs(run[0] - math.pi) for run in r.runs.values()),
          below(1e-3), "{:.1e}"),
]


@dataclass
class MonteCarloScaling:
    #: threads -> (pi estimate, elapsed, points/second)
    runs: dict[int, tuple[float, float, float]]
    draws_per_thread: int

    def speedup(self, threads: int) -> float:
        base = self.runs[1][2]
        return self.runs[threads][2] / base


def run(thread_counts: tuple[int, ...] = (1, 50, 200, 800),
        draws: int = 100_000_000, seed: int = 3) -> MonteCarloScaling:
    runs = {}
    for threads in thread_counts:
        with CrucialEnvironment(seed=seed, dso_nodes=1) as env:
            def main():
                return estimate_pi(threads, draws,
                                   counter_key=f"pi-{threads}")

            estimate, elapsed = env.run(main)
        points_per_second = threads * draws / elapsed
        runs[threads] = (estimate, elapsed, points_per_second)
    return MonteCarloScaling(runs=runs, draws_per_thread=draws)


def report(result: MonteCarloScaling) -> str:
    rows = []
    for threads, (estimate, elapsed, pps) in sorted(result.runs.items()):
        rows.append((threads, f"{estimate:.5f}", f"{elapsed:.2f}s",
                     f"{pps / 1e9:.2f}G/s",
                     f"{result.speedup(threads):.0f}x"))
    table = render_table(
        ["threads", "pi", "elapsed", "points/s", "speedup"], rows,
        title="Fig. 2b - Monte Carlo scalability")
    return table + "\n" + claim_lines(CLAIMS, result)
