"""Fig. 7c: the Santa Claus problem across the three deployments.

10 elves, 9 reindeer, Santa, 15 toy deliveries.  Paper shape: moving
the monitor objects into the DSO layer costs ~8% over POJO; running
entities as cloud threads changes almost nothing beyond invocation
overhead (cold starts excluded).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import CrucialEnvironment
from repro.coordination.santa import SantaClausProblem, SantaResult
from repro.harness.claims import Claim, below, between, claim_lines, exactly
from repro.metrics.report import render_table

CLAIMS = [
    Claim("fig7c.all_delivered", "every variant makes every delivery",
          True, lambda r: all(v.deliveries == r.deliveries
                              for v in r.results.values()), exactly(True)),
    Claim("fig7c.dso_overhead", "DSO monitors over POJO", 0.08,
          lambda r: r.overhead("dso"), between(-0.02, 0.25), "{:+.1%}"),
    Claim("fig7c.cloud_vs_dso", "cloud threads beyond DSO (invocation "
          "only)", 0.0, lambda r: r.overhead("cloud") - r.overhead("dso"),
          below(0.20), "{:+.1%}"),
]


@dataclass
class SantaComparison:
    results: dict[str, SantaResult]
    deliveries: int

    def overhead(self, variant: str) -> float:
        return (self.results[variant].elapsed
                / self.results["local"].elapsed - 1.0)


def run(deliveries: int = 15, seed: int = 11) -> SantaComparison:
    results: dict[str, SantaResult] = {}
    for variant in ("local", "dso", "cloud"):
        with CrucialEnvironment(seed=seed, dso_nodes=1) as env:
            problem = SantaClausProblem(deliveries=deliveries, seed=seed)
            results[variant] = env.run(
                lambda v=variant: problem.run(v))
    return SantaComparison(results=results, deliveries=deliveries)


def report(result: SantaComparison) -> str:
    rows = []
    for variant in ("local", "dso", "cloud"):
        r = result.results[variant]
        overhead = result.overhead(variant)
        rows.append((variant, f"{r.elapsed:.2f}s", f"{overhead:+.1%}",
                     r.deliveries, r.helps))
    table = render_table(
        ["variant", "completion", "vs local", "deliveries", "helps"],
        rows,
        title=f"Fig. 7c - Santa Claus problem, {result.deliveries} "
              "deliveries")
    table += "\n" + claim_lines(CLAIMS, result)
    return table
