"""Table 3: monetary costs of the Spark/Crucial experiments.

Applies the 2019 AWS pricing model to the measured Fig. 4/5 run times:
Lambda GB-seconds + requests + one r5.2xlarge storage node for
Crucial; the 11-node EMR cluster for Spark.  Paper shape: costs are
comparable where Crucial is much faster (k=25); Crucial costs more
where computation dominates (k=200), because its per-second rate is
higher (0.28 vs 0.15 cents/s).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness import fig4_logreg, fig5_kmeans
from repro.harness.claims import Claim, above, below, between, claim_lines
from repro.metrics.cost import CostModel, ExperimentCost
from repro.metrics.report import render_table

#: Table 3 reference values: (total $, iterations $).
PAPER = {
    ("k-means k=25", "spark"): (0.246, 0.050),
    ("k-means k=25", "crucial"): (0.244, 0.057),
    ("k-means k=200", "spark"): (0.484, 0.288),
    ("k-means k=200", "crucial"): (0.657, 0.492),
    ("logistic regression", "spark"): (0.282, 0.111),
    ("logistic regression", "crucial"): (0.302, 0.154),
}


def _totals(result) -> dict[tuple[str, str], tuple[float, float]]:
    """The measured costs, shaped as :data:`PAPER`."""
    return {key: (cost.total_dollars, cost.iteration_dollars)
            for key, cost in result.costs.items()}


def _premium(costs, k: int) -> float:
    """Crucial's total minus Spark's at ``k``, from a table shaped as
    :data:`PAPER`."""
    label = f"k-means k={k}"
    return costs[(label, "crucial")][0] - costs[(label, "spark")][0]


CLAIMS = [
    Claim("table3.k25_gap", "k=25: Crucial vs Spark total, magnitude",
          abs(_premium(PAPER, 25)), lambda r: abs(_premium(_totals(r), 25)),
          below(0.12), "${:.3f}"),
    Claim("table3.k200_premium", "k=200 (compute-bound): Crucial minus "
          "Spark total", _premium(PAPER, 200),
          lambda r: _premium(_totals(r), 200), above(0.0), "${:.3f}"),
    *(Claim(f"table3.k{k}_crucial", f"k={k}: Crucial total",
            PAPER[(f"k-means k={k}", "crucial")][0],
            lambda r, k=k: _totals(r)[(f"k-means k={k}", "crucial")][0],
            bound, "${:.3f}")
      for k, bound in ((25, between(0.15, 0.35)),
                       (200, between(0.3, 0.95)))),
]


@dataclass
class CostsResult:
    #: (experiment, system) -> ExperimentCost
    costs: dict[tuple[str, str], ExperimentCost]


def run(iterations_logreg: int = 100, iterations_kmeans: int = 10,
        workers: int = 80, seed: int = 6) -> CostsResult:
    model = CostModel()
    costs: dict[tuple[str, str], ExperimentCost] = {}

    # Only the two systems Table 3 prices: Fig. 5's Redis variant
    # would cost a third of the run for nothing.
    for k in (25, 200):
        label = f"k-means k={k}"
        iteration, total = fig5_kmeans.RUNNERS["crucial"](
            k, iterations_kmeans, workers, seed)
        costs[(label, "crucial")] = model.crucial_experiment(
            label, total_seconds=total, iteration_seconds=iteration,
            functions=workers, memory_mb=2048)
        iteration, total = fig5_kmeans.RUNNERS["spark"](
            k, iterations_kmeans, workers, seed)
        costs[(label, "spark")] = model.spark_experiment(
            label, total_seconds=total, iteration_seconds=iteration)

    logreg = fig4_logreg.run(iterations=iterations_logreg,
                             workers=workers, seed=seed)
    label = "logistic regression"
    costs[(label, "crucial")] = model.crucial_experiment(
        label, total_seconds=logreg.crucial_total,
        iteration_seconds=logreg.crucial_iter,
        functions=workers, memory_mb=1792)
    costs[(label, "spark")] = model.spark_experiment(
        label, total_seconds=logreg.spark_total,
        iteration_seconds=logreg.spark_iter)
    return CostsResult(costs=costs)


def report(result: CostsResult) -> str:
    rows = []
    for (experiment, system), cost in sorted(result.costs.items()):
        paper_total, paper_iter = PAPER[(experiment, system)]
        rows.append((experiment, system,
                     f"{cost.total_seconds:.0f}s",
                     f"${cost.total_dollars:.3f}",
                     f"${paper_total:.3f}",
                     f"${cost.iteration_dollars:.3f}",
                     f"${paper_iter:.3f}"))
    table = render_table(
        ["experiment", "system", "time", "total $", "paper $",
         "iter $", "paper iter $"],
        rows, title="Table 3 - monetary costs")
    return table + "\n" + claim_lines(CLAIMS, result)
