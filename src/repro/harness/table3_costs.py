"""Table 3: monetary costs of the Spark/Crucial experiments.

The paper's method: 2019 AWS prices (:class:`repro.config.AwsPrices`)
times the measured Fig. 4/5 run times — Lambda GB-seconds + requests +
one r5.2xlarge storage node for Crucial; the 11-node EMR cluster for
Spark; no provisioning time, no free tier.  The runs are the figures'
own, computed once per process.  Paper shape: costs are comparable
where Crucial is much faster (k=25); Crucial costs more where
computation dominates (k=200), because its per-second rate is higher
(0.28 vs 0.15 cents/s).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import Config, DEFAULT_CONFIG
from repro.harness import fig4_logreg, fig5_kmeans
from repro.harness.claims import Claim, above, below, between, claim_lines
from repro.metrics.report import render_table

PRICES = DEFAULT_CONFIG.prices

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


@dataclass(frozen=True)
class Cost:
    total_seconds: float
    total_dollars: float
    iteration_dollars: float


def crucial_rate(functions: int, memory_mb: int) -> float:
    """$/s while all functions and the one DSO node are running.

    With 80 x 1792 MB this is ~0.25 cents/s, with 80 x 2048 MB
    ~0.28 cents/s — Section 6.2.3's quoted rates.
    """
    return (PRICES.lambda_dollars(functions * (memory_mb / 1024.0))
            + PRICES.node_dollars(1, PRICES.ec2_r5_2xlarge_hour))


def spark_rate(config: Config = DEFAULT_CONFIG) -> float:
    """$/s of the EMR cluster (the configured workers plus a master),
    EC2 + EMR surcharge per node: ~0.15 cents/s for 11 m5.2xlarge."""
    prices = config.prices
    return prices.node_dollars(
        config.spark.worker_nodes + 1,
        prices.ec2_m5_2xlarge_hour + prices.emr_m5_2xlarge_hour)


def crucial_cost(total_seconds: float, iteration_seconds: float,
                 functions: int, memory_mb: int) -> Cost:
    """One invocation per function, billed for the whole run."""
    rate = crucial_rate(functions, memory_mb)
    return Cost(total_seconds,
                rate * total_seconds + PRICES.lambda_dollars(0, functions),
                rate * iteration_seconds)


def spark_cost(total_seconds: float, iteration_seconds: float) -> Cost:
    rate = spark_rate()
    return Cost(total_seconds, rate * total_seconds, rate * iteration_seconds)


@dataclass
class CostsResult:
    costs: dict[tuple[str, str], Cost]


def run(iterations_logreg: int = 100, iterations_kmeans: int = 10,
        workers: int = 80) -> CostsResult:
    costs: dict[tuple[str, str], Cost] = {}

    # Only the two systems Table 3 prices: Fig. 5's Redis variant
    # would cost a third of the run for nothing.
    for k in (25, 200):
        label = f"k-means k={k}"
        iteration, total = fig5_kmeans.RUNNERS["crucial"](
            k, iterations_kmeans, workers, fig5_kmeans.SEED)
        costs[(label, "crucial")] = crucial_cost(
            total, iteration, functions=workers, memory_mb=2048)
        iteration, total = fig5_kmeans.RUNNERS["spark"](
            k, iterations_kmeans, workers, fig5_kmeans.SEED)
        costs[(label, "spark")] = spark_cost(total, iteration)

    logreg = fig4_logreg.run(iterations=iterations_logreg,
                             workers=workers)
    label = "logistic regression"
    costs[(label, "crucial")] = crucial_cost(
        logreg.crucial_total, logreg.crucial_iter,
        functions=workers, memory_mb=1792)
    costs[(label, "spark")] = spark_cost(logreg.spark_total,
                                         logreg.spark_iter)
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
