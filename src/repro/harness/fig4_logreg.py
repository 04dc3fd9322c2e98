"""Fig. 4: logistic regression, Crucial versus Spark.

100 SGD iterations over the 100 GB dataset (80 workers / 80
partitions).  Paper: the iterative phase takes 62.3 s in Crucial
versus 75.9 s in Spark (18% faster), and both systems' logistic loss
decreases identically per iteration — Crucial simply finishes sooner
(Fig. 4b plots loss against time).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import attrgetter

from repro import CrucialEnvironment
from repro.harness.claims import Claim, below, between, claim_lines
from repro.metrics.report import comparison_table
from repro.ml.dataset import MLDataset
from repro.ml.logreg import CrucialLogisticRegression
from repro.sparklike import LogisticRegressionWithSGD, run_on_spark

PAPER_CRUCIAL_ITER = 62.3
PAPER_SPARK_ITER = 75.9
PAPER_CRUCIAL_TOTAL = 122.0
PAPER_SPARK_TOTAL = 192.0

CLAIMS = [
    Claim("fig4.iter_gain", "iterative phase faster in Crucial",
          1.0 - PAPER_CRUCIAL_ITER / PAPER_SPARK_ITER,
          lambda r: 1.0 - r.crucial_iter / r.spark_iter,
          between(0.10, 0.35), "{:.0%}"),
    Claim("fig4.crucial_iter", "Crucial iteration phase",
          PAPER_CRUCIAL_ITER, attrgetter("crucial_iter"), between(50, 80),
          "{:.1f}s"),
    Claim("fig4.spark_iter", "Spark iteration phase", PAPER_SPARK_ITER,
          attrgetter("spark_iter"), between(60, 95), "{:.1f}s"),
    Claim("fig4.loss_drop", "final over initial loss (Fig. 4b)", None,
          lambda r: r.crucial_loss[-1] / r.crucial_loss[0], below(0.5)),
    Claim("fig4.loss_drift", "max Crucial/Spark loss difference "
          "(identical math, as in the paper)", None, lambda r: max(
              abs(a - b) for a, b in zip(r.crucial_loss, r.spark_loss)),
          below(1e-9), "{:.2e}"),
]


@dataclass
class LogRegComparison:
    crucial_iter: float
    spark_iter: float
    crucial_total: float
    spark_total: float
    crucial_loss: list[float]
    spark_loss: list[float]
    iterations: int


def run(iterations: int = 100, workers: int = 80,
        seed: int = 5) -> LogRegComparison:
    return _compare(iterations, workers, seed)


@functools.cache
def _compare(iterations: int, workers: int,
             seed: int) -> LogRegComparison:
    """Both training runs, once per process (Table 3 prices them)."""
    dataset = MLDataset("logreg", partitions=workers,
                        materialized_points=40_000, seed=seed)
    with CrucialEnvironment(seed=seed, dso_nodes=1,
                            function_memory_mb=1792) as env:
        job = CrucialLogisticRegression(dataset, iterations=iterations,
                                        workers=workers)
        crucial = env.run(job.train)
    spark = run_on_spark(seed, lambda cluster, store: (
        LogisticRegressionWithSGD(cluster, iterations=iterations)
        .train(dataset, store)))
    return LogRegComparison(
        crucial_iter=crucial.iteration_phase_time,
        spark_iter=spark.iteration_phase_time,
        crucial_total=crucial.total_time,
        spark_total=spark.total_time,
        crucial_loss=crucial.loss_history,
        spark_loss=spark.history,
        iterations=iterations)


def report(result: LogRegComparison) -> str:
    fraction = result.iterations / 100.0
    table = comparison_table(
        f"Fig. 4 - logistic regression, {result.iterations} iterations",
        [
            ("Crucial iteration phase", PAPER_CRUCIAL_ITER * fraction,
             result.crucial_iter),
            ("Spark iteration phase", PAPER_SPARK_ITER * fraction,
             result.spark_iter),
            ("Crucial total", PAPER_CRUCIAL_TOTAL
             - PAPER_CRUCIAL_ITER * (1 - fraction), result.crucial_total),
            ("Spark total", PAPER_SPARK_TOTAL
             - PAPER_SPARK_ITER * (1 - fraction), result.spark_total),
        ], unit="s")
    table += "\n" + claim_lines(CLAIMS, result)
    first, mid, last = (result.crucial_loss[0],
                        result.crucial_loss[len(result.crucial_loss) // 2],
                        result.crucial_loss[-1])
    table += (f"\nFig. 4b loss trajectory (Crucial): "
              f"{first:.4f} -> {mid:.4f} -> {last:.4f}")
    # Fig. 4b plots loss against *time*: same curve, but Crucial's
    # iterations tick faster, so it reaches any loss level sooner.
    from repro.metrics.ascii_plot import sparkline

    table += (
        f"\nloss vs iteration ({result.iterations} iterations):"
        f"\n  crucial {sparkline(result.crucial_loss, width=60)}"
        f" done at t={result.crucial_iter:.1f}s"
        f"\n  spark   {sparkline(result.spark_loss, width=60)}"
        f" done at t={result.spark_iter:.1f}s")
    return table
