"""Fig. 3: k-means scale-up, FaaS + Crucial versus VM threads.

Input grows proportionally to the thread count; scale-up is
``T1 / Tn`` over the iteration phase.  The VM baselines (8- and
16-core machines) collapse once threads exceed cores; Crucial stays
within ~10% of the optimum (0.94 at 160 threads, 0.90 at 320).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import CrucialEnvironment
from repro.harness.claims import Claim, above, below, claim_lines
from repro.metrics.report import render_table
from repro.ml.dataset import MLDataset
from repro.ml.kmeans import CrucialKMeans
from repro.ml.local import LocalKMeansBaseline
from repro.simulation.kernel import Kernel


CLAIMS = [
    Claim(f"fig3.{name}_{threads}", f"{system} scale-up at {threads} "
          "threads", paper, lambda r, s=system, n=threads:
          r.curves[s].get(n), bound, "{:.2f}")
    for name, system, threads, paper, bound in (
        ("crucial", "crucial", 160, 0.94, above(0.85)),
        ("crucial", "crucial", 320, 0.90, above(0.80)),
        ("vm8", "vm-8-cores", 160, None, below(0.10)),
        ("vm16", "vm-16-cores", 160, None, below(0.20)),
        ("vm16", "vm-16-cores", 16, None, above(0.95)))
]


@dataclass
class ScaleUpResult:
    #: system -> {threads: scale_up}
    curves: dict[str, dict[int, float]]
    iterations: int
    k: int


def _crucial_time(threads: int, k: int, iterations: int,
                  seed: int) -> float:
    with CrucialEnvironment(seed=seed, dso_nodes=1) as env:
        # Input grows proportionally to the thread count: each worker
        # always holds one paper-sized partition (695k points).
        dataset = MLDataset("kmeans", partitions=threads,
                            materialized_points=max(4000, threads * 60),
                            nominal_points=695_000 * threads,
                            nominal_bytes=1_250_000_000 * threads)
        job = CrucialKMeans(dataset, k=k, iterations=iterations,
                            workers=threads, run_id=f"fig3-{threads}")

        def main():
            return job.train().iteration_phase_time

        return env.run(main)


def _vm_time(cores: int, threads: int, k: int, iterations: int,
             seed: int) -> float:
    with Kernel(seed=seed) as kernel:
        baseline = LocalKMeansBaseline(kernel, cores=cores)

        def main():
            return baseline.run(threads, k=k,
                                iterations=iterations).iteration_phase_time

        return kernel.run_main(main)


def run(thread_counts: tuple[int, ...] = (1, 16, 160, 320),
        k: int = 25, iterations: int = 10, seed: int = 4) -> ScaleUpResult:
    curves: dict[str, dict[int, float]] = {}
    for label, timer in (
        ("crucial", lambda n: _crucial_time(n, k, iterations, seed)),
        ("vm-8-cores", lambda n: _vm_time(8, n, k, iterations, seed)),
        ("vm-16-cores", lambda n: _vm_time(16, n, k, iterations, seed)),
    ):
        times = {n: timer(n) for n in thread_counts}
        t1 = times[thread_counts[0]]
        curves[label] = {n: t1 / tn for n, tn in times.items()}
    return ScaleUpResult(curves=curves, iterations=iterations, k=k)


def report(result: ScaleUpResult) -> str:
    threads = sorted(next(iter(result.curves.values())))
    rows = []
    for system, curve in result.curves.items():
        rows.append([system] + [f"{curve[n]:.2f}" for n in threads])
    table = render_table(
        ["system"] + [str(n) for n in threads], rows,
        title=(f"Fig. 3 - k-means scale-up (T1/Tn), k={result.k}, "
               f"{result.iterations} iterations"))
    return table + "\n" + claim_lines(CLAIMS, result)
