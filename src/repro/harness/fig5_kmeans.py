"""Fig. 5: k-means completion time (10 iterations) versus k.

Three systems — Crucial, Spark MLlib, and Crucial-over-Redis — across
k in {25, 50, 100, 200}.  Paper shape: Crucial completes k=25 40%
faster than Spark (20.4 s vs 34 s); the gap narrows as k grows because
computation increasingly dominates the iteration; the Redis variant is
always slower than Crucial.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro import CrucialEnvironment
from repro.harness.claims import Claim, above, below, between, claim_lines
from repro.metrics.report import render_table
from repro.ml.dataset import MLDataset
from repro.ml.kmeans import CrucialKMeans
from repro.ml.redis_kmeans import RedisKMeans
from repro.sparklike import KMeansMLlib, run_on_spark

#: Paper values for the 10-iteration phase at k=25, seconds.
PAPER_K25 = {"crucial": 20.4, "spark": 34.0}

#: The seed Fig. 5 trains at, and so the runs Table 3 prices.
SEED = 6


def _gap(result, k: int) -> float | None:
    """How much faster Crucial is than Spark at ``k``, as a fraction."""
    times = result.iteration_times
    if ("crucial", k) not in times:
        return None
    return 1.0 - times[("crucial", k)] / times[("spark", k)]


CLAIMS = [
    Claim("fig5.k25_gain", "k=25: Crucial faster than Spark",
          1.0 - PAPER_K25["crucial"] / PAPER_K25["spark"],
          lambda r: _gap(r, 25), between(0.25, 0.55), "{:.0%}"),
    *(Claim(f"fig5.k25_{system}", f"k=25: {system} iteration phase",
            PAPER_K25[system], lambda r, s=system: r.iteration_times.get(
                (s, 25)), bound, "{:.1f}s")
      for system, bound in (("crucial", between(15, 26)),
                            ("spark", between(28, 42)))),
    Claim("fig5.gap_narrows", "gap at the largest k over the gap at k=25",
          None, lambda r: _gap(r, max(k for _s, k in r.iteration_times))
          / _gap(r, 25) if _gap(r, 25) else None, below(1.0)),
    Claim("fig5.redis_slower", "Redis variant over Crucial, closest k",
          None, lambda r: min(r.iteration_times[("redis", k)]
                              / r.iteration_times[("crucial", k)]
                              for _s, k in r.iteration_times), above(1.0)),
]


@dataclass
class KMeansComparison:
    #: (system, k) -> iteration-phase seconds
    iteration_times: dict[tuple[str, int], float]
    #: (system, k) -> total seconds (load + iterations)
    total_times: dict[tuple[str, int], float]
    iterations: int
    workers: int


@functools.cache
def _run_crucial(k: int, iterations: int, workers: int,
                 seed: int) -> tuple[float, float]:
    with CrucialEnvironment(seed=seed, dso_nodes=1,
                            function_memory_mb=2048) as env:
        dataset = MLDataset("kmeans", partitions=workers, seed=seed)
        job = CrucialKMeans(dataset, k=k, iterations=iterations,
                            workers=workers, run_id=f"fig5-c-{k}")
        result = env.run(job.train)
        return result.iteration_phase_time, result.total_time


@functools.cache
def _run_spark(k: int, iterations: int, workers: int,
               seed: int) -> tuple[float, float]:
    dataset = MLDataset("kmeans", partitions=workers, seed=seed)
    result = run_on_spark(seed, lambda cluster, store: (
        KMeansMLlib(cluster, k=k, iterations=iterations)
        .train(dataset, store)))
    return result.iteration_phase_time, result.total_time


@functools.cache
def _run_redis(k: int, iterations: int, workers: int,
               seed: int) -> tuple[float, float]:
    with CrucialEnvironment(seed=seed, dso_nodes=1,
                            function_memory_mb=2048) as env:
        dataset = MLDataset("kmeans", partitions=workers, seed=seed)
        job = RedisKMeans(dataset, k=k, iterations=iterations,
                          workers=workers, run_id=f"fig5-r-{k}")
        result = env.run(job.train)
        return result.iteration_phase_time, result.total_time


#: system -> runner(k, iterations, workers, seed) returning the
#: (iteration phase, total) seconds of one training run, computed
#: once per process: Table 3 prices the runs Fig. 5 made.
RUNNERS = {"crucial": _run_crucial, "spark": _run_spark,
           "redis": _run_redis}


def run(ks: tuple[int, ...] = (25, 100, 200), iterations: int = 10,
        workers: int = 80, seed: int = SEED) -> KMeansComparison:
    iteration_times: dict[tuple[str, int], float] = {}
    total_times: dict[tuple[str, int], float] = {}
    for k in ks:
        for system, runner in RUNNERS.items():
            iter_time, total_time = runner(k, iterations, workers, seed)
            iteration_times[(system, k)] = iter_time
            total_times[(system, k)] = total_time
    return KMeansComparison(iteration_times=iteration_times,
                            total_times=total_times,
                            iterations=iterations, workers=workers)


def report(result: KMeansComparison) -> str:
    ks = sorted({k for _s, k in result.iteration_times})
    rows = []
    for system in ("crucial", "spark", "redis"):
        rows.append([system] + [
            f"{result.iteration_times[(system, k)]:.1f}s" for k in ks])
    table = render_table(
        ["system"] + [f"k={k}" for k in ks], rows,
        title=(f"Fig. 5 - k-means {result.iterations}-iteration phase, "
               f"{result.workers} workers"))
    table += ("\nrelative gap (Spark - Crucial) / Spark: "
              + ", ".join(f"k={k}: {_gap(result, k):.0%}" for k in ks))
    table += "\n" + claim_lines(CLAIMS, result)
    return table
