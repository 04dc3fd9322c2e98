"""Crucial k-means (Listing 2).

Iterative clustering with recurring synchronization points and a small
mutable shared state: the centroids (a list of ``@Shared`` objects,
one shard per subset of clusters), the convergence criterion
(``GlobalDelta``), an iteration counter, and a cyclic barrier
coordinating the iterations.  The corresponding method calls execute
remotely in the DSO layer — the in-store aggregation that replaces
Spark's reduce phase (Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cloud_thread import RetryPolicy
from repro.core.objects import AtomicInt
from repro.core.runtime import compute, current_environment
from repro.core.shared import dso_costs, shared
from repro.core.sync import CyclicBarrier
from repro.ml import math as mlmath
from repro.ml.costmodel import kmeans_iteration_cost
from repro.ml.dataset import MLDataset, PartitionInfo, TrainingRun, fork_join


@dso_costs(update=lambda sums, counts: sums.size * 2e-9,
           get=lambda: 0.0)
class CentroidShard:
    """A subset of the k centroids, with in-store partial aggregation.

    Workers ``update`` it with partial sums/counts; after the barrier,
    one worker calls ``advance`` to fold the accumulators into new
    coordinates (state machine step; deterministic).
    """

    def __init__(self, coords: np.ndarray):
        self.coords = np.asarray(coords, dtype=np.float64)
        self.acc_sums = np.zeros_like(self.coords)
        self.acc_counts = np.zeros(len(self.coords), dtype=np.int64)

    def get(self) -> np.ndarray:
        return self.coords

    def update(self, sums: np.ndarray, counts: np.ndarray) -> None:
        self.acc_sums += sums
        self.acc_counts += counts

    def advance(self) -> float:
        """Fold accumulators into the next coordinates; returns the
        movement (delta) of this shard's centroids."""
        new_coords, delta = mlmath.kmeans_update(
            self.acc_sums, self.acc_counts, self.coords)
        self.coords = new_coords
        self.acc_sums[:] = 0.0
        self.acc_counts[:] = 0
        return delta


class GlobalDelta:
    """The convergence criterion (Listing 2's ``GlobalDelta``)."""

    def __init__(self):
        self.delta = 0.0
        self.history: list[float] = []

    def update(self, delta: float) -> None:
        self.delta += delta

    def seal(self) -> float:
        """Close the current iteration's delta and reset."""
        self.history.append(self.delta)
        value = self.delta
        self.delta = 0.0
        return value

    def get(self) -> float:
        return self.history[-1] if self.history else float("inf")

    def get_history(self) -> list[float]:
        return list(self.history)


class KMeansWorker:
    """The per-cloud-thread Runnable of Listing 2."""

    def __init__(self, run_id: str, partition: PartitionInfo, dims: int,
                 k: int, shards: int, parties: int, max_iterations: int,
                 initial_centroids: np.ndarray,
                 convergence_delta: float = 0.0):
        self.partition = partition
        self.dims = dims
        self.k = k
        self.max_iterations = max_iterations
        self.convergence_delta = convergence_delta
        bounds = np.linspace(0, k, shards + 1, dtype=int)
        self.shard_proxies = [
            shared(CentroidShard, f"{run_id}/centroids-{s}",
                   initial_centroids[bounds[s]:bounds[s + 1]])
            for s in range(shards)
        ]
        self.global_delta = shared(GlobalDelta, key=f"{run_id}/delta")
        self.iteration_counter = AtomicInt(f"{run_id}/iterations")
        self.barrier = CyclicBarrier(f"{run_id}/barrier", parties)

    def _converged(self) -> bool:
        return (self.convergence_delta > 0
                and self.global_delta.get() < self.convergence_delta)

    def run(self) -> dict:
        env = current_environment()
        points = self.partition.load()
        load_done = env.now
        iteration_cost = kmeans_iteration_cost(
            self.partition.nominal_points, self.dims, self.k, env.config)
        iteration_times = {}
        # Listing 2's end condition comes first: a body retried after
        # the run ended resumes at the shared counter and runs nothing.
        iteration = self.iteration_counter.get()
        while iteration < self.max_iterations and not self._converged():
            iteration_start = env.now
            correct_centroids = np.concatenate(
                [proxy.get() for proxy in self.shard_proxies])
            sums, counts, _cost = mlmath.kmeans_partial(
                points, correct_centroids)
            compute(iteration_cost, jitter_sigma=0.02)
            bounds = np.linspace(0, self.k, len(self.shard_proxies) + 1,
                                 dtype=int)
            for index, proxy in enumerate(self.shard_proxies):
                lo, hi = bounds[index], bounds[index + 1]
                proxy.update(sums[lo:hi], counts[lo:hi])
            arrival = self.barrier.wait()
            if arrival == 0:  # last to arrive advances the global state
                for proxy in self.shard_proxies:
                    self.global_delta.update(proxy.advance())
                self.global_delta.seal()
                self.iteration_counter.compare_and_set(
                    iteration, iteration + 1)
            self.barrier.wait()
            iteration_times[iteration] = env.now - iteration_start
            iteration += 1
        return {"load_time": load_done, "iteration_times": iteration_times,
                "iterations_done": iteration}


@dataclass
class KMeansResult(TrainingRun):
    centroids: np.ndarray
    iterations: int
    delta_history: list[float]


class CrucialKMeans:
    """Driver: provisions workers, runs Listing 2, gathers timings."""

    def __init__(self, dataset: MLDataset, k: int, iterations: int,
                 workers: int = 80, shards: int | None = None,
                 run_id: str = "kmeans", seed: int = 7,
                 convergence_delta: float = 0.0,
                 retry_policy: RetryPolicy | None = None):
        if workers > dataset.partitions:
            raise ValueError("more workers than dataset partitions")
        self.dataset = dataset
        self.k = k
        self.iterations = iterations
        self.workers = workers
        self.shards = shards if shards is not None else min(k, 32)
        self.run_id = run_id
        self.seed = seed
        self.convergence_delta = convergence_delta
        self.retry_policy = retry_policy

    def train(self) -> KMeansResult:
        """Run the full job; call from inside ``env.run(...)``."""
        env = current_environment()
        self.dataset.install(env.object_store)
        env.pre_warm(self.workers)
        rng = np.random.Generator(np.random.PCG64(self.seed))
        initial = mlmath.init_centroids(rng, self.k, self.dataset.features)
        runnables = [
            KMeansWorker(
                run_id=self.run_id, partition=self.dataset.partition_info(i),
                dims=self.dataset.features, k=self.k, shards=self.shards,
                parties=self.workers, max_iterations=self.iterations,
                initial_centroids=initial,
                convergence_delta=self.convergence_delta)
            for i in range(self.workers)
        ]
        reports, run = fork_join(runnables, self.retry_policy)
        centroids = np.concatenate([
            runnables[0].shard_proxies[s].get()
            for s in range(self.shards)])
        return KMeansResult(
            centroids=centroids,
            iterations=max(r["iterations_done"] for r in reports),
            delta_history=runnables[0].global_delta.get_history(),
            **vars(run))
