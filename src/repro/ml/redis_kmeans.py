"""k-means over Redis (the "Crucial + Redis" line of Fig. 5).

"We also run the k-means application with a modified version of
Crucial that uses Redis for in-memory storage.  Object methods are
implemented in Redis with the help of Lua scripts."  (Section 6.2.2)

The shared state (centroid shards, delta) lives in Redis and is
mutated by server-side scripts; thread synchronization still uses
Crucial's barrier (Redis has no blocking coordination primitive).
Because the Redis server is single-threaded and every centroid
coordinate crosses the Lua boundary, the update scripts serialize —
which is why "the implementation that uses Redis as the storage tier
is always slower than Crucial" (Fig. 5), consistent with Fig. 2a.
"""

from __future__ import annotations

import numpy as np

from repro.core.objects import AtomicInt
from repro.core.runtime import compute, current_environment, current_location
from repro.core.sync import CyclicBarrier
from repro.ml import math as mlmath
from repro.ml.costmodel import kmeans_iteration_cost
from repro.ml.dataset import MLDataset, PartitionInfo, TrainingRun, fork_join
from repro.storage.kvstore import RedisCluster, Script

# -- server-side scripts (the Lua stand-ins) ----------------------------------------


def _script_update(data, key, sums, counts):
    accumulator = data.get(key + ":acc")
    if accumulator is None:
        data[key + ":acc"] = [sums.copy(), counts.copy()]
    else:
        accumulator[0] += sums
        accumulator[1] += counts


def _script_advance(data, key):
    coords = data[key]
    sums, counts = data.pop(key + ":acc")
    new_coords, delta = mlmath.kmeans_update(sums, counts, coords)
    data[key] = new_coords
    return delta


def register_scripts(redis: RedisCluster) -> None:
    per_element = redis.config.redis.lua_per_element
    redis.register_script("kmeans_update", Script(
        fn=_script_update,
        cost=lambda sums, counts: sums.size * per_element))
    redis.register_script("kmeans_advance", Script(
        fn=_script_advance, cost=lambda: 0.0))


# -- workers ----------------------------------------------------------------------------


class RedisKMeansWorker:
    """Same loop as :class:`~repro.ml.kmeans.KMeansWorker`, but state
    ops target Redis scripts instead of DSO methods."""

    def __init__(self, run_id: str, partition: PartitionInfo, dims: int,
                 k: int, shards: int, parties: int, max_iterations: int):
        self.run_id = run_id
        self.partition = partition
        self.dims = dims
        self.k = k
        self.shards = shards
        self.max_iterations = max_iterations
        self.barrier = CyclicBarrier(f"{run_id}/barrier", parties)
        self.iteration_counter = AtomicInt(f"{run_id}/iterations")

    def _shard_key(self, shard: int) -> str:
        return f"{self.run_id}/centroids-{shard}"

    def run(self) -> dict:
        env = current_environment()
        redis = env.redis()
        client = current_location()
        points = self.partition.load()
        load_done = env.now
        iteration_cost = kmeans_iteration_cost(
            self.partition.nominal_points, self.dims, self.k, env.config)
        bounds = np.linspace(0, self.k, self.shards + 1, dtype=int)
        iteration_times = {}
        for iteration in range(self.max_iterations):
            iteration_start = env.now
            centroids = np.concatenate([
                redis.get(client, self._shard_key(s))
                for s in range(self.shards)
            ])
            sums, counts, _cost = mlmath.kmeans_partial(points, centroids)
            compute(iteration_cost, jitter_sigma=0.02)
            for shard in range(self.shards):
                lo, hi = bounds[shard], bounds[shard + 1]
                redis.eval_script(client, "kmeans_update",
                                  self._shard_key(shard),
                                  sums[lo:hi], counts[lo:hi])
            arrival = self.barrier.wait()
            if arrival == 0:
                for shard in range(self.shards):
                    redis.eval_script(client, "kmeans_advance",
                                      self._shard_key(shard))
                self.iteration_counter.compare_and_set(iteration,
                                                       iteration + 1)
            self.barrier.wait()
            iteration_times[iteration] = env.now - iteration_start
        return {"load_time": load_done, "iteration_times": iteration_times}


class RedisKMeans:
    """Driver for the Redis-backed variant."""

    def __init__(self, dataset: MLDataset, k: int, iterations: int,
                 workers: int = 80, shards: int | None = None,
                 run_id: str = "redis-kmeans", seed: int = 7):
        self.dataset = dataset
        self.k = k
        self.iterations = iterations
        self.workers = workers
        self.shards = shards if shards is not None else min(k, 32)
        self.run_id = run_id
        self.seed = seed

    def train(self) -> TrainingRun:
        env = current_environment()
        redis = env.redis()
        register_scripts(redis)
        self.dataset.install(env.object_store)
        env.pre_warm(self.workers)
        rng = np.random.Generator(np.random.PCG64(self.seed))
        initial = mlmath.init_centroids(rng, self.k,
                                        self.dataset.features)
        bounds = np.linspace(0, self.k, self.shards + 1, dtype=int)
        client = current_location()
        for shard in range(self.shards):
            redis.set(client, f"{self.run_id}/centroids-{shard}",
                      initial[bounds[shard]:bounds[shard + 1]])
        _reports, run = fork_join([
            RedisKMeansWorker(
                run_id=self.run_id, partition=self.dataset.partition_info(i),
                dims=self.dataset.features, k=self.k, shards=self.shards,
                parties=self.workers, max_iterations=self.iterations)
            for i in range(self.workers)])
        return run
