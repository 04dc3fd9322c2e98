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

from dataclasses import dataclass

import numpy as np

from repro.core.cloud_thread import CloudThread
from repro.core.objects import AtomicInt
from repro.core.runtime import compute, current_environment, current_location
from repro.core.sync import CyclicBarrier
from repro.ml import math as mlmath
from repro.ml.costmodel import kmeans_iteration_cost
from repro.ml.dataset import MLDataset
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

    def __init__(self, worker_id: int, run_id: str, partition_key: str,
                 nominal_points: int, nominal_bytes: int, dims: int, k: int,
                 shards: int, parties: int, max_iterations: int):
        self.worker_id = worker_id
        self.run_id = run_id
        self.partition_key = partition_key
        self.nominal_points = nominal_points
        self.nominal_bytes = nominal_bytes
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
        points = env.object_store.get(self.partition_key)
        compute(self.nominal_bytes * env.config.compute.parse_per_byte)
        load_done = env.now
        iteration_cost = kmeans_iteration_cost(
            self.nominal_points, self.dims, self.k, env.config)
        bounds = np.linspace(0, self.k, self.shards + 1, dtype=int)
        iteration_times = []
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
            iteration_times.append(env.now - iteration_start)
        return {"worker_id": self.worker_id, "load_time": load_done,
                "iteration_times": iteration_times}


@dataclass
class RedisKMeansResult:
    total_time: float
    load_time: float
    iteration_phase_time: float
    per_iteration: list[float]


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

    def train(self) -> RedisKMeansResult:
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
        start = env.now
        threads = [
            CloudThread(RedisKMeansWorker(
                worker_id=i, run_id=self.run_id,
                partition_key=self.dataset.partition_info(i).key,
                nominal_points=self.dataset.nominal_points_per_partition,
                nominal_bytes=self.dataset.nominal_bytes_per_partition,
                dims=self.dataset.features, k=self.k, shards=self.shards,
                parties=self.workers, max_iterations=self.iterations))
            for i in range(self.workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        reports = [thread.result() for thread in threads]
        end = env.now
        per_iteration = [
            max(r["iteration_times"][i] for r in reports)
            for i in range(self.iterations)
        ]
        return RedisKMeansResult(
            total_time=end - start,
            load_time=max(r["load_time"] for r in reports) - start,
            iteration_phase_time=sum(per_iteration),
            per_iteration=per_iteration)
