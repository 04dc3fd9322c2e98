"""MLlib-equivalent algorithms on the mini-Spark engine.

``KMeansMLlib`` and ``LogisticRegressionWithSGD`` follow MLlib's BSP
structure: broadcast the model, map over partitions, reduce partial
aggregates back to the driver, update, repeat.  Each iteration pays
the engine's stage costs plus the calibrated MLlib per-iteration
overhead (k-means runs several jobs per iteration; LR one
treeAggregate) — the reduce-phase cost that Section 6.2.2 identifies
as Spark's per-iteration handicap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml import math as mlmath
from repro.ml.costmodel import kmeans_iteration_cost, logreg_iteration_cost
from repro.ml.dataset import MLDataset, TrainingRun
from repro.simulation.kernel import current_thread
from repro.sparklike.cluster import SparkCluster
from repro.sparklike.rdd import RDD
from repro.storage import ObjectStore


def read_dataset(cluster: SparkCluster, dataset: MLDataset,
                 store: ObjectStore) -> RDD:
    """Load + parse the dataset into an RDD (the pre-iteration phase).

    Each task reads its partition from the object store at nominal
    size and parses it; Spark's row-object loader is slower per byte
    than Crucial's straight numpy parse.
    """
    base = RDD(cluster, list(range(dataset.partitions)),
               dataset.nominal_bytes_per_partition)
    compute = cluster.config.compute
    transfer = (dataset.nominal_bytes_per_partition
                / (cluster.config.storage.s3_get.bandwidth or 85e6))
    parse = (dataset.nominal_bytes_per_partition
             * compute.parse_per_byte * compute.spark_parse_inflation)

    def load(partition_id: int, _data) -> object:
        return dataset.materialize(partition_id)

    return base.map_partitions_with_index(
        load, cost_fn=lambda _data: transfer + parse)


@dataclass
class SparkFitResult(TrainingRun):
    model: np.ndarray
    history: list[float]  # cost (k-means) or loss (LR) per iteration


def _fit(cluster: SparkCluster, dataset: MLDataset, store: ObjectStore,
         iterations: int, model: np.ndarray, iteration_cost: float,
         partial, step, overhead: float) -> SparkFitResult:
    """MLlib's BSP loop: load, then per iteration broadcast the model,
    reduce ``partial(partition, model)`` at the driver, take
    ``step(model, aggregate) -> (model, history entry)`` and pay the
    calibrated per-iteration ``overhead``."""
    kernel = cluster.kernel
    start = kernel.now
    data = read_dataset(cluster, dataset, store)
    load_time = kernel.now - start
    per_iteration: list[float] = []
    history: list[float] = []
    for _iteration in range(iterations):
        iteration_start = kernel.now
        data.broadcast(model)
        aggregate = data.reduce(
            fn=lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]),
            map_fn=lambda part: partial(part, model),
            cost_fn=lambda _part: iteration_cost)
        model, entry = step(model, aggregate)
        current_thread().sleep(overhead)
        history.append(entry)
        per_iteration.append(kernel.now - iteration_start)
    return SparkFitResult(total_time=kernel.now - start,
                          load_time=load_time, per_iteration=per_iteration,
                          model=model, history=history)


class KMeansMLlib:
    """MLlib-style k-means ``train`` on the mini-Spark engine."""

    def __init__(self, cluster: SparkCluster, k: int, iterations: int,
                 seed: int = 7):
        self.cluster = cluster
        self.k = k
        self.iterations = iterations
        self.seed = seed

    def train(self, dataset: MLDataset, store: ObjectStore) -> SparkFitResult:
        config = self.cluster.config
        rng = np.random.Generator(np.random.PCG64(self.seed))

        def step(centroids, aggregate):
            sums, counts, cost = aggregate
            return mlmath.kmeans_update(sums, counts, centroids)[0], cost

        return _fit(
            self.cluster, dataset, store, self.iterations,
            model=mlmath.init_centroids(rng, self.k, dataset.features),
            iteration_cost=kmeans_iteration_cost(
                dataset.nominal_points_per_partition, dataset.features,
                self.k, config, spark=True),
            partial=mlmath.kmeans_partial, step=step,
            # MLlib's k-means runs extra jobs per iteration (cost
            # evaluation, collectAsMap): calibrated fixed overhead.
            overhead=config.spark.mllib_kmeans_iteration_overhead)


class LogisticRegressionWithSGD:
    """MLlib's ``LogisticRegressionWithSGD`` equivalent."""

    def __init__(self, cluster: SparkCluster, iterations: int = 100,
                 learning_rate: float = 0.5):
        self.cluster = cluster
        self.iterations = iterations
        self.learning_rate = learning_rate

    def train(self, dataset: MLDataset, store: ObjectStore) -> SparkFitResult:
        config = self.cluster.config

        def step(weights, aggregate):
            gradient, loss, count = aggregate
            return (mlmath.sgd_step(weights, gradient, count,
                                    self.learning_rate),
                    loss / max(count, 1))

        return _fit(
            self.cluster, dataset, store, self.iterations,
            model=np.zeros(dataset.features),
            iteration_cost=logreg_iteration_cost(
                dataset.nominal_points_per_partition, dataset.features,
                config, spark=True),
            partial=lambda part, weights: mlmath.logreg_partial(
                part[0], part[1], weights), step=step,
            overhead=config.spark.mllib_logreg_iteration_overhead)
