"""Integration tests: whole-system scenarios at reduced scale."""

import functools

import numpy as np
import pytest

from repro import CrucialEnvironment
from repro.ml import MLDataset
from repro.ml import math as mlmath
from repro.ml.dataset import TrainingRun
from repro.ml.kmeans import CrucialKMeans
from repro.ml.logreg import CrucialLogisticRegression
from repro.ml.redis_kmeans import RedisKMeans
from repro.net import LatencyModel, Network
from repro.simulation.kernel import Kernel
from repro.sparklike import KMeansMLlib, LogisticRegressionWithSGD, SparkCluster
from repro.storage import ObjectStore

WORKERS = 6
SMALL = dict(partitions=WORKERS, materialized_points=3000,
             nominal_points=100_000, nominal_bytes=10 ** 8)


def small_dataset(kind, seed=123):
    return MLDataset(kind, seed=seed, **SMALL)


def test_crucial_kmeans_end_to_end():
    dataset = small_dataset("kmeans")
    with CrucialEnvironment(seed=81, dso_nodes=2) as env:
        job = CrucialKMeans(dataset, k=4, iterations=5, workers=WORKERS,
                            run_id="it-km")
        result = env.run(job.train)
    assert result.iterations == 5
    assert result.centroids.shape == (4, dataset.features)
    assert len(result.per_iteration) == 5
    assert result.total_time > result.iteration_phase_time > 0
    # The clustering criterion shrinks over iterations.
    assert result.delta_history[-1] < result.delta_history[0]


def test_crucial_and_spark_kmeans_converge_identically():
    dataset = small_dataset("kmeans")
    with CrucialEnvironment(seed=82, dso_nodes=1) as env:
        job = CrucialKMeans(dataset, k=4, iterations=4, workers=WORKERS,
                            run_id="it-km2", seed=7)
        crucial = env.run(job.train)
    with Kernel(seed=82) as kernel:
        network = Network(kernel, LatencyModel(2e-4), copy_messages=False)
        cluster = SparkCluster(kernel, network, workers=3)
        algorithm = KMeansMLlib(cluster, k=4, iterations=4, seed=7)
        spark = kernel.run_main(
            lambda: algorithm.train(dataset, ObjectStore(kernel)))
    np.testing.assert_allclose(crucial.centroids, spark.model,
                               rtol=1e-10)


def test_crucial_and_spark_logreg_same_losses():
    dataset = small_dataset("logreg")
    with CrucialEnvironment(seed=83, dso_nodes=1) as env:
        job = CrucialLogisticRegression(dataset, iterations=6,
                                        workers=WORKERS, run_id="it-lr")
        crucial = env.run(job.train)
    with Kernel(seed=83) as kernel:
        network = Network(kernel, LatencyModel(2e-4), copy_messages=False)
        cluster = SparkCluster(kernel, network, workers=3)
        algorithm = LogisticRegressionWithSGD(cluster, iterations=6)
        spark = kernel.run_main(
            lambda: algorithm.train(dataset, ObjectStore(kernel)))
    assert crucial.loss_history == pytest.approx(spark.history)
    assert crucial.loss_history[-1] < crucial.loss_history[0]


def _on_crucial(make_job):
    def train(dataset):
        with CrucialEnvironment(seed=89, dso_nodes=1) as env:
            return env.run(make_job(dataset).train)
    return train


def _on_spark(make_algorithm):
    def train(dataset):
        with Kernel(seed=89) as kernel:
            network = Network(kernel, LatencyModel(2e-4), copy_messages=False)
            algorithm = make_algorithm(SparkCluster(kernel, network,
                                                    workers=3))
            return kernel.run_main(
                lambda: algorithm.train(dataset, ObjectStore(kernel)))
    return train


ITERATIONS = 3
TRAINERS = {
    "crucial-kmeans": ("kmeans", _on_crucial(lambda d: CrucialKMeans(
        d, k=4, iterations=ITERATIONS, workers=WORKERS, run_id="tr-km"))),
    # Fig. 5's "always slower" ordering is asserted at full scale in the
    # benchmark suite (at toy scale the Fig. 2a crossover favours Redis).
    "redis-kmeans": ("kmeans", _on_crucial(lambda d: RedisKMeans(
        d, k=4, iterations=ITERATIONS, workers=WORKERS, run_id="tr-rk"))),
    "crucial-logreg": ("logreg", _on_crucial(
        lambda d: CrucialLogisticRegression(
            d, iterations=ITERATIONS, workers=WORKERS, run_id="tr-lr"))),
    "mllib-kmeans": ("kmeans", _on_spark(lambda cluster: KMeansMLlib(
        cluster, k=4, iterations=ITERATIONS))),
    "mllib-logreg": ("logreg", _on_spark(
        lambda cluster: LogisticRegressionWithSGD(
            cluster, iterations=ITERATIONS))),
}


@pytest.mark.parametrize("trainer", sorted(TRAINERS))
def test_every_trainer_times_coherently(trainer):
    """All five trainers time a run the same way: the iteration phase
    is the sum of its iterations, and loading is a strict part of the
    whole."""
    kind, train = TRAINERS[trainer]
    result = train(small_dataset(kind))
    assert isinstance(result, TrainingRun)
    assert len(result.per_iteration) == ITERATIONS
    assert result.iteration_phase_time == sum(result.per_iteration)
    assert 0 < result.load_time < result.total_time


def test_kmeans_with_injected_function_failures():
    """Cloud threads retried with the same input still converge."""
    from repro import RetryPolicy
    from repro.core.runtime import RUNNER_FUNCTION

    dataset = small_dataset("kmeans")
    with CrucialEnvironment(seed=85, dso_nodes=1) as env:
        env.platform.inject_failures(RUNNER_FUNCTION, rate=0.3,
                                     kind="before")
        job = CrucialKMeans(dataset, k=3, iterations=3, workers=4,
                            run_id="it-km5",
                            retry_policy=RetryPolicy(max_retries=25,
                                                     backoff=0.1))
        result = env.run(job.train)
    assert result.iterations == 3


RERUN = dict(partitions=4, materialized_points=400, nominal_points=40_000,
             nominal_bytes=10 ** 8)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("kind,trainer,model,iterations", [
    ("kmeans", functools.partial(CrucialKMeans, k=5), "centroids", 3),
    ("kmeans", functools.partial(CrucialKMeans, k=5,
                                 convergence_delta=1e12), "centroids", 1),
    ("logreg", CrucialLogisticRegression, "weights", 3),
], ids=["kmeans", "kmeans-converged", "logreg"])
def test_trainer_survives_bodies_failing_after_their_work(
        kind, trainer, model, iterations, seed):
    """A cloud thread that fails after its last iteration is retried:
    the retry finds the run ended (the shared iteration counter, or
    k-means' convergence criterion), runs nothing and returns, so the
    run ends with the failure-free model and one timing per iteration."""
    from repro import RetryPolicy
    from repro.core.runtime import RUNNER_FUNCTION

    def train(rate):
        dataset = MLDataset(kind, **RERUN)
        with CrucialEnvironment(seed=seed, dso_nodes=1) as env:
            env.platform.inject_failures(RUNNER_FUNCTION, rate=rate,
                                         kind="after")
            return env.run(trainer(
                dataset, iterations=3, workers=4,
                retry_policy=RetryPolicy(max_retries=25)).train)

    faulty, clean = train(0.3), train(0.0)
    np.testing.assert_allclose(getattr(faulty, model),
                               getattr(clean, model), rtol=1e-12)
    assert len(faulty.per_iteration) == len(clean.per_iteration) == iterations


def test_kmeans_quality_beats_baseline():
    dataset = small_dataset("kmeans")
    with CrucialEnvironment(seed=86, dso_nodes=1) as env:
        result = env.run(
            CrucialKMeans(dataset, k=5, iterations=6, workers=WORKERS,
                          run_id="it-km6").train)
    points = np.concatenate([dataset.materialize(i)
                             for i in range(WORKERS)])
    _s, _c, cost = mlmath.kmeans_partial(points, result.centroids)
    _s, _c, naive = mlmath.kmeans_partial(
        points, points.mean(axis=0, keepdims=True))
    assert cost < naive


def test_environment_reuse_isolated_runs():
    """Two jobs in one environment don't interfere (distinct keys)."""
    dataset = small_dataset("kmeans")
    with CrucialEnvironment(seed=87, dso_nodes=1) as env:
        first = env.run(
            CrucialKMeans(dataset, k=3, iterations=2, workers=4,
                          run_id="job-a").train)
        second = env.run(
            CrucialKMeans(dataset, k=3, iterations=2, workers=4,
                          run_id="job-b").train)
    np.testing.assert_allclose(first.centroids, second.centroids)


def test_determinism_of_whole_training_run():
    def once():
        dataset = small_dataset("kmeans")
        with CrucialEnvironment(seed=88, dso_nodes=2) as env:
            result = env.run(
                CrucialKMeans(dataset, k=4, iterations=3,
                              workers=WORKERS, run_id="det").train)
            return result.total_time, result.centroids.sum()

    assert once() == once()
