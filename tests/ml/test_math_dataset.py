"""Unit tests for the ML numerics and the dual-scale dataset."""

import numpy as np
import pytest

from repro.ml import MLDataset
from repro.ml import math as mlmath
from repro.ml.costmodel import (
    kmeans_iteration_cost,
    logreg_iteration_cost,
    montecarlo_cost,
)


def rng():
    return np.random.Generator(np.random.PCG64(1))


# -- k-means math ----------------------------------------------------------------


def test_kmeans_partial_shapes_and_counts():
    points = rng().standard_normal((50, 4))
    centroids = rng().standard_normal((3, 4))
    sums, counts, cost = mlmath.kmeans_partial(points, centroids)
    assert sums.shape == (3, 4)
    assert counts.sum() == 50
    assert cost >= 0


@pytest.mark.parametrize("seed", range(6))
def test_kmeans_partial_matches_the_broadcast_formula(seed):
    """Per-centroid distances give the (n, k, d) broadcast's sums,
    counts and cost exactly, ties going to the lower centroid."""
    generator = np.random.Generator(np.random.PCG64(seed))
    n, k, d = generator.integers(1, 300), generator.integers(1, 40), \
        generator.integers(1, 60)
    points = generator.standard_normal((n, d))
    centroids = generator.standard_normal((k, d))
    centroids[-1] = centroids[0]
    distances = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(2)
    assignment = distances.argmin(axis=1)
    sums = np.zeros_like(centroids)
    np.add.at(sums, assignment, points)

    got_sums, got_counts, got_cost = mlmath.kmeans_partial(points, centroids)
    np.testing.assert_array_equal(got_sums, sums)
    np.testing.assert_array_equal(got_counts,
                                  np.bincount(assignment, minlength=k))
    assert got_cost == distances[np.arange(n), assignment].sum()


def test_kmeans_update_moves_to_means():
    points = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 10.0]])
    centroids = np.array([[1.0, 0.0], [9.0, 9.0]])
    sums, counts, _ = mlmath.kmeans_partial(points, centroids)
    new, delta = mlmath.kmeans_update(sums, counts, centroids)
    np.testing.assert_allclose(new[0], [1.0, 0.0])
    np.testing.assert_allclose(new[1], [10.0, 10.0])
    assert delta > 0


def test_kmeans_update_keeps_empty_clusters():
    centroids = np.array([[0.0, 0.0], [100.0, 100.0]])
    points = np.array([[0.1, 0.0], [-0.1, 0.0]])
    sums, counts, _ = mlmath.kmeans_partial(points, centroids)
    new, _ = mlmath.kmeans_update(sums, counts, centroids)
    np.testing.assert_allclose(new[1], [100.0, 100.0])


def test_kmeans_converges_on_clustered_data():
    points = mlmath.generate_kmeans_points(rng(), 600, 5, true_clusters=3)
    centroids = mlmath.init_centroids(rng(), 3, 5)
    costs = []
    for _ in range(15):
        sums, counts, cost = mlmath.kmeans_partial(points, centroids)
        centroids, _ = mlmath.kmeans_update(sums, counts, centroids)
        costs.append(cost)
    assert costs[-1] < costs[0]


# -- logistic regression math --------------------------------------------------------


def test_sigmoid_stable_at_extremes():
    values = mlmath.sigmoid(np.array([-800.0, 0.0, 800.0]))
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert values[1] == pytest.approx(0.5)
    assert values[2] == pytest.approx(1.0)


def test_logreg_loss_decreases_with_sgd():
    features, labels = mlmath.generate_labeled_points(rng(), 500, 10)
    weights = np.zeros(10)
    losses = []
    for _ in range(30):
        gradient, loss, count = mlmath.logreg_partial(
            features, labels, weights)
        weights = mlmath.sgd_step(weights, gradient, count, 0.5)
        losses.append(loss / count)
    assert losses[-1] < losses[0] * 0.7


def test_logreg_gradient_shape():
    features, labels = mlmath.generate_labeled_points(rng(), 100, 7)
    gradient, loss, count = mlmath.logreg_partial(
        features, labels, np.zeros(7))
    assert gradient.shape == (7,)
    assert count == 100
    assert loss > 0


# -- dataset -----------------------------------------------------------------------


def test_dataset_nominal_bookkeeping():
    dataset = MLDataset("kmeans", partitions=80)
    assert dataset.nominal_points_per_partition == 55_600_000 // 80
    info = dataset.partition_info(3)
    assert info.nominal_bytes == 100 * 10 ** 9 // 80
    assert "part-00003" in info.key


def test_dataset_partition_out_of_range():
    dataset = MLDataset("kmeans", partitions=4)
    with pytest.raises(IndexError):
        dataset.partition_info(4)


def test_dataset_invalid_kind():
    with pytest.raises(ValueError):
        MLDataset("word2vec")


def test_dataset_materialization_is_deterministic():
    a = MLDataset("kmeans", partitions=4, seed=9).materialize(2)
    b = MLDataset("kmeans", partitions=4, seed=9).materialize(2)
    np.testing.assert_array_equal(a, b)


def test_dataset_partitions_differ():
    dataset = MLDataset("kmeans", partitions=4, seed=9)
    assert not np.array_equal(dataset.materialize(0),
                              dataset.materialize(1))


def test_logreg_dataset_shapes():
    dataset = MLDataset("logreg", partitions=4,
                        materialized_points=4000)
    features, labels = dataset.materialize(0)
    assert features.shape == (1000, 100)
    assert set(np.unique(labels)) <= {0.0, 1.0}


def test_dataset_install_skips_upload_latency():
    from repro.simulation import Kernel
    from repro.storage import ObjectStore

    with Kernel(seed=1) as kernel:
        store = ObjectStore(kernel)
        dataset = MLDataset("kmeans", partitions=4)
        dataset.install(store)  # host context: must not need a thread
        assert store.size() == 4
        assert store.stored_bytes() == dataset.nominal_bytes


# -- cost model -------------------------------------------------------------------------


def test_kmeans_cost_scales_linearly_in_k():
    c25 = kmeans_iteration_cost(695_000, 100, 25)
    c200 = kmeans_iteration_cost(695_000, 100, 200)
    assert c200 == pytest.approx(8 * c25)


def test_kmeans_cost_magnitude_matches_fig5():
    # ~2s per iteration at the paper's k=25 per-worker share.
    cost = kmeans_iteration_cost(55_600_000 // 80, 100, 25)
    assert 1.5 < cost < 2.5


def test_logreg_cost_magnitude_matches_fig4():
    cost = logreg_iteration_cost(55_600_000 // 80, 100)
    assert 0.4 < cost < 0.7


def test_spark_inflation_applies():
    plain = kmeans_iteration_cost(1000, 10, 5)
    inflated = kmeans_iteration_cost(1000, 10, 5, spark=True)
    assert inflated > plain


def test_montecarlo_cost():
    # 100M draws at ~16.4M draws/s => ~6.1 s.
    assert montecarlo_cost(100_000_000) == pytest.approx(6.1, rel=0.05)
