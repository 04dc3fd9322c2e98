"""Numerical kernels shared by the Crucial and Spark implementations.

Both systems run the *same* math on the same materialized data, so
their models and loss trajectories coincide (as in Fig. 4b) and any
timing difference is attributable to the systems, not the algorithms.
"""

from __future__ import annotations

import numpy as np


# -- k-means -------------------------------------------------------------------


def kmeans_partial(points: np.ndarray,
                   centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Assignment step over one partition.

    Returns ``(sums, counts, cost)``: per-cluster coordinate sums and
    member counts, plus the within-cluster squared-distance total.
    Distances are taken one centroid at a time into reused buffers (an
    ``(n, k, d)`` broadcast costs ~3x the time at k = 200); each row's
    sum is the broadcast's, bit for bit, and ties go to the lowest
    centroid index, as ``argmin`` breaks them.
    """
    n = len(points)
    diff = np.empty_like(points)
    distance = np.empty(n)
    nearest = np.full(n, np.inf)
    closer = np.empty(n, dtype=bool)
    assignment = np.zeros(n, dtype=np.intp)
    for index, centroid in enumerate(centroids):
        np.subtract(points, centroid, out=diff)
        np.multiply(diff, diff, out=diff)
        diff.sum(axis=1, out=distance)
        np.less(distance, nearest, out=closer)
        np.copyto(nearest, distance, where=closer)
        assignment[closer] = index
    counts = np.bincount(assignment, minlength=len(centroids)).astype(np.int64)
    sums = np.zeros_like(centroids)
    np.add.at(sums, assignment, points)
    return sums, counts, float(nearest.sum())


def kmeans_update(sums: np.ndarray, counts: np.ndarray,
                  previous: np.ndarray) -> tuple[np.ndarray, float]:
    """Update step: new centroids and total movement (delta).

    Empty clusters keep their previous position (MLlib behaviour).
    """
    new_centroids = previous.copy()
    nonempty = counts > 0
    new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
    delta = float(np.abs(new_centroids - previous).sum())
    return new_centroids, delta


def init_centroids(rng: np.random.Generator, k: int, dims: int,
                   scale: float = 1.0) -> np.ndarray:
    """Random initial positions (Section 6.2.2)."""
    return rng.standard_normal((k, dims)) * scale


# -- logistic regression -----------------------------------------------------------


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


def logreg_partial(features: np.ndarray, labels: np.ndarray,
                   weights: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Gradient + loss contribution of one partition.

    Labels are in {0, 1}.  Returns ``(gradient_sum, loss_sum, count)``.
    """
    z = features @ weights
    predictions = sigmoid(z)
    gradient = features.T @ (predictions - labels)
    eps = 1e-12
    loss = float(-(labels * np.log(predictions + eps)
                   + (1.0 - labels) * np.log(1.0 - predictions + eps)).sum())
    return gradient, loss, len(labels)


def sgd_step(weights: np.ndarray, gradient_sum: np.ndarray, count: int,
             learning_rate: float) -> np.ndarray:
    return weights - learning_rate * (gradient_sum / max(count, 1))


# -- synthetic data (the spark-perf generator) --------------------------------------


def generate_kmeans_points(rng: np.random.Generator, n: int, dims: int,
                           true_clusters: int = 10,
                           spread: float = 0.25) -> np.ndarray:
    """Points drawn around ``true_clusters`` well-separated centers."""
    centers = rng.standard_normal((true_clusters, dims)) * 3.0
    assignment = rng.integers(0, true_clusters, size=n)
    return (centers[assignment]
            + rng.standard_normal((n, dims)) * spread).astype(np.float64)


def generate_labeled_points(rng: np.random.Generator, n: int, dims: int,
                            true_weights: np.ndarray | None = None,
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Linearly-separable-ish labeled data for logistic regression.

    Pass the same ``true_weights`` to every partition of a dataset so
    the parts are samples of one underlying model.
    """
    if true_weights is None:
        true_weights = rng.standard_normal(dims)
    features = rng.standard_normal((n, dims))
    logits = features @ true_weights + rng.standard_normal(n) * 0.5
    labels = (logits > 0).astype(np.float64)
    return features, labels
