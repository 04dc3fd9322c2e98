"""Crucial logistic regression (Section 6.2.2).

"In Crucial, the weight coefficients are shared objects.  At each
iteration, a cloud thread retrieves the current weights, computes the
sub-gradients, updates the shared objects, and synchronizes with the
other threads.  Once all the partial results are uploaded to the DSO
layer, the weights are recomputed and the threads proceed to the next
iteration."
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
from repro.ml.costmodel import logreg_iteration_cost
from repro.ml.dataset import MLDataset, PartitionInfo, TrainingRun, fork_join


@dso_costs(update=lambda grad, loss, count: grad.size * 2e-9,
           get=lambda: 0.0)
class GlobalWeights:
    """The shared weight vector with in-store gradient aggregation."""

    def __init__(self, initial: np.ndarray, learning_rate: float):
        self.weights = np.asarray(initial, dtype=np.float64)
        self.learning_rate = float(learning_rate)
        self.acc_gradient = np.zeros_like(self.weights)
        self.acc_loss = 0.0
        self.acc_count = 0
        self.loss_history: list[float] = []

    def get(self) -> np.ndarray:
        return self.weights

    def update(self, gradient: np.ndarray, loss: float, count: int) -> None:
        """Aggregate one worker's sub-gradient in the store."""
        self.acc_gradient += gradient
        self.acc_loss += loss
        self.acc_count += count

    def advance(self) -> float:
        """Apply the SGD step and log the epoch's mean loss."""
        mean_loss = self.acc_loss / max(self.acc_count, 1)
        self.weights = mlmath.sgd_step(
            self.weights, self.acc_gradient, self.acc_count,
            self.learning_rate)
        self.loss_history.append(mean_loss)
        self.acc_gradient[:] = 0.0
        self.acc_loss = 0.0
        self.acc_count = 0
        return mean_loss

    def get_loss_history(self) -> list[float]:
        return list(self.loss_history)


class LogRegWorker:
    """Per-cloud-thread SGD worker."""

    def __init__(self, run_id: str, partition: PartitionInfo, dims: int,
                 parties: int, iterations: int,
                 initial_weights: np.ndarray, learning_rate: float):
        self.partition = partition
        self.dims = dims
        self.iterations = iterations
        self.weights = shared(GlobalWeights, f"{run_id}/weights",
                              initial_weights, learning_rate)
        self.iteration_counter = AtomicInt(f"{run_id}/iterations")
        self.barrier = CyclicBarrier(f"{run_id}/barrier", parties)

    def run(self) -> dict:
        env = current_environment()
        features, labels = self.partition.load()
        load_done = env.now
        iteration_cost = logreg_iteration_cost(
            self.partition.nominal_points, self.dims, env.config)
        iteration_times = {}
        # The shared iteration counter of Listing 2: a retried body
        # resumes where the others are, not at iteration 0.
        for iteration in range(self.iteration_counter.get(),
                               self.iterations):
            iteration_start = env.now
            weights = self.weights.get()
            gradient, loss, count = mlmath.logreg_partial(
                features, labels, weights)
            compute(iteration_cost, jitter_sigma=0.02)
            self.weights.update(gradient, loss, count)
            arrival = self.barrier.wait()
            if arrival == 0:
                self.weights.advance()
                self.iteration_counter.compare_and_set(iteration,
                                                       iteration + 1)
            self.barrier.wait()
            iteration_times[iteration] = env.now - iteration_start
        return {"load_time": load_done, "iteration_times": iteration_times}


@dataclass
class LogRegResult(TrainingRun):
    weights: np.ndarray
    loss_history: list[float]


class CrucialLogisticRegression:
    """Driver for the Crucial implementation of Fig. 4."""

    def __init__(self, dataset: MLDataset, iterations: int = 100,
                 workers: int = 80, learning_rate: float = 0.5,
                 run_id: str = "logreg", seed: int = 11,
                 retry_policy: RetryPolicy | None = None):
        if workers > dataset.partitions:
            raise ValueError("more workers than dataset partitions")
        self.dataset = dataset
        self.iterations = iterations
        self.workers = workers
        self.learning_rate = learning_rate
        self.run_id = run_id
        self.seed = seed
        self.retry_policy = retry_policy

    def train(self) -> LogRegResult:
        env = current_environment()
        self.dataset.install(env.object_store)
        env.pre_warm(self.workers)
        initial = np.zeros(self.dataset.features)
        runnables = [
            LogRegWorker(
                run_id=self.run_id, partition=self.dataset.partition_info(i),
                dims=self.dataset.features, parties=self.workers,
                iterations=self.iterations, initial_weights=initial,
                learning_rate=self.learning_rate)
            for i in range(self.workers)
        ]
        _reports, run = fork_join(runnables, self.retry_policy)
        weights_proxy = runnables[0].weights
        return LogRegResult(
            weights=weights_proxy.get(),
            loss_history=weights_proxy.get_loss_history(),
            **vars(run))
