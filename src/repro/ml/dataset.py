"""The dual-scale dataset (spark-perf stand-in).

The paper trains on 100 GB / 55.6 M points / 100 features split into
80 S3 partitions.  We cannot materialize that on a laptop, so each
dataset carries two scales:

* **nominal** — the paper's sizes; drives every *time and cost* model
  (S3 transfer duration, per-iteration compute);
* **materialized** — a small, deterministic sample per partition;
  drives the *numerics* (losses, centroids, convergence).

Both the Crucial workers and the Spark executors read the same
materialized partitions, so their models agree.

The module also holds what every trainer shares: the worker's load
phase (:meth:`PartitionInfo.load`), the fork/join that runs Listing 2's
workers (:func:`fork_join`) and the timings each run reports
(:class:`TrainingRun`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.config import Config, DEFAULT_CONFIG
from repro.core.cloud_thread import RetryPolicy, run_all
from repro.core.runtime import compute, current_environment
from repro.ml import math as mlmath
from repro.storage.backend import StorageBackend


@dataclass(frozen=True)
class PartitionInfo:
    key: str
    nominal_points: int
    nominal_bytes: int

    def load(self) -> Any:
        """A worker's load phase: GET the partition from the object
        store, then parse it at nominal size."""
        env = current_environment()
        data = env.object_store.get(self.key)
        compute(self.nominal_bytes * env.config.compute.parse_per_byte)
        return data


@dataclass
class TrainingRun:
    """What every trainer reports, in virtual seconds: the whole run,
    its load phase, and each iteration (the slowest worker's, for the
    Crucial trainers)."""

    total_time: float
    load_time: float
    per_iteration: list[float]

    @property
    def iteration_phase_time(self) -> float:
        return sum(self.per_iteration)


def fork_join(runnables: list[Any], retry_policy: RetryPolicy | None = None
              ) -> tuple[list[dict], TrainingRun]:
    """Run one CloudThread per worker and join them all (Listing 1).

    Each worker returns a report with its ``load_time`` (the virtual
    time its load phase ended) and its ``iteration_times`` (iteration
    -> seconds); returns the reports and the run's timings, measured
    from the fork.  The timings come from the reports that ran
    iterations: a body retried after its last iteration ran none.
    """
    env = current_environment()
    start = env.now
    reports = run_all(runnables, retry_policy)
    ran = [r for r in reports if r["iteration_times"]] or reports
    slowest: dict[int, float] = {}
    for report in ran:
        for iteration, seconds in report["iteration_times"].items():
            slowest[iteration] = max(slowest.get(iteration, 0.0), seconds)
    return reports, TrainingRun(
        total_time=env.now - start,
        load_time=max(r["load_time"] for r in ran) - start,
        per_iteration=[slowest[i] for i in sorted(slowest)])


class MLDataset:
    """A partitioned dataset with nominal and materialized scales."""

    def __init__(self, kind: str, partitions: int = 80,
                 materialized_points: int = 40_000,
                 config: Config = DEFAULT_CONFIG, seed: int = 12345,
                 features: int | None = None,
                 nominal_points: int | None = None,
                 nominal_bytes: int | None = None):
        if kind not in ("kmeans", "logreg"):
            raise ValueError(f"unknown dataset kind {kind!r}")
        if partitions <= 0:
            raise ValueError(f"need positive partitions: {partitions}")
        spec = config.dataset
        self.kind = kind
        self.partitions = partitions
        self.features = features if features is not None else spec.features
        self.nominal_points = (nominal_points if nominal_points is not None
                               else spec.nominal_points)
        self.nominal_bytes = (nominal_bytes if nominal_bytes is not None
                              else spec.nominal_bytes)
        self.materialized_points = materialized_points
        self.seed = seed
        self._cache: dict[int, object] = {}

    # -- nominal bookkeeping -----------------------------------------------------

    @property
    def nominal_points_per_partition(self) -> int:
        return self.nominal_points // self.partitions

    @property
    def nominal_bytes_per_partition(self) -> int:
        return self.nominal_bytes // self.partitions

    def partition_info(self, index: int) -> PartitionInfo:
        if not 0 <= index < self.partitions:
            raise IndexError(f"partition {index} out of range")
        return PartitionInfo(
            key=f"datasets/{self.kind}/{self.seed}/part-{index:05d}",
            nominal_points=self.nominal_points_per_partition,
            nominal_bytes=self.nominal_bytes_per_partition)

    # -- materialization ----------------------------------------------------------

    def materialize(self, index: int):
        """Deterministically generate partition ``index``'s sample.

        k-means: an ``(m, features)`` array.  logreg: ``(X, y)``.
        """
        if index in self._cache:
            return self._cache[index]
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([self.seed, index])))
        m = self.materialized_points // self.partitions
        m = max(m, 50)
        if self.kind == "kmeans":
            data = mlmath.generate_kmeans_points(rng, m, self.features)
        else:
            # All partitions sample one underlying model: the true
            # weights derive from the dataset seed alone.
            weights_rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence([self.seed, 0x7777])))
            true_weights = weights_rng.standard_normal(self.features)
            data = mlmath.generate_labeled_points(rng, m, self.features,
                                                  true_weights)
        self._cache[index] = data
        return data

    def install(self, store: StorageBackend) -> list[PartitionInfo]:
        """Place partitions in the store *without* charging upload
        time (the dataset pre-exists the experiment, as in the paper).
        Capacity rent still accrues from now on.
        """
        infos = []
        for index in range(self.partitions):
            info = self.partition_info(index)
            store.seed(info.key, self.materialize(index),
                       nbytes=info.nominal_bytes)
            infos.append(info)
        return infos
