"""RDDs: partitioned datasets with map/reduce over the cluster.

Stages execute eagerly: the driver pays a stage-submission cost, then
launches one task per partition.  A task runs on its partition's
executor, queuing for a core, paying the task-launch overhead plus the
modelled compute cost, and executing the *real* Python function on the
materialized partition data — so results (losses, centroids) are
genuine while times come from the calibrated model.

``reduce`` sends per-partition results to the driver and combines them
there: the per-iteration synchronization+communication cost that
Section 6.2.2 contrasts with Crucial's in-store aggregation.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.net.network import payload_size
from repro.simulation.thread import spawn
from repro.sparklike.cluster import SparkCluster

#: cost_fn(partition) -> CPU-seconds of the task at nominal data scale.
CostFn = Callable[[Any], float]


class Broadcast:
    """A read-only variable shipped once per executor per broadcast."""

    def __init__(self, cluster: SparkCluster, value: Any):
        self.cluster = cluster
        self.value = value
        self._distribute()

    def _distribute(self) -> None:
        # Every transfer in this package passes ``None`` plus an explicit
        # ``nbytes``: the data already sits in the partition lists (no
        # copy is wanted), and the benchmark networks run with
        # ``copy_messages=False``, where ``transfer`` sizes nothing
        # itself — the explicit size is what charges the bandwidth term.
        driver = self.cluster.driver.name
        nbytes = payload_size(self.value)
        for executor in self.cluster.executors:
            self.cluster.network.transfer(driver, executor.name, None,
                                          nbytes=nbytes)


class RDD:
    """An eagerly-evaluated partitioned dataset."""

    def __init__(self, cluster: SparkCluster, partitions: list[Any],
                 nominal_partition_bytes: int = 0):
        self.cluster = cluster
        self.partitions = partitions
        self.nominal_partition_bytes = nominal_partition_bytes

    @classmethod
    def parallelize(cls, cluster: SparkCluster, items: list[Any],
                    num_partitions: int) -> "RDD":
        if num_partitions <= 0:
            raise ValueError(f"need positive partitions: {num_partitions}")
        chunks: list[list[Any]] = [[] for _ in range(num_partitions)]
        for index, item in enumerate(items):
            chunks[index % num_partitions].append(item)
        return cls(cluster, chunks)

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    # -- stage execution -----------------------------------------------------------

    def _run_stage(self, fn: Callable[[int, Any], Any],
                   cost_fn: CostFn | None) -> list[Any]:
        """One task per partition; returns per-partition results."""
        cluster = self.cluster
        timings = cluster.config.spark
        from repro.simulation.kernel import current_thread

        current_thread().sleep(timings.stage_submit)
        cluster.stages_run += 1

        def task(partition_id: int):
            executor = cluster.executor_for(partition_id)
            with executor.cores.request():
                thread = current_thread()
                thread.sleep(timings.task_launch)
                data = self.partitions[partition_id]
                if cost_fn is not None:
                    cost = float(cost_fn(data))
                    if cost > 0:
                        jitter = float(cluster._rng.lognormal(0.0, 0.03))
                        thread.sleep(cost * jitter)
                cluster.tasks_run += 1
                return fn(partition_id, data)

        threads = [spawn(task, i, name=f"task-{i}")
                   for i in range(self.num_partitions)]
        for t in threads:
            t.join()
        return [t.result() for t in threads]

    # -- transformations and actions --------------------------------------------------

    def map_partitions(self, fn: Callable[[Any], Any],
                       cost_fn: CostFn | None = None) -> "RDD":
        results = self._run_stage(lambda _i, data: fn(data), cost_fn)
        return RDD(self.cluster, results, self.nominal_partition_bytes)

    def map_partitions_with_index(self, fn: Callable[[int, Any], Any],
                                  cost_fn: CostFn | None = None) -> "RDD":
        results = self._run_stage(fn, cost_fn)
        return RDD(self.cluster, results, self.nominal_partition_bytes)

    def collect(self) -> list[Any]:
        """Pull every partition to the driver (network-charged)."""
        driver = self.cluster.driver.name
        for partition_id, data in enumerate(self.partitions):
            executor = self.cluster.executor_for(partition_id)
            self.cluster.network.transfer(executor.name, driver, None,
                                          nbytes=payload_size(data))
        return list(self.partitions)

    def reduce(self, fn: Callable[[Any, Any], Any],
               map_fn: Callable[[Any], Any] | None = None,
               cost_fn: CostFn | None = None) -> Any:
        """Map each partition, then combine everything at the driver.

        This is the aggregation pattern whose cost Crucial avoids: N
        partial results cross the network to one combiner.
        """
        partials = self._run_stage(
            lambda _i, data: (map_fn(data) if map_fn else data), cost_fn)
        driver = self.cluster.driver.name
        accumulator = None
        for partition_id, partial in enumerate(partials):
            executor = self.cluster.executor_for(partition_id)
            self.cluster.network.transfer(executor.name, driver, None,
                                          nbytes=payload_size(partial))
            accumulator = partial if accumulator is None \
                else fn(accumulator, partial)
        return accumulator

    def broadcast(self, value: Any) -> Broadcast:
        return Broadcast(self.cluster, value)

    def count(self) -> int:
        lengths = self._run_stage(lambda _i, data: len(data), None)
        return sum(lengths)
