"""The provisioned Spark cluster: a driver plus executor nodes.

Matches the paper's EMR setup: 1 master and N worker (core) nodes of
``cores_per_worker`` vCPUs each.  Executors model CPU with a FIFO core
pool; tasks queue when a stage has more partitions than the cluster
has cores.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.cluster.node import Node
from repro.config import Config, DEFAULT_CONFIG
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.simulation.kernel import Kernel
from repro.simulation.resources import Resource
from repro.storage.object_store import ObjectStore

T = TypeVar("T")


class Executor:
    """One worker VM running Spark executor processes."""

    def __init__(self, kernel: Kernel, network: Network, name: str,
                 cores: int):
        self.kernel = kernel
        self.node = Node(kernel, network, name, workers=cores)
        self.cores = Resource(kernel, capacity=cores, name=f"{name}.cores")
        #: partition id -> cached partition data (block manager).
        self.blocks: dict = {}

    @property
    def name(self) -> str:
        return self.node.name


class SparkCluster:
    """Driver + executors; the unit benchmarks provision."""

    def __init__(self, kernel: Kernel, network: Network,
                 config: Config = DEFAULT_CONFIG, name: str = "spark",
                 workers: int | None = None,
                 cores_per_worker: int | None = None):
        self.kernel = kernel
        self.network = network
        self.config = config
        self.name = name
        timings = config.spark
        workers = workers if workers is not None else timings.worker_nodes
        cores_per_worker = (cores_per_worker if cores_per_worker is not None
                            else timings.cores_per_worker)
        self.driver = Node(kernel, network, f"{name}-driver", workers=8)
        self.executors = [
            Executor(kernel, network, f"{name}-worker-{i}", cores_per_worker)
            for i in range(workers)
        ]
        for executor in self.executors:
            network.set_link(self.driver.name, executor.name,
                             timings.cluster_link)
        self._rng = kernel.rng.stream(f"spark.{name}")
        self.stages_run = 0
        self.tasks_run = 0

    def executor_for(self, partition_id: int) -> Executor:
        """Sticky partition placement (data locality)."""
        return self.executors[partition_id % len(self.executors)]


def run_on_spark(seed: int,
                 train: Callable[[SparkCluster, ObjectStore], T]) -> T:
    """Run ``train(cluster, store)`` as the main thread of the paper's
    Spark deployment: a fresh kernel seeded ``seed``, a 200 us network
    that copies no messages, the default EMR cluster and one S3 bucket.
    """
    with Kernel(seed=seed) as kernel:
        network = Network(kernel, LatencyModel(0.0002), copy_messages=False)
        cluster = SparkCluster(kernel, network)
        store = ObjectStore(kernel)
        return kernel.run_main(lambda: train(cluster, store))
