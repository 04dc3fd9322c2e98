"""Single-machine baselines (the VM bars of Fig. 3).

The same k-means iteration structure as Listing 2, but run with plain
threads on one multi-core VM: shared state costs nothing (the DSO's
cyclic barrier, hosted in-process), and the CPU is an egalitarian
processor-sharing pool — so scale-up collapses to ``cores / threads``
once the VM is oversubscribed, exactly the degradation Fig. 3 shows
for m5.2xlarge (8 cores) and m5.4xlarge (16).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import Config, DEFAULT_CONFIG
from repro.core.sync import _CyclicBarrier
from repro.dso.server import LocalMonitorHost
from repro.ml.costmodel import kmeans_iteration_cost
from repro.simulation.kernel import Kernel
from repro.simulation.resources import ProcessorSharing
from repro.simulation.thread import spawn


@dataclass
class LocalRunResult:
    threads: int
    iteration_phase_time: float


class LocalKMeansBaseline:
    """k-means iterations with VM threads (the Fig. 3 baseline)."""

    def __init__(self, kernel: Kernel, cores: int,
                 config: Config = DEFAULT_CONFIG):
        self.kernel = kernel
        self.cores = cores
        self.config = config

    def run(self, threads: int, k: int = 25, iterations: int = 10,
            nominal_points_per_thread: int | None = None,
            dims: int | None = None) -> LocalRunResult:
        """Run the iteration phase; input scales with ``threads``.

        Must be called from inside a simulated thread.
        """
        if nominal_points_per_thread is None:
            nominal_points_per_thread = (
                self.config.dataset.nominal_points
                // self.config.dataset.partitions)
        if dims is None:
            dims = self.config.dataset.features
        cpu = ProcessorSharing(self.kernel, cores=self.cores)
        barrier = LocalMonitorHost(self.kernel, _CyclicBarrier, threads)
        cost = kmeans_iteration_cost(nominal_points_per_thread, dims, k,
                                     self.config)
        start = self.kernel.now

        def worker():
            for _ in range(iterations):
                cpu.execute(cost)
                barrier.invoke("await_")

        workers = [spawn(worker, name=f"vm-thread-{i}")
                   for i in range(threads)]
        for worker_thread in workers:
            worker_thread.join()
        return LocalRunResult(threads=threads,
                              iteration_phase_time=self.kernel.now - start)


def scale_up(t1: float, tn: float) -> float:
    """The paper's metric: ``scale-up = T1 / Tn`` with input scaled
    proportionally to threads (1.0 = perfect)."""
    return t1 / tn
