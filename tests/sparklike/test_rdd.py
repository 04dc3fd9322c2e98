"""Unit tests for the mini-Spark engine."""

import pytest

from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from repro.simulation.thread import now
from repro.sparklike import RDD, SparkCluster


@pytest.fixture
def kernel():
    with Kernel(seed=53) as k:
        yield k


@pytest.fixture
def cluster(kernel):
    network = Network(kernel, LatencyModel(0.0002), copy_messages=False)
    return SparkCluster(kernel, network, workers=2, cores_per_worker=4)


def _rdd(cluster, items, partitions):
    """``items`` dealt round-robin over ``partitions`` partitions."""
    return RDD(cluster, [items[i::partitions] for i in range(partitions)])


def test_map_partitions_transforms(kernel, cluster):
    def main():
        rdd = _rdd(cluster, list(range(8)), 4)
        doubled = rdd.map_partitions_with_index(
            lambda _i, part: [x * 2 for x in part])
        return sorted(sum(doubled.partitions, []))

    assert kernel.run_main(main) == [0, 2, 4, 6, 8, 10, 12, 14]


def test_reduce_combines_at_driver(kernel, cluster):
    def main():
        rdd = _rdd(cluster, list(range(100)), 8)
        return rdd.reduce(fn=lambda a, b: a + b, map_fn=sum)

    assert kernel.run_main(main) == sum(range(100))


def test_tasks_run_in_parallel_across_cores(kernel, cluster):
    # 8 partitions, 8 total cores, 1s each => ~1s + overheads, not 8s.
    def main():
        rdd = _rdd(cluster, list(range(8)), 8)
        t0 = now()
        rdd.map_partitions_with_index(lambda _i, part: part,
                                      cost_fn=lambda _p: 1.0)
        return now() - t0

    elapsed = kernel.run_main(main)
    assert 1.0 < elapsed < 1.5


def test_tasks_queue_when_cores_exhausted(kernel, cluster):
    # 16 partitions on 8 cores of 1s each => ~2s.
    def main():
        rdd = _rdd(cluster, list(range(16)), 16)
        t0 = now()
        rdd.map_partitions_with_index(lambda _i, part: part,
                                      cost_fn=lambda _p: 1.0)
        return now() - t0

    elapsed = kernel.run_main(main)
    assert 2.0 < elapsed < 2.6


def test_stage_and_task_counters(kernel, cluster):
    def main():
        rdd = _rdd(cluster, list(range(8)), 4)
        rdd.map_partitions_with_index(lambda _i, p: p)
        rdd.reduce(fn=lambda a, b: a + b, map_fn=sum)

    kernel.run_main(main)
    assert cluster.stages_run == 2
    assert cluster.tasks_run == 8


def test_broadcast_charges_per_executor(kernel, cluster):
    def main():
        rdd = _rdd(cluster, [1], 1)
        t0 = now()
        rdd.broadcast(b"x" * 1_100_000)  # ~1 MB at ~1.1 GB/s per link
        return now() - t0

    elapsed = kernel.run_main(main)
    assert elapsed > 1.5e-3  # 2 sequential 1MB pushes + base latency


def test_reduce_charges_partial_transfers(kernel, cluster):
    def main():
        rdd = _rdd(cluster, list(range(4)), 4)
        t0 = now()
        rdd.reduce(fn=lambda a, b: a + b,
                   map_fn=lambda part: b"y" * 550_000)  # 0.5 MB partials
        return now() - t0

    elapsed = kernel.run_main(main)
    # 4 partials of 0.5 MB over ~1.1 GB/s links: >= 1.8 ms of transfer.
    assert elapsed > 1.8e-3
