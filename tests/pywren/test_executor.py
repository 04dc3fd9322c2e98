"""Tests for the PyWren-style executor."""

import pytest

from repro.faas import FaasPlatform
from repro.net import LatencyModel, Network
from repro.pywren import ALL_COMPLETED, ANY_COMPLETED, PyWrenExecutor
from repro.simulation import Kernel
from repro.simulation.thread import now
from repro.storage import ObjectStore


def square(x):
    return x * x


def slow_identity(x):
    # No CrucialEnvironment in these tests: model work as a sleep.
    from repro.simulation.thread import sleep

    sleep(float(x))
    return x


@pytest.fixture
def kernel():
    with Kernel(seed=201) as k:
        yield k


@pytest.fixture
def executor(kernel):
    network = Network(kernel, LatencyModel(0.0005))
    network.ensure_endpoint("client")
    platform = FaasPlatform(kernel, network)
    store = ObjectStore(kernel)
    return PyWrenExecutor(platform, store)


def test_call_async_and_result(kernel, executor):
    def main():
        future = executor.call_async(square, 7)
        return future.result()

    assert kernel.run_main(main) == 49


def test_map_returns_ordered_results(kernel, executor):
    def main():
        futures = executor.map(square, range(10))
        done, pending = executor.wait(futures)
        assert not pending
        return executor.get_result(futures)

    assert kernel.run_main(main) == [x * x for x in range(10)]


def test_results_pass_through_object_storage(kernel, executor):
    def main():
        futures = executor.map(square, range(4))
        executor.wait(futures)
        executor.get_result(futures)

    kernel.run_main(main)
    assert executor.store.size() == 4  # one result object per call
    assert executor.store.stats.gets >= 4


def test_wait_any_returns_early(kernel, executor):
    def main():
        futures = executor.map(slow_identity, [30.0, 0.1])
        t0 = now()
        done, pending = executor.wait(futures,
                                      return_when=ANY_COMPLETED)
        return len(done), len(pending), now() - t0

    done, pending, elapsed = kernel.run_main(main)
    assert done >= 1
    assert elapsed < 20.0  # did not wait for the 30 s call


def test_wait_polls_at_storage_cadence(kernel, executor):
    """Completion is observed via polling, so the observed finish
    time is quantized by the poll interval + S3 listing lag."""
    def main():
        futures = executor.map(slow_identity, [2.0])
        t0 = now()
        executor.wait(futures, poll_interval=1.0)
        return now() - t0

    elapsed = kernel.run_main(main)
    assert elapsed > 2.0  # actual work + at least one extra poll round


def test_invalid_return_when(kernel, executor):
    def main():
        executor.wait([], return_when="SOME")

    with pytest.raises(ValueError):
        kernel.run_main(main)


def test_two_executors_are_isolated(kernel, executor):
    network = executor.platform.network
    other = PyWrenExecutor(executor.platform, executor.store)

    def main():
        a = executor.map(square, [2])
        b = other.map(square, [3])
        executor.wait(a)
        other.wait(b)
        return executor.get_result(a), other.get_result(b)

    assert kernel.run_main(main) == ([4], [9])
