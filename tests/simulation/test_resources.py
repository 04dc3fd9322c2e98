"""Unit tests for Resource and the processor-sharing CPU model."""

import pytest

from repro.simulation import Kernel, Resource
from repro.simulation.resources import ProcessorSharing
from repro.simulation.thread import now, sleep, spawn


@pytest.fixture
def kernel():
    with Kernel(seed=5) as k:
        yield k


def test_resource_serializes_excess_demand(kernel):
    resource = Resource(kernel, capacity=2)

    def worker():
        with resource.request():
            sleep(1.0)

    def main():
        threads = [spawn(worker) for _ in range(4)]
        for t in threads:
            t.join()
        return now()

    assert kernel.run_main(main) == pytest.approx(2.0)


def test_resource_busy_seconds(kernel):
    """The autoscaler's utilization signal: cumulative busy
    unit-seconds, which two snapshots difference to a window's."""
    resource = Resource(kernel, capacity=2)

    def hold(duration):
        with resource.request():
            sleep(duration)

    def main():
        hold(1.0)
        sleep(1.0)
        first = resource.busy_seconds()  # one unit busy for 1 s of 2 s
        holders = [spawn(hold, 0.5) for _ in range(2)]
        sleep(0.25)
        mid = resource.busy_seconds()  # a hold counts while it runs
        for t in holders:
            t.join()
        return first, mid - first, resource.busy_seconds() - first

    first, partial, window = kernel.run_main(main)
    assert first == pytest.approx(1.0)
    assert partial == pytest.approx(0.5)
    assert window == pytest.approx(1.0)


def test_processor_sharing_single_job_runs_at_full_rate(kernel):
    cpu = ProcessorSharing(kernel, cores=4)

    def main():
        cpu.execute(2.0)
        return now()

    assert kernel.run_main(main) == pytest.approx(2.0)


def test_processor_sharing_under_subscription(kernel):
    cpu = ProcessorSharing(kernel, cores=4)
    finish = []

    def worker():
        cpu.execute(2.0)
        finish.append(now())

    def main():
        threads = [spawn(worker) for _ in range(4)]
        for t in threads:
            t.join()

    kernel.run_main(main)
    # 4 jobs on 4 cores: no slowdown.
    assert finish == [pytest.approx(2.0)] * 4


def test_processor_sharing_over_subscription(kernel):
    cpu = ProcessorSharing(kernel, cores=2)
    finish = []

    def worker():
        cpu.execute(1.0)
        finish.append(now())

    def main():
        threads = [spawn(worker) for _ in range(4)]
        for t in threads:
            t.join()

    kernel.run_main(main)
    # 4 equal jobs on 2 cores run at rate 1/2: all finish at t=2.
    assert finish == [pytest.approx(2.0)] * 4


def test_processor_sharing_departure_speeds_up_survivors(kernel):
    cpu = ProcessorSharing(kernel, cores=1)
    finish = {}

    def worker(label, work):
        cpu.execute(work)
        finish[label] = now()

    def main():
        a = spawn(worker, "short", 1.0)
        b = spawn(worker, "long", 2.0)
        a.join()
        b.join()

    kernel.run_main(main)
    # Both share the core (rate 1/2). Short finishes at t=2; long then
    # runs alone and finishes its remaining 1.0 of work at t=3.
    assert finish["short"] == pytest.approx(2.0)
    assert finish["long"] == pytest.approx(3.0)


def test_processor_sharing_late_arrival(kernel):
    cpu = ProcessorSharing(kernel, cores=1)
    finish = {}

    def worker(label, work, start):
        sleep(start)
        cpu.execute(work)
        finish[label] = now()

    def main():
        a = spawn(worker, "first", 2.0, 0.0)
        b = spawn(worker, "second", 2.0, 1.0)
        a.join()
        b.join()

    kernel.run_main(main)
    # First runs alone for 1s (1.0 work left), then shares: each gets
    # rate 1/2. First finishes at 1 + 2 = 3; second has 1.0 work left at
    # t=3 and finishes at t=4.
    assert finish["first"] == pytest.approx(3.0)
    assert finish["second"] == pytest.approx(4.0)


def test_processor_sharing_scale_up_shape(kernel):
    """Scale-up = min(1, cores/threads): the Fig. 3 VM baseline."""
    cores = 8

    def run(threads):
        cpu = ProcessorSharing(kernel, cores=cores)
        start = now()
        done = []

        def worker():
            cpu.execute(1.0)

        def phase():
            ts = [spawn(worker) for _ in range(threads)]
            for t in ts:
                t.join()
            done.append(now() - start)

        return phase, done

    def main():
        results = {}
        for n in (4, 8, 16, 32):
            cpu = ProcessorSharing(kernel, cores=cores)
            begin = now()
            ts = [spawn(lambda: cpu.execute(1.0)) for _ in range(n)]
            for t in ts:
                t.join()
            results[n] = now() - begin
        return results

    results = kernel.run_main(main)
    assert results[4] == pytest.approx(1.0)
    assert results[8] == pytest.approx(1.0)
    assert results[16] == pytest.approx(2.0)
    assert results[32] == pytest.approx(4.0)
