"""Unit tests for the discrete-event kernel and simulated threads."""

import pytest

from repro.errors import DeadlockError, SimTimeoutError, SimulationError
from repro.simulation import Event, Kernel
from repro.simulation.thread import now, sleep, spawn


@pytest.fixture
def kernel():
    with Kernel(seed=7) as k:
        yield k


def test_clock_starts_at_zero(kernel):
    assert kernel.now == 0.0


def test_run_main_returns_value(kernel):
    assert kernel.run_main(lambda: 42) == 42


def test_run_main_propagates_exception(kernel):
    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        kernel.run_main(boom)


def test_sleep_advances_virtual_time(kernel):
    def main():
        sleep(1.5)
        return now()

    assert kernel.run_main(main) == pytest.approx(1.5)


def test_sleeps_accumulate(kernel):
    def main():
        sleep(1.0)
        sleep(0.25)
        return now()

    assert kernel.run_main(main) == pytest.approx(1.25)


def test_two_threads_interleave_in_time_order(kernel):
    trace = []

    def worker(label, delay):
        sleep(delay)
        trace.append((label, now()))

    def main():
        a = spawn(worker, "a", 2.0)
        b = spawn(worker, "b", 1.0)
        a.join()
        b.join()

    kernel.run_main(main)
    assert trace == [("b", 1.0), ("a", 2.0)]


def test_fifo_tie_break_at_equal_times(kernel):
    trace = []

    def worker(label):
        sleep(1.0)
        trace.append(label)

    def main():
        threads = [spawn(worker, i) for i in range(5)]
        for t in threads:
            t.join()

    kernel.run_main(main)
    assert trace == [0, 1, 2, 3, 4]


def test_join_returns_after_target_finishes(kernel):
    def worker():
        sleep(3.0)
        return "done"

    def main():
        t = spawn(worker)
        t.join()
        return now(), t.result()

    assert kernel.run_main(main) == (3.0, "done")


def test_join_propagates_worker_exception(kernel):
    def worker():
        raise RuntimeError("worker failed")

    def main():
        t = spawn(worker)
        t.join()

    with pytest.raises(RuntimeError, match="worker failed"):
        kernel.run_main(main)


def test_join_timeout(kernel):
    def worker():
        sleep(10.0)

    def main():
        t = spawn(worker)
        with pytest.raises(SimTimeoutError):
            t.join(timeout=1.0)
        assert now() == pytest.approx(1.0)
        t.join()
        assert now() == pytest.approx(10.0)

    kernel.run_main(main)


def test_join_already_finished_thread(kernel):
    def main():
        t = spawn(lambda: "x")
        sleep(1.0)
        t.join()
        return t.result()

    assert kernel.run_main(main) == "x"


def test_call_later_runs_callback_at_time(kernel):
    fired = []
    kernel.call_later(5.0, lambda: fired.append(kernel.now))
    kernel.run()
    assert fired == [5.0]


def test_call_later_cancel(kernel):
    fired = []
    timer = kernel.call_later(5.0, lambda: fired.append(1))
    timer.cancel()
    kernel.run()
    assert fired == []


def test_run_until_time_limit(kernel):
    fired = []
    kernel.call_later(1.0, lambda: fired.append(1))
    kernel.call_later(10.0, lambda: fired.append(2))
    kernel.run(until=5.0)
    assert fired == [1]
    assert kernel.now == 5.0
    kernel.run()
    assert fired == [1, 2]


def test_run_until_limit_preserves_pending_event(kernel):
    """Regression: hitting ``limit`` used to pop-and-drop the head event.

    ``run_until`` popped via ``_next_event()`` *before* comparing the
    event time against ``limit`` and raised without re-pushing, so a
    kernel reused after catching the error had silently lost the event.
    The limit must be checked against the peeked head, leaving it
    queued for a later run.
    """
    fired = []
    kernel.call_later(5.0, lambda: fired.append(kernel.now))
    with pytest.raises(SimulationError, match="limit"):
        kernel.run_until(lambda: bool(fired), limit=2.0)
    assert kernel.now == 2.0
    assert fired == []
    # Resume the same kernel: the event must still be there and fire.
    kernel.run_until(lambda: bool(fired))
    assert fired == [5.0]


def test_run_until_limit_repeated_raises_are_stable(kernel):
    fired = []
    kernel.call_later(5.0, lambda: fired.append(kernel.now))
    for limit in (1.0, 2.0, 3.0):
        with pytest.raises(SimulationError, match="limit"):
            kernel.run_until(lambda: bool(fired), limit=limit)
    kernel.run()
    assert fired == [5.0]


def test_timer_handles_are_never_pooled(kernel):
    fired = []
    stale = kernel.call_later(1.0, lambda: fired.append("a"))
    kernel.run()
    # Cancelling a long-dead timer handle must not affect later events.
    kernel.call_later(1.0, lambda: fired.append("b"))
    stale.cancel()
    kernel.run()
    assert fired == ["a", "b"]


def test_cancelled_event_compaction_keeps_order(kernel):
    from repro.simulation.kernel import _COMPACT_MIN, _live

    trace = []
    threads = 2 * _COMPACT_MIN // 20

    def waiter(i):
        # A timer satisfies each far-future timed wait at once, leaving
        # its timeout in the heap as a stale wakeup: ten times the
        # compaction threshold in all.
        for _ in range(100):
            event = Event(kernel)
            kernel.call_later(0.0, event.set)
            assert event.wait(timeout=1e6)
        sleep(float(i % 7) * 0.1)
        trace.append(i)

    def main():
        for t in [spawn(waiter, i) for i in range(threads)]:
            t.join()

    kernel.run_main(main)
    assert sorted(trace) == list(range(threads))
    # Compaction ran: the dead timeouts did not accumulate unboundedly.
    assert len(kernel._heap) < 2 * _COMPACT_MIN
    # And the count that drives it is exact.
    assert kernel._cancelled == sum(not _live(item)
                                    for _time, _seq, item in kernel._heap)


def test_deadlock_detection(kernel):
    from repro.simulation import Event

    event = Event(kernel)

    def main():
        event.wait()

    kernel.spawn(main)
    with pytest.raises(DeadlockError):
        kernel.run()


def test_deadlock_names_each_lock_and_its_holder(kernel):
    """Two threads take two locks in opposite orders: the error says
    which lock each one waits on and who holds it."""
    from repro.simulation import Lock

    first, second = Lock(kernel), Lock(kernel)

    def take(name, held, wanted):
        def body():
            with held:
                sleep(1.0)
                with wanted:
                    pass
        return kernel.spawn(body, name=name)

    take("t1", first, second)
    take("t2", second, first)
    with pytest.raises(DeadlockError) as raised:
        kernel.run()
    message = str(raised.value)
    assert f"t1 → Lock {id(second):#x} held by t2" in message
    assert f"t2 → Lock {id(first):#x} held by t1" in message
    assert raised.value.blocked_names == ["t1", "t2"]


def test_daemon_threads_do_not_trigger_deadlock(kernel):
    from repro.simulation import Event

    event = Event(kernel)

    def background():
        event.wait()

    kernel.spawn(background, daemon=True)
    kernel.run()  # should return quietly


def test_negative_delay_rejected(kernel):
    with pytest.raises(SimulationError):
        kernel.call_later(-1.0, lambda: None)


def test_thread_cannot_join_itself(kernel):
    def main():
        from repro.simulation.kernel import current_thread

        current_thread().join()

    with pytest.raises(SimulationError):
        kernel.run_main(main)


def test_close_tears_down_blocked_threads():
    kernel = Kernel()

    def stuck():
        sleep(1e9)

    kernel.spawn(stuck)
    kernel.run(until=1.0)
    kernel.close()  # must not hang


def test_nested_spawn(kernel):
    results = []

    def grandchild():
        sleep(1.0)
        results.append(("gc", now()))

    def child():
        t = spawn(grandchild)
        t.join()
        results.append(("c", now()))

    def main():
        t = spawn(child)
        t.join()
        results.append(("m", now()))

    kernel.run_main(main)
    assert results == [("gc", 1.0), ("c", 1.0), ("m", 1.0)]


def test_many_threads_scale(kernel):
    def worker(i):
        sleep(float(i % 10))
        return i

    def main():
        threads = [spawn(worker, i) for i in range(200)]
        for t in threads:
            t.join()
        return sum(t.result() for t in threads)

    assert kernel.run_main(main) == sum(range(200))


def test_determinism_across_kernels():
    def experiment():
        with Kernel(seed=3) as kernel:
            trace = []

            def worker(i):
                delay = float(kernel.rng.stream("w").exponential(1.0))
                sleep(delay)
                trace.append((i, now()))

            def main():
                ts = [spawn(worker, i) for i in range(20)]
                for t in ts:
                    t.join()

            kernel.run_main(main)
            return trace

    assert experiment() == experiment()
