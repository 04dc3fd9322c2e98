"""The baton-passing event loop (DESIGN.md §5).

Whoever suspends runs the dispatch loop on its own OS thread, so these
tests pin what that must not change — who a timer callback runs *as*,
where ``run_until`` stops, how loop errors reach the host, that
``close()`` returns every OS thread — and, with literal crc constants
captured on the host-bounce kernel this one replaced, that schedules
and traces are the same bytes.
"""

import gc
import sys
import threading
import zlib

import pytest

from repro import AtomicLong, CloudThread, CrucialEnvironment, chrome_trace_json
from repro.errors import SimulationError
from repro.explore import PctScheduler, RandomScheduler
from repro.simulation import Kernel, Lock, Queue
from repro.simulation.kernel import in_sim_thread
from repro.simulation.thread import sleep


def _sim_os_threads():
    return [t for t in threading.enumerate() if t.name.startswith("sim:")]


# -- who runs the loop ------------------------------------------------------


def test_self_wakeup_involves_no_second_os_thread():
    idents = set()
    before = threading.active_count()
    with Kernel(seed=1) as kernel:
        def main():
            for _ in range(50):
                sleep(1e-3)
                idents.add(threading.get_ident())
            # The sleeper's own OS thread, plus the parked host.
            return threading.active_count()

        assert kernel.run_main(main) == before + 1
        assert kernel.now == pytest.approx(0.05)
    assert len(idents) == 1


def test_joiner_wakeup_reuses_the_finished_threads_os_thread():
    with Kernel(seed=1) as kernel:
        def child():
            sleep(1.0)
            return threading.get_ident()

        def main():
            first = kernel.spawn(child)
            first.join()
            peak = threading.active_count()
            second = kernel.spawn(child)
            second.join()
            # The second child ran on the first one's parked OS thread.
            assert threading.active_count() == peak
            return first.result(), second.result()

        first, second = kernel.run_main(main)
        assert first == second
        assert kernel.now == 2.0


def test_timer_fired_from_a_sim_threads_os_thread_runs_in_kernel_context():
    seen = {}
    with Kernel(seed=1) as kernel:
        def child():
            seen["child_in_sim"] = in_sim_thread()
            sleep(1.0)
            return "spawned by timer"

        def callback():
            seen["ident"] = threading.get_ident()
            seen["in_sim"] = in_sim_thread()
            seen["child"] = kernel.spawn(child, name="from-timer")

        def main():
            kernel.call_later(0.5, callback)
            sleep(2.0)  # main holds the baton when the timer is due
            return threading.get_ident(), in_sim_thread()

        main_ident, main_in_sim = kernel.run_main(main)
        assert main_in_sim is True
        assert seen["ident"] == main_ident
        assert seen["in_sim"] is False
        assert seen["child_in_sim"] is True
        assert seen["child"].result() == "spawned by timer"


# -- when the host gets the baton back --------------------------------------


def test_timer_error_under_a_sim_thread_surfaces_from_run():
    before = threading.active_count()
    kernel = Kernel(seed=1)
    log = []

    def boom():
        raise ValueError("timer boom")

    def sleeper():
        sleep(2.0)
        log.append(kernel.now)

    kernel.call_later(1.0, boom)
    thread = kernel.spawn(sleeper)
    with pytest.raises(ValueError, match="timer boom"):
        kernel.run()
    # The timer was consumed at its own instant; the sleeper that ran
    # the loop is parked on its still-queued wakeup, so a second run()
    # resumes it.
    assert kernel.now == 1.0 and not thread.done
    kernel.run()
    assert log == [2.0] and thread.done
    kernel.close()
    assert threading.active_count() == before


def test_scheduler_error_under_a_sim_thread_surfaces_from_run():
    class Exploding(RandomScheduler):
        def _choose(self, time, labels, entries):
            if time >= 2.0:
                raise RuntimeError("decide boom")
            return 0

    with Kernel(seed=1, scheduler=Exploding(seed=0)) as kernel:
        def worker():
            for _ in range(3):
                sleep(1.0)

        for tag in "ab":
            kernel.spawn(worker, name=f"worker-{tag}")
        with pytest.raises(RuntimeError, match="decide boom"):
            kernel.run()
        assert kernel.now == 1.0


def test_run_until_stops_on_the_event_that_flips_the_predicate():
    with Kernel(seed=1) as kernel:
        hits = []

        def ticker(tag, period):
            for _ in range(4):
                sleep(period)
                hits.append((tag, kernel.now))

        kernel.spawn(ticker, "a", 1.0)
        kernel.spawn(ticker, "b", 1.5)
        kernel.call_later(2.25, lambda: hits.append(("timer", kernel.now)))
        kernel.run_until(lambda: len(hits) >= 3)
        assert hits == [("a", 1.0), ("b", 1.5), ("a", 2.0)]
        assert kernel.now == 2.0
        # Nothing past the flipping event ran or left the heap.
        assert sorted((time, type(item).__name__)
                      for time, _seq, item in kernel._heap
                      if not item.cancelled) \
            == [(2.25, "Timer"), (3.0, "Wakeup"), (3.0, "Wakeup")]
        kernel.run()
        assert len(hits) == 9 and kernel.now == 6.0


def test_run_is_not_reentrant_from_a_timer():
    with Kernel(seed=1) as kernel:
        kernel.call_later(1.0, kernel.run)
        with pytest.raises(SimulationError, match="re-entrant"):
            kernel.run()


# -- close() ----------------------------------------------------------------


def test_close_leaves_no_os_thread_behind():
    before = threading.active_count()
    kernel = Kernel(seed=1)
    gate = Queue(kernel)
    unwound = []

    def finished():
        sleep(0.5)

    def blocked():
        try:
            gate.get()
        finally:
            unwound.append("blocked")

    def daemon():
        try:
            while True:
                sleep(1.0)
        finally:
            unwound.append("daemon")

    for _ in range(3):
        kernel.spawn(finished)
    kernel.spawn(blocked, name="blocked")
    kernel.spawn(daemon, name="daemon", daemon=True)
    kernel.run(until=3.0)
    never_run = kernel.spawn(lambda: unwound.append("never"), name="never")
    assert len(_sim_os_threads()) >= 3

    kernel.close()
    assert sorted(unwound) == ["blocked", "daemon"]
    assert never_run.done and not _sim_os_threads()
    assert threading.active_count() == before
    kernel.close()  # a second close is a no-op
    assert threading.active_count() == before
    with pytest.raises(SimulationError, match="closed"):
        kernel.run()
    with pytest.raises(SimulationError, match="closed"):
        kernel.spawn(finished)


def test_dropping_an_unclosed_kernel_releases_its_idle_workers():
    kernel = Kernel(seed=1)
    for _ in range(3):
        kernel.spawn(sleep, 1.0)
    kernel.run()
    workers = _sim_os_threads()
    assert len(workers) == 3
    del kernel
    gc.collect()
    for worker in workers:
        worker.join(timeout=10.0)
    assert not _sim_os_threads()


def test_location_is_per_sim_thread_not_per_os_thread():
    """A reused OS thread must not leak the previous thread's site."""
    from repro.core.runtime import (_set_location, current_cpu_share,
                                    current_location)

    assert (current_location(), current_cpu_share()) == ("client", 1.0)
    with Kernel(seed=1) as kernel:
        def in_container():
            _set_location("lambda.f.0", 0.5)
            sleep(1.0)
            return threading.get_ident(), current_location()

        def fresh():
            return (threading.get_ident(), current_location(),
                    current_cpu_share())

        def main():
            first = kernel.spawn(in_container)
            first.join()
            second = kernel.spawn(fresh)
            second.join()
            return first.result(), second.result()

        (ident_a, site_a), (ident_b, site_b, share_b) = kernel.run_main(main)
        assert ident_a == ident_b  # same OS thread...
        assert site_a == "lambda.f.0"
        assert (site_b, share_b) == ("client", 1.0)  # ...fresh site


def test_handoff_survives_a_hostile_switch_interval():
    """The one window where two OS threads race — a finished thread's
    worker going idle while its successor already reuses it — under
    GIL switches forced every microsecond."""
    def churn(seed):
        log = []
        with Kernel(seed=seed) as kernel:
            inbox = Queue(kernel)

            def request(i):
                sleep(1e-3 * (i % 3))
                inbox.put(i)

            def generator():
                for i in range(300):
                    kernel.spawn(request, i)
                    if i % 7 == 0:
                        sleep(1e-3)

            def collector():
                for _ in range(300):
                    log.append((inbox.get(), kernel.now))

            kernel.spawn(generator)
            kernel.spawn(collector)
            kernel.run()
        return log

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        first, second = churn(5), churn(5)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(i for i, _ in first) == list(range(300))
    assert first == second
    assert not _sim_os_threads()


# -- pinned bytes -----------------------------------------------------------


def _explored_run(scheduler):
    """Ties, lock contention, a queue ping-pong, joins, a timer spawn."""
    order = []
    with Kernel(seed=3, scheduler=scheduler) as kernel:
        lock = Lock(kernel)
        ping, pong = Queue(kernel), Queue(kernel)

        def worker(tag):
            for round_no in range(4):
                sleep(1.0)
                with lock:
                    sleep(0.25)
                    order.append((tag, round_no, kernel.now))

        def server():
            for _ in range(6):
                pong.put(ping.get() + 1)

        def client():
            value = 0
            for _ in range(6):
                ping.put(value)
                value = pong.get()
                sleep(0.5)
            order.append(("client", value, kernel.now))

        def late():
            sleep(0.5)
            order.append(("late", 0, kernel.now))

        workers = [kernel.spawn(worker, tag, name=f"worker-{tag}")
                   for tag in "abcd"]
        kernel.spawn(server, name="server")
        kernel.spawn(client, name="client")
        kernel.spawn_at(2.0, late, name="late")

        def main():
            for thread in workers:
                thread.join()

        kernel.run_main(main)
        kernel.run()
        end = kernel.now
    decisions = ";".join(
        f"{d.step}:{d.time!r}:{','.join(d.options)}:{d.chosen}:{d.delay!r}"
        for d in scheduler.trace.decisions)
    return (scheduler.trace.fingerprint(),
            zlib.crc32(decisions.encode()),
            zlib.crc32(repr(order).encode()),
            end)


def test_random_schedule_is_pinned():
    assert _explored_run(RandomScheduler(seed=7, preempt_prob=0.1)) \
        == RANDOM_PIN


def test_pct_schedule_is_pinned():
    assert _explored_run(PctScheduler(seed=5, depth=3, expected_steps=60)) \
        == PCT_PIN


class _Adder:
    def __init__(self):
        self.counter = AtomicLong("sum", persistent=True)

    def run(self):
        from repro import current_environment

        current_environment().object_store.put("blob", b"x" * 64)
        return self.counter.add_and_get(1)


def _chrome_export():
    with CrucialEnvironment(seed=11, dso_nodes=2,
                            trace_enabled=True) as env:
        def main():
            threads = [CloudThread(_Adder(), name=f"w{i}").start()
                       for i in range(3)]
            return [t.result() for t in threads]

        results = env.run(main)
        export = chrome_trace_json(env.kernel.tracer)
        return sorted(results), len(export), zlib.crc32(export.encode()), \
            env.kernel.now


def test_chrome_trace_export_is_pinned():
    assert _chrome_export() == CHROME_PIN


#: Captured on the parent commit (host-bounce kernel, bfecebf).
RANDOM_PIN = ("ffd31cb2", 3056921065, 216482751, 5.7503)
PCT_PIN = ("f070886f", 517087160, 1493339288, 5.75)
CHROME_PIN = ([1, 2, 3], 9629, 1921273719, 1.546570610558266)
