"""``Kernel.every``: the one periodic primitive (DESIGN.md §5).

A periodic thread calls its step every period as one SimThread that
holds no OS worker between ticks.  These tests pin when ticks run, what
a tick sees, how ticks stop, and that explored schedules stay seeded.
"""

import threading

import pytest

from repro.core.runtime import _set_location, current_location
from repro.errors import SimulationError
from repro.explore import FifoScheduler, RandomScheduler
from repro.simulation import Kernel
from repro.simulation.kernel import current_thread
from repro.simulation.thread import sleep


def _sim_os_threads():
    return [t for t in threading.enumerate() if t.name.startswith("sim:")]


# -- when ticks run -----------------------------------------------------------


@pytest.mark.parametrize("delay, expected", [
    (None, [1.0, 2.25, 3.5, 4.75]),
    (0.5, [0.5, 1.75, 3.0, 4.25]),
])
def test_next_tick_is_armed_when_step_returns(delay, expected):
    """Fixed delay: a step blocking 0.25 s pushes every later tick."""
    times = []
    with Kernel(seed=1) as kernel:
        def step():
            times.append(kernel.now)
            sleep(0.25)

        def main():
            kernel.every(1.0, step, name="tick", delay=delay)
            sleep(5.0)

        kernel.run_main(main)
    assert times == pytest.approx(expected)


def test_zero_delay_runs_step_at_the_start_dispatch():
    """``delay=0`` ticks in the slot a spawn would have run in: after
    the thread spawned before it, before the one spawned after."""
    order = []
    with Kernel(seed=1) as kernel:
        def main():
            kernel.spawn(lambda: order.append(("before", kernel.now)))
            kernel.every(1.0, lambda: order.append(("tick", kernel.now)),
                         name="tick", delay=0)
            kernel.spawn(lambda: order.append(("after", kernel.now)))
            sleep(2.5)

        kernel.run_main(main)
    assert order == [("before", 0.0), ("tick", 0.0), ("after", 0.0),
                     ("tick", 1.0), ("tick", 2.0)]


def test_bad_period_or_delay_is_refused():
    with Kernel(seed=1) as kernel:
        with pytest.raises(SimulationError):
            kernel.every(0.0, lambda: None, name="never")
        with pytest.raises(SimulationError):
            kernel.every(1.0, lambda: None, name="never", delay=-1.0)


# -- what a tick sees ---------------------------------------------------------


def test_every_tick_runs_as_the_same_thread():
    """Same ``current_thread()``, ``locals`` and execution site on
    every tick, although plain threads reuse the OS workers between."""
    seen = []
    with Kernel(seed=1) as kernel:
        def step():
            thread = current_thread()
            if not thread.locals:
                thread.locals["ticks"] = 0
                _set_location("fn-1", 0.5)
            thread.locals["ticks"] += 1
            seen.append((thread, thread.locals["ticks"], current_location()))

        def plain():
            seen.append(("plain", current_location()))

        def main():
            kernel.every(1.0, step, name="tick")
            for _ in range(3):
                sleep(1.5)
                kernel.spawn(plain)

        kernel.run_main(main)
    ticks = [entry for entry in seen if entry[0] != "plain"]
    assert len({thread for thread, _, _ in ticks}) == 1
    assert [(n, site) for _, n, site in ticks] == [
        (1, "fn-1"), (2, "fn-1"), (3, "fn-1"), (4, "fn-1")]
    assert ("plain", "client") in seen


def test_a_thread_between_ticks_holds_no_os_worker():
    """Fifty duties ticking in step share two OS workers, not fifty."""
    with Kernel(seed=1) as kernel:
        def main():
            for i in range(50):
                kernel.every(1.0, lambda: None, name=f"duty-{i}")
            sleep(10.5)
            return len(_sim_os_threads())

        # main's worker plus the two the ticks take turns on.
        assert kernel.run_main(main) <= 3


# -- how ticks stop -----------------------------------------------------------


def _dispatched(scheduler, name):
    """Virtual times at which events of thread ``name`` dispatched."""
    return [d.time for d in scheduler.trace.decisions
            if d.options[d.chosen] == name]


def test_cancel_between_ticks_leaves_no_dispatch():
    scheduler = FifoScheduler()
    ticks = []
    with Kernel(seed=1, scheduler=scheduler) as kernel:
        def main():
            duty = kernel.every(1.0, lambda: ticks.append(kernel.now),
                                name="duty")
            sleep(2.5)
            duty.cancel()
            assert duty.done
            sleep(5.0)

        kernel.run_main(main)
        kernel.run()  # drain: nothing of the duty is left to dispatch
        assert kernel.now == 7.5
    assert ticks == [1.0, 2.0]
    # The start dispatch (which arms the first tick) and two ticks.
    assert _dispatched(scheduler, "duty") == [0.0, 1.0, 2.0]


def test_cancel_inside_a_tick_ends_it_after_the_step():
    scheduler = FifoScheduler()
    ticks = []
    with Kernel(seed=1, scheduler=scheduler) as kernel:
        def step():
            ticks.append(kernel.now)
            if len(ticks) == 2:
                current_thread().cancel()
                sleep(0.5)  # the tick itself still runs to its end
                ticks.append(kernel.now)

        def main():
            duty = kernel.every(1.0, step, name="duty")
            sleep(6.0)
            return duty.done

        assert kernel.run_main(main)
        assert kernel.failed_threads == ()
    assert ticks == [1.0, 2.0, 2.5]
    assert _dispatched(scheduler, "duty") == [0.0, 1.0, 2.0, 2.5]


def test_a_raising_step_ends_the_ticks_and_is_reported():
    ticks = []
    with Kernel(seed=1) as kernel:
        def step():
            ticks.append(kernel.now)
            if len(ticks) == 3:
                raise ValueError("step broke")

        def main():
            duty = kernel.every(1.0, step, name="duty")
            sleep(10.0)
            return duty

        duty = kernel.run_main(main)
        assert duty.done
        assert kernel.failed_threads == (duty,)
        with pytest.raises(ValueError, match="step broke"):
            duty.result()
    assert ticks == [1.0, 2.0, 3.0]


def test_join_returns_once_cancelled_between_ticks():
    with Kernel(seed=1) as kernel:
        def main():
            duty = kernel.every(1.0, lambda: None, name="duty")
            kernel.spawn(lambda: (sleep(2.5), duty.cancel()))
            duty.join()
            return kernel.now

        assert kernel.run_main(main) == 2.5


def test_close_with_a_parked_periodic_thread_joins_every_os_thread():
    before = threading.active_count()
    kernel = Kernel(seed=1)

    def main():
        kernel.every(1.0, lambda: sleep(0.1), name="duty")
        sleep(3.5)
        # Never dispatched: close() must bind it a worker to unwind.
        kernel.every(1.0, lambda: None, name="unstarted", delay=0)

    kernel.spawn(lambda: sleep(100.0), name="blocked")
    kernel.run_main(main)
    kernel.close()
    assert threading.active_count() == before
    assert _sim_os_threads() == []


# -- poke: tick now -----------------------------------------------------------


def test_poke_between_ticks_ticks_now_then_a_period_later():
    ticks = []
    with Kernel(seed=1) as kernel:
        def main():
            duty = kernel.every(1.0, lambda: ticks.append(kernel.now),
                                name="duty")
            sleep(1.25)
            duty.poke()
            duty.poke()  # already due: one tick, not two
            sleep(3.5)

        kernel.run_main(main)
    assert ticks == pytest.approx([1.0, 1.25, 2.25, 3.25, 4.25])


def test_poke_before_the_spawn_slot_ticks_now():
    """The spawn slot is due but, with a delay, would only arm the
    first tick: the poke makes it the tick."""
    ticks = []
    with Kernel(seed=1) as kernel:
        def main():
            duty = kernel.every(1.0, lambda: ticks.append(kernel.now),
                                name="duty")
            duty.poke()
            sleep(2.5)

        kernel.run_main(main)
    assert ticks == pytest.approx([0.0, 1.0, 2.0])


def test_poke_inside_a_tick_runs_the_next_right_after_it():
    ticks = []
    with Kernel(seed=1) as kernel:
        def step():
            ticks.append(kernel.now)
            sleep(0.25)

        def main():
            duty = kernel.every(1.0, step, name="duty")
            sleep(1.125)  # mid-tick: the step sleeps until 1.25
            duty.poke()
            duty.poke()
            sleep(3.0)

        kernel.run_main(main)
    # The poked tick follows at 1.25; the one after, a period later.
    assert ticks == pytest.approx([1.0, 1.25, 2.5, 3.75])


def test_poke_after_cancel_is_a_no_op():
    scheduler = FifoScheduler()
    ticks = []
    with Kernel(seed=1, scheduler=scheduler) as kernel:
        def main():
            duty = kernel.every(1.0, lambda: ticks.append(kernel.now),
                                name="duty")
            sleep(1.5)
            duty.cancel()
            duty.poke()
            sleep(3.0)
            return duty.done

        assert kernel.run_main(main)
        kernel.run()
    assert ticks == [1.0]
    assert _dispatched(scheduler, "duty") == [0.0, 1.0]


# -- exploration --------------------------------------------------------------


def _explored(seed):
    scheduler = RandomScheduler(seed=seed, preempt_prob=0.2)
    log = []
    with Kernel(seed=3, scheduler=scheduler) as kernel:
        def duty(tag):
            log.append((tag, round(kernel.now, 9)))
            sleep(0.05)

        def main():
            for tag in "abc":
                kernel.every(0.5, lambda tag=tag: duty(tag), name=tag,
                             delay=0 if tag == "a" else None)
            sleep(3.0)

        kernel.run_main(main)
    return scheduler.trace.decisions, log


def test_explored_periodic_schedule_is_seeded():
    first, second = _explored(7), _explored(7)
    assert first == second
    assert _explored(8)[0] != first[0]


def _explored_pokes(seed):
    scheduler = RandomScheduler(seed=seed, preempt_prob=0.2)
    log = []
    with Kernel(seed=3, scheduler=scheduler) as kernel:
        def main():
            duty = kernel.every(
                0.5, lambda: (log.append(round(kernel.now, 9)), sleep(0.05)),
                name="duty")
            for _ in range(8):
                sleep(0.3)
                duty.poke()
            sleep(1.0)

        kernel.run_main(main)
    return scheduler.trace.decisions, log


def test_explored_pokes_are_seeded():
    first, second = _explored_pokes(7), _explored_pokes(7)
    assert first == second
    assert len(first[1]) > 8  # every poke ticked, plus the period's
