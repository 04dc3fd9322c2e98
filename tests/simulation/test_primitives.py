"""Unit tests for virtual-time synchronization primitives."""

import pytest

from repro.errors import SimTimeoutError, SimulationError
from repro.simulation import Condition, Event, Kernel, Lock, Queue, Semaphore
from repro.simulation.thread import now, sleep, spawn


@pytest.fixture
def kernel():
    with Kernel(seed=11) as k:
        yield k


# -- Event ------------------------------------------------------------------


def test_event_wait_blocks_until_set(kernel):
    event = Event(kernel)

    def setter():
        sleep(2.0)
        event.set()

    def main():
        spawn(setter)
        assert event.wait() is True
        return now()

    assert kernel.run_main(main) == pytest.approx(2.0)


def test_event_wait_after_set_returns_immediately(kernel):
    event = Event(kernel)

    def main():
        event.set()
        assert event.wait() is True
        return now()

    assert kernel.run_main(main) == 0.0


def test_event_wait_timeout_returns_false(kernel):
    event = Event(kernel)

    def main():
        assert event.wait(timeout=1.0) is False
        return now()

    assert kernel.run_main(main) == pytest.approx(1.0)


def test_event_wakes_all_waiters(kernel):
    event = Event(kernel)
    woken = []

    def waiter(i):
        event.wait()
        woken.append(i)

    def main():
        threads = [spawn(waiter, i) for i in range(5)]
        sleep(1.0)
        event.set()
        for t in threads:
            t.join()

    kernel.run_main(main)
    assert woken == [0, 1, 2, 3, 4]


def test_event_clear_and_reuse(kernel):
    event = Event(kernel)

    def main():
        event.set()
        assert event.wait() is True
        event.clear()
        assert event.is_set() is False
        assert event.wait(timeout=0.5) is False

    kernel.run_main(main)


# -- Lock ---------------------------------------------------------------------


def test_lock_mutual_exclusion(kernel):
    lock = Lock(kernel)
    active = []
    max_active = []

    def worker():
        with lock:
            active.append(1)
            max_active.append(len(active))
            sleep(1.0)
            active.pop()

    def main():
        threads = [spawn(worker) for _ in range(4)]
        for t in threads:
            t.join()
        return now()

    assert kernel.run_main(main) == pytest.approx(4.0)
    assert max(max_active) == 1


def test_lock_held_is_per_thread(kernel):
    """``held()`` answers "does *this thread* own it", unlike
    ``locked`` ("does anyone") — the distinction cleanup paths need
    before a guarded ``release()``."""
    lock = Lock(kernel)
    observed = []

    def owner():
        with lock:
            assert lock.held()
            sleep(1.0)

    def bystander():
        sleep(0.5)  # while the owner holds it
        observed.append((lock.locked, lock.held()))

    def main():
        threads = [spawn(owner), spawn(bystander)]
        for t in threads:
            t.join()
        return lock.locked, lock.held()

    assert kernel.run_main(main) == (False, False)
    assert observed == [(True, False)]


def test_lock_fifo_order(kernel):
    lock = Lock(kernel)
    order = []

    def worker(i):
        sleep(i * 0.001)  # stagger arrival
        with lock:
            order.append(i)
            sleep(1.0)

    def main():
        threads = [spawn(worker, i) for i in range(5)]
        for t in threads:
            t.join()

    kernel.run_main(main)
    assert order == [0, 1, 2, 3, 4]


def test_lock_acquire_timeout(kernel):
    lock = Lock(kernel)

    def holder():
        with lock:
            sleep(5.0)

    def main():
        spawn(holder)
        sleep(0.1)
        assert lock.acquire(timeout=1.0) is False
        assert lock.acquire(timeout=10.0) is True
        lock.release()

    kernel.run_main(main)


def test_lock_release_by_non_owner_rejected(kernel):
    lock = Lock(kernel)

    def main():
        with pytest.raises(SimulationError):
            lock.release()

    kernel.run_main(main)


def test_lock_not_reentrant(kernel):
    lock = Lock(kernel)

    def main():
        lock.acquire()
        with pytest.raises(SimulationError):
            lock.acquire()
        lock.release()

    kernel.run_main(main)


# -- Semaphore ----------------------------------------------------------------


def test_semaphore_limits_concurrency(kernel):
    sem = Semaphore(kernel, permits=2)
    active = [0]
    peak = [0]

    def worker():
        with sem:
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            sleep(1.0)
            active[0] -= 1

    def main():
        threads = [spawn(worker) for _ in range(6)]
        for t in threads:
            t.join()
        return now()

    assert kernel.run_main(main) == pytest.approx(3.0)
    assert peak[0] == 2


def test_semaphore_acquire_timeout(kernel):
    sem = Semaphore(kernel, permits=0)

    def main():
        assert sem.acquire(timeout=0.5) is False
        sem.release()
        assert sem.acquire(timeout=0.5) is True

    kernel.run_main(main)


def test_semaphore_release_multiple(kernel):
    sem = Semaphore(kernel, permits=0)
    done = []

    def worker(i):
        sem.acquire()
        done.append(i)

    def main():
        threads = [spawn(worker, i) for i in range(3)]
        sleep(1.0)
        sem.release(3)
        for t in threads:
            t.join()

    kernel.run_main(main)
    assert done == [0, 1, 2]


def test_semaphore_negative_permits_rejected(kernel):
    with pytest.raises(SimulationError):
        Semaphore(kernel, permits=-1)


# -- Condition -----------------------------------------------------------------


def test_condition_notify_wakes_one(kernel):
    cond = Condition(kernel)
    woken = []

    def waiter(i):
        with cond:
            cond.wait()
            woken.append(i)

    def main():
        threads = [spawn(waiter, i) for i in range(3)]
        sleep(1.0)
        with cond:
            cond.notify()
        sleep(1.0)
        assert woken == [0]
        with cond:
            cond.notify_all()
        for t in threads:
            t.join()

    kernel.run_main(main)
    assert woken == [0, 1, 2]


def test_condition_wait_requires_lock(kernel):
    cond = Condition(kernel)

    def main():
        with pytest.raises(SimulationError):
            cond.wait()

    kernel.run_main(main)


def test_condition_wait_for_predicate(kernel):
    cond = Condition(kernel)
    state = {"ready": False}

    def setter():
        sleep(2.0)
        with cond:
            state["ready"] = True
            cond.notify_all()

    def main():
        spawn(setter)
        with cond:
            assert cond.wait_for(lambda: state["ready"]) is True
        return now()

    assert kernel.run_main(main) == pytest.approx(2.0)


def test_condition_wait_timeout(kernel):
    cond = Condition(kernel)

    def main():
        with cond:
            assert cond.wait(timeout=0.75) is False
        return now()

    assert kernel.run_main(main) == pytest.approx(0.75)


def test_condition_wait_reacquires_lock(kernel):
    cond = Condition(kernel)
    trace = []

    def waiter():
        with cond:
            cond.wait()
            trace.append(("waiter-critical", now()))
            sleep(1.0)

    def main():
        t = spawn(waiter)
        sleep(0.5)
        with cond:
            cond.notify()
            sleep(1.0)  # still holding: waiter cannot enter yet
            trace.append(("main-exits", now()))
        t.join()

    kernel.run_main(main)
    assert trace == [("main-exits", 1.5), ("waiter-critical", 1.5)]


# -- Queue ----------------------------------------------------------------------


def test_queue_fifo(kernel):
    queue = Queue(kernel)

    def main():
        for i in range(5):
            queue.put(i)
        return [queue.get() for _ in range(5)]

    assert kernel.run_main(main) == [0, 1, 2, 3, 4]


def test_queue_get_blocks_until_put(kernel):
    queue = Queue(kernel)

    def producer():
        sleep(2.0)
        queue.put("item")

    def main():
        spawn(producer)
        item = queue.get()
        return item, now()

    assert kernel.run_main(main) == ("item", 2.0)


def test_queue_capacity_blocks_putters(kernel):
    queue = Queue(kernel, capacity=1)
    times = []

    def consumer():
        sleep(3.0)
        queue.get()

    def main():
        spawn(consumer)
        queue.put(1)
        queue.put(2)  # blocks until the consumer frees a slot
        times.append(now())

    kernel.run_main(main)
    assert times == [pytest.approx(3.0)]


def test_queue_get_timeout(kernel):
    queue = Queue(kernel)

    def main():
        with pytest.raises(SimTimeoutError):
            queue.get(timeout=0.5)

    kernel.run_main(main)


def test_queue_put_timeout(kernel):
    queue = Queue(kernel, capacity=1)

    def main():
        queue.put(1)
        with pytest.raises(SimTimeoutError):
            queue.put(2, timeout=0.5)

    kernel.run_main(main)


def test_queue_handoff_to_waiting_getter(kernel):
    queue = Queue(kernel)
    got = []

    def getter():
        got.append(queue.get())

    def main():
        t = spawn(getter)
        sleep(1.0)
        queue.put("x")
        t.join()

    kernel.run_main(main)
    assert got == ["x"]


def test_queue_invalid_capacity(kernel):
    with pytest.raises(SimulationError):
        Queue(kernel, capacity=0)


# -- a release at the timeout's own instant ---------------------------------


def _timed_waits(kernel):
    """name -> (releaser's step at 0 s, its release at 1 s, the timed
    wait on the releaser's thread, the wait's result once released)."""
    event, lock, semaphore = Event(kernel), Lock(kernel), Semaphore(kernel, 0)
    condition, items, full = Condition(kernel), Queue(kernel), Queue(kernel, 1)

    def notify():
        with condition:
            condition.notify()

    def wait_condition(_):
        with condition:
            return condition.wait(timeout=1.0)

    def nothing():
        pass

    return {
        "event": (nothing, event.set, lambda _: event.wait(timeout=1.0), True),
        "lock": (lock.acquire, lock.release,
                 lambda _: lock.acquire(timeout=1.0), True),
        "semaphore": (nothing, semaphore.release,
                      lambda _: semaphore.acquire(timeout=1.0), True),
        "condition": (nothing, notify, wait_condition, True),
        "queue_get": (nothing, lambda: items.put("x"),
                      lambda _: items.get(timeout=1.0), "x"),
        "queue_put": (lambda: full.put("a"), full.get,
                      lambda _: full.put("b", timeout=1.0), None),
        "join": (nothing, nothing,
                 lambda thread: thread.join(timeout=1.0), None),
    }


@pytest.mark.parametrize("name", ["event", "lock", "semaphore", "condition",
                                  "queue_get", "queue_put", "join"])
def test_a_release_at_the_timeouts_instant_wakes_the_waiter_once(kernel, name):
    first, release, wait, released = _timed_waits(kernel)[name]

    def releaser():
        first()
        sleep(1.0)
        release()

    def main():
        thread = spawn(releaser)
        sleep(0)  # the releaser's wakeup at 1 s is queued first
        result = wait(thread)  # its timeout fires after the release
        woke = now()
        sleep(0.5)  # the release's notification, now stale, must not end it
        return result, woke, now()

    assert kernel.run_main(main) == (released, 1.0, 1.5)
