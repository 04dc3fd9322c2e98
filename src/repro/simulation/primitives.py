"""Blocking synchronization primitives for simulated threads.

These mirror the ``threading`` module's API (events, locks, semaphores,
conditions) plus a ``queue.Queue`` equivalent, but block in *virtual*
time.  All of them are FIFO-fair: waiters are served in arrival order,
which keeps simulations deterministic.  Every blocking call parks
through :meth:`SimThread._park`, so a release at a timeout's own
instant counts as a release for all of them.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.errors import SimTimeoutError, SimulationError
from repro.simulation.kernel import Kernel, current_thread


class Event:
    """A latch that simulated threads can wait on."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self._flag = False
        self._waiters: deque = deque()

    def is_set(self) -> bool:
        return self._flag

    def set(self) -> None:
        self._flag = True
        while self._waiters:
            waiter = self._waiters.popleft()
            self.kernel.schedule_wakeup(waiter, 0.0)

    def clear(self) -> None:
        self._flag = False

    def wait(self, timeout: float | None = None) -> bool:
        """Block until set; return ``False`` on timeout."""
        if self._flag:
            return True
        thread = current_thread()
        return thread._park(self._waiters, thread, timeout, self)


class Lock:
    """A FIFO mutual-exclusion lock."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self._owner = None
        self._waiters: deque = deque()

    @property
    def locked(self) -> bool:
        return self._owner is not None

    def held(self) -> bool:
        """Whether the *calling* thread currently owns this lock.

        Unlike :attr:`locked` (owned by anyone), this is safe to guard
        a cleanup-path ``release()``: after a crash handler re-created
        the lock's object, ``locked`` may be true because some *other*
        thread owns the successor — releasing then would blow up.
        """
        return self._owner is current_thread()

    def acquire(self, timeout: float | None = None) -> bool:
        thread = current_thread()
        if self._owner is None:
            self._owner = thread
            return True
        if self._owner is thread:
            raise SimulationError(f"{thread.name} re-acquired a non-reentrant lock")
        # release() hands the lock over as it takes a waiter off.
        return thread._park(self._waiters, thread, timeout, self)

    def release(self) -> None:
        thread = current_thread()
        if self._owner is not thread:
            raise SimulationError(
                f"{thread.name} released a lock owned by "
                f"{self._owner.name if self._owner else 'nobody'}")
        if self._waiters:
            successor = self._waiters.popleft()
            self._owner = successor
            self.kernel.schedule_wakeup(successor, 0.0)
        else:
            self._owner = None

    def __enter__(self) -> "Lock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class Semaphore:
    """A FIFO counting semaphore."""

    def __init__(self, kernel: Kernel, permits: int = 1):
        if permits < 0:
            raise SimulationError(f"negative permits: {permits}")
        self.kernel = kernel
        self._permits = permits
        self._waiters: deque = deque()

    @property
    def permits(self) -> int:
        return self._permits

    def acquire(self, timeout: float | None = None) -> bool:
        thread = current_thread()
        if self._permits > 0 and not self._waiters:
            self._permits -= 1
            return True
        return thread._park(self._waiters, thread, timeout, self)

    def release(self, count: int = 1) -> None:
        self._permits += count
        while self._waiters and self._permits > 0:
            self._permits -= 1
            self.kernel.schedule_wakeup(self._waiters.popleft(), 0.0)

    def __enter__(self) -> "Semaphore":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class Condition:
    """A condition variable bound to a :class:`Lock`."""

    def __init__(self, kernel: Kernel, lock: Lock | None = None):
        self.kernel = kernel
        self.lock = lock or Lock(kernel)
        self._waiters: deque = deque()

    def acquire(self, timeout: float | None = None) -> bool:
        return self.lock.acquire(timeout)

    def release(self) -> None:
        self.lock.release()

    def __enter__(self) -> "Condition":
        self.lock.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.lock.release()

    def wait(self, timeout: float | None = None) -> bool:
        """Release the lock, block until notified, re-acquire.

        Returns ``False`` if the wait timed out before a notification.
        """
        thread = current_thread()
        if self.lock._owner is not thread:
            raise SimulationError("Condition.wait() without holding the lock")
        self.lock.release()
        notified = thread._park(self._waiters, thread, timeout, self)
        self.lock.acquire()
        return notified

    def wait_for(self, predicate, timeout: float | None = None) -> bool:
        deadline = None if timeout is None else self.kernel.now + timeout
        while not predicate():
            remaining = None
            if deadline is not None:
                remaining = deadline - self.kernel.now
                if remaining <= 0:
                    return bool(predicate())
            self.wait(remaining)
        return True

    def notify(self, count: int = 1) -> None:
        thread = current_thread()
        if self.lock._owner is not thread:
            raise SimulationError("Condition.notify() without holding the lock")
        for _ in range(min(count, len(self._waiters))):
            waiter = self._waiters.popleft()
            self.kernel.schedule_wakeup(waiter, 0.0)

    def notify_all(self) -> None:
        self.notify(len(self._waiters))


class Queue:
    """A FIFO queue with optional capacity, in virtual time."""

    def __init__(self, kernel: Kernel, capacity: int | None = None):
        if capacity is not None and capacity <= 0:
            raise SimulationError(f"non-positive capacity: {capacity}")
        self.kernel = kernel
        self.capacity = capacity
        self._items: deque = deque()
        self._getters: deque = deque()  # [thread, item cell]
        self._putters: deque = deque()  # (thread, item)

    def __len__(self) -> int:
        return len(self._items)

    def empty(self) -> bool:
        return not self._items

    def put(self, item: Any, timeout: float | None = None) -> None:
        thread = current_thread()
        if self._getters:
            entry = self._getters.popleft()
            entry[1] = item
            self.kernel.schedule_wakeup(entry[0], 0.0)
            return
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            return
        if not thread._park(self._putters, (thread, item), timeout, self):
            raise SimTimeoutError("Queue.put timed out")

    def get(self, timeout: float | None = None) -> Any:
        thread = current_thread()
        if self._items:
            item = self._items.popleft()
            if self._putters:
                putter, queued = self._putters.popleft()
                self._items.append(queued)
                self.kernel.schedule_wakeup(putter, 0.0)
            return item
        entry = [thread, None]
        if not thread._park(self._getters, entry, timeout, self):
            raise SimTimeoutError("Queue.get timed out")
        return entry[1]
