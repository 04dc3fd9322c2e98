"""Capacity-limited resources (CPU cores, network interfaces...).

A :class:`Resource` models a server with ``capacity`` identical units.
Simulated threads hold a unit (``with resource.request():``) while
they work; when all units are busy, requests queue FIFO.  This is how
we model the core count of a VM, the single event-loop thread of the
Redis-like store, and the worker pool of a DSO node.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.simulation.kernel import Kernel
from repro.simulation.primitives import Semaphore


class Resource:
    """A pool of ``capacity`` units with FIFO queuing."""

    def __init__(self, kernel: Kernel, capacity: int, name: str = "resource"):
        self.kernel = kernel
        self.capacity = capacity
        self.name = name
        self._sem = Semaphore(kernel, capacity)
        self._busy = 0
        self._busy_time = 0.0
        self._last_change = kernel.now

    def acquire(self) -> None:
        """Claim one unit, queueing FIFO until one is free.

        Prefer :meth:`request` where the hold is lexically scoped; the
        explicit pair exists for callers whose acquire and release live
        in different stack frames (e.g. a DSO call that parks).
        """
        self._sem.acquire()
        self._account()
        self._busy += 1

    def release(self) -> None:
        """Return a unit previously claimed with :meth:`acquire`."""
        self._account()
        self._busy -= 1
        self._sem.release()

    @contextmanager
    def request(self):
        """Hold one unit for the duration of the ``with`` block."""
        self.acquire()
        try:
            yield self
        finally:
            self.release()

    def _account(self) -> None:
        now = self.kernel.now
        self._busy_time += self._busy * (now - self._last_change)
        self._last_change = now

    def busy_seconds(self) -> float:
        """Cumulative busy unit-seconds since creation.

        Monotone, so a controller can difference two snapshots for a
        *windowed* busy fraction — the signal an autoscaler needs when
        load changes.
        """
        self._account()
        return self._busy_time


class ProcessorSharing:
    """An egalitarian processor-sharing CPU model.

    Unlike :class:`Resource`, jobs are not queued: ``n`` concurrent
    jobs on ``cores`` cores each progress at rate ``min(1, cores / n)``.
    This matches how an oversubscribed multi-threaded JVM process
    behaves, and drives the single-machine baseline of Figure 3
    (scale-up collapses once threads exceed cores).

    The implementation recomputes every active job's remaining work at
    each arrival/departure, which is exact for piecewise-constant rates.
    """

    def __init__(self, kernel: Kernel, cores: int, name: str = "cpu"):
        self.kernel = kernel
        self.cores = cores
        self.name = name
        # job id -> [remaining_work_seconds, last_update_time, reschedule Event]
        self._jobs: dict[int, list] = {}
        self._next_id = 0

    def _rate(self) -> float:
        n = len(self._jobs)
        if n == 0:
            return 1.0
        return min(1.0, self.cores / n)

    def _advance_all(self) -> None:
        now = self.kernel.now
        rate = self._rate()
        for job in self._jobs.values():
            job[0] -= (now - job[1]) * rate
            job[1] = now

    def _rate_changed(self) -> None:
        """Wake every active job so it re-computes its finish time."""
        for job in self._jobs.values():
            job[2].set()

    def execute(self, work_seconds: float) -> None:
        """Run a job of ``work_seconds`` CPU-seconds to completion.

        With ``n`` concurrent jobs the job progresses at rate
        ``min(1, cores / n)``; arrivals and departures re-time every
        in-flight job exactly (piecewise-constant rates).
        """
        from repro.simulation.primitives import Event

        self._advance_all()
        job_id = self._next_id
        self._next_id += 1
        job = [work_seconds, self.kernel.now, Event(self.kernel)]
        self._jobs[job_id] = job
        self._rate_changed()
        try:
            while job[0] > 1e-12:
                job[2] = Event(self.kernel)
                job[2].wait(timeout=job[0] / self._rate())
                self._advance_all()
        finally:
            del self._jobs[job_id]
            self._advance_all()
            self._rate_changed()
