"""The discrete-event kernel: a virtual clock, a wakeup heap, one baton.

Simulated threads are real OS threads, but exactly one party — a
simulated thread or the host (e.g. the pytest process) — holds the
*baton* at any instant, and only the holder touches kernel state, so
execution is effectively single-threaded and — given seeded RNGs —
fully deterministic.

There is no kernel thread.  Whoever gives up the baton (a thread that
suspends or finishes, the host inside ``run()``) runs the one dispatch
loop, :meth:`Kernel._advance`, itself: timers fire inline, a wakeup for
the caller just returns, and a wakeup for someone else is one release
of that party's raw lock followed by one acquire of the caller's own.
The host only gets the baton back when its stop condition holds, the
heap drains, the loop raised, or the kernel closes.
"""

from __future__ import annotations

import _thread
import heapq
import itertools
import threading
from typing import Any, Callable, Iterable

from repro.errors import DeadlockError, NotInSimThread, SimulationError
from repro.simulation.rng import RngRegistry

#: Per-OS-thread pointer to the SimThread executing on it.  ``None``
#: on the host, on a parked worker, and — masked by the dispatch loop —
#: while a simulated thread's OS thread runs timers in kernel context.
_context = threading.local()

#: Why the dispatch loop handed the baton to the host.
_STOPPED, _DRAINED, _LIMIT = "stopped", "drained", "limit"

#: Cap on the Wakeup free list; beyond this, surplus events are left to
#: the garbage collector (a pool larger than the live heap is pure waste).
_POOL_MAX = 1024

#: Compaction trigger: once at least this many cancelled events sit in
#: the heap *and* they make up half of it, the dispatch loop rebuilds.
_COMPACT_MIN = 512


def current_kernel() -> "Kernel":
    """Return the kernel driving the calling simulated thread."""
    thread = getattr(_context, "thread", None)
    if thread is None:
        raise NotInSimThread("no simulation kernel in this context")
    return thread.kernel


def current_thread() -> "SimThread":
    """Return the simulated thread executing the caller."""
    try:
        thread = _context.thread  # unset on an OS thread that never ran one
    except AttributeError:
        thread = None
    if thread is None:
        raise NotInSimThread("not running inside a simulated thread")
    return thread


def in_sim_thread() -> bool:
    """True when the caller runs inside a simulated thread."""
    return getattr(_context, "thread", None) is not None


class Wakeup:
    """A scheduled resumption of a simulated thread.

    ``value`` is handed to the thread as the result of its suspension,
    letting primitives distinguish e.g. a timeout from a notification.

    ``recycle`` marks wakeups whose handle never escapes the scheduling
    call site (sleeps, primitive notifications): the kernel returns
    those to a free pool once they leave the heap, so the dominant
    event type allocates ~once instead of once per dispatch.
    """

    __slots__ = ("thread", "value", "cancelled", "time", "recycle")

    #: Dispatch discriminator, cheaper than ``isinstance`` per pop.
    is_timer = False

    def __init__(self, thread: "SimThread", value: Any, time: float,
                 recycle: bool = False):
        self.thread = thread
        self.value = value
        self.time = time
        self.cancelled = False
        self.recycle = recycle

    def cancel(self) -> None:
        self.cancelled = True


class Timer:
    """A scheduled callback executed in kernel context (non-blocking).

    Timer handles are returned to callers (who may hold them across
    suspension points and cancel them much later), so timers are never
    pooled — recycling one under a live handle would let a stale
    ``cancel()`` kill an unrelated event.
    """

    __slots__ = ("callback", "cancelled", "time")

    is_timer = True
    recycle = False

    def __init__(self, callback: Callable[[], None], time: float):
        self.callback = callback
        self.time = time
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Kernel:
    """Virtual-time scheduler for simulated threads and timers.

    ``scheduler`` — an object implementing the
    :class:`repro.explore.Scheduler` protocol — turns every dispatch
    into an explicit *scheduling point*: all events ready at the
    minimum virtual time are offered to it, and it picks which one runs
    (and may delay it by a bounded amount).  ``None`` (the default)
    keeps the historical FIFO ``(time, seq)`` order with zero overhead;
    :class:`repro.explore.FifoScheduler` reproduces it decision-by-
    decision, which is what makes schedule exploration a strict
    generalisation of the deterministic kernel rather than a fork.
    """

    def __init__(self, seed: int = 0, name: str = "sim", scheduler=None):
        self.name = name
        self.rng = RngRegistry(seed)
        #: Optional schedule-exploration hook (repro.explore).
        self.scheduler = scheduler
        # Deferred import: repro.trace imports this module at its top.
        from repro.trace.tracer import NULL_TRACER

        #: The active tracer; a shared no-op :class:`NullTracer` until
        #: :meth:`enable_tracing` installs a real one.  Tracing only
        #: *observes* the clock — enabling it never changes timestamps.
        self.tracer = NULL_TRACER
        #: Current virtual time in seconds.  A plain attribute, because
        #: every layer reads it on every operation; only the dispatch
        #: loop writes it.
        self.now = 0.0
        self._seq = itertools.count()
        self._heap: list[tuple[float, int, object]] = []
        self._threads: set = set()  # live SimThreads
        #: The host parks here while a simulated thread holds the baton.
        self._host_gate = _thread.allocate_lock()
        self._host_gate.acquire()
        #: What ``run``/``run_until`` asked for: the loop hands the
        #: baton to the host when ``_stop()`` holds or the next event
        #: lies beyond ``_limit``, and says which in ``_outcome``.
        self._stop: Callable[[], bool] | None = None
        self._limit: float | None = None
        self._outcome = _DRAINED
        self._driving = False  # the host is inside run()/run_until()
        #: An exception that escaped the loop on a simulated thread's
        #: OS thread, parked for the host's ``run()`` to re-raise.
        self._loop_error: BaseException | None = None
        #: Parked OS threads of finished SimThreads, for ``spawn``.
        self._idle: list = []
        self._closed = False
        self._failed: list = []  # threads that died with an exception
        #: Free list of recyclable Wakeups (see :class:`Wakeup`).
        self._wakeup_pool: list = []
        #: Cancelled events still sitting in the heap (approximate:
        #: counted where cancellation is cheap to observe).  When the
        #: count dominates the heap the dispatch loop compacts, so a
        #: workload cancelling far-future timeouts cannot degrade every
        #: subsequent push/pop to O(log garbage).
        self._cancelled = 0

    # -- tracing ----------------------------------------------------------

    def enable_tracing(self, service: str = "repro"):
        """Attach a :class:`repro.trace.Tracer` and return it.

        Idempotent: a second call returns the already-installed tracer.
        """
        from repro.trace.tracer import Tracer

        if not self.tracer.enabled:
            self.tracer = Tracer(self, service=service)
        return self.tracer

    # -- scheduling -------------------------------------------------------

    def schedule_wakeup(self, thread, delay: float, value: Any = None,
                        recycle: bool = False) -> Wakeup:
        """Schedule ``thread`` to resume after ``delay`` virtual seconds.

        ``recycle=True`` is an optimisation contract offered by the
        call site: it promises the returned handle is never retained
        across a suspension point, letting the kernel pool the Wakeup
        once it has been dispatched (or popped cancelled).
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        pool = self._wakeup_pool
        if pool:
            wakeup = pool.pop()
            wakeup.thread = thread
            wakeup.value = value
            wakeup.time = self.now + delay
            wakeup.cancelled = False
            wakeup.recycle = recycle
        else:
            wakeup = Wakeup(thread, value, self.now + delay, recycle)
        heapq.heappush(self._heap, (wakeup.time, next(self._seq), wakeup))
        thread._pending.add(wakeup)
        return wakeup

    def _reclaim(self, item) -> None:
        """Return a recyclable event to the pool once it left the heap."""
        if item.recycle and len(self._wakeup_pool) < _POOL_MAX:
            item.thread = None
            item.value = None
            self._wakeup_pool.append(item)

    def _compact(self) -> None:
        """Drop cancelled events from the heap in one O(n) pass.

        Rebuilds in place (run loops hold a reference to the list), so
        the ``(time, seq)`` dispatch order of live events is unchanged.
        """
        live = []
        for entry in self._heap:
            item = entry[2]
            if item.cancelled:
                self._reclaim(item)
            else:
                live.append(entry)
        self._heap[:] = live
        heapq.heapify(self._heap)
        self._cancelled = 0

    def call_later(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Run ``callback`` in kernel context after ``delay`` seconds.

        The callback must not block on simulation primitives; spawn a
        thread for blocking work.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        timer = Timer(callback, self.now + delay)
        heapq.heappush(self._heap, (timer.time, next(self._seq), timer))
        return timer

    def call_at(self, when: float, callback: Callable[[], None]) -> Timer:
        return self.call_later(max(0.0, when - self.now), callback)

    def spawn(self, target: Callable[..., Any], *args, name: str | None = None,
              daemon: bool = False, **kwargs):
        """Create and start a simulated thread running ``target``."""
        from repro.simulation.thread import SimThread

        thread = SimThread(self, target, args=args, kwargs=kwargs,
                           name=name, daemon=daemon)
        if self.tracer.enabled:
            # Trace-context propagation: the child inherits the
            # spawner's active span as its initial parent.
            self.tracer.on_spawn(thread)
        thread.start()
        return thread

    def spawn_at(self, when: float, target: Callable[..., Any], *args,
                 name: str | None = None, daemon: bool = False,
                 **kwargs) -> Timer:
        """Start a simulated thread once the clock reaches ``when``.

        The fault-injection layer uses this to fire scheduled faults:
        unlike :meth:`call_later` callbacks, the spawned thread may
        block on simulation primitives (e.g. to release parked waiters
        of a crashed node, or to sleep until a fault's end time).
        Returns the :class:`Timer`; cancelling it before ``when``
        prevents the spawn.
        """
        return self.call_at(when, lambda: self.spawn(
            target, *args, name=name, daemon=daemon, **kwargs))

    # -- main loop --------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Dispatch events until the heap drains or ``until`` is reached.

        Raises :class:`DeadlockError` if the heap drains while
        non-daemon threads remain blocked.
        """
        if self._drive(None, until) is _DRAINED:
            self._detect_deadlock()

    def run_until(self, predicate: Callable[[], bool],
                  limit: float | None = None) -> None:
        """Dispatch events until ``predicate()`` holds.

        With ``limit``, the head event's time is checked *before* it is
        popped, so hitting the limit raises with the event still queued
        — a later ``run``/``run_until`` call on the same kernel will
        dispatch it.
        """
        outcome = self._drive(predicate, limit)
        if outcome is _LIMIT:
            raise SimulationError(
                f"condition not met by virtual time limit {limit}")
        if outcome is _DRAINED:
            self._detect_deadlock()
            raise SimulationError(
                "event queue drained before condition was met")

    def _drive(self, stop: Callable[[], bool] | None,
               limit: float | None) -> str:
        """Host side of the loop: give the baton away until ``stop()``
        holds, the next event lies beyond ``limit`` or the heap drains;
        returns which."""
        self._check_host_context()
        if self._driving:
            raise SimulationError("Kernel.run() is not re-entrant")
        self._driving = True
        self._stop, self._limit = stop, limit
        try:
            gate = self._advance(None)
            if gate is not None:
                self._yield_to(gate)
            return self._outcome
        finally:
            self._driving = False
            self._stop = self._limit = None

    def _yield_to(self, gate) -> None:
        """Host: pass the baton through ``gate`` and park until a
        simulated thread hands it back; re-raise what the loop raised
        on that thread's OS thread."""
        gate.release()
        self._host_gate.acquire()
        error, self._loop_error = self._loop_error, None
        if error is not None:
            raise error

    def _advance(self, me):
        """The dispatch loop, run by whoever holds the baton.

        ``me`` is the calling :class:`SimThread` (suspending or just
        finished), or ``None`` for the host.  Pops events — timers fire
        inline, in kernel context — until someone must run: returns
        ``None`` when that is the caller itself (its own wakeup came
        up; for the host, a stop condition holds, see ``_outcome``),
        else the gate the caller must release to pass the baton on.
        An exception escaping on a simulated thread's OS thread is
        parked in ``_loop_error`` and the baton goes to the host.
        """
        stop = self._stop
        limit = self._limit
        heap = self._heap
        pool = self._wakeup_pool
        pop = heapq.heappop
        fast = self.scheduler is None
        if me is not None:
            _context.thread = None  # timers and predicates: kernel context
        try:
            while True:
                if self._cancelled >= _COMPACT_MIN \
                        and self._cancelled * 2 >= len(heap):
                    self._compact()
                if stop is not None and stop():
                    self._outcome = _STOPPED
                    break
                if not heap:
                    self._outcome = _DRAINED
                    break
                head = heap[0]
                item = head[2]
                if item.cancelled:
                    pop(heap)
                    self._reclaim(item)
                    if self._cancelled:
                        self._cancelled -= 1
                    continue
                time = head[0]
                if limit is not None and time > limit:
                    self.now = limit
                    self._outcome = _LIMIT
                    break
                if fast:
                    pop(heap)
                else:
                    item = self._next_event()
                    if item is None:
                        continue
                self.now = time
                if item.is_timer:
                    item.callback()
                    continue
                thread = item.thread
                value = item.value
                thread._pending.discard(item)
                if item.recycle and len(pool) < _POOL_MAX:  # _reclaim, inline
                    item.thread = item.value = None
                    pool.append(item)
                if not thread.done:
                    thread._wake_value = value
                    return None if thread is me else thread._gate
        except BaseException as exc:
            if me is None:
                raise
            self._loop_error = exc
        finally:
            if me is not None:
                _context.thread = me
        return None if me is None else self._host_gate

    def _next_event(self):
        """Pop the event to dispatch next, or ``None`` to re-examine.

        Without a scheduler this is a plain heap pop (cancelled events
        yield ``None``): the historical, byte-stable ``(time, seq)``
        order.  With one, every pop becomes a *scheduling point*: all
        live events ready at the minimum virtual time are offered to
        ``scheduler.decide(time, entries)`` — ``entries`` being
        ``(seq, item)`` pairs in FIFO order — which returns the chosen
        index plus a bounded extra delay.  A positive delay re-enqueues
        the chosen event at ``time + delay`` (a preemption: events due
        within the delay window overtake it) and reports ``None`` so
        the caller re-peeks the heap.
        """
        time, seq, item = heapq.heappop(self._heap)
        if item.cancelled:
            self._reclaim(item)
            if self._cancelled:
                self._cancelled -= 1
            return None
        if self.scheduler is None:
            return item
        batch = [(seq, item)]
        while self._heap and self._heap[0][0] == time:
            _, other_seq, other = heapq.heappop(self._heap)
            if other.cancelled:
                self._reclaim(other)
                if self._cancelled:
                    self._cancelled -= 1
            else:
                batch.append((other_seq, other))
        index, delay = self.scheduler.decide(time, batch)
        chosen_seq, chosen = batch.pop(index)
        for entry_seq, entry in batch:
            heapq.heappush(self._heap, (time, entry_seq, entry))
        if delay > 0:
            chosen.time = time + delay
            heapq.heappush(self._heap,
                           (chosen.time, next(self._seq), chosen))
            return None
        return chosen

    def run_main(self, target: Callable[..., Any], *args, **kwargs) -> Any:
        """Run ``target`` as the client application to completion.

        Returns the target's return value; re-raises its exception.
        Other (background) threads keep their state and may be resumed
        by further ``run`` calls.
        """
        thread = self.spawn(target, *args, name="main", **kwargs)
        self.run_until(lambda: thread.done)
        return thread.result()

    def _detect_deadlock(self) -> None:
        blocked = [t.name for t in self._threads if not t.daemon and not t.done]
        if blocked:
            raise DeadlockError(blocked)

    def _check_host_context(self) -> None:
        if in_sim_thread():
            raise SimulationError(
                "Kernel.run() must be called from the host thread, "
                "not from inside a simulated thread")
        if self._closed:
            raise SimulationError("kernel is closed")

    # -- teardown ---------------------------------------------------------

    def close(self) -> None:
        """Tear down every live simulated thread, seal the kernel and
        join every OS thread it started."""
        if self._closed:
            return
        if in_sim_thread():
            raise SimulationError(
                "Kernel.close() must be called from the host thread")
        self._closed = True
        for thread in list(self._threads):
            thread._shutdown = True
        # Wake blocked threads one at a time so each can unwind; a
        # thread woken for shutdown hands the baton straight back.
        for thread in list(self._threads):
            if not thread.done:
                self._yield_to(thread._gate)
        self._heap.clear()
        self._threads.clear()
        # Every worker is idle now.  Joining (not just releasing) them
        # is what frees this kernel's object graph before the caller
        # builds the next one.
        workers, self._idle = self._idle, []
        for worker in workers:
            worker.gate.release()
        for worker in workers:
            worker.os_thread.join()

    def __del__(self) -> None:
        # A kernel dropped without close(): let its parked workers go
        # (they hold no reference to the kernel, so this does run).
        for worker in getattr(self, "_idle", ()):
            worker.gate.release()

    def __enter__(self) -> "Kernel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- bookkeeping used by SimThread -------------------------------------

    def _register(self, thread) -> None:
        self._threads.add(thread)

    def _unregister(self, thread) -> None:
        self._threads.discard(thread)
        if thread.exception is not None and not thread._observed:
            self._failed.append(thread)

    @property
    def failed_threads(self) -> Iterable:
        """Threads that died with an unobserved exception."""
        return tuple(self._failed)


def set_context(thread) -> None:
    """Declare ``thread`` (or ``None``) the SimThread executing on the
    calling OS thread."""
    _context.thread = thread
