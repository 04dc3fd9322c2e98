"""Simulated threads: real OS threads that pass one baton.

A :class:`SimThread` executes ordinary blocking Python code.  Whenever
it calls a simulation primitive (sleep, event wait, lock acquire...)
it runs the kernel's dispatch loop itself: if its own wakeup comes up
next it simply carries on; otherwise it releases the next runner's
raw lock and parks on its own until someone dispatches it.  Exactly
one simulated thread runs at any instant.

Each OS thread underneath is a :class:`_Worker`, bound by the dispatch
loop when it hands a thread the baton.  A finished thread, or a
periodic one (``Kernel.every``) between ticks, gives its worker back,
so thread-per-request workloads and sleeping duties hold a handful of
OS threads, not thousands.
"""

from __future__ import annotations

import _thread
import threading
from typing import Any, Callable

from repro.errors import SimShutdown, SimTimeoutError, SimulationError
from repro.simulation import kernel as _kernel_mod

#: The wake value of a timed wait's timeout.
TIMEOUT = object()


class _Worker:
    """One reusable OS thread: runs a SimThread each time its gate is
    released with a job set, exits when released with none."""

    __slots__ = ("gate", "job", "os_thread")

    #: What an OS thread between jobs is called (``sim:<thread name>``
    #: while it runs one), so a stack dump says who is who.
    IDLE = "sim:idle"

    def __init__(self) -> None:
        #: Held while the worker runs or should stay parked; whoever
        #: dispatches the job (or closes the kernel) releases it once.
        self.gate = _thread.allocate_lock()
        self.gate.acquire()
        self.job: SimThread | None = None
        # A threading.Thread (not a bare _thread) so profilers hooking
        # Thread.run and threading.active_count() keep seeing it.
        self.os_thread = threading.Thread(
            target=self._serve, name=self.IDLE, daemon=True)
        self.os_thread.start()

    def _serve(self) -> None:
        while True:
            self.gate.acquire()
            job = self.job
            if job is None:
                return  # released by Kernel.close()
            job._run(self)
            # A parked worker must pin nothing of the finished thread
            # (its target, result, kernel) — not in a local either.
            del job
            _kernel_mod.set_context(None)


class SimThread:
    """A simulated thread of execution.

    Mirrors the essentials of ``threading.Thread``: ``start``, ``join``,
    ``name``, ``daemon`` — plus ``result()`` to retrieve the target's
    return value (re-raising its exception, if any).
    """

    _ids = iter(range(1, 1 << 62))

    def __init__(self, kernel, target: Callable[..., Any], args=(),
                 kwargs=None, name: str | None = None, daemon: bool = False):
        self.kernel = kernel
        self.target = target
        self.args = args
        self.kwargs = kwargs or {}
        self.tid = next(SimThread._ids)
        self.name = name or f"simthread-{self.tid}"
        self.daemon = daemon
        self.done = False
        self.started = False
        self.exception: BaseException | None = None
        self._result: Any = None
        self._observed = False  # result()/join() was called
        #: The raw lock this thread parks on: its worker's, bound by
        #: the dispatch loop (``_bind``) until the target returns.
        self._gate = None
        #: Wakes so far, and wakeups scheduled since the last one (see
        #: :class:`repro.simulation.kernel.Wakeup`).
        self._epoch = 0
        self._armed = 0
        self._wake_value: Any = None
        self._shutdown = False
        self._joiners: list[SimThread] = []
        #: The primitive (or thread, for a join) it is blocked on.
        self.waiting_on: Any = None
        #: Per-thread storage for upper layers.  OS-thread-local storage
        #: would not do: simulated threads take turns on OS threads.
        self.locals: dict = {}

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "SimThread":
        if self.started:
            raise SimulationError(f"{self.name} already started")
        kernel = self.kernel
        if kernel._closed:
            raise SimulationError("kernel is closed")
        self.started = True
        kernel._register(self)
        if kernel.tracer.enabled:
            # Trace-context propagation: the child inherits the
            # spawner's active span as its initial parent.
            kernel.tracer.on_spawn(self)
        self._arm(0.0)
        return self

    def _arm(self, delay: float) -> None:
        """Schedule this thread's next dispatch."""
        self.kernel.schedule_wakeup(self, delay)

    def _bind(self):
        """Take an OS worker (an idle one if any), return its gate: the
        loop or ``close()`` hands the baton to a thread holding none."""
        kernel = self.kernel
        worker = kernel._idle.pop() if kernel._idle else _Worker()
        worker.job = self
        worker.os_thread.name = f"sim:{self.name}"
        self._gate = worker.gate
        return self._gate

    def _run(self, worker: _Worker) -> None:
        """Body of one job, on ``worker``'s OS thread, baton in hand:
        the target to its end, or ticks of a periodic thread for as
        long as its own next tick is the next event."""
        kernel = self.kernel
        _kernel_mod.set_context(self)
        while True:
            try:
                if not self._shutdown:
                    self._result = self.target(*self.args, **self.kwargs)
            except SimShutdown:
                pass
            except BaseException as exc:  # noqa: BLE001 - via result()
                self.exception = exc
            if not self._rearm():
                self._finish()
            # Idle before the baton moves (only its holder touches the
            # list), so the loop may bind the worker to the next runner
            # and the handoff stays on this OS thread.
            self._gate = None
            worker.job = None
            worker.os_thread.name = worker.IDLE
            kernel._idle.append(worker)
            gate = kernel._host_gate if self._shutdown \
                else kernel._advance(self)  # close() wants it back
            if gate is not None:
                break
            self._bind()  # its own next tick came first: same worker
        gate.release()

    def _rearm(self) -> bool:
        """Arm a periodic thread's next tick; a plain thread ends."""
        return False

    def _finish(self) -> None:
        kernel = self.kernel
        self.done = True
        self._outdate()
        if not self._shutdown:
            for joiner in self._joiners:
                kernel.schedule_wakeup(joiner, 0.0)
            self._joiners.clear()
        kernel._unregister(self)
        if kernel.tracer.enabled:
            kernel.tracer.on_thread_exit(self)

    # -- suspension protocol -------------------------------------------------

    def _outdate(self) -> None:
        """Count as woken without a dispatch: every wakeup scheduled
        since the last wake goes stale."""
        self._epoch += 1
        self.kernel._cancelled += self._armed
        self._armed = 0

    def _suspend(self, waiting_on: Any = None) -> Any:
        """Block on ``waiting_on`` until this thread's next wakeup.

        Must be called by the thread itself, after having scheduled (or
        registered for) at least one wakeup.  Returns the wakeup value.
        """
        if self._shutdown:
            raise SimShutdown()
        self.waiting_on = waiting_on
        gate = self.kernel._advance(self)
        if gate is not None:
            gate.release()
            self._gate.acquire()
            if self._shutdown:
                raise SimShutdown()
        value = self._wake_value
        self._wake_value = self.waiting_on = None
        return value

    def _park(self, waiters, entry: Any, timeout: float | None,
              on: Any) -> bool:
        """Queue ``entry`` on ``waiters`` and block on ``on`` until a
        releaser takes it off and wakes this thread (``True``) or
        ``timeout`` elapses (``False``, ``entry`` withdrawn).

        The one timed wait of every primitive.  An entry a releaser
        already took off when the timeout fires — at the same instant —
        counts as released; its notification, now stale, never runs.
        """
        waiters.append(entry)
        if timeout is not None:
            self.kernel.schedule_wakeup(self, timeout, TIMEOUT)
        if self._suspend(on) is not TIMEOUT:
            return True
        try:
            waiters.remove(entry)
        except ValueError:
            return True
        return False

    # -- blocking API ----------------------------------------------------------

    def sleep(self, duration: float) -> None:
        """Advance this thread's virtual time by ``duration`` seconds."""
        # The per-event path of every modelled latency: schedule, then
        # :meth:`_suspend` spelled out.
        kernel = self.kernel
        kernel.schedule_wakeup(self, duration)
        if self._shutdown:
            raise SimShutdown()
        gate = kernel._advance(self)
        if gate is not None:
            gate.release()
            self._gate.acquire()
            if self._shutdown:
                raise SimShutdown()
        self._wake_value = None

    def join(self, timeout: float | None = None) -> None:
        """Block until this thread finishes.

        Re-raises the target's exception in the joiner — the behaviour
        of Crucial's CloudThread, where remote failures propagate to
        the caller — unlike ``threading.Thread.join``.
        """
        caller = _kernel_mod.current_thread()
        if caller is self:
            raise SimulationError("a thread cannot join itself")
        if not self.done and not caller._park(self._joiners, caller,
                                              timeout, self):
            raise SimTimeoutError(f"join({self.name}) timed out")
        self._observed = True
        if self.exception is not None:
            raise self.exception

    def result(self) -> Any:
        """Return the target's return value; re-raise its exception."""
        if not self.done:
            raise SimulationError(f"{self.name} has not finished")
        self._observed = True
        if self.exception is not None:
            raise self.exception
        return self._result


class PeriodicThread(SimThread):
    """The daemon thread of :meth:`Kernel.every`: between ticks one
    pending wakeup and no OS worker, yet the same SimThread (``locals``,
    tracer context, execution site) on every tick."""

    def __init__(self, kernel, period: float, step: Callable[[], Any], *,
                 name: str, delay: float):
        if period <= 0 or delay < 0:
            raise SimulationError(f"bad period/delay: {period}/{delay}")
        # With a delay, the first dispatch (a spawn's slot) only arms
        # the first tick, where a hand-written loop slept first.
        super().__init__(kernel, step if delay == 0 else (lambda: None),
                         name=name, daemon=True)
        self.period = period
        self._step = step
        self._next = delay or period
        self.cancelled = False
        #: The pending tick's wakeup: an exploration scheduler's delay
        #: moves its ``time``, which :meth:`poke` reads.
        self._tick = None

    def cancel(self) -> None:
        """Stop ticking: at once between ticks, else after this one."""
        self.cancelled = True
        if self._gate is None and not self.done:
            self._finish()

    def poke(self) -> None:
        """Tick now: between ticks the pending tick moves to this
        instant, inside one the next follows at once; either way the
        tick after that is a period later.  No-op once cancelled."""
        if self.cancelled or self.done:
            return
        if self._gate is not None:  # inside a tick
            self._next = 0.0
            return
        if self._tick.time > self.kernel.now:  # else due: keep its slot
            self._outdate()
            self._arm(0.0)
        # A due spawn slot with a delay would only arm the first tick.
        self.target, self._next = self._step, self.period

    def _arm(self, delay: float) -> None:
        self._tick = self.kernel.schedule_wakeup(self, delay)

    def _rearm(self) -> bool:
        if self.cancelled or self._shutdown or self.exception is not None:
            return False
        # Drawn before the thread yields: the slot of a loop's sleep.
        self._arm(self._next)
        self.target, self._next = self._step, self.period
        return True


def sleep(duration: float) -> None:
    """Suspend the calling simulated thread for ``duration`` seconds."""
    _kernel_mod.current_thread().sleep(duration)


def now() -> float:
    """Virtual time seen by the calling simulated thread."""
    return _kernel_mod.current_kernel().now


def spawn(target: Callable[..., Any], *args, name: str | None = None,
          daemon: bool = False, **kwargs) -> SimThread:
    """Spawn a sibling simulated thread from inside simulated code."""
    return _kernel_mod.current_kernel().spawn(
        target, *args, name=name, daemon=daemon, **kwargs)
