"""Simulated threads: real OS threads that pass one baton.

A :class:`SimThread` executes ordinary blocking Python code.  Whenever
it calls a simulation primitive (sleep, event wait, lock acquire...)
it runs the kernel's dispatch loop itself: if its own wakeup comes up
next it simply carries on; otherwise it releases the next runner's
raw lock and parks on its own until someone dispatches it.  Exactly
one simulated thread runs at any instant.

Each OS thread underneath is a :class:`_Worker`.  A finished
SimThread parks its worker on the kernel's idle list and the next
``start()`` reuses it, so an open-loop workload spawning one simulated
thread per request starts a handful of OS threads, not thousands.
"""

from __future__ import annotations

import _thread
import threading
from typing import Any, Callable

from repro.errors import SimShutdown, SimulationError
from repro.simulation import kernel as _kernel_mod

# Sentinel wake values used by primitives.
TIMEOUT = object()
INTERRUPT = object()


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
        #: The raw lock this thread parks on: its worker's, borrowed
        #: from ``start()`` until the target returns.
        self._gate = None
        self._pending: set = set()  # outstanding Wakeups
        self._wake_value: Any = None
        self._shutdown = False
        self._joiners: list[SimThread] = []
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
        worker = kernel._idle.pop() if kernel._idle else _Worker()
        worker.job = self
        worker.os_thread.name = f"sim:{self.name}"
        self._gate = worker.gate
        kernel.schedule_wakeup(self, 0.0, recycle=True)
        return self

    def _run(self, worker: _Worker) -> None:
        """Body of one job, on ``worker``'s OS thread, baton in hand."""
        kernel = self.kernel
        _kernel_mod.set_context(self)
        try:
            if not self._shutdown:
                self._result = self.target(*self.args, **self.kwargs)
        except SimShutdown:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported via result()
            self.exception = exc
        finally:
            self.done = True
            self._cancel_pending()
            if not self._shutdown:
                for joiner in self._joiners:
                    kernel.schedule_wakeup(joiner, 0.0, self, recycle=True)
                self._joiners.clear()
            kernel._unregister(self)
            if kernel.tracer.enabled:
                kernel.tracer.on_thread_exit(self)
            # Pass the baton for the last time: on through the loop, or
            # — torn down by close() — straight back to the host.
            gate = kernel._host_gate if self._shutdown \
                else kernel._advance(self)
            # Only the baton holder touches the idle list, so the
            # worker goes back before the release, not after.
            worker.job = None
            worker.os_thread.name = worker.IDLE
            kernel._idle.append(worker)
            gate.release()

    # -- suspension protocol -------------------------------------------------

    def _suspend(self) -> Any:
        """Give up the baton until the next wakeup for this thread.

        Must be called by the thread itself, after having scheduled (or
        registered for) at least one wakeup.  Returns the wakeup value.
        """
        if self._shutdown:
            raise SimShutdown()
        gate = self.kernel._advance(self)
        if gate is not None:
            gate.release()
            self._gate.acquire()
            if self._shutdown:
                raise SimShutdown()
        value = self._wake_value
        self._wake_value = None
        return value

    def _cancel_pending(self) -> None:
        pending = self._pending
        if not pending:
            return
        for wakeup in pending:
            wakeup.cancelled = True
        self.kernel._cancelled += len(pending)
        pending.clear()

    # -- blocking API ----------------------------------------------------------

    def sleep(self, duration: float) -> None:
        """Advance this thread's virtual time by ``duration`` seconds."""
        # The per-event path of every modelled latency: schedule, then
        # :meth:`_suspend` spelled out.  The loop has already forgotten
        # the wakeup it dispatched, so normally nothing is left to cancel.
        kernel = self.kernel
        kernel.schedule_wakeup(self, duration, recycle=True)
        if self._shutdown:
            raise SimShutdown()
        gate = kernel._advance(self)
        if gate is not None:
            gate.release()
            self._gate.acquire()
            if self._shutdown:
                raise SimShutdown()
        self._wake_value = None
        if self._pending:
            self._cancel_pending()

    def join(self, timeout: float | None = None) -> None:
        """Block until this thread finishes.

        Re-raises the target's exception in the joiner — the behaviour
        of Crucial's CloudThread, where remote failures propagate to
        the caller — unlike ``threading.Thread.join``.
        """
        caller = _kernel_mod.current_thread()
        if caller is self:
            raise SimulationError("a thread cannot join itself")
        if not self.done:
            self._joiners.append(caller)
            handle = None
            if timeout is not None:
                handle = self.kernel.schedule_wakeup(caller, timeout, TIMEOUT)
            value = caller._suspend()
            caller._cancel_pending()
            if value is TIMEOUT:
                if caller in self._joiners:
                    self._joiners.remove(caller)
                from repro.errors import SimTimeoutError
                raise SimTimeoutError(f"join({self.name}) timed out")
            if handle is not None:
                handle.cancel()
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
