"""Synchronization objects (Table 1).

Semantically equivalent to ``java.util.concurrent``'s primitives, but
hosted in the DSO layer: a call blocks at the client while the server
side parks it with wait()/notify() (Section 5).  The cyclic barrier
uses the internal-counter-plus-generation scheme the paper describes.
Each object is written once, as a plain monitor class whose methods
take only their own arguments and ``wait()`` on conditions with none:
the host supplies what a wait releases (:mod:`repro.dso.server`).  The
proxy derives its methods from that class (:mod:`repro.core.proxy`),
and the in-process twins of :mod:`repro.ports.common` run it locally.

Synchronization objects are ephemeral and never replicated
(footnote 2): if their hosting node dies, waiters get an error.
"""

from __future__ import annotations

from typing import Any

from repro.core.proxy import DsoProxy
from repro.dso.server import ServerObject
from repro.errors import BrokenBarrierError, FutureCancelledError

# ---------------------------------------------------------------------------
# Server-side state machines
# ---------------------------------------------------------------------------


class _Monitor(ServerObject):
    """A server object with one condition, created once it is hosted
    (``new_condition`` needs the container)."""

    _waiters = None

    def _condition(self):
        if self._waiters is None:
            self._waiters = self.new_condition()
        return self._waiters


class _CyclicBarrier(_Monitor):
    """Counter + generation: a new generation starts when the last
    party arrives (Section 5)."""

    def __init__(self, parties: int):
        if parties <= 0:
            raise ValueError(f"parties must be positive: {parties}")
        self.parties = parties
        self.count = 0
        self.generation = 0
        self.broken_generations: set[int] = set()

    def await_(self) -> int:
        """Block until ``parties`` threads arrive; returns the arrival
        index (0 = last to arrive, as in Java)."""
        condition = self._condition()
        generation = self.generation
        self.count += 1
        index = self.parties - self.count
        if self.count == self.parties:
            self.count = 0
            self.generation += 1
            condition.notify_all()
            return index
        while (generation == self.generation
               and generation not in self.broken_generations):
            condition.wait()
        if generation in self.broken_generations:
            raise BrokenBarrierError("barrier broke while waiting")
        return index

    def reset(self) -> None:
        """Break the current generation (its waiters see
        BrokenBarrierError) and start a fresh, usable one."""
        if self.count > 0:
            self.broken_generations.add(self.generation)
        self.count = 0
        self.generation += 1
        self._condition().notify_all()

    def get_parties(self) -> int:
        return self.parties

    def get_number_waiting(self) -> int:
        return self.count


class _Semaphore(_Monitor):
    def __init__(self, permits: int):
        if permits < 0:
            raise ValueError(f"negative permits: {permits}")
        self.permits = permits

    def acquire(self, permits: int = 1) -> None:
        condition = self._condition()
        while self.permits < permits:
            condition.wait()
        self.permits -= permits

    def try_acquire(self, permits: int = 1) -> bool:
        if self.permits >= permits:
            self.permits -= permits
            return True
        return False

    def release(self, permits: int = 1) -> None:
        self.permits += permits
        self._condition().notify_all()

    def available_permits(self) -> int:
        return self.permits


class _Future(_Monitor):
    """A single-assignment cell; getters block until it is set.

    This is the object behind the Fig. 6 "future" synchronization
    strategies: the consumer responds immediately when the result
    comes up, instead of polling storage.
    """

    def __init__(self):
        self.done = False
        self.cancelled = False
        self.value: Any = None

    def set(self, value: Any) -> None:
        if self.done:
            raise ValueError("future already completed")
        self.value = value
        self.done = True
        self._condition().notify_all()

    def get(self) -> Any:
        condition = self._condition()
        while not self.done and not self.cancelled:
            condition.wait()
        if self.cancelled:
            raise FutureCancelledError("future was cancelled")
        return self.value

    def cancel(self) -> bool:
        if self.done:
            return False
        self.cancelled = True
        self.done = True
        self._condition().notify_all()
        return True

    def is_done(self) -> bool:
        return self.done


class _CountDownLatch(_Monitor):
    def __init__(self, count: int):
        if count < 0:
            raise ValueError(f"negative count: {count}")
        self.count = count

    def count_down(self) -> None:
        if self.count > 0:
            self.count -= 1
            if self.count == 0:
                self._condition().notify_all()

    def await_(self) -> None:
        condition = self._condition()
        while self.count > 0:
            condition.wait()

    def get_count(self) -> int:
        return self.count


# ---------------------------------------------------------------------------
# Client proxies: only constructors, ``with`` and ``wait`` written here
# ---------------------------------------------------------------------------


class CyclicBarrier(DsoProxy):
    """Distributed cyclic barrier (java.util.concurrent semantics)."""

    _server_cls = _CyclicBarrier

    def __init__(self, key: str, parties: int, **kwargs):
        super().__init__(key, parties, **kwargs)

    def wait(self) -> int:
        """Arrive and block until all parties have arrived."""
        return self._invoke("await_")

    #: Java-flavoured alias (``await`` is reserved in Python).
    await_ = wait


class Semaphore(DsoProxy):
    """Distributed counting semaphore."""

    _server_cls = _Semaphore

    def __init__(self, key: str, permits: int, **kwargs):
        super().__init__(key, permits, **kwargs)

    def __enter__(self) -> "Semaphore":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class Future(DsoProxy):
    """Distributed single-assignment future."""

    _server_cls = _Future


class CountDownLatch(DsoProxy):
    """Distributed count-down latch."""

    _server_cls = _CountDownLatch

    def __init__(self, key: str, count: int, **kwargs):
        super().__init__(key, count, **kwargs)

    def wait(self) -> None:
        self._invoke("await_")

    await_ = wait
