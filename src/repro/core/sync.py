"""Synchronization objects (Table 1).

Semantically equivalent to ``java.util.concurrent``'s primitives, but
hosted in the DSO layer: a call blocks at the client while the server
side parks it with wait()/notify() (Section 5).  The cyclic barrier
uses the internal-counter-plus-generation scheme the paper describes.

Synchronization objects are ephemeral and never replicated
(footnote 2): if their hosting node dies, waiters get an error.
"""

from __future__ import annotations

from typing import Any

from repro.core.proxy import DsoProxy
from repro.dso.server import DsoCall, ServerObject
from repro.errors import BrokenBarrierError, FutureCancelledError

# ---------------------------------------------------------------------------
# Server-side state machines
# ---------------------------------------------------------------------------


class _CyclicBarrier(ServerObject):
    """Counter + generation: a new generation starts when the last
    party arrives (Section 5)."""

    def __init__(self, parties: int):
        if parties <= 0:
            raise ValueError(f"parties must be positive: {parties}")
        self.parties = parties
        self.count = 0
        self.generation = 0
        self.broken_generations: set[int] = set()
        self._trip = None  # ServerCondition, created lazily after attach

    def _condition(self):
        if self._trip is None:
            self._trip = self.new_condition()
        return self._trip

    def await_(self, call: DsoCall) -> int:
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
            condition.wait(call)
        if generation in self.broken_generations:
            raise BrokenBarrierError("barrier broke while waiting")
        return index

    def reset(self, call: DsoCall) -> None:
        """Break the current generation (its waiters see
        BrokenBarrierError) and start a fresh, usable one."""
        if self.count > 0:
            self.broken_generations.add(self.generation)
        self.count = 0
        self.generation += 1
        self._condition().notify_all()

    def get_parties(self, call: DsoCall) -> int:
        return self.parties

    def get_number_waiting(self, call: DsoCall) -> int:
        return self.count


class _Semaphore(ServerObject):
    def __init__(self, permits: int):
        if permits < 0:
            raise ValueError(f"negative permits: {permits}")
        self.permits = permits
        self._available = None

    def _condition(self):
        if self._available is None:
            self._available = self.new_condition()
        return self._available

    def acquire(self, call: DsoCall, permits: int = 1) -> None:
        condition = self._condition()
        while self.permits < permits:
            condition.wait(call)
        self.permits -= permits

    def try_acquire(self, call: DsoCall, permits: int = 1) -> bool:
        if self.permits >= permits:
            self.permits -= permits
            return True
        return False

    def release(self, call: DsoCall, permits: int = 1) -> None:
        self.permits += permits
        self._condition().notify_all()

    def available_permits(self, call: DsoCall) -> int:
        return self.permits


class _Future(ServerObject):
    """A single-assignment cell; getters block until it is set.

    This is the object behind the Fig. 6 "future" synchronization
    strategies: the consumer responds immediately when the result
    comes up, instead of polling storage.
    """

    def __init__(self):
        self.done = False
        self.cancelled = False
        self.value: Any = None
        self._ready = None

    def _condition(self):
        if self._ready is None:
            self._ready = self.new_condition()
        return self._ready

    def set(self, call: DsoCall, value: Any) -> None:
        if self.done:
            raise ValueError("future already completed")
        self.value = value
        self.done = True
        self._condition().notify_all()

    def get(self, call: DsoCall) -> Any:
        condition = self._condition()
        while not self.done and not self.cancelled:
            condition.wait(call)
        if self.cancelled:
            raise FutureCancelledError("future was cancelled")
        return self.value

    def cancel(self, call: DsoCall) -> bool:
        if self.done:
            return False
        self.cancelled = True
        self.done = True
        self._condition().notify_all()
        return True

    def is_done(self, call: DsoCall) -> bool:
        return self.done


class _CountDownLatch(ServerObject):
    def __init__(self, count: int):
        if count < 0:
            raise ValueError(f"negative count: {count}")
        self.count = count
        self._zero = None

    def _condition(self):
        if self._zero is None:
            self._zero = self.new_condition()
        return self._zero

    def count_down(self, call: DsoCall) -> None:
        if self.count > 0:
            self.count -= 1
            if self.count == 0:
                self._condition().notify_all()

    def await_(self, call: DsoCall) -> None:
        condition = self._condition()
        while self.count > 0:
            condition.wait(call)

    def get_count(self, call: DsoCall) -> int:
        return self.count


# ---------------------------------------------------------------------------
# Client proxies
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

    def reset(self) -> None:
        self._invoke("reset")

    def get_parties(self) -> int:
        return self._invoke("get_parties")

    def get_number_waiting(self) -> int:
        return self._invoke("get_number_waiting")


class Semaphore(DsoProxy):
    """Distributed counting semaphore."""

    _server_cls = _Semaphore

    def __init__(self, key: str, permits: int, **kwargs):
        super().__init__(key, permits, **kwargs)

    def acquire(self, permits: int = 1) -> None:
        self._invoke("acquire", permits)

    def try_acquire(self, permits: int = 1) -> bool:
        return self._invoke("try_acquire", permits)

    def release(self, permits: int = 1) -> None:
        self._invoke("release", permits)

    def available_permits(self) -> int:
        return self._invoke("available_permits")

    def __enter__(self) -> "Semaphore":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class Future(DsoProxy):
    """Distributed single-assignment future."""

    _server_cls = _Future

    def set(self, value: Any) -> None:
        self._invoke("set", value)

    def get(self) -> Any:
        return self._invoke("get")

    def cancel(self) -> bool:
        return self._invoke("cancel")

    def is_done(self) -> bool:
        return self._invoke("is_done")


class CountDownLatch(DsoProxy):
    """Distributed count-down latch."""

    _server_cls = _CountDownLatch

    def __init__(self, key: str, count: int, **kwargs):
        super().__init__(key, count, **kwargs)

    def count_down(self) -> None:
        self._invoke("count_down")

    def wait(self) -> None:
        self._invoke("await_")

    await_ = wait

    def get_count(self) -> int:
        return self._invoke("get_count")
