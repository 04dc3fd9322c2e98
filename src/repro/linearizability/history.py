"""Concurrent-history recording.

An :class:`Operation` is one method invocation with its real-time
interval ``[invoke, response]`` (virtual time).  Two operations are
concurrent iff their intervals overlap; linearizability requires a
total order consistent with interval precedence whose sequential
execution matches the recorded results.

An exception is an outcome: a call that raised records
:func:`raised` of it, and a model that raises the same type with the
same ``args`` matches it.  A :class:`~repro.errors.ReproError` is the
infrastructure failing, not the object answering, so it records
nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ReproError


def raised(error: Exception) -> tuple[str, tuple]:
    """The outcome of a call that raised ``error``."""
    return type(error).__name__, error.args


@dataclass(frozen=True)
class Operation:
    """One completed method invocation."""

    op_id: int
    thread: str
    method: str
    args: tuple
    result: Any
    invoke: float
    response: float
    #: Object identity the operation acted on (``None`` = unkeyed).
    #: Linearizability is compositional (Herlihy & Wing): the checker
    #: partitions a history by key and checks each object's
    #: sub-history independently, which turns an exponential joint
    #: search into per-object searches.
    key: str | None = None

    def __str__(self) -> str:
        arguments = ", ".join(repr(a) for a in self.args)
        where = f" @{self.key}" if self.key is not None else ""
        return (f"[{self.invoke:.6f},{self.response:.6f}] {self.thread}: "
                f"{self.method}({arguments}) -> {self.result!r}{where}")


@dataclass
class HistoryRecorder:
    """Collects operations; wrap proxy calls with :meth:`record`."""

    clock: Callable[[], float]
    operations: list[Operation] = field(default_factory=list)
    _ids: itertools.count = field(default_factory=itertools.count)

    def record(self, thread: str, method: str, args: tuple,
               call: Callable[[], Any], key: str | None = None) -> Any:
        """Execute ``call`` and log it as an operation; one that raises
        is logged with :func:`raised` of its error (a ``ReproError``
        with nothing), and the error propagates.

        ``key`` names the object acted on; keyed histories let the
        checker exploit P-compositionality (one search per object).
        """
        invoke = self.clock()
        try:
            result = call()
        except ReproError:
            raise
        except Exception as error:
            self.add(thread, method, args, raised(error), invoke,
                     self.clock(), key)
            raise
        self.add(thread, method, args, result, invoke, self.clock(), key)
        return result

    def add(self, thread: str, method: str, args: tuple, result: Any,
            invoke: float, response: float,
            key: str | None = None) -> None:
        """Log an operation measured externally."""
        self.operations.append(Operation(
            op_id=next(self._ids), thread=thread, method=method,
            args=args, result=result, invoke=invoke, response=response,
            key=key))

    def clear(self) -> None:
        self.operations.clear()
