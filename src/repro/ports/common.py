"""Single-machine counterparts of Crucial's abstractions.

These mirror the Crucial API exactly — key-addressed shared objects
and thread objects — but live in the local process: ``LocalThread``
spawns an in-process thread, the "shared" objects are plain in-memory
instances found through a per-process registry, and the Table 1 twins
are the Crucial proxy classes themselves, each call run on a monitor
from that registry instead of shipped to the DSO layer.  Keeping the
APIs congruent is what makes the Table 4 diffs as small as the paper
reports: porting an application is (mostly) swapping these imports for
the Crucial ones.
"""

from __future__ import annotations

from typing import Any

from repro.coordination.santa import LocalMonitorHost
from repro.core.objects import AtomicInt, AtomicLong
from repro.core.sync import CyclicBarrier
from repro.simulation.kernel import current_kernel


_registry: dict[tuple[str, str], Any] = {}


def reset_registry() -> None:
    """Forget every local shared object (call between runs)."""
    _registry.clear()


def _lookup(kind: str, key: str, factory) -> Any:
    if (kind, key) not in _registry:
        _registry[kind, key] = factory()
    return _registry[kind, key]


def local_shared(cls: type, key: str, *args: Any, **kwargs: Any) -> Any:
    """The POJO twin of :func:`repro.core.shared`: a plain instance.

    ``persistent``/``rf`` are accepted and ignored (no replication in
    one process).
    """
    kwargs.pop("persistent", None)
    kwargs.pop("rf", None)
    return _lookup(cls.__name__, key, lambda: cls(*args, **kwargs))


class LocalThread:
    """``java.lang.Thread``: runs a Runnable in-process."""

    def __init__(self, runnable: Any, name: str | None = None):
        self.runnable = runnable
        self.name = name
        self._thread = None

    def start(self) -> "LocalThread":
        target = getattr(self.runnable, "run", self.runnable)
        self._thread = current_kernel().spawn(target, name=self.name)
        return self

    def join(self) -> None:
        self._thread.join()

    def result(self) -> Any:
        return self._thread.result()


class _InProcess:
    """The local transport under a Table 1 proxy class: each call runs
    on the in-process monitor registered under the proxy's key."""

    def _ship(self, method: str, args: tuple, kwargs: dict,
              cost: float) -> Any:
        cls, ctor_args, ctor_kwargs = self._ctor
        host = _lookup(cls.__name__, self.key, lambda: LocalMonitorHost(
            current_kernel(), cls, *ctor_args, **ctor_kwargs))
        return host.invoke(method, *args, **kwargs)

    def invoke_async(self, *args: Any, **kwargs: Any) -> Any:
        raise NotImplementedError("an in-process twin ships nothing")

    delete = invoke_async


class LocalAtomicLong(_InProcess, AtomicLong):
    """Key-addressed local counter: :class:`AtomicLong` in-process."""


class LocalAtomicInt(_InProcess, AtomicInt):
    """Key-addressed local counter: :class:`AtomicInt` in-process."""


class LocalCyclicBarrier(_InProcess, CyclicBarrier):
    """Key-addressed in-process cyclic barrier: :class:`CyclicBarrier`
    on the same server class, its waiters parked on a local monitor."""
