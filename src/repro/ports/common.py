"""Single-machine counterparts of Crucial's abstractions.

These mirror the Crucial API exactly — key-addressed shared objects
and thread objects — but live in the local process: ``LocalThread``
spawns an in-process thread, and every "shared" object is the Crucial
proxy class itself (:func:`local_shared` is :func:`repro.core.shared`'s
twin), each call run on a :class:`LocalMonitorHost` instead of shipped
to the DSO layer.  The monitors are found by key in a registry of the
current kernel, so they die with it.  Keeping the APIs congruent is
what makes the Table 4 diffs as small as the paper reports: porting an
application is (mostly) swapping these imports for the Crucial ones.
"""

from __future__ import annotations

from typing import Any

from repro.core.objects import AtomicInt, AtomicLong
from repro.core.proxy import GenericProxy
from repro.core.sync import CyclicBarrier
from repro.dso.server import LocalMonitorHost
from repro.simulation.kernel import current_kernel


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
    """The local transport under a proxy class: each call runs on the
    in-process monitor registered under the proxy's key."""

    def _ship(self, method: str, args: tuple, kwargs: dict,
              cost: float) -> Any:
        kernel = current_kernel()
        hosts = kernel.locals.setdefault(__name__, {})
        host = hosts.get(self._ref.ident)
        if host is None:
            cls, ctor_args, ctor_kwargs = self._ctor
            host = hosts[self._ref.ident] = LocalMonitorHost(
                kernel, cls, *ctor_args, **ctor_kwargs)
        return host.invoke(method, *args, **kwargs)

    def invoke_async(self, *args: Any, **kwargs: Any) -> Any:
        raise NotImplementedError("an in-process twin ships nothing")

    delete = invoke_async


class _LocalShared(_InProcess, GenericProxy):
    """A ``shared()`` object run in-process."""


def local_shared(cls: type, key: str, *args: Any, **kwargs: Any) -> Any:
    """The POJO twin of :func:`repro.core.shared`: the same proxy, its
    calls run on an in-process monitor.  ``persistent``/``rf`` are
    accepted and ignored (no replication in one process)."""
    return _LocalShared(cls, key, *args, **kwargs)


class LocalAtomicLong(_InProcess, AtomicLong):
    """Key-addressed local counter: :class:`AtomicLong` in-process."""


class LocalAtomicInt(_InProcess, AtomicInt):
    """Key-addressed local counter: :class:`AtomicInt` in-process."""


class LocalCyclicBarrier(_InProcess, CyclicBarrier):
    """Key-addressed in-process cyclic barrier: :class:`CyclicBarrier`
    on the same server class, its waiters parked on a local monitor."""
