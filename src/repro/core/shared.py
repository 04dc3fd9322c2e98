"""User-defined shared objects — the ``@Shared`` annotation.

A plain Python class becomes a distributed shared object by wrapping
an instance recipe in :func:`shared`: methods then execute remotely on
the DSO servers, enabling fine-grained updates and in-store aggregates
(``.add()``, ``.update()``, ``.merge()``, Table 1).

Requirements mirror the paper's: the class must be serializable
(picklable, i.e. defined at module level) and deterministic if
replicated (state machine replication executes each method at every
replica).
"""

from __future__ import annotations

import functools
from typing import Any, Callable

from repro.core.proxy import DsoProxy, GenericProxy


def shared(server_cls: type, key: str, *ctor_args: Any,
           persistent: bool = False, rf: int | None = None,
           **ctor_kwargs: Any) -> GenericProxy:
    """Create a proxy to a shared instance of ``server_cls``.

    The Python rendering of::

        @Shared(key="delta")
        GlobalDelta delta = new GlobalDelta();

    is::

        delta = shared(GlobalDelta, key="delta")

    ``persistent=True`` replicates the object (``rf`` defaults to 2)
    so it outlives the application and survives ``rf - 1`` failures.
    The object is created server-side on first access; two threads
    touching the same ``(type, key)`` share one instance.
    """
    return GenericProxy(server_cls, key, *ctor_args,
                        persistent=persistent, rf=rf, **ctor_kwargs)


class SharedField:
    """The ``@Shared`` *field annotation*, as a descriptor.

    Section 3.1: "Crucial refers to an object with a key crafted from
    the field's name of the encompassing object.  The programmer can
    override this definition by explicitly writing @Shared(key=k)."

    ::

        class PiEstimator:
            counter = SharedField(AtomicLong)          # key: "PiEstimator.counter"
            total = SharedField(AtomicLong, key="t")   # explicit override

    Works with both proxy classes (``AtomicLong``) and plain shared
    classes (wrapped via :func:`shared`).  All instances of the
    encompassing class see the same shared object, exactly like a
    Java field annotated ``@Shared``.
    """

    def __init__(self, target: type, *ctor_args: Any, key: str | None = None,
                 persistent: bool = False, rf: int | None = None,
                 **ctor_kwargs: Any):
        self.target = target
        self.ctor_args = ctor_args
        self.ctor_kwargs = ctor_kwargs
        self.key = key
        self.persistent = persistent
        self.rf = rf

    def __set_name__(self, owner: type, name: str) -> None:
        if self.key is None:
            self.key = f"{owner.__name__}.{name}"

    def __get__(self, instance: Any, owner: type | None = None):
        if self.key is None:
            raise AttributeError("SharedField used outside a class body")
        make = self.target if issubclass(self.target, DsoProxy) \
            else functools.partial(GenericProxy, self.target)
        return make(self.key, *self.ctor_args, persistent=self.persistent,
                    rf=self.rf, **self.ctor_kwargs)


def dso_costs(**method_costs: Callable[..., float] | float):
    """Class decorator declaring per-method server CPU costs.

    The simulation executes method bodies in native Python (fast), so
    CPU-heavy methods declare their *modelled* cost explicitly::

        @dso_costs(update=lambda ws: 1e-7 * len(ws))
        class Weights:
            ...

    Values may be constants or callables of the method's arguments.
    """

    def decorate(cls: type) -> type:
        table = dict(getattr(cls, "__dso_costs__", {}))
        for name, cost in method_costs.items():
            if not callable(getattr(cls, name, None)):
                raise AttributeError(
                    f"{cls.__name__} has no method {name!r} to cost")
            table[name] = cost if callable(cost) else (
                lambda *a, _c=cost, **k: _c)
        cls.__dso_costs__ = table
        return cls

    return decorate
