"""Client-side proxies for shared objects.

"During the execution of a cloud thread, each access to a shared
object is mediated by a proxy" (Section 4.3).  A proxy holds only the
object's reference and construction recipe: calling one of its methods
ships the invocation to the DSO layer from wherever the calling thread
currently executes (client process or function container).

As Crucial weaves its proxy from the ``@Shared`` class, nobody writes
a proxy method by hand: :func:`remote_methods` derives them, once per
server class, each shipping the caller's arguments as passed.

Proxies are picklable — they travel inside Runnables to cloud
functions and re-bind to the active environment on arrival, which is
how Crucial "establishes the connection to the DSO layer" inside each
function.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable

from repro.core.runtime import current_environment, current_location
from repro.dso.reference import DsoReference, reference_for
from repro.dso.server import ServerObject


def _remote(name: str, cost_fn: Callable[..., float] | None) -> Callable:
    def method(self, *args: Any, **kwargs: Any) -> Any:
        cost = float(cost_fn(*args, **kwargs)) if cost_fn else 0.0
        return self._ship(name, args, kwargs, cost)

    method.__name__ = method.__qualname__ = name
    return method


@functools.cache
def remote_methods(server_cls: type) -> dict[str, Callable]:
    """One remote method per public method of ``server_cls``, costed
    by its ``__dso_costs__`` (:func:`repro.core.shared.dso_costs`)
    and signed like it; ``ServerObject``'s hosting hooks are skipped."""
    costs = getattr(server_cls, "__dso_costs__", {})
    methods = {}
    for name in dir(server_cls):
        target = getattr(server_cls, name)
        if name.startswith("_") or not callable(target) \
                or target is vars(ServerObject).get(name):
            continue
        method = methods[name] = _remote(name, costs.get(name))
        method.__doc__ = target.__doc__
        if inspect.isfunction(target):
            method.__signature__ = inspect.signature(target)
    return methods


class DsoProxy:
    """Base proxy: reference + constructor recipe + invocation.

    A subclass that sets ``_server_cls`` gets that class's
    :func:`remote_methods` as its own attributes, except where it (or
    ``DsoProxy``) already has the name: ``delete``, ``ref`` and the
    like stay the proxy's, and a hand-written member is kept for a
    call that is not a same-named one.
    """

    _server_cls: type | None = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        server_cls = vars(cls).get("_server_cls")
        if server_cls is not None:
            for name, method in remote_methods(server_cls).items():
                if not hasattr(cls, name):
                    setattr(cls, name, method)

    def __init__(self, key: str, *ctor_args: Any, persistent: bool = False,
                 rf: int | None = None, **ctor_kwargs: Any):
        if self._server_cls is None:
            raise TypeError(
                f"{type(self).__name__} does not define a server class")
        self._ref = reference_for(self._server_cls, key,
                                  persistent=persistent, rf=rf)
        self._ctor = (self._server_cls, ctor_args, ctor_kwargs)

    @property
    def ref(self) -> DsoReference:
        return self._ref

    @property
    def key(self) -> str:
        return self._ref.key

    def _invoke(self, method: str, *args: Any, cost: float = 0.0,
                **kwargs: Any) -> Any:
        return self._ship(method, args, kwargs, cost)

    def _ship(self, method: str, args: tuple, kwargs: dict,
              cost: float) -> Any:
        """The transport, and the only method one overrides: ship a
        call, wait for its reply; kwargs pass untouched, even ``cost``."""
        env = current_environment()
        return env.dso.invoke(
            current_location(), self._ref, method, args, kwargs,
            ctor=self._ctor, cost=cost)

    def invoke_async(self, method: str, *args: Any, cost: float = 0.0,
                     **kwargs: Any):
        """Ship ``method`` without waiting for the reply.

        Returns a :class:`repro.dso.pipeline.DsoFuture`; the op is
        batched with the calling thread's other queued invocations on
        this endpoint (see ``DsoLayer.invoke_async``).
        ``future.result()`` ships the batch if nobody has yet and blocks
        until the reply arrives, re-raising remote application
        exceptions.
        """
        env = current_environment()
        return env.dso.invoke_async(
            current_location(), self._ref, method, args, kwargs,
            ctor=self._ctor, cost=cost)

    def _ensure(self) -> None:
        """Force creation without invoking any method."""
        self._invoke("__dso_touch__")

    def delete(self) -> None:
        """Explicitly remove the object from storage (how persistent
        objects are reclaimed, Section 3.1)."""
        env = current_environment()
        env.dso.placements.delete(current_location(), self._ref)

    # -- marshalling ------------------------------------------------------------

    def __getstate__(self) -> dict:
        return {"_ref": self._ref, "_ctor": self._ctor}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self._ref}>"


class GenericProxy(DsoProxy):
    """Proxy for user-defined ``@Shared`` classes: the server class is
    per instance, so its :func:`remote_methods` are looked up on
    access rather than installed."""

    def __init__(self, server_cls: type, key: str, *ctor_args: Any,
                 persistent: bool = False, rf: int | None = None,
                 **ctor_kwargs: Any):
        self._server_cls = server_cls  # instance attr shadows class attr
        super().__init__(key, *ctor_args, persistent=persistent, rf=rf,
                         **ctor_kwargs)

    def __getattr__(self, name: str) -> Any:
        method = None if name.startswith("_") \
            else remote_methods(self._server_cls).get(name)
        if method is None:
            raise AttributeError(name)
        return method.__get__(self)

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["_server_cls"] = self._server_cls
        return state
