"""Client-side proxies for shared objects.

"During the execution of a cloud thread, each access to a shared
object is mediated by a proxy" (Section 4.3).  A proxy holds only the
object's reference and construction recipe: calling one of its methods
ships the invocation to the DSO layer from wherever the calling thread
currently executes (client process or function container).

Proxies are picklable — they travel inside Runnables to cloud
functions and re-bind to the active environment on arrival, which is
how Crucial "establishes the connection to the DSO layer" inside each
function.
"""

from __future__ import annotations

from typing import Any

from repro.core.runtime import current_environment, current_location
from repro.dso.reference import DsoReference, reference_for


class DsoProxy:
    """Base proxy: reference + constructor recipe + invocation.

    Subclasses set ``_server_cls`` to the server-side class and expose
    typed methods that call :meth:`_invoke`.
    """

    _server_cls: type | None = None

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
        env = current_environment()
        return env.dso.invoke(
            current_location(), self._ref, method, args, kwargs,
            ctor=self._ctor, cost=cost)

    def invoke_async(self, method: str, *args: Any, cost: float = 0.0,
                     **kwargs: Any):
        """Ship ``method`` without waiting for the reply.

        Returns a :class:`repro.dso.pipeline.DsoFuture`; the op is
        batched with other queued invocations from this endpoint (see
        ``DsoLayer.invoke_async``).  ``future.result()`` blocks until
        the reply arrives, re-raising remote application exceptions.
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
        self._ref = state["_ref"]
        self._ctor = state["_ctor"]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self._ref}>"


class GenericProxy(DsoProxy):
    """Proxy for user-defined ``@Shared`` classes.

    Every attribute access resolves to a remote method; per-method CPU
    costs come from the server class's ``__dso_costs__`` mapping (see
    :func:`repro.core.shared.dso_costs`).
    """

    def __init__(self, server_cls: type, key: str, *ctor_args: Any,
                 persistent: bool = False, rf: int | None = None,
                 **ctor_kwargs: Any):
        self._server_cls = server_cls  # instance attr shadows class attr
        super().__init__(key, *ctor_args, persistent=persistent, rf=rf,
                         **ctor_kwargs)

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)
        costs = getattr(self._server_cls, "__dso_costs__", {})
        cost_fn = costs.get(name)

        def remote_method(*args: Any, **kwargs: Any) -> Any:
            cost = float(cost_fn(*args, **kwargs)) if cost_fn else 0.0
            return self._invoke(name, *args, cost=cost, **kwargs)

        remote_method.__name__ = name
        return remote_method

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["_server_cls"] = self._server_cls
        return state

    def __setstate__(self, state: dict) -> None:
        self._server_cls = state["_server_cls"]
        super().__setstate__(state)
