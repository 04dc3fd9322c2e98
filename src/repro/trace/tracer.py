"""Deterministic distributed tracing over virtual time.

A :class:`Tracer` attached to the simulation :class:`Kernel` records
:class:`Span`s — named intervals of virtual time with a parent link, an
endpoint, and free-form attributes — for every hot path of the
simulated cloud: client dispatch, FaaS invocation (cold vs warm),
DSO RPC and SMR replication, network transfers, storage operations,
and synchronization waits.

Three properties the rest of the system relies on:

* **Zero sim-time cost.**  Tracing never sleeps, never consumes a
  random stream, and never schedules events: enabling it cannot change
  a single virtual timestamp.  When disabled the kernel carries a
  shared :data:`NULL_TRACER` whose methods are no-ops.
* **Determinism.**  Span ids come from a plain counter and timestamps
  from the (deterministic) virtual clock, so a fixed seed yields a
  byte-identical trace export.
* **Automatic context propagation.**  Each simulated thread keeps a
  stack of active spans; :meth:`Kernel.spawn` copies the spawner's
  active span to the child (see :meth:`Tracer.on_spawn`), and
  :class:`TracedRunnable` carries a :class:`TraceContext` *inside* the
  marshalled payload of a cloud thread, so container-side work nests
  under the client's dispatch span even across a pickle boundary.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.simulation import kernel as _kernel_mod

#: Span kinds, mirroring OpenTelemetry's vocabulary.
KINDS = ("client", "server", "internal", "producer", "consumer")


@dataclass(frozen=True)
class TraceContext:
    """The wire form of a span reference: what crosses ``ship()``.

    Picklable by construction — this is what :class:`TracedRunnable`
    embeds in a cloud thread's payload.
    """

    trace_id: str
    span_id: int


@dataclass
class TracedRunnable:
    """Envelope pairing a Runnable with its caller's trace context.

    The generic runner function unwraps it on the container side and
    re-attaches the context (see ``CrucialEnvironment._run_runnable``),
    which is how the trace survives the copy every payload takes
    through :func:`repro.net.network.ship`.
    """

    runnable: Any
    context: TraceContext | None

    def run(self) -> Any:  # pragma: no cover - unwrapped before use
        run = getattr(self.runnable, "run", None)
        if callable(run):
            return run()
        return self.runnable()


class Span:
    """One named interval of virtual time in the trace tree."""

    __slots__ = ("span_id", "parent_id", "name", "kind", "endpoint",
                 "start", "end", "attributes", "status", "error",
                 "thread", "thread_name")

    def __init__(self, span_id: int, parent_id: int | None, name: str,
                 kind: str, endpoint: str | None, start: float,
                 attributes: dict[str, Any] | None,
                 thread: int, thread_name: str):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.endpoint = endpoint
        self.start = start
        self.end: float | None = None
        self.attributes: dict[str, Any] = attributes or {}
        self.status: str | None = None  # "ok" | "error" once ended
        self.error: str | None = None
        self.thread = thread
        self.thread_name = thread_name

    @property
    def duration(self) -> float:
        """Virtual seconds from start to end (0.0 while open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def open(self) -> bool:
        return self.end is None

    def set(self, key: str, value: Any) -> "Span":
        """Attach one attribute (chainable)."""
        self.attributes[key] = value
        return self

    def context(self, trace_id: str) -> TraceContext:
        return TraceContext(trace_id=trace_id, span_id=self.span_id)

    def __repr__(self) -> str:
        state = f"{self.duration:.6f}s" if not self.open else "open"
        return (f"<Span #{self.span_id} {self.name!r} {state} "
                f"parent={self.parent_id}>")


class _NullSpan:
    """Inert stand-in yielded by :class:`NullTracer` context managers."""

    __slots__ = ()
    span_id = None
    parent_id = None
    attributes: dict[str, Any] = {}
    duration = 0.0
    open = False

    def set(self, key: str, value: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _NullContext:
    """Reusable no-op context manager yielding :data:`NULL_SPAN`."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc_info) -> bool:
        return False


#: What a span site enters instead of a span while tracing is off.  The
#: per-op idiom (DESIGN.md "Tracing is free when off") is
#: ``with (tracer.span(...) if tracer.enabled else NO_SPAN) as span:``,
#: so a disabled tracer costs one attribute test — no span name, no
#: attribute dict, no call.
NO_SPAN = _NullContext()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Kernels carry one of these by default, so instrumentation sites off
    the per-op path can call ``kernel.tracer.span(...)`` unconditionally
    without perturbing untraced runs; per-op sites test ``enabled``
    first (see :data:`NO_SPAN`).
    """

    enabled = False
    spans: tuple = ()

    def span(self, *args, **kwargs) -> _NullContext:
        return NO_SPAN

    def start_span(self, *args, **kwargs) -> _NullSpan:
        return NULL_SPAN

    def end_span(self, span, status: str | None = None,
                 error: str | None = None) -> None:
        pass

    def use(self, span) -> _NullContext:
        return NO_SPAN

    def attach(self, context) -> _NullContext:
        return NO_SPAN

    def current(self) -> None:
        return None

    def context(self) -> None:
        return None

    def wrap_payload(self, runnable: Any) -> Any:
        return runnable

    def on_spawn(self, thread) -> None:
        pass

    def on_thread_exit(self, thread) -> None:
        pass


NULL_TRACER = NullTracer()


@dataclass
class _ThreadState:
    """Per-sim-thread active-span bookkeeping."""

    stack: list[Span] = field(default_factory=list)
    #: Parent id inherited at spawn or installed by :meth:`attach`.
    inherited: int | None = None


class Tracer:
    """Records spans against a kernel's virtual clock."""

    enabled = True

    def __init__(self, kernel, service: str = "repro",
                 trace_id: str | None = None):
        self.kernel = kernel
        self.service = service
        self.trace_id = trace_id or f"{service}-{kernel.name}"
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._threads: dict[int, _ThreadState] = {}
        self._by_id: dict[int, Span] = {}

    # -- active-span bookkeeping -------------------------------------------

    def _state(self, tid: int) -> _ThreadState:
        state = self._threads.get(tid)
        if state is None:
            state = self._threads[tid] = _ThreadState()
        return state

    def _current_state(self) -> _ThreadState | None:
        thread = getattr(_kernel_mod._context, "thread", None)
        if thread is None:
            return None
        return self._threads.get(thread.tid)

    def current(self) -> Span | None:
        """The calling simulated thread's innermost active span."""
        state = self._current_state()
        if state and state.stack:
            return state.stack[-1]
        return None

    def context(self) -> TraceContext | None:
        """Wire context of the caller's active span (for payloads)."""
        parent = self._current_parent_id()
        if parent is None:
            return None
        return TraceContext(trace_id=self.trace_id, span_id=parent)

    def _current_parent_id(self) -> int | None:
        state = self._current_state()
        if state is None:
            return None
        if state.stack:
            return state.stack[-1].span_id
        return state.inherited

    # -- span lifecycle -----------------------------------------------------

    def start_span(self, name: str, kind: str = "internal",
                   endpoint: str | None = None,
                   attributes: dict[str, Any] | None = None,
                   parent: "Span | TraceContext | int | None" = None,
                   activate: bool = True) -> Span:
        """Open a span at the current virtual time.

        With ``activate=True`` (the default) the span is pushed onto
        the calling simulated thread's stack, becoming the implicit
        parent of nested spans.  Pass ``activate=False`` for spans that
        end on a different thread (e.g. a CloudThread's dispatch span).
        """
        if parent is None:
            parent_id = self._current_parent_id()
        elif isinstance(parent, Span):
            parent_id = parent.span_id
        elif isinstance(parent, TraceContext):
            parent_id = parent.span_id
        else:
            parent_id = parent
        thread = getattr(_kernel_mod._context, "thread", None)
        tid = thread.tid if thread is not None else 0
        tname = thread.name if thread is not None else "host"
        span = Span(next(self._ids), parent_id, name, kind, endpoint,
                    self.kernel.now, attributes, tid, tname)
        self.spans.append(span)
        self._by_id[span.span_id] = span
        if activate and thread is not None:
            self._state(tid).stack.append(span)
        return span

    def end_span(self, span: Span, status: str | None = None,
                 error: str | None = None) -> None:
        """Close ``span`` at the current virtual time.

        Idempotent; removes the span from the calling thread's active
        stack if present (tolerating out-of-order ends).
        """
        if span is None or span is NULL_SPAN or span.end is not None:
            return
        span.end = self.kernel.now
        span.error = error
        span.status = status or ("error" if error else "ok")
        state = self._current_state()
        if state is not None and span in state.stack:
            state.stack.remove(span)

    @contextmanager
    def span(self, name: str, kind: str = "internal",
             endpoint: str | None = None,
             attributes: dict[str, Any] | None = None,
             parent: "Span | TraceContext | int | None" = None
             ) -> Iterator[Span]:
        """Context manager: open a span, close it on exit.

        An escaping exception — including ``BaseException``s like a
        simulated crash unwinding — marks the span ``error`` with the
        exception's type name before re-raising.
        """
        span = self.start_span(name, kind=kind, endpoint=endpoint,
                               attributes=attributes, parent=parent)
        try:
            yield span
        except BaseException as exc:
            self.end_span(span, error=type(exc).__name__)
            raise
        else:
            self.end_span(span)

    @contextmanager
    def use(self, span: Span) -> Iterator[Span]:
        """Make an already-open span the caller's active span.

        Pushes without ending on exit — for spans whose lifetime spans
        threads (the owner ends them explicitly via :meth:`end_span`).
        """
        thread = getattr(_kernel_mod._context, "thread", None)
        if thread is None:
            yield span
            return
        stack = self._state(thread.tid).stack
        stack.append(span)
        try:
            yield span
        finally:
            if span in stack:
                stack.remove(span)

    @contextmanager
    def attach(self, context: TraceContext | None) -> Iterator[None]:
        """Adopt a remote parent carried inside a payload.

        If the caller's active span chain already contains the context
        (the in-process fast path: the container handler runs in the
        invoking simulated thread), this is a no-op — nesting is
        already correct.  Otherwise the context becomes the thread's
        inherited parent for the duration, exactly what a real tracing
        SDK does when it extracts wire context on the server side.
        """
        thread = getattr(_kernel_mod._context, "thread", None)
        if (context is None or thread is None
                or self._is_ancestor(context.span_id)):
            yield
            return
        state = self._state(thread.tid)
        previous = state.inherited
        state.inherited = context.span_id
        try:
            yield
        finally:
            state.inherited = previous

    def _is_ancestor(self, span_id: int) -> bool:
        """Is ``span_id`` on the caller's active ancestry chain?"""
        current = self._current_parent_id()
        while current is not None:
            if current == span_id:
                return True
            parent_span = self._by_id.get(current)
            current = parent_span.parent_id if parent_span else None
        return False

    # -- payload propagation ------------------------------------------------

    def wrap_payload(self, runnable: Any) -> Any:
        """Envelope a Runnable with the caller's trace context."""
        return TracedRunnable(runnable, self.context())

    # -- kernel hooks --------------------------------------------------------

    def on_spawn(self, thread) -> None:
        """Called by :meth:`Kernel.spawn`: the child simulated thread
        inherits the spawner's active span as its initial parent."""
        parent = self._current_parent_id()
        if parent is not None:
            self._state(thread.tid).inherited = parent

    def on_thread_exit(self, thread) -> None:
        """Drop per-thread state when a simulated thread finishes."""
        self._threads.pop(thread.tid, None)

    # -- queries -------------------------------------------------------------

    def roots(self) -> list[Span]:
        """Spans with no parent, in start order."""
        ids = {span.span_id for span in self.spans}
        return [span for span in self.spans
                if span.parent_id is None or span.parent_id not in ids]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def find(self, name_prefix: str) -> list[Span]:
        """Spans whose name starts with ``name_prefix``, in start order."""
        return [s for s in self.spans if s.name.startswith(name_prefix)]

    def subtree(self, span: Span) -> list[Span]:
        """``span`` plus every descendant, in start order."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent_id is not None:
                children.setdefault(s.parent_id, []).append(s)
        out: list[Span] = []
        frontier = [span]
        while frontier:
            node = frontier.pop()
            out.append(node)
            frontier.extend(children.get(node.span_id, ()))
        out.sort(key=lambda s: s.span_id)
        return out


def trace_enabled() -> bool:
    """Is tracing active in the caller's context?

    True when the calling simulated thread's kernel — or, outside
    simulated code, the active :class:`CrucialEnvironment`'s kernel —
    carries a real (non-null) tracer.
    """
    kernel = None
    if _kernel_mod.in_sim_thread():
        kernel = _kernel_mod.current_kernel()
    else:
        from repro.core import runtime
        env = runtime._active_env
        if env is not None:
            kernel = env.kernel
    return kernel is not None and kernel.tracer.enabled
