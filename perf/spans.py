"""Benchmark-side span recorder: wraps public entry points from outside.

The traced run patches the *classes of live instances* (``type(env.dso)``,
``type(env.network)``, ...) plus a handful of facade classes, so nothing
here names a module path inside ``repro`` and the numbers survive file
moves.  Every wrapped call records ``(layer, name, virtual start, virtual
end, parent span)`` in memory; :func:`analyze` turns that into per-layer
virtual self time.

Three kinds of span exist:

* **call spans** — one per wrapped call, parented to the innermost open
  span on the same OS thread (every simulated thread is its own OS
  thread, so a thread-local stack is the simulated call stack);
* **thread spans** — one per ``Kernel.spawn``, parented to the span that
  was open in the *spawner* (the causal link across threads);
* **op spans** — the workload's own end-to-end operations, declared
  after the fact with :func:`mark_op`; an op adopts the call spans its
  thread closed inside the op's interval.

A span's *self time* is its duration minus the union of its same-thread
children (children in other threads run concurrently and are not
subtracted).  Summed over an op's tree the self times equal the op's
latency exactly, which is what lets the benchmark assert that the layer
table accounts for the end-to-end number.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import Counter, defaultdict
from typing import Any, Callable

from stats import merged_length

#: Layer given to an op's own self time: workload code outside any
#: wrapped entry point (``compute()`` sleeps, unwrapped calls).
APP_LAYER = "app"

_MISSING = object()

#: The installed recorder.  Class patches are process-global, so the
#: hook workload code calls (:func:`mark_op`) is too — it is also the
#: only channel out of a pickled Runnable executing "remotely".
_active: "SpanRecorder | None" = None


def installed() -> bool:
    return _active is not None


def mark_op(kind: str, start: float, end: float, weight: int = 1) -> None:
    """Declare one end-to-end operation on the calling thread.

    ``weight`` > 1 declares that many operations sharing one interval
    (a batch acknowledged together).  A no-op unless a recorder is
    installed, i.e. in every end-to-end run.
    """
    if _active is not None:
        _active.mark_op(kind, start, end, weight)


class Span:
    __slots__ = ("id", "parent", "thread", "layer", "name", "start",
                 "end", "request", "weight", "pending")

    def __init__(self, span_id: int, parent: int, thread: int, layer: str,
                 name: str, start: float, end: float | None = None):
        self.id = span_id
        self.parent = parent
        self.thread = thread
        self.layer = layer
        self.name = name
        self.start = start
        self.end = end
        self.request = 0
        #: Operations an op span stands for (1 for every other span).
        self.weight = 1
        #: Closed children not yet adopted by an op (open spans only).
        self.pending: list[Span] = []

    def row(self) -> list:
        return [self.id, self.parent, self.thread, self.layer, self.name,
                self.request, self.weight, self.start, self.end]


#: Column names of :meth:`Span.row`, written into the trace file.
ROW_FIELDS = ("id", "parent", "thread", "layer", "name", "request",
              "weight", "start", "end")


def entry_points(env) -> list[tuple[type, str, str]]:
    """``(class, method, layer)`` for every wrapped public entry point,
    resolved from the live environment and the ``repro`` facade."""
    from repro import (Autoscaler, CloudThread, CyclicBarrier,
                       KeeperSession, OpenLoopGenerator, Txn)

    dso = type(env.dso)
    store = type(env.object_store)
    return [
        (type(env.network), "transfer", "net"),
        (dso, "invoke", "dso"),
        (dso, "invoke_async", "dso"),
        (dso, "flush", "dso"),
        (dso, "read_bulk", "dso"),
        (Txn, "commit", "dso"),
        (type(env.platform), "invoke", "faas"),
        (store, "get", "storage"),
        (store, "put", "storage"),
        (CloudThread, "start", "core"),
        (CloudThread, "join", "core"),
        (CyclicBarrier, "wait", "core"),
        (CyclicBarrier, "await_", "core"),
        (KeeperSession, "set", "coordination"),
        (KeeperSession, "get", "coordination"),
        (KeeperSession, "next_event", "coordination"),
        (OpenLoopGenerator, "run", "workload"),
        (Autoscaler, "tick", "workload"),
    ]


class SpanRecorder:
    """Records spans and kernel event counts while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: ``simulation.wakeups`` / ``timers`` / ``spawns`` plus one
        #: ``<layer>.calls`` count per wrapped entry point.
        self.counts: Counter = Counter()
        self.peak_os_threads = 0
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._clock: Callable[[], float] | None = None
        self._patched: list[tuple[type, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _frames(self) -> list[Span]:
        tls = self._tls
        frames = getattr(tls, "frames", None)
        if frames is None:
            frames = tls.frames = []
            # Holder for spans closed at the top of a thread that was
            # not spawned through the wrapped kernel (the main thread).
            tls.top = Span(0, 0, threading.get_ident(), "", "", 0.0)
        return frames

    def current(self) -> int:
        """Id of the innermost open span on this thread (0 if none)."""
        frames = self._frames()
        return frames[-1].id if frames else 0

    def _begin(self, layer: str, name: str, parent: int | None = None) -> Span:
        frames = self._frames()
        if parent is None:
            parent = frames[-1].id if frames else 0
        span = Span(next(self._ids), parent, threading.get_ident(), layer,
                    name, self._clock())
        frames.append(span)
        self.spans.append(span)
        return span

    def _end(self, span: Span) -> None:
        span.end = self._clock()
        span.pending = []
        frames = self._frames()
        frames.pop()
        holder = frames[-1] if frames else self._tls.top
        holder.pending.append(span)

    def mark_op(self, kind: str, start: float, end: float,
                weight: int = 1) -> None:
        frames = self._frames()
        holder = frames[-1] if frames else self._tls.top
        op = Span(next(self._ids), holder.id, threading.get_ident(), "op",
                  kind, start, end)
        op.weight = weight
        for child in holder.pending:
            # Adopt what overlaps the op; anything else (a call made
            # between two ops) keeps its original parent.
            if child.end > start and child.start < end:
                child.parent = op.id
        holder.pending = []
        self.spans.append(op)

    # -- wrapping ----------------------------------------------------------

    def _wrap_call(self, function: Callable, layer: str, name: str) -> Callable:
        recorder = self
        counter = f"{layer}.calls"

        @functools.wraps(function)
        def traced(*args, **kwargs):
            recorder.counts[counter] += 1
            span = recorder._begin(layer, name)
            try:
                return function(*args, **kwargs)
            finally:
                recorder._end(span)

        return traced

    def _wrap_count(self, function: Callable, counter: str) -> Callable:
        counts = self.counts

        @functools.wraps(function)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return function(*args, **kwargs)

        return counted

    def _wrap_spawn(self, function: Callable) -> Callable:
        recorder = self

        @functools.wraps(function)
        def spawn(kernel, target, *args, name=None, **kwargs):
            recorder.counts["simulation.spawns"] += 1
            recorder.peak_os_threads = max(recorder.peak_os_threads,
                                           threading.active_count() + 1)
            cause = recorder.current()
            label = name or getattr(target, "__name__", "thread")

            @functools.wraps(target)
            def body(*body_args, **body_kwargs):
                span = recorder._begin("thread", label, parent=cause)
                try:
                    return target(*body_args, **body_kwargs)
                finally:
                    recorder._end(span)

            return function(kernel, body, *args, name=name, **kwargs)

        return spawn

    def _patch(self, owner: type, attr: str, make: Callable) -> None:
        original = owner.__dict__.get(attr, _MISSING)
        setattr(owner, attr, make(getattr(owner, attr)))
        self._patched.append((owner, attr, original))

    def install(self, env) -> None:
        """Wrap every entry point; spans read ``env``'s virtual clock."""
        global _active
        if _active is not None:
            raise RuntimeError("a span recorder is already installed")
        kernel = env.kernel
        self._clock = lambda: kernel.now
        kernel_cls = type(kernel)
        self._patch(kernel_cls, "schedule_wakeup",
                    lambda f: self._wrap_count(f, "simulation.wakeups"))
        self._patch(kernel_cls, "call_later",
                    lambda f: self._wrap_count(f, "simulation.timers"))
        self._patch(kernel_cls, "spawn", self._wrap_spawn)
        for owner, attr, layer in entry_points(env):
            name = f"{owner.__name__}.{attr}"
            self._patch(owner, attr,
                        lambda f, la=layer, na=name: self._wrap_call(f, la, na))
        _active = self

    def uninstall(self) -> None:
        """Restore every patched attribute exactly as it was."""
        global _active
        for owner, attr, original in reversed(self._patched):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()
        if _active is self:
            _active = None


# -- analysis --------------------------------------------------------------


class Analysis:
    """Per-layer virtual self time derived from recorded spans."""

    def __init__(self) -> None:
        #: layer -> self seconds inside op trees (the blocking path).
        self.in_ops: dict[str, float] = defaultdict(float)
        #: layer -> self seconds over every span, in an op or not.
        self.total: dict[str, float] = defaultdict(float)
        self.ops = 0
        self.op_seconds = 0.0


def analyze(spans: list[Span]) -> Analysis:
    """Compute self times and stamp every span with its request id.

    Spans still open (threads torn down mid-call) are ignored.
    """
    closed = [s for s in spans if s.end is not None]
    by_id = {s.id: s for s in closed}
    sync_children: dict[int, list[Span]] = defaultdict(list)
    all_children: dict[int, list[Span]] = defaultdict(list)
    for span in closed:
        parent = by_id.get(span.parent)
        if parent is None:
            continue
        all_children[parent.id].append(span)
        if parent.thread == span.thread:
            sync_children[parent.id].append(span)

    result = Analysis()

    def self_time(span: Span, lo: float, hi: float) -> float:
        covered = merged_length(
            (max(c.start, lo), min(c.end, hi))
            for c in sync_children[span.id]
            if c.end > lo and c.start < hi)
        return (hi - lo) - covered

    for span in closed:
        if span.layer != "op":
            result.total[span.layer] += self_time(span, span.start, span.end)

    def attribute(span: Span, lo: float, hi: float, weight: int) -> None:
        lo, hi = max(lo, span.start), min(hi, span.end)
        if hi <= lo:
            return
        layer = APP_LAYER if span.layer == "op" else span.layer
        result.in_ops[layer] += weight * self_time(span, lo, hi)
        for child in sync_children[span.id]:
            attribute(child, lo, hi, weight)

    def stamp(span: Span, request: int) -> None:
        stack = [span]
        while stack:
            node = stack.pop()
            node.request = request
            stack.extend(all_children[node.id])

    for span in closed:
        if span.layer == "op":
            result.ops += span.weight
            result.op_seconds += span.weight * (span.end - span.start)
            attribute(span, span.start, span.end, span.weight)
            stamp(span, span.id)
    return result


def promote_threads(spans: list[Span], spawner: str, kind: str) -> None:
    """Turn the threads spawned inside ``spawner`` call spans into ops.

    For workloads whose operations *are* threads the program spawns (one
    simulated thread per open-loop request, all spawned from inside
    ``OpenLoopGenerator.run``), the thread span's interval is the
    operation's latency.
    """
    parents = {span.id for span in spans if span.name == spawner}
    for span in spans:
        if span.layer == "thread" and span.parent in parents:
            span.layer = "op"
            span.name = kind
