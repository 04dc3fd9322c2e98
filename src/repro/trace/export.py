"""Trace exporters: Chrome trace-event JSON and ASCII span trees.

The Chrome export loads directly into ``chrome://tracing`` or Perfetto
(https://ui.perfetto.dev): each simulated endpoint becomes a process
row and each simulated thread a track, so a benchmark run reads as a
real distributed-system timeline.  The ASCII renderers feed
``repro.metrics.report`` so every harness can print an explainable
span tree next to its result table.

Both exports are byte-deterministic for a fixed seed: spans are
emitted in span-id order, ids are counters, and timestamps come from
the virtual clock.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

from repro.trace.tracer import Span, Tracer

#: Children :func:`span_tree` renders per node before eliding the rest.
MAX_CHILDREN = 24


def _spans_of(source: "Tracer | Iterable[Span]") -> list[Span]:
    if isinstance(source, Tracer):
        return list(source.spans)
    return list(source)


def _index(spans: Sequence[Span]) -> tuple[list[Span], dict[int, list[Span]]]:
    """Roots (in id order) and parent-id -> children map."""
    ids = {span.span_id for span in spans}
    children: dict[int, list[Span]] = {}
    roots: list[Span] = []
    for span in spans:
        if span.parent_id is None or span.parent_id not in ids:
            roots.append(span)
        else:
            children.setdefault(span.parent_id, []).append(span)
    return roots, children


# ---------------------------------------------------------------------------
# Chrome trace-event JSON
# ---------------------------------------------------------------------------


def to_chrome_trace(source: "Tracer | Iterable[Span]",
                    metadata: dict[str, Any] | None = None) -> dict[str, Any]:
    """Render spans as a Chrome trace-event document (dict).

    Uses complete ("X") events with microsecond timestamps; endpoints
    map to pids (with ``process_name`` metadata) and simulated threads
    to tids, so Perfetto shows one track per simulated thread grouped
    by endpoint.  Spans still open at export time are emitted with
    zero duration and ``"unfinished": true``.  ``metadata`` lands in
    the document's ``otherData`` section (the exploration runner tags
    exports with their schedule id this way).
    """
    spans = _spans_of(source)
    pids: dict[str, int] = {}
    # Remap simulated-thread ids to dense per-export indices: the
    # global SimThread counter depends on how many kernels ran earlier
    # in the process, and must not leak into the (byte-deterministic)
    # export.
    tids: dict[int, int] = {}
    events: list[dict[str, Any]] = []
    thread_names: dict[tuple[int, int], str] = {}
    for span in spans:
        endpoint = span.endpoint or "host"
        pid = pids.setdefault(endpoint, len(pids) + 1)
        tid = tids.setdefault(span.thread, len(tids) + 1)
        args: dict[str, Any] = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.status is not None:
            args["status"] = span.status
        if span.error is not None:
            args["error"] = span.error
        for key in sorted(span.attributes):
            args[key] = span.attributes[key]
        if span.open:
            args["unfinished"] = True
        events.append({
            "name": span.name,
            "cat": span.kind,
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "ts": round(span.start * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "args": args,
        })
        thread_names.setdefault((pid, tid), span.thread_name)
    meta_events: list[dict[str, Any]] = []
    for endpoint, pid in pids.items():
        meta_events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": endpoint},
        })
    for (pid, tid), tname in thread_names.items():
        meta_events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": tname},
        })
    document = {"traceEvents": meta_events + events,
                "displayTimeUnit": "ms"}
    if metadata:
        document["otherData"] = dict(metadata)
    return document


def chrome_trace_json(source: "Tracer | Iterable[Span]",
                      metadata: dict[str, Any] | None = None) -> str:
    """The Chrome trace document serialized deterministically."""
    return json.dumps(to_chrome_trace(source, metadata=metadata),
                      sort_keys=True, separators=(",", ":"))


def write_chrome_trace(path: str, source: "Tracer | Iterable[Span]",
                       metadata: dict[str, Any] | None = None) -> str:
    """Write the Chrome trace JSON to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(chrome_trace_json(source, metadata=metadata))
    return path


# ---------------------------------------------------------------------------
# ASCII span tree and critical path
# ---------------------------------------------------------------------------


def _fmt_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def _span_label(span: Span) -> str:
    parts = [span.name]
    if span.endpoint:
        parts.append(f"@{span.endpoint}")
    parts.append(_fmt_duration(span.duration))
    notes = []
    if span.status == "error":
        notes.append(f"ERROR:{span.error}" if span.error else "ERROR")
    for key in ("cold_start", "attempt", "retries"):
        if key in span.attributes:
            notes.append(f"{key}={span.attributes[key]}")
    if notes:
        parts.append("[" + " ".join(notes) + "]")
    return " ".join(parts)


def span_tree(source: "Tracer | Iterable[Span]", max_depth: int = 12,
              min_duration: float = 0.0) -> str:
    """Render the trace as an indented ASCII tree.

    Children below ``min_duration`` are elided (summarized as one
    ``... n spans elided`` line), as are children beyond
    ``MAX_CHILDREN`` per node — keeping quickstart output readable.
    """
    spans = _spans_of(source)
    roots, children = _index(spans)
    lines: list[str] = []

    def render(span: Span, prefix: str, is_last: bool, depth: int) -> None:
        connector = "`-- " if is_last else "|-- "
        lines.append(prefix + connector + _span_label(span))
        if depth >= max_depth:
            return
        kids = children.get(span.span_id, [])
        kept = [k for k in kids if k.duration >= min_duration][:MAX_CHILDREN]
        elided = len(kids) - len(kept)
        extension = "    " if is_last else "|   "
        for index, kid in enumerate(kept):
            last = index == len(kept) - 1 and elided == 0
            render(kid, prefix + extension, last, depth + 1)
        if elided > 0:
            lines.append(prefix + extension + f"`-- ... {elided} span(s) "
                         "elided")

    for index, root in enumerate(roots):
        lines.append(_span_label(root))
        kids = children.get(root.span_id, [])
        kept = [k for k in kids if k.duration >= min_duration][:MAX_CHILDREN]
        elided = len(kids) - len(kept)
        for kid_index, kid in enumerate(kept):
            last = kid_index == len(kept) - 1 and elided == 0
            render(kid, "", last, 1)
        if elided > 0:
            lines.append(f"`-- ... {elided} span(s) elided")
        if index < len(roots) - 1:
            lines.append("")
    return "\n".join(lines)


def critical_path(source: "Tracer | Iterable[Span]",
                  root: Span | None = None) -> list[tuple[Span, float]]:
    """The chain of spans that determines the end-to-end latency.

    Starting from ``root`` (default: the longest finished root — the
    one that dominates end-to-end latency), repeatedly descend into the
    child that finishes last — the one the parent's completion waited
    on.  Returns ``(span, self_time)`` pairs, where ``self_time`` is
    the span's duration not covered by the next span on the path: the
    decomposition the paper's Fig. 7b/Table 2 report.
    """
    spans = _spans_of(source)
    roots, children = _index(spans)
    if root is None:
        closed = [r for r in roots if not r.open]
        if not closed:
            return []
        root = max(closed, key=lambda s: (s.duration, s.span_id))
    path: list[tuple[Span, float]] = []
    node = root
    while node is not None:
        kids = [k for k in children.get(node.span_id, []) if not k.open]
        if kids:
            nxt = max(kids, key=lambda s: (s.end, s.span_id))
            path.append((node, node.duration - nxt.duration))
            node = nxt
        else:
            path.append((node, node.duration))
            node = None
    return path


def critical_path_summary(source: "Tracer | Iterable[Span]",
                          root: Span | None = None) -> str:
    """Render the critical path, one span per line with self-time."""
    path = critical_path(source, root=root)
    if not path:
        return "critical path: (no finished spans)"
    total = path[0][0].duration
    lines = [f"critical path ({_fmt_duration(total)} end-to-end):"]
    for depth, (span, self_time) in enumerate(path):
        share = (self_time / total * 100.0) if total > 0 else 0.0
        lines.append(f"  {'  ' * depth}{span.name} "
                     f"self={_fmt_duration(self_time)} ({share:.0f}%)")
    return "\n".join(lines)
