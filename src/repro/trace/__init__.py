"""repro.trace — deterministic distributed tracing in virtual time.

See :mod:`repro.trace.tracer` for the tracer/span model and
:mod:`repro.trace.export` for the Chrome trace-event and ASCII
exporters.  Enable per environment with
``CrucialEnvironment(trace_enabled=True)`` or per kernel with
``kernel.enable_tracing()``.
"""

from repro.trace.tracer import (
    KINDS,
    NO_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    TraceContext,
    TracedRunnable,
    Tracer,
    trace_enabled,
)
from repro.trace.export import (
    chrome_trace_json,
    critical_path,
    critical_path_summary,
    span_tree,
    to_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "KINDS",
    "NO_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceContext",
    "TracedRunnable",
    "Tracer",
    "trace_enabled",
    "to_chrome_trace",
    "chrome_trace_json",
    "write_chrome_trace",
    "span_tree",
    "critical_path",
    "critical_path_summary",
]
