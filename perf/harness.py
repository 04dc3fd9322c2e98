"""Measurement loops: the end-to-end run and the three traced passes.

End-to-end (``measure``): a discarded warm-up, then repeats cycling
through ``SUBSEEDS`` inputs derived from ``--seed`` until both every
sub-seed has run and ``--seconds`` have elapsed.  Each repeat builds a
fresh environment, so set-up is timed once per repeat.  Host metrics are
medians over repeats; each ``sim_*`` metric is computed per sub-seed and
reported as the median over sub-seeds, which depends on the seed alone —
a sub-seed met twice must reproduce its virtual results bit for bit.

Traced (``trace``): a span pass (benchmark-side wrappers, virtual self
time per layer), a profile pass (cProfile per OS thread, host time per
source package) and a tracer pass (the repo's own tracer on, wrappers
off, paired with untraced repeats, for tracing overhead only).
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field

import catalog
import hostprofile
import spans
from stats import MIN_BEYOND, fingerprint, percentile, samples_beyond, spread
from workloads import Outcome, Workload

#: Distinct inputs per run.  The chaotic metrics (the serving tail,
#: autoscaled dollars) need this many for their median to stay within a
#: third of its bound from seed to seed — the serving p95 spreads by 13 %
#: over five inputs, 6 % over nine — and a 20-second run fits nine
#: repeats of every workload anyway.
SUBSEEDS = 9

#: Tracer-pass pairs (traced, untraced) for ``trace.overhead_pct``.
TRACER_PAIRS = 3

_THREAD_RUN = threading.Thread.run


def subseeds(seed: int) -> list[int]:
    return [(seed * 1_000_003 + 7_919 * index) % (2 ** 31)
            for index in range(SUBSEEDS)]


class Probe:
    """Instrumentation hooks around one repeat; the default does nothing."""

    def start(self, state) -> None:
        """After set-up, before the measured phase."""

    def after_run(self, state) -> None:
        """Right after the measured phase, before the output check."""

    def after_close(self) -> None:
        """After the environment (and every simulated thread) is gone."""


@dataclass
class Repeat:
    seed: int
    setup_s: float
    host_s: float
    outcome: Outcome
    problems: list[str]
    failed: int
    #: Program-side counters over the measured phase (after - before).
    counts: dict[str, float] = field(default_factory=dict)
    #: Workload-specific per-layer metrics.
    layer: dict[str, float] = field(default_factory=dict)


def assert_untraced(env) -> None:
    """End-to-end numbers must come from an uninstrumented program."""
    problems = []
    if spans.installed():
        problems.append("span recorder installed")
    if sys.getprofile() is not None or threading.Thread.run is not _THREAD_RUN:
        problems.append("profiler installed")
    if env.kernel.tracer.enabled:
        problems.append("tracer enabled")
    kernel = type(env.kernel)
    wrapped = [(kernel, "schedule_wakeup"), (kernel, "call_later"),
               (kernel, "spawn")]
    wrapped += [(owner, attr) for owner, attr, _ in spans.entry_points(env)]
    for owner, attr in wrapped:
        if hasattr(getattr(owner, attr), "__wrapped__"):
            problems.append(f"{owner.__name__}.{attr} is wrapped")
    if problems:
        raise RuntimeError("instrumented end-to-end run: " + "; ".join(problems))


def program_counts(env) -> dict[str, float]:
    """Counters the program keeps, read from the live environment."""
    stats = env.dso.stats
    counts = {f"dso.{name}": getattr(stats, name)
              for name in catalog.DSO_STATS}
    records = env.platform.records
    store = env.object_store.stats
    counts.update({
        "net.transfers": env.network.messages_sent,
        "faas.invocations": len(records),
        "faas.cold_starts": sum(1 for r in records if r.cold_start),
        "faas.billed_gb_s": env.platform.billed_gb_seconds(),
        "storage.requests": store.requests,
        "storage.bytes_read": store.bytes_read,
        "storage.request_dollars": store.request_dollars,
    })
    return counts


def one_repeat(workload: Workload, seed: int, probe: Probe | None = None,
               untraced: bool = False) -> Repeat:
    probe = probe or Probe()
    gc.collect()
    begun = time.perf_counter()
    state = workload.setup(workload.inputs(seed))
    setup_s = time.perf_counter() - begun
    try:
        env = state.env
        if untraced:
            assert_untraced(env)
        before = program_counts(env)
        probe.start(state)
        begun = time.perf_counter()
        outcome = workload.run(state)
        host_s = time.perf_counter() - begun
        probe.after_run(state)
        after = program_counts(env)
        problems = list(outcome.op_errors)
        problems += workload.check(state, outcome)
        layer = workload.counters(state, outcome)
    finally:
        workload.close(state)
        probe.after_close()
    failed = sum(1 for op in outcome.ops if not op[3])
    if failed:
        problems.append(f"{failed} of {len(outcome.ops)} ops failed")
    counts = {name: after[name] - before[name] for name in after}
    return Repeat(seed, setup_s, host_s, outcome, problems, failed, counts,
                  layer)


def sim_metrics(workload: Workload, outcome: Outcome) -> dict[str, float]:
    ops = outcome.ops
    beyond = samples_beyond(len(ops), workload.tail_q)
    if beyond < MIN_BEYOND:
        raise RuntimeError(
            f"{workload.name}: p{workload.tail_q} of {len(ops)} ops leaves "
            f"{beyond} samples beyond it, need {MIN_BEYOND}")
    latencies = [end - start for _kind, start, end, _ok in ops]
    completed = sum(1 for op in ops if op[3])
    return {
        "sim_p50_us": percentile(latencies, 50.0) * 1e6,
        "sim_tail_us": percentile(latencies, workload.tail_q) * 1e6,
        "sim_ops_per_s": completed / (outcome.ended - outcome.started),
        "sim_dollars": outcome.dollars,
    }


def _metric(name: str, value: float) -> dict:
    return {"value": value, "unit": catalog.UNITS[name]}


# ---------------------------------------------------------------------------
# End to end
# ---------------------------------------------------------------------------


def measure(workload: Workload, seed: int, seconds: float,
            import_s: float) -> dict:
    """The end-to-end run: tracing, wrappers and profilers all off.

    ``import_s`` is what ``import repro`` took, paid once per process."""
    seeds = subseeds(seed)
    per_seed: dict[int, dict] = {}
    setup, host = [], []
    problems: list[str] = []

    def repeat(index: int, timed: bool) -> None:
        sub = seeds[index % SUBSEEDS]
        result = one_repeat(workload, sub, untraced=True)
        problems.extend(result.problems)
        record = {
            "sim": sim_metrics(workload, result.outcome),
            "fingerprint": fingerprint(result.outcome.ops),
            "attempted": len(result.outcome.ops),
            "failed": result.failed,
        }
        known = per_seed.setdefault(sub, record)
        if known != record:
            problems.append(f"sub-seed {sub} did not repeat exactly: "
                            f"{known} then {record}")
        if timed:
            setup.append(result.setup_s)
            host.append(result.host_s)

    repeat(0, timed=False)  # warm-up: lazy imports, allocator, code caches
    started = time.perf_counter()
    index = 0
    while index < SUBSEEDS or time.perf_counter() - started < seconds:
        repeat(index, timed=True)
        index += 1

    records = [per_seed[sub] for sub in seeds]
    values = {
        "setup_s": import_s + statistics.median(setup),
        "host_s": statistics.median(host),
        "host_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name in ("sim_p50_us", "sim_tail_us", "sim_ops_per_s", "sim_dollars"):
        values[name] = statistics.median(r["sim"][name] for r in records)
    attempted = sum(r["attempted"] for r in records)
    combined = 0
    for record in records:
        combined = zlib.crc32(record["fingerprint"].to_bytes(4, "little"),
                              combined)
    return {
        "workload": workload.name,
        "seed": seed,
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(r["failed"] for r in records),
        "problems": problems[:20],
        "metrics": {name: _metric(name, values[name])
                    for name in catalog.END_TO_END_NAMES},
        "info": {
            "sim_fingerprint": combined,
            "host_ops_per_s":
                attempted / SUBSEEDS / statistics.median(host),
            "ops_per_repeat": attempted / SUBSEEDS,
            "tail_percentile": workload.tail_q,
            "samples_beyond_tail":
                samples_beyond(attempted // SUBSEEDS, workload.tail_q),
            "repeats": len(host),
            "subseeds": SUBSEEDS,
            "import_s": import_s,
        },
        "samples": {"host_s": host, "setup_s": setup},
        "spread": {"host_s": spread(host), "setup_s": spread(setup)},
    }


# ---------------------------------------------------------------------------
# Traced
# ---------------------------------------------------------------------------


class SpanProbe(Probe):
    def __init__(self, workload: Workload):
        self.workload = workload
        self.recorder = spans.SpanRecorder()

    def start(self, state) -> None:
        self.recorder.install(state.env)

    def after_run(self, state) -> None:
        self.recorder.uninstall()
        self.workload.finish_spans(self.recorder)

    def after_close(self) -> None:
        self.recorder.uninstall()  # no-op unless the run raised


class ProfileProbe(Probe):
    """Profiles from the measured phase through teardown: parked threads
    only hand in their samples when the environment closes."""

    def __init__(self) -> None:
        self.profiler = hostprofile.ThreadProfiler()
        self.wall_s = 0.0
        self._begun = 0.0

    def start(self, state) -> None:
        self._begun = time.perf_counter()
        self.profiler.install()

    def after_close(self) -> None:
        self.profiler.uninstall()
        self.wall_s = time.perf_counter() - self._begun


class TracerProbe(Probe):
    def __init__(self) -> None:
        self.spans = 0

    def start(self, state) -> None:
        state.env.kernel.enable_tracing()

    def after_run(self, state) -> None:
        self.spans = len(state.env.kernel.tracer.spans)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _span_pass(workload: Workload, sub: int, seed: int, out_dir: str,
               layer: dict, problems: list[str]) -> Repeat:
    """Pass 1: virtual self time per layer, kernel event counts, and
    the span file."""
    probe = SpanProbe(workload)
    spanned = one_repeat(workload, sub, probe)
    problems += spanned.problems
    recorder = probe.recorder
    analysis = spans.analyze(recorder.spans)
    ops = spanned.outcome.ops
    op_seconds = sum(end - start for _kind, start, end, _ok in ops)
    if analysis.ops != len(ops):
        problems.append(f"span pass saw {analysis.ops} ops, the workload "
                        f"reported {len(ops)}")
    accounted = sum(analysis.in_ops.values())
    if abs(accounted - op_seconds) > 0.01 * op_seconds:
        problems.append(
            f"per-layer self times sum to {accounted:.6f} s but ops took "
            f"{op_seconds:.6f} s")
    unknown = set(analysis.in_ops) - set(catalog.SELF_LAYERS)
    if unknown:
        problems.append(f"op self time in unlisted layers: {sorted(unknown)}")
    layer.update(spanned.counts)
    layer.update(spanned.layer)
    counts = recorder.counts
    layer.update({
        "simulation.wakeups": counts["simulation.wakeups"],
        "simulation.timers": counts["simulation.timers"],
        "simulation.spawns": counts["simulation.spawns"],
        "simulation.peak_os_threads": recorder.peak_os_threads,
        "dso.cache_hit_ratio": _ratio(
            layer["dso.cache_hits"],
            layer["dso.cache_hits"] + layer["dso.cache_misses"]),
        "dso.ops_per_batch": _ratio(layer["dso.pipelined_ops"],
                                    layer["dso.batches"]),
        "faas.cold_start_ratio": _ratio(layer["faas.cold_starts"],
                                        layer["faas.invocations"]),
        "faas.sim_self_us_per_invoke": _ratio(
            analysis.total["faas"], counts["faas.calls"]) * 1e6,
        "storage.sim_self_us_per_request": _ratio(
            analysis.total["storage"], counts["storage.calls"]) * 1e6,
        "trace.sim_op_mean_us": _ratio(op_seconds, len(ops)) * 1e6,
    })
    for name in catalog.SELF_LAYERS:
        layer[f"{name}.sim_self_us_per_op"] = _ratio(
            analysis.in_ops[name], len(ops)) * 1e6
    os.makedirs(out_dir, exist_ok=True)
    with open(trace_file(out_dir, workload), "w") as handle:
        json.dump({
            "workload": workload.name, "seed": seed, "subseed": sub,
            "ops": len(ops), "op_seconds": op_seconds,
            "self_seconds_in_ops": dict(analysis.in_ops),
            "self_seconds_total": dict(analysis.total),
            "fields": spans.ROW_FIELDS,
            "spans": [s.row() for s in recorder.spans if s.end is not None],
        }, handle, separators=(",", ":"))
    return spanned


def _profile_pass(workload: Workload, sub: int, layer: dict,
                  problems: list[str]) -> Repeat:
    """Pass 2: host time by source package, and the handoff residual."""
    probe = ProfileProbe()
    profiled = one_repeat(workload, sub, probe)
    problems += profiled.problems
    buckets = probe.profiler.buckets()
    buckets.pop(hostprofile.LOCK_WAIT, None)
    busy = {name: 0.0 for name in catalog.BUSY_LAYERS}
    for bucket, seconds in buckets.items():
        busy[bucket if bucket in busy else "other"] += seconds
    handoff = probe.wall_s - sum(busy.values())
    for name, seconds in busy.items():
        layer[f"{name}.busy_s"] = seconds
    layer.update({
        "trace.profiled_wall_s": probe.wall_s,
        "simulation.handoff_s": handoff,
        "simulation.handoff_share": handoff / probe.wall_s,
    })
    return profiled


def _tracer_pass(workload: Workload, sub: int, layer: dict) -> list[Repeat]:
    """Pass 3: the repo's tracer on, wrappers off, paired with plain
    repeats — for tracing overhead only."""
    probe = TracerProbe()
    plain, traced = [], []
    for _pair in range(TRACER_PAIRS):
        plain.append(one_repeat(workload, sub, untraced=True))
        traced.append(one_repeat(workload, sub, probe))
    host_s = statistics.median(r.host_s for r in plain)
    traced_s = statistics.median(r.host_s for r in traced)
    events = layer["simulation.wakeups"] + layer["simulation.timers"]
    layer.update({
        "trace.overhead_pct": 100.0 * (traced_s - host_s) / host_s,
        "trace.spans": probe.spans,
        "simulation.host_us_per_event": _ratio(host_s, events) * 1e6,
    })
    return plain + traced


def trace_file(out_dir: str, workload: Workload) -> str:
    return os.path.join(out_dir, f"trace_{workload.name}.json")


def trace(workload: Workload, seed: int, out_dir: str) -> dict:
    """The traced run: every per-layer metric, plus the span file."""
    sub = subseeds(seed)[0]
    problems: list[str] = []
    layer = {name: 0.0 for name in catalog.PER_LAYER_NAMES}
    spanned = _span_pass(workload, sub, seed, out_dir, layer, problems)
    results = [spanned, _profile_pass(workload, sub, layer, problems)]
    results += _tracer_pass(workload, sub, layer)
    ops = spanned.outcome.ops
    reference = fingerprint(ops)
    if any(fingerprint(r.outcome.ops) != reference for r in results):
        problems.append("instrumentation changed the virtual timeline")
    undeclared = set(layer) - set(catalog.PER_LAYER_NAMES)
    if undeclared:
        problems.append("metrics missing from BENCHMARK.json: "
                        f"{sorted(undeclared)}")
    return {
        "workload": workload.name,
        "seed": seed,
        "correct": not problems,
        "attempted": len(ops),
        "failed": spanned.failed,
        "problems": problems[:20],
        "metrics": {name: _metric(name, float(layer[name]))
                    for name in catalog.PER_LAYER_NAMES},
        "info": {"trace_file": trace_file(out_dir, workload), "subseed": sub},
    }


def result_line(result: dict) -> str:
    """The one-line JSON object the driver reads."""
    return json.dumps({key: result[key] for key in
                       ("correct", "attempted", "failed", "metrics")})
