"""Fig. 7b: phase breakdown of an iterative task — stages vs barrier.

Approach (a): each iteration launches a *new* stage of cloud threads,
so every iteration pays invocation + S3 input read.  Approach (b): a
single stage runs all iterations, synchronized with Crucial's barrier,
so the input is fetched once.  The paper reports (b) is faster and
that barrier synchronization time is small because invocations and S3
reads leave the critical path.

The breakdown is **derived from the distributed trace**, not from
stopwatches inside the workload: the harness runs with tracing
enabled and decomposes each ``cloudthread:*`` root span into

* ``invocation`` — root duration minus the container-side
  ``runnable:*`` span (dispatch, startup, queueing, response);
* ``s3_read`` — the ``s3.get`` spans in the subtree;
* ``sync`` — the ``dso.invoke:_CyclicBarrier.*`` spans (barrier RPCs,
  including the server-side park);
* ``compute`` — the runnable span's *self* time (duration not covered
  by its direct children).

The four phases therefore sum to each thread's end-to-end span by
construction — the consistency the paper's stacked bars imply.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import CrucialEnvironment, CyclicBarrier, compute, run_all
from repro.harness.claims import Claim, above, below, claim_lines
from repro.metrics.report import render_table
from repro.trace.tracer import Span, Tracer

PHASES = ("invocation", "s3_read", "compute", "sync")
INPUT_BYTES = 200 * 10 ** 6  # per-thread input fragment
COMPUTE_SECONDS = 1.0


STAGES, BARRIER = "per-iteration stages", "single stage + barrier"


def _seconds(result, approach: str, phase: str = "total") -> float:
    """Seconds ``approach`` spent in ``phase`` ("total": all four)."""
    totals = result.phases[approach]
    return sum(totals.values()) if phase == "total" else totals[phase]


CLAIMS = [
    Claim("fig7b.s3_reads", "S3 read time, stages over barrier (input "
          "fetched once)", None, lambda r: (_seconds(r, STAGES, "s3_read")
                                            / _seconds(r, BARRIER, "s3_read")),
          above(3.0), "{:.1f}x"),
    Claim("fig7b.total_ratio", "total time, barrier over stages", None,
          lambda r: _seconds(r, BARRIER) / _seconds(r, STAGES), below(0.75)),
    Claim("fig7b.sync_share", "barrier sync share of the barrier total",
          None, lambda r: _seconds(r, BARRIER, "sync") / _seconds(r, BARRIER),
          below(0.10), "{:.1%}"),
    Claim("fig7b.compute_drift", "compute difference between approaches",
          None, lambda r: abs(_seconds(r, STAGES, "compute")
                              / _seconds(r, BARRIER, "compute") - 1),
          below(0.20), "{:.1%}"),
]


class _SingleIteration:
    """One iteration of approach (a): read input, compute, return."""

    def __init__(self, key: str):
        self.key = key

    def run(self) -> None:
        from repro import current_environment

        current_environment().object_store.get(self.key)
        compute(COMPUTE_SECONDS, jitter_sigma=0.01)


class _AllIterations:
    """Approach (b): read once, iterate with a barrier."""

    def __init__(self, key: str, run_id: str, thread_id: int,
                 parties: int, iterations: int):
        self.key = key
        self.thread_id = thread_id
        self.iterations = iterations
        self.barrier = CyclicBarrier(f"{run_id}/barrier", parties)

    def run(self) -> None:
        from repro import current_environment

        current_environment().object_store.get(self.key)
        for _iteration in range(self.iterations):
            compute(COMPUTE_SECONDS, jitter_sigma=0.01)
            self.barrier.wait()


@dataclass
class BreakdownResult:
    #: approach -> phase -> total seconds (averaged over threads)
    phases: dict[str, dict[str, float]]
    threads: int = 0
    iterations: int = 0


def _phases_of_root(root: Span, tracer: Tracer) -> dict[str, float]:
    """Decompose one cloud thread's root span into the four phases."""
    subtree = tracer.subtree(root)
    runnable = next((s for s in subtree
                     if s.name.startswith("runnable:")), None)
    s3_read = sum(s.duration for s in subtree if s.name == "s3.get")
    sync = sum(s.duration for s in subtree
               if s.name.startswith("dso.invoke:_CyclicBarrier"))
    if runnable is None:
        return {"invocation": root.duration, "s3_read": s3_read,
                "compute": 0.0, "sync": sync}
    child_time = sum(s.duration for s in tracer.children_of(runnable))
    return {
        "invocation": root.duration - runnable.duration,
        "s3_read": s3_read,
        "compute": runnable.duration - child_time,
        "sync": sync,
    }


def run(threads: int = 10, iterations: int = 5,
        seed: int = 10) -> BreakdownResult:
    marker = {"a_end": 0}
    with CrucialEnvironment(seed=seed, dso_nodes=1,
                            trace_enabled=True) as env:
        tracer = env.kernel.tracer

        def main():
            for i in range(threads):
                env.object_store.seed(f"input-{i}", b"",
                                      nbytes=INPUT_BYTES)
            env.pre_warm(threads)

            # Approach (a): one stage per iteration.
            for _iteration in range(iterations):
                run_all([_SingleIteration(f"input-{i}")
                         for i in range(threads)])
            marker["a_end"] = tracer.spans[-1].span_id

            # Approach (b): one stage, barrier-synchronized.
            run_all([_AllIterations(f"input-{i}", "fig7b", i, threads,
                                    iterations)
                     for i in range(threads)])

        env.run(main)

        roots = [s for s in tracer.roots()
                 if s.name.startswith("cloudthread:")]

        def totals(approach_roots) -> dict[str, float]:
            """Each phase summed over a thread's iterations, averaged
            over the threads."""
            summed = {phase: 0.0 for phase in PHASES}
            for root in approach_roots:
                for phase, value in _phases_of_root(root, tracer).items():
                    summed[phase] += value / threads
            return summed

        phases = {
            STAGES: totals([r for r in roots
                            if r.span_id <= marker["a_end"]]),
            BARRIER: totals([r for r in roots
                             if r.span_id > marker["a_end"]])}
    return BreakdownResult(phases=phases, threads=threads,
                           iterations=iterations)


def report(result: BreakdownResult) -> str:
    rows = []
    for approach, totals in result.phases.items():
        rows.append([approach]
                    + [f"{totals[phase]:.2f}s" for phase in PHASES]
                    + [f"{sum(totals.values()):.2f}s"])
    table = render_table(
        ["approach"] + list(PHASES) + ["total"], rows,
        title=(f"Fig. 7b - iterative task breakdown, "
               f"{result.threads} threads x {result.iterations} "
               "iterations (derived from trace spans)"))
    return table + "\n" + claim_lines(CLAIMS, result)
