"""The exploration runner: one workload, many reproducible schedules.

:class:`ExplorationRunner` replays a workload closure for ``trials``
runs, each under a fresh kernel whose scheduler is seeded differently,
and checks every run with the linearizability checker plus
user-supplied invariants.  A failing trial reports its exploration
seed and full :class:`~repro.explore.scheduler.ScheduleTrace` (enough
to replay the exact interleaving), is greedily *shrunk* to a minimal
failing decision prefix, and can be dumped as a JSON artifact for CI.

Composition with the rest of the correctness tooling:

* **chaos** — ``fault_plans`` attaches a (per-trial)
  :class:`~repro.chaos.plan.FaultPlan` to each trial; the workload
  schedules it into its own :class:`~repro.chaos.injector.\
ChaosInjector`, so fault timing and schedule perturbation compose in
  one run.
* **trace** — ``trace=True`` enables the tracer per trial; each
  result carries its span list and exports a Chrome trace tagged with
  the trial's schedule id, byte-identical across replays of the same
  seed.
* **linearizability** — the trial's :class:`HistoryRecorder` feeds
  the (P-compositional) checker after every run.

The runner never runs the workload concurrently with itself: trials
are sequential, each in its own kernel, so exploration inherits the
simulation's determinism wholesale.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.chaos.plan import FaultPlan
from repro.explore.scheduler import (
    FifoScheduler,
    PctScheduler,
    RandomScheduler,
    ReplayScheduler,
    ScheduleDecision,
    Scheduler,
    ScheduleTrace,
)
from repro.linearizability.checker import LinearizabilityChecker
from repro.linearizability.history import HistoryRecorder, Operation
from repro.simulation.kernel import Kernel

#: Registry of named scheduler strategies (``scheduler="random"``...).
SCHEDULERS: dict[str, Callable[..., Scheduler]] = {
    "fifo": lambda seed=0, **opts: FifoScheduler(),
    "random": RandomScheduler,
    "pct": PctScheduler,
}

#: Replays one failing trial's shrinking may spend.
MAX_SHRINK_RUNS = 32


class Trial:
    """Everything one exploration trial hands to the workload."""

    def __init__(self, index: int, seed: int, workload_seed: int,
                 kernel: Kernel, scheduler: Scheduler,
                 fault_plan: FaultPlan | None = None):
        self.index = index
        #: Exploration seed: drives the scheduler only.
        self.seed = seed
        #: Kernel seed: drives the workload's modelled randomness.
        self.workload_seed = workload_seed
        self.kernel = kernel
        self.scheduler = scheduler
        #: Records DSO operations for the per-trial linearizability
        #: check; pass ``key=`` so the checker can partition by object.
        self.recorder = HistoryRecorder(clock=lambda: kernel.now)
        #: The fault plan this trial composes with (``fault_plans``
        #: option); the workload schedules it into its injector.
        self.fault_plan = fault_plan

    @property
    def schedule_id(self) -> str:
        """Replayable identity of this trial's schedule."""
        return (f"{self.scheduler.kind}:seed={self.seed}"
                f":wseed={self.workload_seed}")

    def environment(self, **kwargs) -> Any:
        """A :class:`repro.CrucialEnvironment` wired to this trial's
        kernel (convenience for workload closures)."""
        from repro.core.runtime import CrucialEnvironment

        return CrucialEnvironment(kernel=self.kernel, **kwargs)


@dataclass
class ShrinkResult:
    """Outcome of shrinking one failing schedule."""

    #: Minimal failing decision prefix (replay these, FIFO after).
    decisions: list[ScheduleDecision]
    #: Decisions the original failing schedule carried.
    original_length: int
    #: Re-runs the search spent.
    runs: int
    #: Whether the minimal prefix was re-verified to fail.
    verified: bool

    @property
    def prefix_length(self) -> int:
        return len(self.decisions)


@dataclass
class TrialResult:
    """One explored run: schedule identity, verdicts, evidence."""

    index: int
    seed: int
    workload_seed: int
    schedule_id: str
    fingerprint: str
    schedule: ScheduleTrace
    problems: list[str]
    value: Any = None
    error: str | None = None
    history: list[Operation] = field(default_factory=list)
    spans: list = field(default_factory=list)
    shrunk: ShrinkResult | None = None

    @property
    def ok(self) -> bool:
        return not self.problems

    def chrome_trace(self) -> str:
        """Chrome/Perfetto trace of this trial, tagged with its
        schedule id (byte-identical across replays of the seed)."""
        from repro.trace.export import chrome_trace_json

        return chrome_trace_json(
            self.spans, metadata={"schedule_id": self.schedule_id,
                                  "fingerprint": self.fingerprint})

    def span_tree(self, **kwargs) -> str:
        from repro.trace.export import span_tree

        header = f"schedule {self.schedule_id} ({self.fingerprint})"
        return header + "\n" + span_tree(self.spans, **kwargs)

    def describe(self) -> str:
        lines = [f"trial {self.index} [{self.schedule_id}] "
                 f"fingerprint={self.fingerprint}: "
                 + ("ok" if self.ok else "FAILED")]
        lines += [f"  problem: {p.splitlines()[0]}" for p in self.problems]
        if self.shrunk is not None:
            lines.append(
                f"  shrunk to {self.shrunk.prefix_length} of "
                f"{self.shrunk.original_length} schedule decisions")
        return "\n".join(lines)


@dataclass
class ExplorationReport:
    """What :meth:`ExplorationRunner.run` returns."""

    results: list[TrialResult]

    @property
    def failures(self) -> list[TrialResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def distinct_schedules(self) -> int:
        """Number of distinct interleavings actually exercised."""
        return len({r.fingerprint for r in self.results})

    def summary(self) -> str:
        lines = [f"explored {len(self.results)} trial(s), "
                 f"{self.distinct_schedules} distinct schedule(s), "
                 f"{len(self.failures)} failure(s)"]
        for result in self.failures:
            lines.append(result.describe())
        return "\n".join(lines)

    def dump_artifacts(self, directory: str) -> list[str]:
        """Write one JSON artifact per failing trial (CI uploads
        these); returns the paths written."""
        os.makedirs(directory, exist_ok=True)
        paths = []
        for result in self.failures:
            shrunk = result.shrunk
            doc = {
                "schedule_id": result.schedule_id,
                "seed": result.seed,
                "workload_seed": result.workload_seed,
                "fingerprint": result.fingerprint,
                "problems": result.problems,
                "error": result.error,
                "decisions": [
                    {"step": d.step, "time": d.time,
                     "options": list(d.options), "chosen": d.chosen,
                     "delay": d.delay}
                    for d in result.schedule.decisions],
                "shrunk_prefix": None if shrunk is None else [
                    {"step": d.step, "time": d.time,
                     "options": list(d.options), "chosen": d.chosen,
                     "delay": d.delay}
                    for d in shrunk.decisions],
            }
            path = os.path.join(
                directory, f"failing-schedule-{result.index}-"
                           f"seed{result.seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, indent=1)
            paths.append(path)
        return paths


class ExplorationRunner:
    """Run one workload under many deterministic schedules.

    ``workload`` is a closure ``(trial) -> value``: it builds its
    deployment around ``trial.kernel`` (e.g. via
    ``trial.environment(...)``), drives it, and records shared-object
    calls through ``trial.recorder``.  After each trial the runner
    checks the recorded history with ``checker`` (if given) and every
    entry of ``invariants`` — callables ``(trial, value)`` returning a
    truth value (or raising ``AssertionError``) — and collects
    failures with their full schedule traces.

    Determinism contract: trial ``i`` always runs under exploration
    seed ``base_seed + i``; the same ``(workload, base_seed)`` pair
    yields byte-identical schedule decisions, histories, and trace
    exports.  Different seeds explore genuinely different
    interleavings (distinct schedule fingerprints).
    """

    def __init__(self, workload: Callable[[Trial], Any], *,
                 trials: int = 10, base_seed: int = 0,
                 scheduler: str = "random",
                 scheduler_opts: dict[str, Any] | None = None,
                 workload_seed: int = 0,
                 checker: LinearizabilityChecker | None = None,
                 invariants: Iterable[Callable[[Trial, Any], Any]] = (),
                 fault_plans: "FaultPlan | Callable[[Trial], FaultPlan] | None" = None,
                 trace: bool = False, shrink: bool = True,
                 artifact_dir: str | None = None):
        if scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {scheduler!r}; "
                             f"choose from {sorted(SCHEDULERS)}")
        self.workload = workload
        self.trials = trials
        self.base_seed = base_seed
        self.scheduler_kind = scheduler
        self.scheduler_opts = dict(scheduler_opts or {})
        self.workload_seed = workload_seed
        self.checker = checker
        self.invariants = tuple(invariants)
        self.fault_plans = fault_plans
        self.trace = trace
        self.shrink = shrink
        self.artifact_dir = artifact_dir

    # -- seeds ----------------------------------------------------------

    def _exploration_seed(self, index: int) -> int:
        return self.base_seed + index

    def _make_scheduler(self, seed: int) -> Scheduler:
        return SCHEDULERS[self.scheduler_kind](seed=seed,
                                               **self.scheduler_opts)

    # -- one trial ------------------------------------------------------

    def _execute(self, index: int, seed: int,
                 scheduler: Scheduler) -> TrialResult:
        kernel = Kernel(seed=self.workload_seed, scheduler=scheduler,
                        name=f"explore-{index}")
        if self.trace:
            kernel.enable_tracing()
        trial = Trial(index=index, seed=seed,
                      workload_seed=self.workload_seed, kernel=kernel,
                      scheduler=scheduler)
        if self.fault_plans is not None:
            trial.fault_plan = (self.fault_plans(trial)
                                if callable(self.fault_plans)
                                else self.fault_plans)
        problems: list[str] = []
        value, error = None, None
        try:
            value = self.workload(trial)
        except Exception as exc:  # noqa: BLE001 - a finding, not a crash
            error = f"{type(exc).__name__}: {exc}"
            problems.append(f"workload raised {error}")
        finally:
            spans = list(kernel.tracer.spans) if self.trace else []
            kernel.close()
        if error is None:
            problems += self._evaluate(trial, value)
        return TrialResult(
            index=index, seed=seed, workload_seed=self.workload_seed,
            schedule_id=trial.schedule_id,
            fingerprint=scheduler.trace.fingerprint(),
            schedule=scheduler.trace, problems=problems, value=value,
            error=error, history=list(trial.recorder.operations),
            spans=spans)

    def _evaluate(self, trial: Trial, value: Any) -> list[str]:
        problems = []
        if self.checker is not None and trial.recorder.operations:
            operations = trial.recorder.operations
            if not self.checker.check(operations):
                problems.append("history not linearizable:\n"
                                + self.checker.explain(operations))
        for invariant in self.invariants:
            name = getattr(invariant, "__name__", repr(invariant))
            try:
                verdict = invariant(trial, value)
            except AssertionError as exc:
                problems.append(f"invariant {name} failed: {exc}")
                continue
            if verdict is not None and not verdict:
                problems.append(f"invariant {name} returned falsy "
                                f"({verdict!r})")
        return problems

    # -- the exploration loop -------------------------------------------

    def run(self) -> ExplorationReport:
        results = []
        for index in range(self.trials):
            seed = self._exploration_seed(index)
            result = self._execute(index, seed,
                                   self._make_scheduler(seed))
            if not result.ok and self.shrink:
                result.shrunk = self._shrink(result)
            results.append(result)
        report = ExplorationReport(results=results)
        if self.artifact_dir is not None and report.failures:
            report.dump_artifacts(self.artifact_dir)
        return report

    def replay(self, result: TrialResult,
               prefix: int | None = None) -> TrialResult:
        """Re-run one trial's exact schedule (or a decision prefix of
        it, FIFO afterwards) — the reproduce-from-artifact path."""
        decisions = result.schedule.decisions
        if prefix is not None:
            decisions = decisions[:prefix]
        return self._execute(result.index, result.seed,
                             ReplayScheduler(list(decisions)))

    # -- shrinking ------------------------------------------------------

    def _shrink(self, failing: TrialResult) -> ShrinkResult | None:
        """Greedy prefix shrinking: find the shortest decision prefix
        that still fails when everything after it runs FIFO.

        Effective decisions are what matters — the search first drops
        the all-FIFO tail, then bisects on the remaining prefix
        length.  Bisection assumes prefix-monotonicity (usually true:
        the bug-triggering reordering lives in the prefix); the result
        is re-verified, so a non-monotone failure can only make the
        reported prefix longer than optimal, never wrong.
        """
        decisions = failing.schedule.decisions
        runs = 0

        def fails(prefix_length: int) -> bool:
            nonlocal runs
            runs += 1
            probe = self._execute(failing.index, failing.seed,
                                  ReplayScheduler(
                                      list(decisions[:prefix_length])))
            return not probe.ok

        # Drop the trailing decisions that already equal FIFO.
        effective_end = 0
        for position, decision in enumerate(decisions):
            if decision.chosen > 0 or decision.delay > 0:
                effective_end = position + 1
        if runs >= MAX_SHRINK_RUNS or not fails(effective_end):
            return None  # not schedule-reproducible; keep the raw trace
        low, high = 0, effective_end
        while low < high and runs < MAX_SHRINK_RUNS - 1:
            mid = (low + high) // 2
            if fails(mid):
                high = mid
            else:
                low = mid + 1
        verified = fails(high) if high != effective_end else True
        return ShrinkResult(decisions=list(decisions[:high]),
                            original_length=len(decisions), runs=runs,
                            verified=verified)
