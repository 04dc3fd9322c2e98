"""Pluggable schedulers: the kernel's scheduling-point strategies.

The deterministic kernel dispatches events in ``(time, seq)`` order, so
one seed exercises exactly one interleaving.  A scheduler attached via
``Kernel(scheduler=...)`` turns every dispatch into a *scheduling
point*: all events ready at the minimum virtual time are offered to it
and it decides which runs first — and whether to preempt it with a
bounded extra delay.  Because virtual time only moves forward, every
choice a scheduler can make corresponds to a physically realisable
execution (a thread that ran a little later, a message that arrived a
little slower), so perturbed runs explore *real* interleavings, never
impossible ones.

Three strategies, in the spirit of controlled concurrency testing
(Coyote / PCT, "A Randomized Scheduler with Probabilistic Guarantees
of Finding Bugs"):

* :class:`FifoScheduler` — always picks the lowest sequence number and
  never delays: decision-for-decision identical to running without a
  scheduler.  The degenerate case, and the fallback tail during
  shrinking.
* :class:`RandomScheduler` — shuffles same-timestamp ties uniformly
  and, with probability ``preempt_prob`` (up to ``max_preemptions``
  times per run), delays the chosen event by ``PREEMPT_DELAY`` virtual
  seconds, letting nearby events overtake it.
* :class:`PctScheduler` — priority-based: each task (simulated thread,
  or the timer class) gets a random priority on first sight, the
  highest-priority ready task always runs, and at ``depth - 1``
  pre-drawn change points the running task's priority is demoted below
  everything — the PCT schedule construction, which finds any bug of
  depth ``d`` with probability >= 1/(n * k^(d-1)).

Every scheduler draws all decisions from one ``numpy`` generator
seeded at construction and records them in a :class:`ScheduleTrace`,
so a schedule is a pure function of ``(scheduler kind, exploration
seed, workload)``: replaying the same seed reproduces the run event
for event, and :class:`ReplayScheduler` replays a recorded decision
prefix (FIFO after it) — the primitive behind schedule shrinking.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.simulation.kernel import Timer

#: Virtual seconds a :class:`RandomScheduler` preemption delays the
#: chosen event by.
PREEMPT_DELAY = 100e-6


@dataclass(frozen=True)
class ScheduleDecision:
    """One recorded scheduling-point outcome."""

    #: 0-based scheduling-point counter within the run.
    step: int
    #: Virtual time of the point.
    time: float
    #: Labels of the candidate events, in FIFO order.
    options: tuple[str, ...]
    #: Index (into ``options``) of the event chosen to run.
    chosen: int
    #: Extra virtual delay injected before the chosen event (0 = ran).
    delay: float


@dataclass
class ScheduleTrace:
    """The full decision record of one explored run."""

    decisions: list[ScheduleDecision] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.decisions)

    def fingerprint(self) -> str:
        """Stable digest of the decision sequence.

        Two runs interleaved identically share a fingerprint; distinct
        fingerprints prove distinct schedules.  Only *effective*
        decisions count — points with a single candidate and no delay
        cannot reorder anything and are excluded, so the FIFO schedule
        of every workload fingerprints to the same value regardless of
        how many trivial points it passed through.
        """
        effective = [d for d in self.decisions
                     if len(d.options) > 1 or d.delay > 0 or d.chosen > 0]
        payload = ";".join(
            f"{d.step}:{d.chosen}:{d.delay:.9f}" for d in effective)
        return f"{zlib.crc32(payload.encode('ascii')):08x}"

    def describe(self, limit: int = 20) -> str:
        """Human-readable dump of the first ``limit`` effective
        decisions (single-candidate no-op points are elided)."""
        lines = []
        for d in self.decisions:
            if len(d.options) <= 1 and d.delay == 0 and d.chosen == 0:
                continue
            note = f" delay={d.delay:.6f}" if d.delay > 0 else ""
            lines.append(f"step {d.step} t={d.time:.6f} "
                         f"chose {d.options[d.chosen]!r} "
                         f"of {list(d.options)}{note}")
            if len(lines) >= limit:
                lines.append("...")
                break
        return "\n".join(lines) or "(FIFO: no effective decisions)"


def _label(item) -> str:
    """Stable label of a schedulable event (for traces and PCT
    priorities): the owning thread's name, or the timer class."""
    if isinstance(item, Timer):
        return "timer"
    return item.thread.name


class Scheduler:
    """Base scheduler: FIFO choice, no delays, full decision trace.

    Subclasses override :meth:`_choose` (index into the candidate
    list) and/or :meth:`_delay` (extra virtual seconds, >= 0, bounded).
    ``decide`` itself handles recording and the step counter, so every
    strategy produces a replayable :class:`ScheduleTrace`.
    """

    kind = "fifo"

    def __init__(self) -> None:
        self.trace = ScheduleTrace()
        self.steps = 0

    def decide(self, time: float, entries: list) -> tuple[int, float]:
        """One scheduling point (called by ``Kernel._next_event``).

        ``entries`` are ``(seq, item)`` pairs in FIFO order; returns
        ``(index, delay)``.
        """
        labels = tuple(_label(item) for _seq, item in entries)
        index = self._choose(time, labels, entries) if len(entries) > 1 \
            else 0
        delay = self._delay(time, labels[index], entries[index][1])
        self.trace.decisions.append(ScheduleDecision(
            step=self.steps, time=time, options=labels,
            chosen=index, delay=delay))
        self.steps += 1
        return index, delay

    def _choose(self, time: float, labels: tuple[str, ...],
                entries: list) -> int:
        return 0

    def _delay(self, time: float, label: str, item) -> float:
        return 0.0


class FifoScheduler(Scheduler):
    """The kernel's native ``(time, seq)`` order, made explicit."""


class RandomScheduler(Scheduler):
    """Seeded uniform tie-break shuffling plus bounded preemptions.

    ``preempt_prob`` is evaluated per scheduling point; a hit delays
    the chosen event by ``PREEMPT_DELAY`` virtual seconds (pushing it
    behind anything due sooner), up to ``max_preemptions`` per run so
    exploration cannot livelock a workload.
    """

    kind = "random"

    def __init__(self, seed: int = 0, preempt_prob: float = 0.0,
                 max_preemptions: int = 50):
        super().__init__()
        self.seed = seed
        self.preempt_prob = preempt_prob
        self.max_preemptions = max_preemptions
        self.preemptions = 0
        self._rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([0x5EED, seed])))

    def _choose(self, time, labels, entries):
        return int(self._rng.integers(0, len(entries)))

    def _delay(self, time, label, item):
        if (self.preempt_prob <= 0
                or self.preemptions >= self.max_preemptions):
            return 0.0
        if float(self._rng.random()) >= self.preempt_prob:
            return 0.0
        self.preemptions += 1
        return PREEMPT_DELAY


class PctScheduler(Scheduler):
    """Probabilistic concurrency testing: random priorities plus
    ``depth - 1`` priority-change points.

    Tasks are identified by label (thread name / ``"timer"``).  Each
    new label draws a distinct random priority; at every scheduling
    point the highest-priority candidate runs (FIFO among its own
    events).  ``depth - 1`` change steps are pre-drawn uniformly from
    ``[1, expected_steps]``; when the step counter crosses one, the
    task chosen at that point is demoted below every existing
    priority.  ``depth=1`` degenerates to a fixed random priority
    order with no demotions.
    """

    kind = "pct"

    def __init__(self, seed: int = 0, depth: int = 3,
                 expected_steps: int = 1000):
        super().__init__()
        if depth < 1:
            raise ValueError(f"depth must be >= 1: {depth}")
        self.seed = seed
        self.depth = depth
        self._rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([0x9C7, seed])))
        self._priorities: dict[str, float] = {}
        #: Lowest priority handed out so far; demotions go below it.
        self._floor = 0.0
        self._change_steps = sorted(
            int(s) for s in self._rng.integers(
                1, max(2, expected_steps), size=depth - 1))

    def _priority(self, label: str) -> float:
        priority = self._priorities.get(label)
        if priority is None:
            priority = float(self._rng.random())
            self._priorities[label] = priority
        return priority

    def _choose(self, time, labels, entries):
        best = 0
        best_priority = self._priority(labels[0])
        for index in range(1, len(labels)):
            priority = self._priority(labels[index])
            if priority > best_priority:
                best, best_priority = index, priority
        if self._change_steps and self.steps >= self._change_steps[0]:
            self._change_steps.pop(0)
            self._floor -= 1.0
            self._priorities[labels[best]] = self._floor
        return best


class ReplayScheduler(Scheduler):
    """Replays a recorded decision prefix, FIFO afterwards.

    Replay is positional: determinism guarantees that re-running the
    same workload under the same decisions reproduces the same
    scheduling points, so decision ``i`` always meets the candidate
    set it was recorded against.  Truncating the prefix is how
    :func:`repro.explore.runner.shrink_schedule` searches for the
    minimal failing schedule: everything after the prefix falls back
    to the native FIFO order.
    """

    kind = "replay"

    def __init__(self, decisions: list[ScheduleDecision] | ScheduleTrace):
        super().__init__()
        if isinstance(decisions, ScheduleTrace):
            decisions = decisions.decisions
        self._decisions = list(decisions)

    def decide(self, time, entries):
        index, delay = 0, 0.0
        if self.steps < len(self._decisions):
            decision = self._decisions[self.steps]
            if decision.chosen < len(entries):
                index = decision.chosen
            delay = decision.delay
        labels = tuple(_label(item) for _seq, item in entries)
        self.trace.decisions.append(ScheduleDecision(
            step=self.steps, time=time, options=labels,
            chosen=index, delay=delay))
        self.steps += 1
        return index, delay
