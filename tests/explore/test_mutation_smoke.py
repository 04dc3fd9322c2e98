"""Mutation smoke test: the fuzzer must catch a real planted bug.

The ``"no-backup-dedup"`` mutation (:mod:`repro.mutation`) disables
the backup-side session lookup in ``DsoNode.replicate``,
re-introducing a classic exactly-once bug: when a write half-replicates
(one backup applied, another unreachable), the client's retransmission
dedups at the primary and *re-replicates* — and without the lookup the
already-applied backup applies the increment again.  The double-apply
is latent until that backup is promoted.

The workload plants exactly that minefield — a partition between the
primary and the far backup across a write window, then a primary crash
— and the exploration runner must find the resulting over-count within
a small trial budget.  With the hook off (the shipped code), the same
budget must come back clean: the detector has no false positives.
"""

import random

from repro import (
    AtomicLong,
    ExplorationRunner,
    LinearizabilityChecker,
)
from repro.chaos import ChaosInjector, FaultPlan
from repro.config import DEFAULT_CONFIG
from repro.mutation import mutation
from repro.simulation.thread import sleep

KEY = "mutation-counter"
WRITES = 8
TRIALS = 6  # bounded budget: the bug must surface within these


class CounterSpec:
    """Sequential specification of AtomicLong for the checker."""

    def __init__(self):
        self.value = 0

    def add_and_get(self, delta):
        self.value += delta
        return self.value

    def get(self):
        return self.value


def workload(trial):
    """Eight spaced increments across a primary<->far-backup partition,
    then a primary crash, then a read from the promoted backup."""
    rnd = random.Random(trial.seed)
    part_at = 0.2 + rnd.random() * 0.6
    part_len = 0.8 + rnd.random() * 0.8  # < failure_detection: no view change
    with trial.environment(dso_nodes=3) as env:
        injector = ChaosInjector(env.kernel, network=env.network,
                                 dso=env.dso)

        def main():
            counter = AtomicLong(KEY, 0, persistent=True, rf=3)
            counter.get()  # create and place before the chaos starts
            placement = env.dso.placement_of(counter.ref)
            primary, far_backup = placement[0], placement[2]
            plan = FaultPlan()
            plan.add(part_at, "partition",
                     groups=((primary,), (far_backup,)),
                     duration=part_len)
            plan.add(part_at + part_len + 1.0, "crash_node", primary)
            injector.schedule(plan)
            for _ in range(WRITES):
                trial.recorder.record(
                    "writer", "add_and_get", (1,),
                    lambda: counter.add_and_get(1), key=KEY)
                sleep(0.3)
            # Let detection promote the (possibly poisoned) backup.
            sleep(DEFAULT_CONFIG.dso.failure_detection + 3.0)
            return trial.recorder.record(
                "writer", "get", (), counter.get, key=KEY)

        return env.run(main)


def exact_count(trial, value):
    assert value == WRITES, \
        f"expected exactly {WRITES} increments, read {value}"
    return True


def explore():
    return ExplorationRunner(
        workload, trials=TRIALS, base_seed=42, scheduler="random",
        scheduler_opts={"preempt_prob": 0.05},
        checker=LinearizabilityChecker(CounterSpec),
        invariants=[exact_count], shrink=False).run()


def test_fuzzer_finds_the_planted_double_apply():
    with mutation("no-backup-dedup"):
        report = explore()
    assert report.failures, (
        "planted exactly-once bug not found within "
        f"{TRIALS} trials:\n" + report.summary())
    failure = report.failures[0]
    # The over-count is caught by the invariant...
    assert any("exact_count" in p for p in failure.problems), \
        failure.describe()
    # ...and independently by the linearizability checker.
    assert any("not linearizable" in p for p in failure.problems), \
        failure.describe()
    # Every failure carries its reproduction handle.
    for failing in report.failures:
        assert failing.schedule_id
        assert failing.schedule.decisions


def test_no_false_positives_without_the_mutation():
    report = explore()
    assert report.ok, report.summary()
