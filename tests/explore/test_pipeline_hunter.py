"""Hunters for the per-thread async pipeline (:mod:`repro.dso.pipeline`).

Each async queue belongs to one (endpoint, thread) pair: a thread's
barriers wait for its own ops only, and batches of different queues
overlap.  Two planted mutations (:mod:`repro.mutation`) weaken the two
mechanisms that keep that safe, and each hunter must catch its mutant
within a bounded trial budget and stay quiet without it:

* ``"no-own-barrier"`` — a synchronous verb skips draining the calling
  thread's own queue.  Threads sharing an endpoint run random
  ``invoke_async`` / ``invoke`` / ``flush`` plans; the oracle is
  per-thread program order: restricted to one thread, every object's
  log is that thread's all-synchronous plan for it.
* ``"ack-max"`` — the session watermark is the highest answered seq
  instead of the contiguous one.  One thread's session ships through
  two endpoints, so two of its batches overlap: an op whose reply is
  cut off by a partition retries while a later stamp, carrying the
  watermark, reaches the same object first.  The oracle is exactly
  once: the object's final value equals the acknowledged increments.
"""

import random

from repro import ExplorationRunner
from repro.dso import DsoReference
from repro.mutation import mutation
from repro.simulation.thread import sleep, spawn

TRIALS = 4  # bounded budget: each planted bug must surface within these

# ---------------------------------------------------------------------------
# no-own-barrier: per-thread program order on a shared endpoint
# ---------------------------------------------------------------------------


class Log:
    """Order-sensitive state machine: a strictly appended log."""

    def __init__(self):
        self.entries = []

    def append(self, entry):
        self.entries.append(entry)
        return len(self.entries)

    def snapshot(self):
        return list(self.entries)


LOGS = [DsoReference("Log", f"hunt-{index}") for index in range(3)]
LOG_CTOR = (Log, (), {})
PLAN_STEPS = 16


def plans(trial):
    """Two threads' ``(kind, object index)`` plans, drawn per trial."""
    rnd = random.Random(trial.seed)
    return {who: [(rnd.choice(("async", "async", "sync", "flush")),
                   rnd.randrange(len(LOGS))) for _ in range(PLAN_STEPS)]
            for who in "ab"}


def ordering_workload(trial):
    with trial.environment(dso_nodes=3) as env:
        layer, client = env.dso, env.client_endpoint

        def submitter(who, plan):
            for step, (kind, index) in enumerate(plan):
                if kind == "async":
                    layer.invoke_async(client, LOGS[index], "append",
                                       ((who, step),), ctor=LOG_CTOR)
                elif kind == "sync":
                    layer.invoke(client, LOGS[index], "append",
                                 ((who, step),), ctor=LOG_CTOR)
                else:
                    layer.flush(client)
            layer.flush(client)

        def main():
            for ref in LOGS:
                layer.invoke(client, ref, "snapshot", ctor=LOG_CTOR)
            threads = [spawn(submitter, who, plan)
                       for who, plan in plans(trial).items()]
            for thread in threads:
                thread.join()
            return [layer.invoke(client, ref, "snapshot", ctor=LOG_CTOR)
                    for ref in LOGS]

        return env.run(main)


def program_order(trial, logs):
    for index, log in enumerate(logs):
        for who, plan in plans(trial).items():
            mine = [step for owner, step in log if owner == who]
            expected = [step for step, (kind, target) in enumerate(plan)
                        if kind != "flush" and target == index]
            assert mine == expected, (
                f"thread {who} on {LOGS[index].key}: {mine} != its "
                f"all-sync plan {expected}")
    return True


def explore_ordering():
    return ExplorationRunner(
        ordering_workload, trials=TRIALS, base_seed=42, scheduler="random",
        scheduler_opts={"preempt_prob": 0.1},
        invariants=[program_order], shrink=False).run()


def test_hunter_finds_a_sync_verb_overtaking_its_own_queue():
    with mutation("no-own-barrier"):
        report = explore_ordering()
    assert report.failures, (
        f"planted barrier bug not found within {TRIALS} trials:\n"
        + report.summary())
    assert any("program_order" in p for p in report.failures[0].problems), \
        report.failures[0].describe()


def test_ordering_hunter_is_quiet_with_the_barrier_on():
    report = explore_ordering()
    assert report.ok, report.summary()


# ---------------------------------------------------------------------------
# ack-max: exactly-once across two overlapping queues of one session
# ---------------------------------------------------------------------------


class Counter:
    def __init__(self):
        self.value = 0

    def add(self, delta):
        self.value += delta
        return self.value

    def get(self):
        return self.value


COUNTER_CTOR = (Counter, (), {})
TARGET = DsoReference("Counter", "hunt-target")
OTHER = DsoReference("Counter", "hunt-other")
#: Server-side seconds of the first increment: the window in which its
#: reply is cut off.
SLOW = 0.005


def watermark_workload(trial):
    """One thread, two endpoints.  ``c1`` ships a slow increment of
    TARGET and loses the reply to a partition (seed-jittered start),
    so it retries after the heal; meanwhile ``c2`` answers an op on
    OTHER and then increments TARGET itself, its stamp carrying the
    session's watermark."""
    rnd = random.Random(trial.seed)
    cut_after = 0.0005 + rnd.random() * 0.004  # inside the slow op
    with trial.environment(dso_nodes=3) as env:
        layer, network = env.dso, env.network

        def main():
            for ref in (TARGET, OTHER):
                layer.invoke("c1", ref, "get", ctor=COUNTER_CTOR)
            primary = layer.placement_of(TARGET)[0]
            start = env.now
            first = layer.invoke_async("c1", TARGET, "add", (1,),
                                       ctor=COUNTER_CTOR, cost=SLOW)
            env.kernel.call_later(
                cut_after, lambda: network.partition({"c1"}, {primary}))
            env.kernel.call_later(
                0.1, lambda: network.unpartition({"c1"}, {primary}))
            sleep(0.001)
            layer.invoke_async("c2", OTHER, "add", (1,),
                               ctor=COUNTER_CTOR).result()
            layer.invoke_async("c2", TARGET, "add", (1,),
                               ctor=COUNTER_CTOR).result()
            first.result()
            assert env.now - start > 0.1, "the first reply was not cut off"
            return layer.invoke("c1", TARGET, "get", ctor=COUNTER_CTOR)

        return env.run(main)


def exactly_once(trial, final):
    assert final == 2, f"two acknowledged increments, final value {final}"
    return True


def explore_watermark():
    return ExplorationRunner(
        watermark_workload, trials=TRIALS, base_seed=42, scheduler="random",
        scheduler_opts={"preempt_prob": 0.05},
        invariants=[exactly_once], shrink=False).run()


def test_hunter_finds_a_retry_reexecuted_under_a_max_watermark():
    with mutation("ack-max"):
        report = explore_watermark()
    assert report.failures, (
        f"planted watermark bug not found within {TRIALS} trials:\n"
        + report.summary())
    assert any("exactly_once" in p for p in report.failures[0].problems), \
        report.failures[0].describe()


def test_watermark_hunter_is_quiet_with_the_contiguous_watermark():
    report = explore_watermark()
    assert report.ok, report.summary()
