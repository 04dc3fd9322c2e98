"""Hunters for the fan-outs of a flush (:mod:`repro.dso.pipeline`).

A flush fans out twice: its per-primary groups ship concurrently, and
each primary runs its group as concurrent per-object chains.  Both go
through one helper that joins every lane and re-raises a transient
failure.  Two planted mutations (:mod:`repro.mutation`) break it, and
each hunter must catch its mutant within a bounded trial budget and
stay quiet without it:

* ``"chain-per-op"`` — a primary keys chains by op instead of by
  object, so one object's ops of a batch race for its lock.  One
  thread appends a random plan to three logs on one node and flushes;
  the oracle is per-object order: every log is the thread's all-sync
  plan for it.
* ``"swallow-lane-error"`` — the helper drops a lane's transient
  failure at join.  rf=2 logs on several primaries take a flush, and
  a primary whose group runs on a lane crashes mid-flight.  The oracle
  is that every op settles and ``final == acked``.
"""

import random

from repro import ExplorationRunner
from repro.dso import DsoReference
from repro.mutation import mutation
from repro.simulation.thread import sleep

TRIALS = 4  # bounded budget: each planted bug must surface within these


class Log:
    """Order-sensitive state machine: a strictly appended log."""

    def __init__(self):
        self.entries = []

    def append(self, entry):
        self.entries.append(entry)
        return len(self.entries)

    def snapshot(self):
        return list(self.entries)


CTOR = (Log, (), {})
PLAN_STEPS = 12


# ---------------------------------------------------------------------------
# chain-per-op: one object's ops of a group stay in submission order
# ---------------------------------------------------------------------------

ONE_NODE_LOGS = [DsoReference("Log", f"chain-{index}") for index in range(3)]


def order_plan(trial):
    """Which log each step appends to, drawn per trial."""
    rnd = random.Random(trial.seed)
    return [rnd.randrange(len(ONE_NODE_LOGS)) for _ in range(PLAN_STEPS)]


def chain_workload(trial):
    with trial.environment(dso_nodes=1) as env:
        layer, client = env.dso, env.client_endpoint

        def main():
            for ref in ONE_NODE_LOGS:
                layer.invoke(client, ref, "snapshot", ctor=CTOR)
            for step, index in enumerate(order_plan(trial)):
                layer.invoke_async(client, ONE_NODE_LOGS[index], "append",
                                   (step,), ctor=CTOR)
            layer.flush(client)
            return [layer.invoke(client, ref, "snapshot", ctor=CTOR)
                    for ref in ONE_NODE_LOGS]

        return env.run(main)


def per_object_order(trial, logs):
    plan = order_plan(trial)
    for index, log in enumerate(logs):
        expected = [step for step, target in enumerate(plan)
                    if target == index]
        assert log == expected, (
            f"{ONE_NODE_LOGS[index].key}: {log} != its all-sync plan "
            f"{expected}")
    return True


def explore_chains():
    return ExplorationRunner(
        chain_workload, trials=TRIALS, base_seed=42, scheduler="random",
        scheduler_opts={"preempt_prob": 0.1},
        invariants=[per_object_order], shrink=False).run()


def test_hunter_finds_one_objects_ops_racing_inside_a_group():
    with mutation("chain-per-op"):
        report = explore_chains()
    assert report.failures, (
        f"planted chain bug not found within {TRIALS} trials:\n"
        + report.summary())
    assert any("per_object_order" in p
               for p in report.failures[0].problems), \
        report.failures[0].describe()


def test_chain_hunter_is_quiet_with_chains_per_object():
    report = explore_chains()
    assert report.ok, report.summary()


# ---------------------------------------------------------------------------
# swallow-lane-error: a crashed lane's ops still settle, final == acked
# ---------------------------------------------------------------------------

RF2_LOGS = [DsoReference("Log", f"lane-{index}", persistent=True, rf=2)
            for index in range(4)]


def crash_workload(trial):
    """Appends over four rf=2 logs, the first to ``RF2_LOGS[0]`` (so
    its primary's group runs inline on the window's pump); the flush
    window ships them, and another primary — a lane's — crashes at a
    seed-drawn instant while its group executes."""
    rnd = random.Random(trial.seed)
    plan = [0] + [rnd.randrange(len(RF2_LOGS)) for _ in range(PLAN_STEPS - 1)]
    crash_after = 300e-6 + rnd.random() * 400e-6
    with trial.environment(dso_nodes=4) as env:
        layer, client = env.dso, env.client_endpoint

        def main():
            for ref in RF2_LOGS:
                layer.invoke(client, ref, "snapshot", ctor=CTOR)
            primaries = [layer.placement_of(ref)[0] for ref in RF2_LOGS]
            victim = next(primary for primary in primaries[1:]
                          if primary != primaries[0])
            if victim not in {primaries[index] for index in plan}:
                plan.append(primaries.index(victim))
            futures = [(index, step, layer.invoke_async(
                            client, RF2_LOGS[index], "append", (step,),
                            ctor=CTOR))
                       for step, index in enumerate(plan)]
            sleep(crash_after)  # past the flush window, mid-execution
            layer.crash_node(victim)
            layer.flush(client)
            unsettled = sum(not future.done for _, _, future in futures)
            acked = {ref.key: [] for ref in RF2_LOGS}
            for index, step, future in futures:
                if future.done and future.exception() is None:
                    acked[RF2_LOGS[index].key].append(step)
            final = {ref.key: layer.invoke(client, ref, "snapshot",
                                           ctor=CTOR) for ref in RF2_LOGS}
            return unsettled, acked, final

        return env.run(main)


def settled_and_final_equals_acked(trial, outcome):
    unsettled, acked, final = outcome
    assert unsettled == 0, f"{unsettled} op(s) never settled"
    assert final == acked, f"final {final} != acked {acked}"
    return True


def explore_lanes():
    return ExplorationRunner(
        crash_workload, trials=TRIALS, base_seed=42, scheduler="random",
        scheduler_opts={"preempt_prob": 0.05},
        invariants=[settled_and_final_equals_acked], shrink=False).run()


def test_hunter_finds_a_lane_failure_swallowed_at_join():
    with mutation("swallow-lane-error"):
        report = explore_lanes()
    assert report.failures, (
        f"planted lane bug not found within {TRIALS} trials:\n"
        + report.summary())
    assert any("settled_and_final_equals_acked" in p
               for p in report.failures[0].problems), \
        report.failures[0].describe()


def test_lane_hunter_is_quiet_with_lane_failures_raised():
    report = explore_lanes()
    assert report.ok, report.summary()
