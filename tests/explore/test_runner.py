"""The exploration runner: acceptance-level behaviour.

Covers the determinism acceptance criteria (same exploration seed =>
identical schedule decisions and byte-identical trace exports;
different seeds => >= 2 distinct interleavings on the 2-thread counter
workload), failure reporting with schedule shrinking, chaos
composition, and CI artifact dumping.
"""

import json
import os

from repro import AtomicLong
from repro.chaos import ChaosInjector, FaultPlan
from repro.explore import ExplorationRunner
from repro.core.objects import _AtomicLong
from repro.linearizability import LinearizabilityChecker
from repro.simulation.thread import sleep, spawn

COUNTER = "explore-counter"


def counter_workload(trial):
    """The 2-thread counter workload of the acceptance criteria."""
    with trial.environment(dso_nodes=2) as env:
        def main():
            counter = AtomicLong(COUNTER)
            counter.get()

            def worker(tid):
                for _ in range(3):
                    trial.recorder.record(
                        f"w{tid}", "add_and_get", (1,),
                        lambda: counter.add_and_get(1), key=COUNTER)

            threads = [spawn(worker, tid, name=f"worker-{tid}")
                       for tid in range(2)]
            for thread in threads:
                thread.join()
            return trial.recorder.record(
                "main", "get", (), counter.get, key=COUNTER)

        return env.run(main)


def racy_workload(trial):
    """A plain lost-update race that only *some* interleavings hit:
    under FIFO the read-modify-write pairs happen to serialize."""
    shared = [0]

    def writer_a():
        sleep(1.0)
        value = shared[0]
        sleep(1.0)
        shared[0] = value + 1

    def writer_b():
        sleep(1.0)
        sleep(1.0)
        value = shared[0]
        sleep(1.0)
        shared[0] = value + 1

    trial.kernel.spawn(writer_a, name="writer-a")
    trial.kernel.spawn(writer_b, name="writer-b")
    trial.kernel.run()
    return shared[0]


def both_updates_applied(trial, value):
    assert value == 2, f"lost update: final={value}"
    return True


def test_two_thread_counter_reaches_distinct_interleavings():
    report = ExplorationRunner(
        counter_workload, trials=6, base_seed=0, scheduler="random",
        checker=LinearizabilityChecker(_AtomicLong),
        invariants=[lambda trial, value: value == 6]).run()
    assert report.ok, report.summary()
    assert report.distinct_schedules >= 2
    assert "distinct schedule" in report.summary()


def test_same_seed_gives_byte_identical_traces():
    def explore():
        return ExplorationRunner(
            counter_workload, trials=3, base_seed=5,
            scheduler="random", trace=True).run()

    first, second = explore(), explore()
    for left, right in zip(first.results, second.results):
        assert left.schedule_id == right.schedule_id
        assert left.fingerprint == right.fingerprint
        assert left.schedule.decisions == right.schedule.decisions
        assert left.chrome_trace() == right.chrome_trace()
        # The export is tagged with its schedule identity.
        tags = json.loads(left.chrome_trace())["otherData"]
        assert tags["schedule_id"] == left.schedule_id
        assert tags["fingerprint"] == left.fingerprint
        assert left.span_tree().startswith("schedule ")


def test_runner_finds_race_and_shrinks_schedule():
    report = ExplorationRunner(
        racy_workload, trials=8, base_seed=0, scheduler="random",
        invariants=[both_updates_applied]).run()
    assert report.failures, \
        "the planted lost-update race was never triggered"
    failing = report.failures[0]
    assert any("lost update" in p for p in failing.problems)
    assert failing.schedule.decisions  # replayable evidence
    assert failing.shrunk is not None
    assert failing.shrunk.verified
    assert failing.shrunk.prefix_length <= failing.shrunk.original_length


def test_replay_reproduces_a_failure():
    report = ExplorationRunner(
        racy_workload, trials=8, base_seed=0, scheduler="random",
        invariants=[both_updates_applied], shrink=False).run()
    failing = report.failures[0]
    replayed = ExplorationRunner(
        racy_workload, invariants=[both_updates_applied],
        shrink=False).replay(failing)
    assert not replayed.ok
    assert replayed.fingerprint == failing.fingerprint


def test_pct_scheduler_explores_the_counter_workload():
    report = ExplorationRunner(
        counter_workload, trials=4, base_seed=3, scheduler="pct",
        scheduler_opts={"depth": 2, "expected_steps": 200},
        checker=LinearizabilityChecker(_AtomicLong)).run()
    assert report.ok, report.summary()
    assert all(r.schedule_id.startswith("pct:") for r in report.results)


def test_fault_plans_compose_with_schedules():
    def plan_for(trial):
        plan = FaultPlan()
        plan.add(0.5, "slow_node", "dso-1", factor=4.0, duration=1.0)
        return plan

    injected = []

    def workload(trial):
        with trial.environment(dso_nodes=2) as env:
            injector = ChaosInjector(env.kernel, network=env.network,
                                     dso=env.dso)

            def main():
                assert trial.fault_plan is not None
                injector.schedule(trial.fault_plan)
                counter = AtomicLong(COUNTER)
                for _ in range(4):
                    counter.add_and_get(1)
                    sleep(0.4)
                return counter.get()

            value = env.run(main)
            injected.append(injector.log.counts("inject"))
            return value

    report = ExplorationRunner(
        workload, trials=2, base_seed=1, scheduler="random",
        fault_plans=plan_for,
        invariants=[lambda trial, value: value == 4]).run()
    assert report.ok, report.summary()
    assert all(counts.get("slow_node") == 1 for counts in injected)


def test_artifacts_dumped_for_failures(tmp_path):
    artifact_dir = str(tmp_path / "artifacts")
    report = ExplorationRunner(
        racy_workload, trials=8, base_seed=0, scheduler="random",
        invariants=[both_updates_applied],
        artifact_dir=artifact_dir).run()
    assert report.failures
    files = sorted(os.listdir(artifact_dir))
    assert len(files) == len(report.failures)
    with open(os.path.join(artifact_dir, files[0])) as fh:
        doc = json.load(fh)
    assert doc["schedule_id"].startswith("random:")
    assert doc["problems"]
    assert doc["decisions"]
    # Shrunk prefixes ride along for one-command reproduction.
    assert "shrunk_prefix" in doc
