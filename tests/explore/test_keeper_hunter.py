"""The watch-reorder hunter: fuzzing the keeper's delivery fence.

A seeded exploration workload arms one-shot watches, fires a write
burst through the keeper, and audits the observer's delivered stream
with the watch-order checker
(:mod:`repro.linearizability.watches`): per-session sequence numbers
strictly increasing, zxids non-decreasing, nothing duplicated or
lost.

The mutation pair mirrors ``test_txn_hunter``:
the ``"no-watch-fence"`` mutation makes sessions release events in
*arrival* order, so the SQS model's heavy-tailed delivery lag leaks
through as client-visible reordering — ZooKeeper's ordering guarantee
silently gone.  The hunter must catch it within a bounded trial
budget, and must stay quiet with the fence on.
"""

from repro import (
    ExplorationRunner,
    KeeperService,
    watch_order_invariant,
)
from repro.mutation import mutation
from repro.simulation.thread import sleep, spawn

PATHS = 6
TRIALS = 8       # bounded budget: the planted bug must surface within
CLEAN_TRIALS = 50  # fence on: quiet across at least this many schedules


def workload(trial):
    """One observer with pre-armed watches, one writer bursting
    creates; returns the delivered stream and the tree's assigned
    counts for the order/exactly-once audit."""
    with trial.environment(dso_nodes=1) as env:
        def main():
            keeper = KeeperService(name="hunt", rf=1, session_ttl=30.0,
                                   pump_period=0.05)
            paths = [f"/k{i}" for i in range(PATHS)]
            with keeper.session(name="observer") as observer, \
                    keeper.session(name="writer") as writer:
                for path in paths:
                    observer.exists(path, watch=True)

                def burst():
                    for path in paths:
                        writer.create(path, data=path)
                        sleep(0.002)

                writer_thread = spawn(burst, name="writer-burst")
                events = list(observer.events(PATHS, timeout=60.0))
                writer_thread.join()
                sleep(1.0)  # quiesce the delivery pump
                assigned = keeper.assigned_counts()
                delivered = {"observer": events}
            keeper.stop()
            return delivered, assigned

        return env.run(main)


def explore(trials):
    return ExplorationRunner(
        workload, trials=trials, base_seed=42, scheduler="random",
        scheduler_opts={"preempt_prob": 0.05},
        invariants=[watch_order_invariant], shrink=False).run()


def test_hunter_finds_reordered_watch_without_the_fence():
    with mutation("no-watch-fence"):
        report = explore(TRIALS)
    assert report.failures, (
        "planted fence bug not found within "
        f"{TRIALS} trials:\n" + report.summary())
    failure = report.failures[0]
    assert any("watch_order_invariant" in p for p in failure.problems), \
        failure.describe()
    # Every failure carries its reproduction handle.
    for failing in report.failures:
        assert failing.schedule_id
        assert failing.schedule.decisions is not None


def test_hunter_is_quiet_with_the_fence_on():
    report = explore(CLEAN_TRIALS)
    assert report.ok, report.summary()
    assert len(report.results) == CLEAN_TRIALS
