"""Property sweeps for the keeper under schedule exploration.

Three ZooKeeper contracts, each checked across seeded schedules with
both the random-preemption and PCT schedulers:

* sequential znode names are dense and strictly increasing even under
  concurrent creators racing on one parent;
* a watch set before a write is delivered exactly once;
* no session ever observes watch events out of global write order
  (:func:`repro.linearizability.watches.watch_order_invariant`).
"""

import pytest

from repro import KeeperService
from repro.explore import ExplorationRunner
from repro.linearizability import watch_order_invariant
from repro.simulation.thread import sleep, spawn

CREATORS = 3
PER_CREATOR = 4
PATHS = 8
TRIALS = 4

SCHEDULERS = [
    ("random", {"preempt_prob": 0.1}),
    ("pct", {"depth": 3, "expected_steps": 400}),
]


def sequential_workload(trial):
    """Concurrent creators race sequential creates on one parent."""
    with trial.environment(dso_nodes=1) as env:
        def main():
            keeper = KeeperService(name="props-seq", rf=1,
                                   session_ttl=30.0)
            created: list[list[str]] = [[] for _ in range(CREATORS)]

            def creator(index):
                with keeper.session(name=f"c{index}") as session:
                    for _ in range(PER_CREATOR):
                        created[index].append(
                            session.create("/q/job-", sequential=True))
                        sleep(0.01)

            with keeper.session(name="setup") as setup:
                setup.create("/q")
                threads = [spawn(creator, i, name=f"creator-{i}")
                           for i in range(CREATORS)]
                for thread in threads:
                    thread.join()
                children = setup.children("/q")
            keeper.stop()
            return created, children

        return env.run(main)


def names_dense_and_increasing(trial, value):
    created, children = value
    # Dense: the parent's counter never skipped or reused a slot.
    suffixes = sorted(int(name[-10:]) for name in children)
    assert suffixes == list(range(CREATORS * PER_CREATOR)), children
    # Per creator, acknowledged order == counter order (increasing).
    for names in created:
        seen = [int(path[-10:]) for path in names]
        assert seen == sorted(seen), names
    # Every create was acknowledged under a unique name.
    all_names = {path.rsplit("/", 1)[1]
                 for names in created for path in names}
    assert all_names == set(children)
    return True


def watch_workload(trial):
    """One observer arms watches before a write burst; the audit gets
    the delivered stream plus the tree's assigned counts."""
    with trial.environment(dso_nodes=1) as env:
        def main():
            keeper = KeeperService(name="props-watch", rf=1,
                                   session_ttl=30.0, pump_period=0.05)
            paths = [f"/w{i}" for i in range(PATHS)]
            with keeper.session(name="observer") as observer, \
                    keeper.session(name="writer") as writer:
                for path in paths:
                    observer.exists(path, watch=True)

                def write_burst():
                    for path in paths:
                        writer.create(path, data=path)
                        sleep(0.002)

                burst = spawn(write_burst, name="writer-burst")
                events = list(observer.events(PATHS, timeout=60.0))
                burst.join()
                sleep(1.0)  # quiesce the delivery pump
                assigned = keeper.assigned_counts()
                delivered = {"observer": events}
            keeper.stop()
            return delivered, assigned

        return env.run(main)


def delivered_exactly_once(trial, value):
    delivered, assigned = value
    events = delivered["observer"]
    # Every armed watch fired and reached the application once.
    assert len(events) == PATHS, events
    assert len({event.seq for event in events}) == PATHS
    assert assigned.get("observer") == PATHS
    assert {event.path for event in events} \
        == {f"/w{i}" for i in range(PATHS)}
    return True


@pytest.mark.parametrize("scheduler,opts", SCHEDULERS,
                         ids=[name for name, _ in SCHEDULERS])
def test_sequential_names_under_concurrent_creators(scheduler, opts):
    report = ExplorationRunner(
        sequential_workload, trials=TRIALS, base_seed=7,
        scheduler=scheduler, scheduler_opts=opts,
        invariants=[names_dense_and_increasing], shrink=False).run()
    assert report.ok, report.summary()
    assert len(report.results) == TRIALS


@pytest.mark.parametrize("scheduler,opts", SCHEDULERS,
                         ids=[name for name, _ in SCHEDULERS])
def test_watches_exactly_once_and_in_order(scheduler, opts):
    report = ExplorationRunner(
        watch_workload, trials=TRIALS, base_seed=19,
        scheduler=scheduler, scheduler_opts=opts,
        invariants=[delivered_exactly_once, watch_order_invariant],
        shrink=False).run()
    assert report.ok, report.summary()
    assert len(report.results) == TRIALS
