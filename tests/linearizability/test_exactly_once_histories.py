"""Linearizability of non-idempotent ops across crash/retry/rebalance.

The sharpest consequence of exactly-once shipping: histories of
*non-idempotent* operations (``add_and_get``, ``SharedList.append``)
stay linearizable against their own server classes, which apply each
invocation exactly once, even while the primary crashes mid-workload, clients retry
through failover, and the restarted node triggers rebalancing.  Under
at-least-once retries this check fails — a double-applied increment
produces a value no single-application spec can explain.
"""

from repro import AtomicLong, CrucialEnvironment, SharedList
from repro.chaos import ChaosInjector, FaultPlan
from repro.core.objects import _AtomicLong, _SharedList
from repro.linearizability import HistoryRecorder, LinearizabilityChecker
from repro.simulation.thread import sleep, spawn

WORKERS = 3
ADDS_PER_WORKER = 4
APPENDS_PER_WORKER = 3


def run_history(seed):
    with CrucialEnvironment(seed=seed, dso_nodes=3) as env:
        injector = ChaosInjector(env.kernel, network=env.network,
                                 dso=env.dso)
        counter_history = HistoryRecorder(clock=lambda: env.kernel.now)
        list_history = HistoryRecorder(clock=lambda: env.kernel.now)

        def main():
            counter = AtomicLong("eo-counter", 0, persistent=True, rf=2)
            log = SharedList("eo-log", persistent=True, rf=2)
            counter.get()
            log.size()
            primary = env.dso.placement_of(counter.ref)[0]
            injector.schedule(FaultPlan()
                              .add(2.0, "crash_node", primary)
                              .add(9.0, "restart_node", primary))

            def worker(tid):
                for i in range(ADDS_PER_WORKER):
                    counter_history.record(
                        f"t{tid}", "add_and_get", (1,),
                        lambda: counter.add_and_get(1))
                    if i < APPENDS_PER_WORKER:
                        item = (tid, i)
                        list_history.record(
                            f"t{tid}", "append", (item,),
                            lambda item=item: log.append(item))
                    sleep(0.8)
                counter_history.record(f"t{tid}", "get", (), counter.get)

            threads = [spawn(worker, tid) for tid in range(WORKERS)]
            for t in threads:
                t.join()
            sleep(8.0)  # ride out detection + rebalance
            return counter.get(), sorted(log.get_all())

        final, items = env.run(main)
        crashed = injector.log.counts("inject").get("crash_node", 0)
        assert crashed == 1, "the crash must land mid-workload"
        return final, items, counter_history, list_history, env


def test_non_idempotent_histories_linearizable_across_failover(chaos_seed):
    final, items, counter_history, list_history, env = \
        run_history(chaos_seed)

    # No duplicate effects: exact counts, exact membership.
    assert final == WORKERS * ADDS_PER_WORKER
    expected = sorted((tid, i) for tid in range(WORKERS)
                      for i in range(APPENDS_PER_WORKER))
    assert items == expected  # each append applied exactly once

    checker = LinearizabilityChecker(_AtomicLong)
    assert checker.check(counter_history.operations), \
        checker.explain(counter_history.operations)
    list_checker = LinearizabilityChecker(_SharedList)
    assert list_checker.check(list_history.operations), \
        list_checker.explain(list_history.operations)

    # The guarantee was exercised: the crash forced at least one retry.
    assert env.dso.stats.retries >= 1
