"""Linearizability of histories that mix cached reads with writes.

The lease protocol's claim (see repro.dso.cache): a read served from a
client-side cache linearizes at its local cache-consult instant,
because any conflicting write either revoked the lease before
acknowledging or went through a placement-version bump that
invalidated the entry first.  These tests check exactly that on
recorded histories — including ones with crashes and rebalances in the
middle, and ones where a thread flushes a run of same-key async writes
that the primary runs as one critical section — with
``read_cache=True`` end to end through the proxy stack.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AtomicLong, CrucialEnvironment
from repro.config import DEFAULT_CONFIG
from repro.linearizability import (
    CounterModel,
    HistoryRecorder,
    LinearizabilityChecker,
)
from repro.simulation.thread import sleep, spawn


#: Read-heavy mix; a "flush" is a run of same-key ``add_and_get``
#: shipped as one batch, which its primary runs as one chain.
OPS = st.sampled_from(["add", "get", "get", "get", "flush"])
FLUSH_RUN = 3


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=9999),
    plans=st.lists(st.lists(OPS, min_size=1, max_size=4),
                   min_size=2, max_size=4),
    rf=st.sampled_from([1, 2]),
)
def test_cached_read_histories_linearizable(seed, plans, rf):
    with CrucialEnvironment(seed=seed, dso_nodes=3,
                            read_cache=True) as env:
        recorder = HistoryRecorder(clock=lambda: env.kernel.now)

        def main():
            counter = AtomicLong("hot", 0, persistent=rf > 1,
                                 rf=rf if rf > 1 else None)
            counter.get()  # force creation before concurrency starts

            def worker(tid, plan):
                for op in plan:
                    if op == "add":
                        recorder.record(
                            f"t{tid}", "add_and_get", (1,),
                            lambda: counter.add_and_get(1))
                    elif op == "flush":
                        invoke = env.kernel.now
                        futures = [counter.invoke_async("add_and_get", 1)
                                   for _ in range(FLUSH_RUN)]
                        results = [future.result() for future in futures]
                        for result in results:
                            recorder.add(f"t{tid}", "add_and_get", (1,),
                                         result, invoke, env.kernel.now)
                    else:
                        recorder.record(f"t{tid}", "get", (), counter.get)

            threads = [spawn(worker, tid, plan)
                       for tid, plan in enumerate(plans)]
            for t in threads:
                t.join()

        env.run(main)
        checker = LinearizabilityChecker(CounterModel)
        assert checker.check(recorder.operations), \
            checker.explain(recorder.operations)


def test_no_stale_read_after_acknowledged_write():
    """The protocol's core promise, deterministically: once a write is
    acknowledged, no read — not even by a lease holder — returns the
    pre-write value."""
    with CrucialEnvironment(seed=11, dso_nodes=2, read_cache=True) as env:
        def main():
            counter = AtomicLong("x")
            readings = [counter.get()]        # leases the snapshot (0)
            counter.add_and_get(5)            # revokes before acking
            readings.append(counter.get())    # must be 5, never 0
            readings.append(counter.get())    # cached again — still 5
            return readings

        assert env.run(main) == [0, 5, 5]
        assert env.dso.stats.lease_revocations >= 1
        assert env.dso.stats.cache_hits >= 1


def test_cached_histories_linearizable_across_crash_and_rebalance():
    """One recorded history that mixes cached reads, writes, a primary
    crash (failover to the backup), and the rebalance that follows —
    the acceptance scenario of the lease protocol."""
    with CrucialEnvironment(seed=23, dso_nodes=3, read_cache=True) as env:
        recorder = HistoryRecorder(clock=lambda: env.kernel.now)

        def main():
            counter = AtomicLong("hot", 0, persistent=True, rf=2)
            counter.get()
            primary = env.dso.placement_of(counter.ref)[0]

            def worker(tid):
                for i in range(6):
                    if i % 3 == 0:
                        recorder.record(
                            f"t{tid}", "add_and_get", (1,),
                            lambda: counter.add_and_get(1))
                    else:
                        recorder.record(f"t{tid}", "get", (), counter.get)
                    sleep(1.0)

            threads = [spawn(worker, tid) for tid in range(3)]
            sleep(1.5)
            env.dso.crash_node(primary)  # leases outstanding
            sleep(DEFAULT_CONFIG.dso.failure_detection)
            env.dso.add_node()  # trigger another rebalance mid-history
            for t in threads:
                t.join()
            return counter.get()

        final = env.run(main)
        assert final == 6  # every acknowledged add exactly once
        checker = LinearizabilityChecker(CounterModel)
        assert checker.check(recorder.operations), \
            checker.explain(recorder.operations)
        stats = env.dso.stats
        assert stats.cache_hits + stats.cache_misses > 0
        assert stats.leases_granted >= 1
