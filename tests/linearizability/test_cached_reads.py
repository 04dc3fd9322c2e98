"""Linearizability of histories that mix cached reads with writes.

The lease protocol's claim (see repro.dso.cache): a read served from a
client-side cache linearizes at its local cache-consult instant,
because any conflicting write either revoked the lease before
acknowledging or went through a placement-version bump that
invalidated the entry first.  These tests check exactly that on
recorded histories, one with a crash and a rebalance in the middle,
with ``read_cache=True`` end to end through the proxy stack.  Random
cached histories of every shared object are the cache transport of
the generic hunts in ``tests/explore/guarantees.py``; same-key flushes
beside cached readers are ``tests/dso/test_chain_leases.py``'s.
"""

from repro import AtomicLong, CrucialEnvironment
from repro.config import DEFAULT_CONFIG
from repro.core.objects import _AtomicLong
from repro.linearizability import HistoryRecorder, LinearizabilityChecker
from repro.simulation.thread import sleep, spawn


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
        checker = LinearizabilityChecker(_AtomicLong)
        assert checker.check(recorder.operations), \
            checker.explain(recorder.operations)
        stats = env.dso.stats
        assert stats.cache_hits + stats.cache_misses > 0
        assert stats.leases_granted >= 1
