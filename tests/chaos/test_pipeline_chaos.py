"""Chaos: a primary crash mid-batch never breaks exactly-once.

A client ships a whole batch of async increments, and the hosting
primary is crashed while the batch is executing.  The batch retry
re-ships the unfinished ops to the promoted backup, whose replicated
session table deduplicates everything the dead primary already
acknowledged — so the counter's final value equals *exactly* the
number of acknowledged futures, never more.
"""

from repro import AtomicInt
from repro.chaos import ChaosInjector, FaultPlan
from repro.config import DEFAULT_CONFIG
from repro.core.runtime import CrucialEnvironment
from repro.simulation.thread import sleep

N = 24
KEY = "pipelined-chaos-counter"


def test_primary_crash_mid_batch_keeps_exactly_acked(chaos_seed):
    with CrucialEnvironment(seed=chaos_seed, dso_nodes=3) as env:
        injector = ChaosInjector(env.kernel, network=env.network,
                                 dso=env.dso, platform=env.platform)

        def main():
            counter = AtomicInt(KEY, 0, persistent=True, rf=2)
            counter.get()  # create (and place) before the chaos starts
            primary = env.dso.placement_of(counter.ref)[0]
            futures = [counter.invoke_async("add_and_get", 1)
                       for _ in range(N)]
            # Land the crash a couple of milliseconds into the batch:
            # well after the flush window opens it, well before its
            # ~N * 0.4ms of replicated per-op work completes.
            injector.schedule(
                FaultPlan().add(env.now + 0.002, "crash_node", primary))
            env.dso.flush()
            assert all(f.done for f in futures)
            results = [f.result() for f in futures]
            # Quiesce: let detection/rebalance settle before auditing.
            sleep(DEFAULT_CONFIG.dso.failure_detection + 2.0)
            return results, counter.get()

        results, final = env.run(main)
        crashes = injector.log.counts("inject").get("crash_node", 0)
        assert crashes == 1, "the primary crash must land"
        # The batch actually hit the failure and retried through it.
        assert env.dso.stats.retries >= 1
        acked = len(results)
        # Exactly-once: the final value is exactly the acknowledged
        # count — every retried op deduplicated, none double-applied.
        assert acked == N
        assert final == acked
        # And batching preserved session order through the failover.
        assert results == list(range(1, N + 1))
