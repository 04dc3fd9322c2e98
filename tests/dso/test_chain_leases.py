"""One critical section per chain, and revocation waits that pin no
worker (:mod:`repro.dso.pipeline`, :mod:`repro.dso.server`).

A primary runs a batched group's run of ops on one object — a chain —
under one hold of the object's lock (``DsoNode.hold``).  No lease can
be granted while the chain holds it, so a hot key's flush revokes its
readers' leases once, not once per write.  Checked here: the revocation
count and the cost of such a flush beside caching readers that re-read
the key; linearizability of cached reads beside same-key flushes under
random and PCT schedules; ``final == acked`` through a primary crash
mid-chain with the cache on; and that a write waiting out an
unreachable lease holder's TTL holds no worker, so writes to other
objects on the node do not queue behind it.
"""

import functools

import pytest

from repro.config import DEFAULT_CONFIG
from repro.dso import DsoLayer, DsoReference
from repro.dso.cache import readonly
from repro.dso.layer import KvSlot
from repro.explore import ExplorationRunner
from repro.linearizability import LinearizabilityChecker
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from repro.simulation.thread import sleep, spawn

TIMINGS = DEFAULT_CONFIG.dso
HOP = TIMINGS.client_server.mean()
READERS = 4


def make_layer(kernel, nodes=1, endpoints=()):
    network = Network(kernel, LatencyModel(0.0001))
    for name in ("writer", *endpoints):
        network.ensure_endpoint(name)
    layer = DsoLayer(kernel, network, read_cache=True)
    for _ in range(nodes):
        layer.add_node()
    return layer


# ---------------------------------------------------------------------------
# A hot key's flush: one revocation round, one revocation hop
# ---------------------------------------------------------------------------


def hot_key_flushes(writes, flushes=3):
    """``[(leases revoked, virtual seconds)]`` per flush of ``writes``
    same-key ``put_async`` while ``READERS`` endpoints re-read the key
    in a closed loop (cache hits, and a round trip after each
    revocation)."""
    readers = [f"reader-{i}" for i in range(READERS)]
    with Kernel(seed=5) as kernel:
        layer = make_layer(kernel, endpoints=readers)
        done = []

        def reader(name):
            while not done:
                layer.get(name, "hot")

        def main():
            layer.put("writer", "hot", 0)
            threads = [spawn(reader, name) for name in readers]
            outcomes = []
            for flush in range(flushes):
                sleep(1e-3)  # every reader holds a lease again
                revoked = layer.stats.lease_revocations
                start = kernel.now
                futures = [layer.put_async("writer", "hot", (flush, i))
                           for i in range(writes)]
                layer.flush("writer")
                for future in futures:
                    future.result()
                outcomes.append((layer.stats.lease_revocations - revoked,
                                 kernel.now - start))
            done.append(True)
            for thread in threads:
                thread.join()
            assert layer.get("writer", "hot") == (flushes - 1, writes - 1)
            return outcomes

        return kernel.run_main(main)


@pytest.mark.parametrize("writes", [4, 12])
def test_a_hot_key_flush_revokes_each_reader_once(writes):
    """The chain's first write revokes every reader's lease; their
    re-reads queue on the lock the chain holds, so no later write of
    the flush finds a holder (one revocation per chain, not up to
    ``writes`` per reader)."""
    for revoked, _ in hot_key_flushes(writes):
        assert 1 <= revoked <= READERS


@pytest.mark.parametrize("writes", [4, 12])
def test_a_hot_key_flush_pays_one_revocation_hop(writes):
    """Request hop + every write's service + one revocation hop +
    reply hop: the readers' leases cost the flush one hop, not one
    revoke/re-grant round trip per write."""
    budget = writes * TIMINGS.put_service + 3 * HOP
    for _, elapsed in hot_key_flushes(writes):
        assert elapsed <= 1.15 * budget, (elapsed, budget)


# ---------------------------------------------------------------------------
# Cached reads beside same-key flushes stay linearizable
# ---------------------------------------------------------------------------


def cached_flush_workload(trial):
    """Three readers re-read a key from their lease caches while one
    site flushes runs of same-key ``put_async`` to it.  Every write is
    recorded over [submit, flush returned]."""
    readers = [f"reader-{i}" for i in range(3)]
    with trial.environment(dso_nodes=1, read_cache=True) as env:
        layer, recorder = env.dso, trial.recorder

        def reader(name):
            for _ in range(24):
                recorder.record(name, "get", (),
                                lambda: layer.get(name, "hot"), key="hot")
                sleep(40e-6)

        def main():
            layer.put("writer", "hot", 0)
            for name in readers:
                layer.get(name, "hot")  # every reader holds a lease
            threads = [spawn(reader, name, name=name) for name in readers]
            for flush in range(3):
                invoke = env.now
                values = [10 * flush + i for i in range(1, 5)]
                futures = [layer.put_async("writer", "hot", value)
                           for value in values]
                layer.flush("writer")
                for value, future in zip(values, futures):
                    future.result()
                    recorder.add("writer", "set", (value,), None,
                                 invoke, env.now, key="hot")
                sleep(150e-6)
            for thread in threads:
                thread.join()

        env.run(main)


@pytest.mark.parametrize("scheduler,opts", [
    ("random", {"preempt_prob": 0.1}),
    ("pct", {"depth": 3, "expected_steps": 2000}),
], ids=["random", "pct"])
def test_cached_reads_beside_same_key_flushes_are_linearizable(
        scheduler, opts):
    report = ExplorationRunner(
        cached_flush_workload, trials=3, base_seed=7, scheduler=scheduler,
        scheduler_opts=opts,
        checker=LinearizabilityChecker(functools.partial(KvSlot, 0)),
        shrink=False).run()
    assert report.ok, report.summary()


# ---------------------------------------------------------------------------
# A primary crash mid-chain with the cache on: final == acked
# ---------------------------------------------------------------------------


class Log:
    """Order-sensitive state machine: a strictly appended log."""

    def __init__(self):
        self.entries = []

    def append(self, entry):
        self.entries.append(entry)
        return len(self.entries)

    @readonly
    def snapshot(self):
        return list(self.entries)


CTOR = (Log, (), {})


def test_primary_crash_mid_chain_with_leases_keeps_final_equal_acked(
        chaos_seed):
    """Four rf=2 logs on one primary, each leased by two readers; four
    appends to each shipped in one flush, so every chain starts by
    revoking.  The primary dies at a seed-drawn instant while the
    chains run: the finished ops dedup on the retry, the rest complete
    at the promoted backups, and every log holds each acknowledged
    append exactly once, in submission order."""
    readers = ["reader-0", "reader-1"]
    with Kernel(seed=chaos_seed) as kernel:
        layer = make_layer(kernel, nodes=3, endpoints=readers)

        def main():
            refs: list = []
            victim = None
            for index in range(200):
                ref = DsoReference("Log", f"log-{index}", persistent=True,
                                   rf=2)
                layer.invoke("writer", ref, "append", (-1,), ctor=CTOR)
                primary = layer.placement_of(ref)[0]
                if victim in (None, primary):
                    victim = primary
                    refs.append(ref)
                if len(refs) == 4:
                    break
            for name in readers:
                for ref in refs:
                    layer.invoke(name, ref, "snapshot", ctor=CTOR)
            revoked = layer.stats.lease_revocations
            futures = [(refs[step % 4], step, layer.invoke_async(
                            "writer", refs[step % 4], "append", (step,),
                            ctor=CTOR, cost=20e-6))
                       for step in range(16)]
            # Another thread waits on the batch, so it ships it now.
            waiter = spawn(futures[0][2].result)
            # The request lands after ~100 us; each chain revokes its
            # two readers (one hop), then runs four ops: ~115 us of
            # service plus ~170 us at the backup each, and one ordering
            # round.  The crash comes mid-chain.
            rng = kernel.rng.stream("test.crash")
            sleep(500e-6 + float(rng.uniform(0, 700e-6)))
            layer.crash_node(victim)
            layer.flush("writer")
            waiter.join()
            acked: dict = {ref.key: [-1] for ref in refs}
            for ref, step, future in futures:
                future.result()
                acked[ref.key].append(step)
            finals = [{ref.key: layer.invoke(name, ref, "snapshot",
                                             ctor=CTOR) for ref in refs}
                      for name in readers]
            return finals, acked, refs, \
                layer.stats.lease_revocations - revoked

        finals, acked, refs, revoked = kernel.run_main(main)
    assert acked == {ref.key: [-1, *range(index, 16, 4)]
                     for index, ref in enumerate(refs)}
    assert all(final == acked for final in finals)
    assert revoked >= 1
    assert layer.stats.retries >= 1


# ---------------------------------------------------------------------------
# A revocation wait pins no worker
# ---------------------------------------------------------------------------


def test_writes_waiting_out_a_partitioned_holder_pin_no_worker():
    """``site-a`` leases one key per worker and is then cut off from
    the node, so a write to each of those keys waits out the lease TTL.
    A put on an unrelated, unleased key still costs one round trip:
    the waiting writers hold their objects' locks, not the node's
    workers.  (Holding the workers, the put queued for the whole TTL,
    ~5 s.)"""
    workers = TIMINGS.node_workers
    keys = [f"k{i}" for i in range(workers)]
    with Kernel(seed=3) as kernel:
        layer = make_layer(kernel, endpoints=["site-a", "other"])
        (node_name,) = layer.nodes

        def write(key):
            start = kernel.now
            layer.put("writer", key, "new")
            return kernel.now - start

        def main():
            for key in keys + ["free"]:
                layer.put("writer", key, "old")
            for key in keys:
                layer.get("site-a", key)
            layer.network.partition({node_name}, {"site-a"})
            writers = [spawn(write, key) for key in keys]
            sleep(1e-3)  # every writer is inside its revocation wait
            start = kernel.now
            layer.put("other", "free", "new")
            free_put = kernel.now - start
            for thread in writers:
                thread.join()
            return free_put, [thread.result() for thread in writers]

        free_put, stalls = kernel.run_main(main)
    assert free_put < 1e-3
    # The writers themselves still wait out the TTL before acking.
    assert all(stall >= TIMINGS.lease_ttl - 0.1 for stall in stalls)
