"""Transaction overhead and contention: the cost of read atomicity.

Not a figure from the paper — the paper's consistency model stops at
single-object linearizability, and ``repro.dso.txn`` deliberately
extends it (DESIGN.md §14).  This harness prices that extension so CI
can pin it:

* **commit overhead**: a 4-key transactional commit versus four plain
  sequential invocations of the same layer.  The transaction pays two
  scattered rounds (prepare, commit), each the slowest of its keys,
  instead of four independent round trips, so the ratio stays below
  one — the CI ceiling asserts ≤ 1.0x.
* **read overhead**: a 4-key transactional snapshot (sequential
  validated reads) versus one ``read_bulk`` sweep (per-node groups,
  no atomicity) — the price of never observing a fractured read.
* **contention**: concurrent read-modify-write transactions over a
  Zipf-skewed keyspace.  The protocol has no write-write conflict
  detection (last-writer-wins by commit id, as in AFT), so the abort
  rate under contention is expected to be ~0 on a healthy cluster;
  it is reported — with the read-retry and forced-fetch counters that
  *do* move under contention — to keep that property pinned.
* **mixed load**: :data:`MIXED_THREADS` threads on one endpoint, each
  issuing synchronous GETs with a :data:`MIXED_TXN_SHARE` of
  SIZE-key transactions mixed in.  A transaction's phases ship
  through its own thread's async queue, so the GET p99 should stay
  near a lone GET; a barrier that waited for other threads' batches
  puts every GET behind them.

All quantities are virtual-time; wall time only bounds the harness.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from operator import attrgetter

from repro.core.runtime import CrucialEnvironment
from repro.errors import TxnError
from repro.harness.claims import Claim, above, at_most, claim_lines, exactly
from repro.metrics.recorder import percentile
from repro.metrics.report import comparison_table
from repro.simulation.thread import spawn
from repro.workload.distributions import ZipfSampler

#: Keys per measured transaction (the ISSUE's "txn of size 4").
SIZE = 4

#: The mixed-load row: threads sharing one endpoint, ops per thread,
#: the share of those ops that are SIZE-key transactions (the rest are
#: GETs), and the keys the GETs cycle over.
MIXED_THREADS = 8
MIXED_OPS = 100
MIXED_TXN_SHARE = 0.05
MIXED_GET_KEYS = 64

CLAIMS = [
    # Virtual-time ratios, immune to wall-clock jitter.  A commit is two
    # scattered rounds, each its slowest key (0.62x; 1.05x with a
    # primary's keys run back to back, 2.12x with groups shipped in turn).
    Claim("txn.commit_overhead", f"{SIZE}-key commit over {SIZE} "
          "sequential puts", None, attrgetter("overhead_ratio"),
          at_most(1.0)),
    Claim("txn.read_overhead", f"{SIZE}-key snapshot over one read_bulk",
          None, attrgetter("read_ratio"), at_most(2.0)),
    # 1.14x with one async queue per thread; 7.33x when every blocking
    # verb drained the endpoint's shared queue.
    Claim("txn.mixed_get_ratio", "GET p99 beside transactions over a "
          "lone GET", None, attrgetter("mixed_get_ratio"), at_most(1.5)),
    # Cheaper than one put would mean the measured window is broken.
    Claim("txn.commit_real_work", "commit over one sequential put", None,
          lambda r: r.overhead_ratio * r.size, above(1.0)),
    # No conflict detection, so aborts mean spurious ones crept in.
    Claim("txn.aborts", "aborted contended transactions", None,
          attrgetter("aborts"), exactly(0), "{:d}"),
    Claim("txn.contended", "contended transactions run", None,
          attrgetter("contended_txns"), above(0), "{:d}"),
]


@dataclass
class TxnAtomicityResult:
    """Virtual-time latencies plus contention counters."""

    size: int
    reps: int
    txn_commit_time: float  #: seconds per SIZE-key commit
    seq_invoke_time: float  #: seconds per SIZE sequential puts
    txn_read_time: float  #: seconds per SIZE-key transactional snapshot
    bulk_read_time: float  #: seconds per SIZE-key read_bulk sweep
    contended_txns: int
    aborts: int
    read_retries: int
    forced_fetches: int
    mixed_get_p99_time: float  #: p99 GET seconds under the mixed load
    lone_get_time: float  #: median GET seconds of one thread alone

    @property
    def overhead_ratio(self) -> float:
        """Commit cost relative to the non-atomic baseline."""
        return self.txn_commit_time / self.seq_invoke_time

    @property
    def read_ratio(self) -> float:
        return self.txn_read_time / self.bulk_read_time

    @property
    def mixed_get_ratio(self) -> float:
        """What sharing an endpoint with transactions costs a GET's
        tail, in lone GETs."""
        return self.mixed_get_p99_time / self.lone_get_time

    @property
    def abort_rate(self) -> float:
        return self.aborts / self.contended_txns \
            if self.contended_txns else 0.0


def run(reps: int = 20, clients: int = 4, rounds: int = 8,
        keyspace: int = 8, seed: int = 5) -> TxnAtomicityResult:
    with CrucialEnvironment(seed=seed, dso_nodes=3) as env:
        layer = env.dso
        txn_keys = [f"txn-{i}" for i in range(SIZE)]
        kv_keys = [f"kv-{i}" for i in range(SIZE)]

        def workload():
            client = env.client_endpoint
            # Warm: create every object outside the measured windows.
            with env.transaction() as txn:
                for key in txn_keys:
                    txn.write(key, 0)
            for key in kv_keys:
                env.dso.put(client, key, 0)

            start = env.now
            for rep in range(reps):
                for key in kv_keys:
                    env.dso.put(client, key, rep)
            seq_invoke = (env.now - start) / reps

            start = env.now
            for rep in range(reps):
                with env.transaction() as txn:
                    for key in txn_keys:
                        txn.write(key, rep)
            txn_commit = (env.now - start) / reps

            start = env.now
            for _ in range(reps):
                with env.transaction() as txn:
                    for key in txn_keys:
                        txn.read(key)
            txn_read = (env.now - start) / reps

            refs = [layer.txns.ref(key) for key in txn_keys]
            start = env.now
            for _ in range(reps):
                layer.read_bulk(client, refs)
            bulk_read = (env.now - start) / reps

            # Contention: concurrent read-modify-write over Zipf keys.
            aborts_before = layer.stats.txns_aborted
            retries_before = layer.stats.txn_read_retries
            forced_before = layer.stats.txn_forced_fetches
            attempted = [0]

            def contender(index):
                # Shared O(1) alias-table sampler (the old inline draw
                # rescanned the weight vector on every sample).
                sampler = ZipfSampler(keyspace, s=1.2,
                                      seed=seed * 1000 + index)
                for _ in range(rounds):
                    first = sampler.sample()
                    second = sampler.sample()
                    if second == first:
                        second = (first + 1) % keyspace
                    keys = [f"hot-{first}", f"hot-{second}"]
                    attempted[0] += 1
                    try:
                        with env.transaction() as txn:
                            total = sum(txn.read(k) or 0 for k in keys)
                            for k in keys:
                                txn.write(k, total + 1)
                    except TxnError:
                        pass  # counted via stats.txns_aborted

            with env.transaction() as txn:
                for i in range(keyspace):
                    txn.write(f"hot-{i}", 0)
            threads = [spawn(contender, i, name=f"contender-{i}")
                       for i in range(clients)]
            for thread in threads:
                thread.join()

            return (seq_invoke, txn_commit, txn_read, bulk_read,
                    attempted[0],
                    layer.stats.txns_aborted - aborts_before,
                    layer.stats.txn_read_retries - retries_before,
                    layer.stats.txn_forced_fetches - forced_before)

        (seq_invoke, txn_commit, txn_read, bulk_read, attempted,
         aborts, read_retries, forced) = env.run(workload)
    mixed_get_p99, lone_get = _mixed_load(seed)
    return TxnAtomicityResult(
        size=SIZE, reps=reps,
        txn_commit_time=txn_commit, seq_invoke_time=seq_invoke,
        txn_read_time=txn_read, bulk_read_time=bulk_read,
        contended_txns=attempted, aborts=aborts,
        read_retries=read_retries, forced_fetches=forced,
        mixed_get_p99_time=mixed_get_p99, lone_get_time=lone_get)


def _mixed_load(seed: int) -> tuple[float, float]:
    """p99 of a synchronous GET among MIXED_THREADS threads sharing one
    endpoint with transactions mixed in, and the median GET of one
    thread alone, in seconds.

    Its own deployment, so the rows above keep their RNG draws.
    """
    rng = random.Random(seed)
    plans = [[rng.random() < MIXED_TXN_SHARE for _ in range(MIXED_OPS)]
             for _ in range(MIXED_THREADS)]
    with CrucialEnvironment(seed=seed, dso_nodes=3) as env:
        client = env.client_endpoint

        def group(thread: int) -> list[str]:
            return [f"mixed-{thread}-{i}" for i in range(SIZE)]

        def timed_get(key: int, into: list[float]) -> None:
            start = env.now
            env.dso.get(client, f"g{key % MIXED_GET_KEYS}")
            into.append(env.now - start)

        def workload():
            # Create every object outside the measured windows.
            for key in range(MIXED_GET_KEYS):
                env.dso.put(client, f"g{key}", 0)
            for thread in range(MIXED_THREADS):
                with env.transaction() as txn:
                    for key in group(thread):
                        txn.write(key, 0)
            alone: list[float] = []
            for key in range(MIXED_GET_KEYS):
                timed_get(key, alone)
            mixed: list[float] = []

            def mixer(thread: int, plan: list[bool]) -> None:
                for step, transact in enumerate(plan):
                    if not transact:
                        timed_get(step, mixed)
                        continue
                    with env.transaction() as txn:
                        for key in group(thread):
                            txn.write(key, step)

            threads = [spawn(mixer, thread, plan, name=f"mixer-{thread}")
                       for thread, plan in enumerate(plans)]
            for thread in threads:
                thread.join()
            return percentile(mixed, 99.0), statistics.median(alone)

        return env.run(workload)


def bench(result: TxnAtomicityResult) -> dict:
    """The measurements CI uploads as ``BENCH_txn.json``: an ``X_us``
    key is the result's ``X_time`` in microseconds."""
    return {name: (getattr(result, name[:-3] + "_time") * 1e6
                   if name.endswith("_us") else getattr(result, name))
            for name in (
                "size", "reps", "txn_commit_us", "seq_invoke_us",
                "overhead_ratio", "txn_read_us", "bulk_read_us",
                "read_ratio", "contended_txns", "aborts", "abort_rate",
                "read_retries", "forced_fetches", "mixed_get_p99_us",
                "lone_get_us", "mixed_get_ratio")}


def report(result: TxnAtomicityResult) -> str:
    table = comparison_table(
        f"read-atomic transactions, {result.size} keys x "
        f"{result.reps} reps (commit overhead "
        f"{result.overhead_ratio:.2f}x, read overhead "
        f"{result.read_ratio:.2f}x)",
        [
            (f"{result.size} sequential puts (baseline)",
             result.seq_invoke_time * 1e6,
             result.seq_invoke_time * 1e6),
            (f"txn commit of {result.size}",
             result.seq_invoke_time * 1e6,
             result.txn_commit_time * 1e6),
            (f"read_bulk of {result.size} (baseline)",
             result.bulk_read_time * 1e6,
             result.bulk_read_time * 1e6),
            (f"txn snapshot of {result.size}",
             result.bulk_read_time * 1e6,
             result.txn_read_time * 1e6),
        ], unit="us")
    lines = [
        table,
        f"contention: {result.contended_txns} txns, "
        f"{result.aborts} aborted "
        f"(rate {result.abort_rate:.3f}), "
        f"{result.read_retries} read retries, "
        f"{result.forced_fetches} forced fetches",
        f"mixed load: {MIXED_THREADS} threads on one endpoint, "
        f"{MIXED_TXN_SHARE:.0%} {result.size}-key txns: GET p99 "
        f"{result.mixed_get_p99_time * 1e6:.1f}us = "
        f"{result.mixed_get_ratio:.2f}x a lone GET "
        f"({result.lone_get_time * 1e6:.1f}us)",
        claim_lines(CLAIMS, result),
    ]
    return "\n".join(lines)
