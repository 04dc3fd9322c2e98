"""Hot-path speed: kernel dispatch rate and pipelined DSO shipping.

Not a figure from the paper — this harness guards the reproduction's
own critical path.  Every benchmark, chaos trial, and fuzzer schedule
is bounded by two rates:

* **events/sec** (wall clock): how fast the dispatch loop pops and
  dispatches heap events.  The rows are the shapes real harnesses are
  made of, cheapest first: a *timer* is a callback run inline by
  whoever holds the baton; a *self wakeup* (one thread sleeping — a
  client in a synchronous RPC) returns to the thread that ran the loop
  with no OS switch; a *cross wakeup* (two threads ping-pong on a
  queue) is one raw-lock handoff between OS threads; a *spawn+join*
  (one short-lived thread per open-loop arrival) adds a worker
  hand-over; the mixed *wakeups* row (four sleepers) is the historical
  one.  ``sync_put_host_us`` / ``sync_get_host_us`` are the same
  accounting one layer up — wall microseconds per sequential DSO put /
  get — and ``transfer_host_us`` one layer down: one
  ``Network.transfer`` of a put's 112-byte request tuple.
* **calls per put** (exact): ``sys.setprofile`` counts of Python and C
  calls, ``pickle.dumps`` and ``pickle.loads`` over warm sequential
  puts.  They repeat exactly, so the benchmark asserts them tightly:
  a second encode per hop, or a span built for a disabled tracer,
  shows up here as a count before it shows up as noise-buried time.
* **ops/sec** (virtual time): how fast a client pushes DSO ops.  The
  sequential ``put`` pays a full round trip per op; the pipelined
  ``put_async`` path batches queued ops into shared round trips, which
  is where the ≥3x amortization this harness pins comes from.  The
  *scatter flush* row is the multi-primary case: 16 ``put_async`` to
  keys spread over 3 nodes, one ``flush`` — the per-primary groups ship
  concurrently, so the flush costs about the slowest group's round
  trip (``scatter_flush_ratio`` sync puts), not one per group.

The virtual-time numbers double as a calibration guard: the sync op
latency must stay on the Table 2 PUT calibration, proving the batching
machinery costs the synchronous path nothing.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass

from repro import CrucialEnvironment
from repro.dso.session import SessionStamp
from repro.metrics.report import comparison_table
from repro.simulation import Kernel, Queue, current_kernel
from repro.simulation.thread import sleep, spawn


@dataclass
class KernelSpeedResult:
    """Wall-clock dispatch rates plus virtual-time op latencies."""

    wakeup_events: int
    wakeup_wall: float  #: wall seconds dispatching thread wakeups
    timer_events: int
    timer_wall: float  #: wall seconds dispatching timer callbacks
    self_events: int
    self_wall: float  #: wall seconds for one thread's own sleeps
    cross_events: int
    cross_wall: float  #: wall seconds of two-thread queue ping-pong
    spawn_events: int
    spawn_wall: float  #: wall seconds spawning + joining threads
    ops: int
    sync_put_wall: float  #: wall seconds for the sequential puts
    sync_get_wall: float  #: wall seconds for the sequential gets
    transfer_wall: float  #: wall seconds for ``ops`` request transfers
    calls_per_sync_put: float  #: profiled Python + C calls per warm put
    dumps_per_sync_put: float
    loads_per_sync_put: float
    sync_op_time: float  #: virtual seconds per sequential put
    pipelined_op_time: float  #: virtual seconds per batched async put
    batches: int  #: round trips that carried the async ops
    scatter_flush_time: float  #: virtual seconds per 16-put, 3-node flush
    scatter_groups: float  #: round trips (primaries) per such flush

    @property
    def wakeups_per_sec(self) -> float:
        return self.wakeup_events / self.wakeup_wall

    @property
    def timers_per_sec(self) -> float:
        return self.timer_events / self.timer_wall

    @property
    def self_wakeups_per_sec(self) -> float:
        return self.self_events / self.self_wall

    @property
    def cross_wakeups_per_sec(self) -> float:
        return self.cross_events / self.cross_wall

    @property
    def spawn_joins_per_sec(self) -> float:
        return self.spawn_events / self.spawn_wall

    @property
    def sync_put_host_us(self) -> float:
        """Wall microseconds per sequential DSO put."""
        return self.sync_put_wall / self.ops * 1e6

    @property
    def sync_get_host_us(self) -> float:
        """Wall microseconds per sequential DSO get."""
        return self.sync_get_wall / self.ops * 1e6

    @property
    def transfer_host_us(self) -> float:
        """Wall microseconds per ``Network.transfer`` of a put request."""
        return self.transfer_wall / self.ops * 1e6

    @property
    def pipeline_speedup(self) -> float:
        """Virtual-time ops/sec gain of pipelined over sequential."""
        return self.sync_op_time / self.pipelined_op_time

    @property
    def scatter_flush_ratio(self) -> float:
        """A 16-put flush over 3 nodes, in sync puts of virtual time."""
        return self.scatter_flush_time / self.sync_op_time


def _timed_main(seed: int, main) -> float:
    """Wall seconds to run ``main`` as a simulated thread."""
    with Kernel(seed=seed) as kernel:
        thread = kernel.spawn(main)
        start = time.perf_counter()
        kernel.run_until(lambda: thread.done)
        wall = time.perf_counter() - start
        thread.result()
    return wall


def _wakeup_rate(events: int, seed: int,
                 threads: int = 4) -> tuple[int, float]:
    """Dispatch ``events`` thread wakeups; return (count, wall secs).

    ``threads`` sleepers step in lockstep, so with several of them
    nearly every wakeup changes OS thread; with one, none does.
    """
    rounds = events // threads

    def sleeper():
        for _ in range(rounds):
            sleep(1e-6)

    def main():
        workers = [spawn(sleeper) for _ in range(threads)]
        for worker in workers:
            worker.join()

    return threads * rounds, _timed_main(seed, main)


def _cross_rate(events: int, seed: int) -> tuple[int, float]:
    """Two threads ping-pong on queues: every wakeup crosses OS
    threads, as a client/server exchange does."""
    rounds = events // 2

    def main():
        kernel = current_kernel()
        ping, pong = Queue(kernel), Queue(kernel)

        def echo():
            for _ in range(rounds):
                pong.put(ping.get())

        server = spawn(echo)
        for i in range(rounds):
            ping.put(i)
            pong.get()
        server.join()

    return 2 * rounds, _timed_main(seed, main)


def _spawn_rate(events: int, seed: int) -> tuple[int, float]:
    """One short-lived thread per arrival, joined by its spawner —
    the open-loop generator's shape."""
    def request():
        sleep(1e-6)

    def main():
        for _ in range(events):
            spawn(request).join()

    return events, _timed_main(seed, main)


def _timer_rate(events: int, seed: int) -> tuple[int, float]:
    """Dispatch ``events`` timer callbacks; return (count, wall secs)."""
    with Kernel(seed=seed) as kernel:
        fired = [0]

        def tick():
            fired[0] += 1

        for i in range(events):
            kernel.call_later((i + 1) * 1e-6, tick)
        start = time.perf_counter()
        kernel.run()
        wall = time.perf_counter() - start
        assert fired[0] == events
    return events, wall


def _op_rates(ops: int, seed: int
              ) -> tuple[float, float, int, float, float, float]:
    """Virtual-time per-op latency: sequential puts vs pipelined puts.

    Single-node deployment, so every op shares one primary — the
    workload batching is built to amortize.  Returns (sync, pipelined,
    batches, wall seconds of the sequential puts, of as many gets, and
    of as many bare request transfers).
    """
    with CrucialEnvironment(seed=seed, dso_nodes=1) as env:
        def workload():
            client = env.client_endpoint
            env.dso.put(client, "warm", 0)  # create outside the window
            start, begun = env.now, time.perf_counter()
            for i in range(ops):
                env.dso.put(client, "warm", i)
            sync_wall = time.perf_counter() - begun
            sync = (env.now - start) / ops

            start = env.now
            futures = [env.dso.put_async(client, "warm", i)
                       for i in range(ops)]
            env.dso.flush(client)
            pipelined = (env.now - start) / ops
            assert all(f.done for f in futures)
            for future in futures:
                future.result()

            # Host-time-only rows last, so the virtual-time rows above
            # keep the RNG draws they have always had.
            begun = time.perf_counter()
            for _ in range(ops):
                env.dso.get(client, "warm")
            get_wall = time.perf_counter() - begun

            (node,) = env.dso.nodes
            request = ("set", (7,), {}, SessionStamp("dso/client#s0", 7, 6))
            begun = time.perf_counter()
            for _ in range(ops):
                env.network.transfer(client, node, request)
            transfer_wall = time.perf_counter() - begun
            return sync, pipelined, sync_wall, get_wall, transfer_wall

        sync, pipelined, sync_wall, get_wall, transfer_wall = \
            env.run(workload)
        batches = env.dso.stats.batches
    return sync, pipelined, batches, sync_wall, get_wall, transfer_wall


def _scatter_flush(seed: int, flushes: int = 25, width: int = 16
                   ) -> tuple[float, float]:
    """Virtual time of one flush of ``width`` puts over three nodes.

    Its own deployment, so the single-node rows keep their RNG draws.
    Returns (seconds per flush, round trips per flush).
    """
    with CrucialEnvironment(seed=seed, dso_nodes=3) as env:
        def workload():
            client = env.client_endpoint
            keys = [f"s{i}" for i in range(width)]
            for key in keys:
                env.dso.put(client, key, 0)  # create outside the window
            before = env.dso.stats.batches
            start = env.now
            for value in range(flushes):
                futures = [env.dso.put_async(client, key, value)
                           for key in keys]
                env.dso.flush(client)
                for future in futures:
                    future.result()
            return ((env.now - start) / flushes,
                    (env.dso.stats.batches - before) / flushes)

        return env.run(workload)


def _put_call_counts(seed: int, puts: int = 1_000
                     ) -> tuple[float, float, float]:
    """Profiled (calls, ``dumps``, ``loads``) per warm sequential put.

    ``sys.setprofile`` sees every Python call and every C call made on
    the client's OS thread — which, a sequential client's wakeups being
    its own, is all of them.  Deterministic for a seed.
    """
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            counts["calls"] += 1
        elif event == "c_call":
            counts["calls"] += 1
            counts[arg.__name__] += 1

    with CrucialEnvironment(seed=seed, dso_nodes=1) as env:
        def workload():
            client = env.client_endpoint
            env.dso.put(client, "warm", 0)
            sys.setprofile(profile)
            try:
                for i in range(puts):
                    env.dso.put(client, "warm", i)
            finally:
                sys.setprofile(None)

        env.run(workload)
    # The closing setprofile(None) is itself one profiled C call.
    return ((counts["calls"] - 1) / puts, counts["dumps"] / puts,
            counts["loads"] / puts)


def run(events: int = 40_000, ops: int = 400,
        seed: int = 1) -> KernelSpeedResult:
    wakeup_events, wakeup_wall = _wakeup_rate(events, seed)
    timer_events, timer_wall = _timer_rate(events, seed)
    self_events, self_wall = _wakeup_rate(events, seed, threads=1)
    cross_events, cross_wall = _cross_rate(events, seed)
    spawn_events, spawn_wall = _spawn_rate(events // 4, seed)
    sync, pipelined, batches, sync_put_wall, sync_get_wall, transfer_wall = \
        _op_rates(ops, seed)
    calls, dumps, loads = _put_call_counts(seed)
    scatter_flush, scatter_groups = _scatter_flush(seed)
    return KernelSpeedResult(
        wakeup_events=wakeup_events, wakeup_wall=wakeup_wall,
        timer_events=timer_events, timer_wall=timer_wall,
        self_events=self_events, self_wall=self_wall,
        cross_events=cross_events, cross_wall=cross_wall,
        spawn_events=spawn_events, spawn_wall=spawn_wall,
        ops=ops, sync_put_wall=sync_put_wall, sync_get_wall=sync_get_wall,
        transfer_wall=transfer_wall, calls_per_sync_put=calls,
        dumps_per_sync_put=dumps, loads_per_sync_put=loads,
        sync_op_time=sync,
        pipelined_op_time=pipelined, batches=batches,
        scatter_flush_time=scatter_flush, scatter_groups=scatter_groups)


def report(result: KernelSpeedResult) -> str:
    lines = [
        f"kernel dispatch ({result.wakeup_events:,} wakeups, "
        f"{result.timer_events:,} timers)",
        f"  thread wakeups  {result.wakeups_per_sec:,.0f} events/s",
        f"  timer callbacks {result.timers_per_sec:,.0f} events/s",
        f"  self wakeups    {result.self_wakeups_per_sec:,.0f} events/s"
        "  (one thread sleeping)",
        f"  cross wakeups   {result.cross_wakeups_per_sec:,.0f} events/s"
        "  (queue ping-pong)",
        f"  spawn + join    {result.spawn_joins_per_sec:,.0f} threads/s",
        f"  sequential put  {result.sync_put_host_us:,.1f} host us/op"
        f"  ({result.calls_per_sync_put:g} calls,"
        f" {result.dumps_per_sync_put:g} dumps,"
        f" {result.loads_per_sync_put:g} loads)",
        f"  sequential get  {result.sync_get_host_us:,.1f} host us/op",
        f"  net transfer    {result.transfer_host_us:,.1f} host us/op"
        "  (112-byte request)",
    ]
    table = comparison_table(
        f"DSO shipping, {result.ops} same-primary PUTs "
        f"(pipeline speedup {result.pipeline_speedup:.1f}x, "
        f"{result.batches} batches)",
        [
            ("PUT sequential", result.sync_op_time * 1e6,
             result.sync_op_time * 1e6),
            ("PUT pipelined", result.sync_op_time * 1e6,
             result.pipelined_op_time * 1e6),
        ], unit="us")
    scatter = (
        f"scatter flush: 16 put_async over 3 nodes = "
        f"{result.scatter_flush_time * 1e6:,.1f} us "
        f"({result.scatter_groups:g} concurrent round trips, "
        f"{result.scatter_flush_ratio:.2f}x one sequential PUT)")
    return "\n".join(lines) + "\n" + table + "\n" + scatter
