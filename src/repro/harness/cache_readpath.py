"""Warm-read latency with the lease-based client cache on vs off.

Not a figure from the paper: Crucial always ships method calls to the
primary, so a repeated ``get`` pays the full network round trip every
time (Table 2's GET row).  The lease cache trades that for one grant
round trip followed by local reads, so this harness measures three
latencies on the same 1 KB payload:

* ``uncached_get`` — the Table 2 baseline (``read_cache=False``),
* ``cached_get``   — warm reads served from the client cache,
* ``cached_put``   — the write path with the cache enabled, which must
  stay on the Table 2 calibration (revocation is charged only when a
  lease is actually outstanding).

A fourth row, in its own deployment so the three above keep their
random draws, is the write path's contended case: ``hot_flush`` — one
endpoint flushes ``HOT_WRITES`` ``put_async`` to one key while
``HOT_READERS`` endpoints re-read it from their caches.  The primary
runs the flush as one critical section on the key, so the readers'
leases are revoked once and the flush costs one revocation hop on top
of its round trip and service times.

A fifth, in its own deployment too, is ``reread``: a reader reads a
key, another endpoint writes it, the reader reads again 1 ms later —
a hit, since the write's refresh re-armed the cache its revocation
emptied; ``reread_own``, the writer re-reading, is a hit too.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from repro import CrucialEnvironment
from repro.dso.layer import LayerStats
from repro.harness.claims import Claim, at_least, at_most, claim_lines, within
from repro.harness.table2_latency import PAPER, PAYLOAD
from repro.metrics.report import cache_summary, comparison_table, render_table
from repro.simulation.thread import sleep, spawn

HOT_WRITES = 12
HOT_READERS = 7
HOT_FLUSHES = 5
REREADS = 20

PAPER_PUT_US, PAPER_GET_US = (seconds * 1e6 for seconds in PAPER["crucial"])

CLAIMS = [
    Claim("cache.speedup", "warm reads over the always-ship read path",
          None, attrgetter("speedup"), at_least(5.0), "{:.0f}x"),
    Claim("cache.hit_rate", "warm reads served from the cache", None,
          lambda r: r.stats.cache_hits / r.ops, at_least(1.0), "{:.1%}"),
    # The write path and the cache-off read path stay on Table 2.
    Claim("cache.put_calibrated", "PUT with the cache on", PAPER_PUT_US,
          lambda r: r.cached_put * 1e6, within(PAPER_PUT_US, 0.15),
          "{:.1f}us"),
    Claim("cache.get_calibrated", "GET with the cache off", PAPER_GET_US,
          lambda r: r.uncached_get * 1e6, within(PAPER_GET_US, 0.15),
          "{:.1f}us"),
    # Round trip, twelve put services and one revocation hop (~2.9);
    # locking the key per write revoked readers 35 times (10.0x).
    Claim("cache.hot_flush_ratio", "hot-key flush in cached PUTs", None,
          attrgetter("hot_flush_ratio"), at_most(3.5)),
    # A refreshed cache hit (2 us); shipping again is a ~230 us round trip.
    Claim("cache.reread_after_remote_write",
          "re-read 1 ms after another endpoint's write", None,
          lambda r: r.reread * 1e6, at_most(10.0), "{:.1f}us"),
    # The reply's refresh makes it a hit (2 us), not a ~230 us miss.
    Claim("cache.reread_after_own_write",
          "re-read 1 ms after the endpoint's own write", None,
          lambda r: r.reread_own * 1e6, at_most(10.0), "{:.1f}us"),
]


@dataclass
class CacheReadpathResult:
    uncached_get: float  #: avg seconds, read_cache=False (Table 2 path)
    cached_get: float  #: avg seconds, warm lease-cache reads
    cached_put: float  #: avg seconds, writes with the cache enabled
    stats: LayerStats  #: the cached deployment's counters
    ops: int
    hot_flush: float  #: avg seconds, one hot-key flush beside readers
    hot_revocations: float  #: leases revoked per hot-key flush
    reread: float  #: avg seconds, a re-read after another site's write
    reread_own: float  #: avg seconds, a re-read after the site's own write

    @property
    def speedup(self) -> float:
        """Warm-read improvement over the always-ship baseline."""
        return self.uncached_get / self.cached_get

    @property
    def hot_flush_ratio(self) -> float:
        """A hot-key flush of ``HOT_WRITES`` puts, in cached puts."""
        return self.hot_flush / self.cached_put


def _timed(env: CrucialEnvironment, fn, ops: int) -> float:
    start = env.now
    for _ in range(ops):
        fn()
    return (env.now - start) / ops


def run(ops: int = 300, seed: int = 1) -> CacheReadpathResult:
    with CrucialEnvironment(seed=seed, dso_nodes=2) as env:
        def baseline():
            client = env.client_endpoint
            env.dso.put(client, "rp", PAYLOAD)
            return _timed(env, lambda: env.dso.get(client, "rp"), ops)

        uncached_get = env.run(baseline)

    with CrucialEnvironment(seed=seed, dso_nodes=2,
                            read_cache=True) as env:
        def cached():
            client = env.client_endpoint
            env.dso.put(client, "rp", PAYLOAD)
            env.dso.get(client, "rp")  # grant the lease (cold miss)
            cached_get = _timed(
                env, lambda: env.dso.get(client, "rp"), ops)
            cached_put = _timed(
                env, lambda: env.dso.put(client, "rp", PAYLOAD), ops)
            return cached_get, cached_put

        cached_get, cached_put = env.run(cached)
        stats = env.dso.stats

    hot_flush, hot_revocations = _hot_key_flush(seed)
    return CacheReadpathResult(
        uncached_get=uncached_get, cached_get=cached_get,
        cached_put=cached_put, stats=stats, ops=ops,
        hot_flush=hot_flush, hot_revocations=hot_revocations,
        reread=_reread(seed, "reader"), reread_own=_reread(seed, None))


def _hot_key_flush(seed: int) -> tuple[float, float]:
    """(avg seconds, leases revoked) per flush of ``HOT_WRITES``
    ``put_async`` to one key while ``HOT_READERS`` endpoints re-read it
    in a closed loop."""
    with CrucialEnvironment(seed=seed, dso_nodes=2,
                            read_cache=True) as env:
        layer = env.dso
        done = []

        def reader(name: str) -> None:
            while not done:
                layer.get(name, "hot")

        def hot() -> float:
            writer = env.client_endpoint
            layer.put(writer, "hot", PAYLOAD)
            readers = [spawn(reader, f"reader-{i}")
                       for i in range(HOT_READERS)]
            elapsed = 0.0
            for _ in range(HOT_FLUSHES):
                sleep(1e-3)  # every reader holds a lease again
                start = env.now
                futures = [layer.put_async(writer, "hot", PAYLOAD)
                           for _ in range(HOT_WRITES)]
                layer.flush(writer)
                for future in futures:
                    future.result()
                elapsed += env.now - start
            done.append(True)
            for thread in readers:
                thread.join()
            return elapsed / HOT_FLUSHES

        hot_flush = env.run(hot)
        return hot_flush, layer.stats.lease_revocations / HOT_FLUSHES


def _reread(seed: int, reader: str | None) -> float:
    """Avg seconds of ``reader``'s re-read 1 ms after the client wrote
    the key it had read, over ``REREADS`` rounds (``None``: the client
    re-reads its own write)."""
    with CrucialEnvironment(seed=seed, dso_nodes=2,
                            read_cache=True) as env:
        def rounds() -> float:
            writer, layer = env.client_endpoint, env.dso
            site = reader or writer
            layer.put(writer, "rr", PAYLOAD)
            layer.get(site, "rr")  # grant the lease (cold miss)
            elapsed = 0.0
            for _ in range(REREADS):
                layer.put(writer, "rr", PAYLOAD)
                sleep(1e-3)
                elapsed += _timed(env, lambda: layer.get(site, "rr"), 1)
            return elapsed / REREADS

        return env.run(rounds)


def bench(result: CacheReadpathResult) -> dict:
    """The measurements CI uploads as ``BENCH_readpath.json``."""
    return {
        "ops": result.ops, "uncached_get_us": result.uncached_get * 1e6,
        "cached_get_us": result.cached_get * 1e6,
        "cached_put_us": result.cached_put * 1e6,
        "speedup": result.speedup, "cache_hits": result.stats.cache_hits,
        "cache_misses": result.stats.cache_misses,
        "lease_revocations": result.stats.lease_revocations,
        "hot_flush_us": result.hot_flush * 1e6,
        "hot_flush_ratio": result.hot_flush_ratio,
        "hot_flush_revocations": result.hot_revocations,
        "reread_after_remote_write_us": result.reread * 1e6,
        "reread_after_own_write_us": result.reread_own * 1e6}


def report(result: CacheReadpathResult) -> str:
    table = comparison_table(
        f"Warm 1KB read path, {result.ops} sequential ops"
        f" (speedup {result.speedup:.0f}x)",
        [
            ("GET uncached (Table 2)", PAPER_GET_US,
             result.uncached_get * 1e6),
            ("GET warm cached", PAPER_GET_US, result.cached_get * 1e6),
            ("PUT with cache on", PAPER_PUT_US, result.cached_put * 1e6),
        ], unit="us")

    hot = render_table(
        ["metric", "value"],
        [("flush", f"{result.hot_flush * 1e6:.1f}us"),
         ("flush / PUT with cache on", f"{result.hot_flush_ratio:.2f}x"),
         ("leases revoked per flush", f"{result.hot_revocations:g}")],
        title=f"Hot key: {HOT_WRITES} put_async to one key in one flush, "
              f"{HOT_READERS} endpoints re-reading it")
    return "\n".join((table, cache_summary(result.stats), hot,
                      claim_lines(CLAIMS, result)))
