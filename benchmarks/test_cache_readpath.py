"""Warm-read latency with the lease cache on, vs the Table 2 baseline,
and the cost of a hot key's flush beside caching readers."""

import json

import pytest

from conftest import OUT_DIR, run_archived
from repro.harness import table2_latency

#: A flush of 12 writes to one key beside 7 caching readers, in cached
#: PUTs: its round trip, twelve put service times and one revocation
#: hop come to ~2.9.  When the primary took the key's lock per write,
#: readers were leased the key between two writes and each next write
#: revoked them again (35 revocations, 10.0x).
HOT_FLUSH_RATIO_CEILING = 3.5


def test_cache_readpath(benchmark):
    result, report = run_archived(benchmark, "cache")
    (OUT_DIR / "BENCH_readpath.json").write_text(json.dumps({
        "ops": result.ops,
        "uncached_get_us": result.uncached_get * 1e6,
        "cached_get_us": result.cached_get * 1e6,
        "cached_put_us": result.cached_put * 1e6,
        "speedup": result.speedup,
        "cache_hits": result.hits,
        "cache_misses": result.misses,
        "lease_revocations": result.revocations,
        "hot_flush_us": result.hot_flush * 1e6,
        "hot_flush_ratio": result.hot_flush_ratio,
        "hot_flush_revocations": result.hot_revocations,
    }, indent=2) + "\n")

    # The acceptance bar: warm reads at least 5x cheaper than the
    # always-ship read path.
    assert result.speedup >= 5.0, report
    # Every measured warm read was a cache hit (one cold miss to grant).
    assert result.hits >= result.ops
    # The write path is unchanged: both the cache-on PUT and the
    # cache-off GET still sit on the Table 2 crucial calibration.
    paper_put, paper_get = table2_latency.PAPER["crucial"]
    assert result.cached_put == pytest.approx(paper_put, rel=0.15)
    assert result.uncached_get == pytest.approx(paper_get, rel=0.15)
    # A hot key's flush revokes its readers once, not once per write.
    assert result.hot_flush_ratio <= HOT_FLUSH_RATIO_CEILING, report
