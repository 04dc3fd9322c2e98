"""Warm-read latency with the lease cache on, vs the Table 2 baseline."""

import json

import pytest

from conftest import OUT_DIR, run_archived
from repro.harness import table2_latency


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
