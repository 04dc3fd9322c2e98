"""Transaction overhead vs raw invokes, plus contention counters."""

import json

import pytest

from conftest import OUT_DIR, run_archived

# CI floors (virtual-time ratios, so wall-clock jitter cannot move
# them): a SIZE-key read-atomic commit must stay within 1.5x of SIZE
# plain sequential invokes — two scatter-gather rounds (prepare +
# commit), each the slowest of its per-primary round trips, against
# SIZE independent round trips; 2.12x when the groups of a flush
# shipped one after another — and the validated snapshot read within
# 2x of the non-atomic read_bulk sweep (measured 1.51x: one round trip
# per key).  Under the mixed load (eight threads on one endpoint, 5 %
# transactions) a GET's p99 stays within 1.5x of a lone GET: measured
# 1.14x with one async queue per thread; 7.33x when every synchronous
# verb drained the endpoint's shared queue, other threads' transaction
# batches included.
OVERHEAD_RATIO_CEILING = 1.5
READ_RATIO_CEILING = 2.0
MIXED_GET_RATIO_CEILING = 1.5


def test_txn_atomicity(benchmark):
    result, report = run_archived(benchmark, "txn")
    (OUT_DIR / "BENCH_txn.json").write_text(json.dumps({
        "size": result.size,
        "reps": result.reps,
        "txn_commit_us": result.txn_commit_time * 1e6,
        "seq_invoke_us": result.seq_invoke_time * 1e6,
        "overhead_ratio": result.overhead_ratio,
        "txn_read_us": result.txn_read_time * 1e6,
        "bulk_read_us": result.bulk_read_time * 1e6,
        "read_ratio": result.read_ratio,
        "contended_txns": result.contended_txns,
        "aborts": result.aborts,
        "abort_rate": result.abort_rate,
        "read_retries": result.read_retries,
        "forced_fetches": result.forced_fetches,
        "mixed_get_p99_us": result.mixed_get_p99_time * 1e6,
        "lone_get_us": result.lone_get_time * 1e6,
        "mixed_get_ratio": result.mixed_get_ratio,
    }, indent=2) + "\n")

    assert result.overhead_ratio <= OVERHEAD_RATIO_CEILING, report
    assert result.read_ratio <= READ_RATIO_CEILING, report
    assert result.mixed_get_ratio <= MIXED_GET_RATIO_CEILING, report
    # The commit still does real work: it cannot be cheaper than one
    # baseline invoke (that would mean the measured window is broken).
    assert result.txn_commit_time > result.seq_invoke_time / result.size
    # No conflict detection => no contention aborts on a healthy
    # cluster; a nonzero rate means spurious aborts crept in.
    assert result.aborts == 0, report
    assert result.contended_txns > 0
