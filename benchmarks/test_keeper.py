"""Coordination service: recipes, fan-out, expiry, election floors."""

import json

from conftest import OUT_DIR, run_archived
from repro.harness.keeper import SESSION_TTL


def test_keeper(benchmark):
    result, report = run_archived(benchmark, "keeper")
    (OUT_DIR / "BENCH_keeper.json").write_text(json.dumps({
        "session_ttl": SESSION_TTL,
        "barrier_parties": result.barrier_parties,
        "barrier_rounds": result.barrier_rounds,
        "barrier_passes": result.barrier_passes,
        "sem_workers": result.sem_workers,
        "sem_permits": result.sem_permits,
        "sem_acquisitions": result.sem_acquisitions,
        "sem_max_concurrent": result.sem_max_concurrent,
        "failovers": result.failovers,
        "convergences_s": result.convergences_s,
        "watchers": result.watchers,
        "updates": result.updates,
        "fanout_p50_ms": result.fanout_p50_ms,
        "fanout_p99_ms": result.fanout_p99_ms,
        "expiry_detections_s": result.expiry_detections_s,
        "watch_violations": result.watch_violations,
        "load_requests": result.load_requests,
        "load_errors": result.load_errors,
    }, indent=2) + "\n")

    # Exact rendezvous counts: the recipes match the scenario sizes.
    assert result.barrier_passes \
        == result.barrier_parties * result.barrier_rounds, report
    assert result.sem_acquisitions == result.sem_workers, report
    assert result.sem_max_concurrent == result.sem_permits, report
    # Every leader failover converges, within lease expiry + one
    # watch hop (the chaos suite pins the same bound per seed).
    assert len(result.convergences_s) == result.failovers, report
    assert result.convergence_max_s <= 2 * SESSION_TTL, report
    # A dead holder's ephemerals vanish within twice the lease TTL.
    assert result.expiry_max_s <= 2 * SESSION_TTL, report
    # Watch fan-out tail: one SQS delivery hop, heavy tail included.
    assert result.fanout_p99_ms <= 2000.0, report
    # Ordered delivery held for every watcher; background load clean.
    assert result.watch_violations == 0, report
    assert result.load_errors == 0, report
