"""The fractured-read hunter: fuzzing transactions under chaos.

A seeded exploration workload runs multi-key transactions while a
fault plan kills the write set's primary *inside* a commit window,
then audits each trial with the cross-partition atomicity pass
(:mod:`repro.linearizability.atomicity`): no fractured reads, and the
quiescent state must equal the acknowledged commit log per key.

The mutation pair mirrors ``test_mutation_smoke``:
the ``"no-commit-fence"`` mutation disables the server-side commit
fence, so a commit retried at a promoted backup (whose unreplicated
prepare died with the old primary) silently installs *nothing* while
still acknowledging — the classic lost-update-by-failover bug.  The
hunter must find the resulting half-committed state within a bounded
trial budget, and must stay quiet with the fence on.
"""

import random

from repro import ExplorationRunner
from repro.mutation import mutation
from repro.chaos import ChaosInjector, FaultPlan
from repro.config import DEFAULT_CONFIG
from repro.errors import TxnError
from repro.linearizability import (
    final_state_violations,
    find_fractured_reads,
)
from repro.simulation.thread import sleep

KEYS = ("h-a", "h-b")
ROUNDS = 4
TRIALS = 6  # bounded budget: the planted bug must surface within these


def workload(trial):
    """Sequential multi-key transactions with a primary kill landed
    inside one commit's prepare->commit window (seed-jittered so the
    trials sweep the window), then a transactional read-back and a
    final-state audit snapshot."""
    rnd = random.Random(trial.seed)
    crash_jitter = 0.0002 + rnd.random() * 0.001
    with trial.environment(dso_nodes=3) as env:
        layer = env.dso
        injector = ChaosInjector(env.kernel, network=env.network,
                                 dso=layer)

        def main():
            with env.transaction(rf=2) as txn:
                for key in KEYS:
                    txn.write(key, 0)
            primary = layer.placement_of(layer.txns.ref(KEYS[0], 2))[0]
            for round_no in range(1, ROUNDS + 1):
                with env.transaction(rf=2) as txn:
                    for key in KEYS:
                        txn.write(key, round_no)
                    if round_no == ROUNDS:
                        # The *last* commit straddles the crash, so a
                        # silently dropped write has no later commit
                        # to mask it from the final-state audit.
                        injector.schedule(FaultPlan().add(
                            env.now + crash_jitter, "crash_node",
                            primary))
                sleep(0.001)
            sleep(DEFAULT_CONFIG.dso.failure_detection + 2.0)
            try:
                with env.transaction(rf=2) as txn:
                    for key in KEYS:
                        txn.read(key)
            except TxnError:
                pass  # aborted rather than fractured: fine
            final_cids = {
                key: layer.invoke("client", layer.txns.ref(key, 2),
                                  "latest_cid", ctor=layer.txns.ctor())
                for key in KEYS}
            return (tuple(layer.txns.log), tuple(layer.txns.reads),
                    final_cids)

        return env.run(main)


def read_atomic(trial, value):
    commits, reads, _ = value
    violations = find_fractured_reads(list(commits), list(reads))
    assert not violations, "; ".join(v.describe() for v in violations)
    return True


def final_equals_acked(trial, value):
    commits, _, final_cids = value
    findings = final_state_violations(list(commits), final_cids)
    assert not findings, "; ".join(findings)
    return True


def explore():
    return ExplorationRunner(
        workload, trials=TRIALS, base_seed=42, scheduler="random",
        scheduler_opts={"preempt_prob": 0.05},
        invariants=[read_atomic, final_equals_acked],
        shrink=False).run()


def test_hunter_finds_dropped_commit_without_the_fence():
    with mutation("no-commit-fence"):
        report = explore()
    assert report.failures, (
        "planted fence bug not found within "
        f"{TRIALS} trials:\n" + report.summary())
    failure = report.failures[0]
    # The half-committed state is caught by the final-state audit.
    assert any("final_equals_acked" in p for p in failure.problems), \
        failure.describe()
    # Every failure carries its reproduction handle.
    for failing in report.failures:
        assert failing.schedule_id
        assert failing.schedule.decisions is not None


def test_hunter_is_quiet_with_the_fence_on():
    report = explore()
    assert report.ok, report.summary()
