"""Fig. 7b: phase breakdown — per-iteration stages vs single stage."""

from conftest import run_archived


def test_fig7b_breakdown(benchmark):
    result, _report = run_archived(benchmark, "fig7b")

    stages = result.phases["per-iteration stages"]
    barrier = result.phases["single stage + barrier"]
    # Re-reading input every iteration dominates approach (a).
    assert stages["s3_read"] > 3 * barrier["s3_read"]
    # The single-stage approach wins overall.
    assert sum(barrier.values()) < 0.75 * sum(stages.values())
    # Barrier synchronization is a small fraction of the total.
    assert barrier["sync"] < 0.1 * sum(barrier.values())
    # Compute work is identical across approaches.
    assert abs(stages["compute"] - barrier["compute"]) \
        < 0.2 * barrier["compute"]
