"""Fig. 8: inference serving under storage-node churn."""

from conftest import run_archived


def test_fig8_persistence(benchmark):
    result, _report = run_archived(benchmark, "fig8")

    steady = result.steady()
    degraded = result.degraded()
    recovered = result.recovered()
    # Paper: ~490 inferences/s steady state.
    assert 380 < steady < 600
    # Paper: the crash costs ~30% of throughput, but never blocks.
    drop = 1.0 - degraded / steady
    assert 0.2 < drop < 0.45
    assert degraded > 100
    # Paper: initial throughput restored after the new node joins.
    assert recovered > 0.9 * steady
