"""Fig. 7c: the Santa Claus problem across deployments."""

from conftest import run_archived


def test_fig7c_santa(benchmark):
    result, _report = run_archived(benchmark, "fig7c")

    # All three variants solve the problem completely.
    assert all(r.deliveries == 15 for r in result.results.values())
    # Paper: storing the objects in Crucial costs ~8%.
    assert -0.02 < result.overhead("dso") < 0.25
    # Cloud threads add little beyond invocation overhead.
    assert result.overhead("cloud") < result.overhead("dso") + 0.20
