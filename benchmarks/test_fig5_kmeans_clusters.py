"""Fig. 5: k-means completion time vs number of clusters."""

from conftest import run_archived


def test_fig5_kmeans_clusters(benchmark):
    result, _report = run_archived(benchmark, "fig5")

    iteration = result.iteration_times
    # Paper: k=25 Crucial ~40% faster than Spark (20.4s vs 34s).
    gain = 1.0 - iteration[("crucial", 25)] / iteration[("spark", 25)]
    assert 0.25 < gain < 0.55
    assert 15 < iteration[("crucial", 25)] < 26
    assert 28 < iteration[("spark", 25)] < 42
    # The relative gap narrows as k grows.
    gap_small = gain
    gap_large = 1.0 - (iteration[("crucial", 200)]
                       / iteration[("spark", 200)])
    assert gap_large < gap_small
    # The Redis-backed variant is always slower than Crucial.
    for k in {k for _system, k in iteration}:
        assert iteration[("redis", k)] > iteration[("crucial", k)]
