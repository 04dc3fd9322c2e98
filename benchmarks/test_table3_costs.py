"""Table 3: monetary costs of the ML experiments."""

from conftest import run_archived


def test_table3_costs(benchmark):
    result, _report = run_archived(benchmark, "table3")

    costs = result.costs
    k25_crucial = costs[("k-means k=25", "crucial")]
    k25_spark = costs[("k-means k=25", "spark")]
    # Paper: similar cost at k=25 (Crucial is much faster there).
    assert abs(k25_crucial.total_dollars - k25_spark.total_dollars) \
        < 0.12
    # Paper: Crucial costlier when compute dominates (k=200).
    k200_crucial = costs[("k-means k=200", "crucial")]
    k200_spark = costs[("k-means k=200", "spark")]
    assert k200_crucial.total_dollars > k200_spark.total_dollars
    # Magnitudes within ~40% of Table 3.
    assert 0.15 < k25_crucial.total_dollars < 0.35
    assert 0.3 < k200_crucial.total_dollars < 0.95
