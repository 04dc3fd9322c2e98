import pytest

import stats


def test_percentile_interpolates_linearly():
    assert stats.percentile([1, 2, 3, 4], 50) == 2.5
    assert stats.percentile([10.0], 99) == 10.0
    assert stats.percentile(list(range(101)), 95) == 95
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("n, q, beyond", [
    (1024, 99.0, 11),   # forkjoin_iter: 32 workers x 32 iterations
    (1000, 99.0, 10),
    (901, 99.0, 9),     # one sample short of supporting p99
    (384, 95.0, 20),
    (384, 99.0, 4),
])
def test_samples_beyond_counts_strictly_greater_ranks(n, q, beyond):
    assert stats.samples_beyond(n, q) == beyond
    ordered = list(range(n))
    cut = stats.percentile(ordered, q)
    assert sum(1 for v in ordered if v > cut) == beyond


def test_merged_length_is_the_union_not_the_sum():
    assert stats.merged_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert stats.merged_length([(0, 10), (2, 3), (4, 5)]) == 10
    assert stats.merged_length([]) == 0


def test_spread_is_quartile_distance_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert stats.spread(values) == pytest.approx((4.5 - 1.5) / 3.0)
    assert stats.spread([7.0]) == 0.0


def test_fingerprint_sees_one_ulp_and_kind():
    ops = [("get", 0.0, 1.0, True), ("put", 1.0, 2.0, True)]
    base = stats.fingerprint(ops)
    assert stats.fingerprint(list(ops)) == base
    nudged = [("get", 0.0, 1.0000000000000002, True), ops[1]]
    assert stats.fingerprint(nudged) != base
    assert stats.fingerprint([("put", 0.0, 1.0, True), ops[1]]) != base
