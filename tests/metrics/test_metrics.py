"""Unit tests for metrics: recorder, cost model, report tables."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics import (
    CostModel,
    ThroughputTracker,
    TimeSeries,
    comparison_table,
    percentile,
    render_table,
)


# -- recorder -----------------------------------------------------------------


def test_time_series_stats():
    series = TimeSeries("latency")
    for t, v in enumerate([1.0, 3.0, 2.0]):
        series.add(float(t), v)
    assert series.mean() == pytest.approx(2.0)
    assert series.maximum() == 3.0
    assert TimeSeries("empty").mean() == 0.0


def test_throughput_tracker_buckets():
    tracker = ThroughputTracker(bucket_width=1.0)
    for t in (0.1, 0.2, 1.5, 2.9, 2.95):
        tracker.record(t)
    assert tracker.series(0, 3) == [2.0, 1.0, 2.0]
    assert tracker.rate_between(0, 3) == pytest.approx(5 / 3)


def test_throughput_tracker_empty_window():
    tracker = ThroughputTracker()
    assert tracker.rate_between(5, 5) == 0.0


def test_rate_between_non_aligned_window():
    """Regression: the old implementation averaged whole-bucket rates,
    dropping the trailing partial bucket and dividing by bucket count
    instead of elapsed time."""
    tracker = ThroughputTracker(bucket_width=1.0)
    for t in (0.1, 0.2, 1.5, 2.2, 2.9):
        tracker.record(t)
    # [0, 2.5) holds 4 events over 2.5s — exactly events/elapsed.
    assert tracker.rate_between(0.0, 2.5) == pytest.approx(4 / 2.5)
    # A non-aligned start must not count events before the window.
    assert tracker.rate_between(0.15, 2.5) == pytest.approx(3 / 2.35)


def test_series_partial_edge_buckets():
    tracker = ThroughputTracker(bucket_width=1.0)
    for t in (0.1, 0.2, 1.5, 2.2, 2.9):
        tracker.record(t)
    # The trailing [2.0, 2.5) half-bucket holds one event: 2/s, not
    # dropped (old bug) and not diluted to 1/s.
    assert tracker.series(0.0, 2.5) == [2.0, 1.0, 2.0]
    # Leading partial bucket [0.15, 1.0) sees only the 0.2 event.
    first = tracker.series(0.15, 3.0)[0]
    assert first == pytest.approx(1 / 0.85)


def test_throughput_tracker_out_of_order_record():
    tracker = ThroughputTracker(bucket_width=1.0)
    for t in (1.0, 0.5, 2.0):
        tracker.record(t)
    assert tracker.count_between(0.0, 1.5) == 2


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50, method="nearest") == 50.0
    assert percentile(values, 99, method="nearest") == 99.0
    assert percentile(values, 100, method="nearest") == 100.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 150)
    with pytest.raises(ValueError):
        percentile([1.0], 50, method="median-of-vibes")


def test_percentile_linear_interpolation():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 99) == pytest.approx(99.01)
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 100.0
    assert percentile([1.0, 2.0], 50) == pytest.approx(1.5)


def test_percentile_p999_no_longer_pins_to_max():
    """Regression: nearest-rank pinned p999 to the sample maximum for
    any n < 1000; the interpolated default must sit below a lone
    outlier."""
    values = [1.0] * 99 + [1000.0]
    assert percentile(values, 99.9, method="nearest") == 1000.0
    assert percentile(values, 99.9) < 1000.0
    assert percentile(values, 99.9) == pytest.approx(1.0 + 999 * 0.901)


# -- property tests (hypothesis) ---------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=40),
    qs=st.tuples(st.floats(min_value=0, max_value=100),
                 st.floats(min_value=0, max_value=100)),
    method=st.sampled_from(["linear", "nearest"]),
)
# Equal neighbours used to blend to an ulp off the sample: below the
# minimum, above the maximum, and out of order in q.
@example(values=[0.000228, 0.000228], qs=(0.8, 1.7), method="linear")
@example(values=[-767685.9258694759] * 4,
         qs=(20.12000617915647, 90.53894035696106), method="linear")
@example(values=[-509148.28389608726] * 2,
         qs=(56.02575960634735, 60.53527496610309), method="linear")
def test_percentile_monotone_and_bounded(values, qs, method):
    lo, hi = sorted(qs)
    p_lo = percentile(values, lo, method=method)
    p_hi = percentile(values, hi, method=method)
    assert p_lo <= p_hi
    assert min(values) <= p_lo <= max(values)
    assert min(values) <= p_hi <= max(values)


@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(st.floats(min_value=0, max_value=100,
                              allow_nan=False), max_size=50),
    window=st.tuples(st.floats(min_value=0, max_value=100),
                     st.floats(min_value=0.1, max_value=50)),
)
def test_rate_between_equals_events_over_elapsed(events, window):
    tracker = ThroughputTracker(bucket_width=1.0)
    for t in events:
        tracker.record(t)
    start, span = window
    end = start + span
    expected = sum(1 for t in events if start <= t < end) / span
    assert tracker.rate_between(start, end) == pytest.approx(expected)
    # The bucketed series integrates back to the same count.
    total = sum(rate * width for rate, width in zip(
        tracker.series(start, end),
        _bucket_widths(start, end, tracker.bucket_width)))
    assert total == pytest.approx(expected * span)


def _bucket_widths(start, end, width):
    import math

    out = []
    for bucket in range(int(start // width), math.ceil(end / width)):
        lo = max(start, bucket * width)
        hi = min(end, (bucket + 1) * width)
        if hi > lo:
            out.append(hi - lo)
    return out


# -- cost model ------------------------------------------------------------------


def test_crucial_rate_matches_section_623():
    model = CostModel()
    # "0.25 and 0.28 cents per second for 1792MB and 2048MB"
    assert model.crucial_rate_per_second(80, 1792) * 100 == \
        pytest.approx(0.25, abs=0.01)
    assert model.crucial_rate_per_second(80, 2048) * 100 == \
        pytest.approx(0.28, abs=0.01)


def test_spark_rate_matches_section_623():
    model = CostModel()
    # "0.15 cents per second" for the 11-node EMR cluster.
    assert model.spark_rate_per_second() * 100 == pytest.approx(0.15,
                                                                abs=0.01)


def test_crucial_experiment_cost_breakdown():
    model = CostModel()
    cost = model.crucial_experiment("k-means", total_seconds=87,
                                    iteration_seconds=20.4,
                                    functions=80, memory_mb=2048)
    # Table 3: k-means (k=25) Crucial: total $0.244, iterations $0.057.
    assert cost.total_dollars == pytest.approx(0.244, abs=0.02)
    assert cost.iteration_dollars == pytest.approx(0.057, abs=0.005)


def test_spark_experiment_cost_breakdown():
    model = CostModel()
    cost = model.spark_experiment("k-means", total_seconds=168,
                                  iteration_seconds=34)
    # Table 3: k-means (k=25) Spark: total $0.246, iterations $0.050.
    assert cost.total_dollars == pytest.approx(0.246, abs=0.01)
    assert cost.iteration_dollars == pytest.approx(0.050, abs=0.005)


# -- report ------------------------------------------------------------------------


def test_render_table_alignment():
    text = render_table(["name", "value"], [("a", 1.0), ("bbbb", 22.5)],
                        title="demo")
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert "name" in lines[1] and "value" in lines[1]
    assert len(lines) == 5


def test_comparison_table_ratio():
    text = comparison_table("t", [("x", 2.0, 1.0)], unit="s")
    assert "0.50x" in text
    assert "2s" in text
