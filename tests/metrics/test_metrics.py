"""Unit tests for metrics: recorder, Table 3 cost formula, report tables."""

import collections
import functools
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import CrucialEnvironment, NodeRentMeter
from repro.config import DEFAULT_CONFIG
from repro.harness import fig4_logreg, fig5_kmeans, table3_costs
from repro.harness.table3_costs import (
    PRICES,
    crucial_cost,
    crucial_rate,
    spark_cost,
    spark_rate,
)
from repro.metrics import (
    ThroughputTracker,
    comparison_table,
    cost_summary,
    percentile,
    render_table,
)
from repro.ml.dataset import MLDataset
from repro.ml.kmeans import CrucialKMeans
from repro.ml.logreg import CrucialLogisticRegression
from repro.simulation.thread import sleep
from repro.sparklike import KMeansMLlib, LogisticRegressionWithSGD


# -- recorder -----------------------------------------------------------------


def test_throughput_tracker_buckets():
    tracker = ThroughputTracker()
    for t in (0.1, 0.2, 1.5, 2.9, 2.95):
        tracker.record(t)
    assert tracker.rate_between(0, 3) == pytest.approx(5 / 3)


def test_throughput_tracker_empty_window():
    tracker = ThroughputTracker()
    assert tracker.rate_between(5, 5) == 0.0


def test_rate_between_non_aligned_window():
    """Regression: the old implementation averaged whole-bucket rates,
    dropping the trailing partial bucket and dividing by bucket count
    instead of elapsed time."""
    tracker = ThroughputTracker()
    for t in (0.1, 0.2, 1.5, 2.2, 2.9):
        tracker.record(t)
    # [0, 2.5) holds 4 events over 2.5s — exactly events/elapsed.
    assert tracker.rate_between(0.0, 2.5) == pytest.approx(4 / 2.5)
    # A non-aligned start must not count events before the window.
    assert tracker.rate_between(0.15, 2.5) == pytest.approx(3 / 2.35)


def test_throughput_tracker_out_of_order_record():
    tracker = ThroughputTracker()
    for t in (1.0, 0.5, 2.0):
        tracker.record(t)
    assert tracker.count_between(0.0, 1.5) == 2


def test_percentile_rejects_empty_input_and_q_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 150)


def test_percentile_linear_interpolation():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 99) == pytest.approx(99.01)
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 100.0
    assert percentile([1.0, 2.0], 50) == pytest.approx(1.5)


def test_percentile_p999_no_longer_pins_to_max():
    """Regression: nearest-rank pinned p999 to the sample maximum for
    any n < 1000; interpolation must sit below a lone outlier."""
    values = [1.0] * 99 + [1000.0]
    assert percentile(values, 99.9) < 1000.0
    assert percentile(values, 99.9) == pytest.approx(1.0 + 999 * 0.901)


# -- property tests (hypothesis) ---------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=40),
    qs=st.tuples(st.floats(min_value=0, max_value=100),
                 st.floats(min_value=0, max_value=100)),
)
# Equal neighbours used to blend to an ulp off the sample: below the
# minimum, above the maximum, and out of order in q.
@example(values=[0.000228, 0.000228], qs=(0.8, 1.7))
@example(values=[-767685.9258694759] * 4,
         qs=(20.12000617915647, 90.53894035696106))
@example(values=[-509148.28389608726] * 2,
         qs=(56.02575960634735, 60.53527496610309))
def test_percentile_monotone_and_bounded(values, qs):
    lo, hi = sorted(qs)
    p_lo = percentile(values, lo)
    p_hi = percentile(values, hi)
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
    tracker = ThroughputTracker()
    for t in events:
        tracker.record(t)
    start, span = window
    end = start + span
    expected = sum(1 for t in events if start <= t < end) / span
    assert tracker.rate_between(start, end) == pytest.approx(expected)


# -- Table 3 cost formula --------------------------------------------------


def test_crucial_rate_matches_section_623():
    # "0.25 and 0.28 cents per second for 1792MB and 2048MB"
    assert crucial_rate(80, 1792) * 100 == pytest.approx(0.25, abs=0.01)
    assert crucial_rate(80, 2048) * 100 == pytest.approx(0.28, abs=0.01)


def test_spark_rate_matches_section_623():
    # "0.15 cents per second" for the 11-node EMR cluster.
    assert spark_rate() * 100 == pytest.approx(0.15, abs=0.01)


def test_spark_rate_prices_the_configured_cluster():
    """The EMR bill follows ``config.spark.worker_nodes`` (plus one
    master), not a second copy of the cluster size."""
    config = replace(DEFAULT_CONFIG, spark=replace(DEFAULT_CONFIG.spark,
                                                   worker_nodes=20))
    assert spark_rate(config) == pytest.approx(spark_rate() * 21 / 11)


def test_crucial_experiment_cost_breakdown():
    cost = crucial_cost(total_seconds=87, iteration_seconds=20.4,
                        functions=80, memory_mb=2048)
    # Table 3: k-means (k=25) Crucial: total $0.244, iterations $0.057.
    assert cost.total_dollars == pytest.approx(0.244, abs=0.02)
    assert cost.iteration_dollars == pytest.approx(0.057, abs=0.005)


def test_spark_experiment_cost_breakdown():
    cost = spark_cost(total_seconds=168, iteration_seconds=34)
    # Table 3: k-means (k=25) Spark: total $0.246, iterations $0.050.
    assert cost.total_dollars == pytest.approx(0.246, abs=0.01)
    assert cost.iteration_dollars == pytest.approx(0.050, abs=0.005)


@pytest.fixture
def trainings(monkeypatch):
    """Counts training runs per (trainer, k) over empty run caches, on
    a small k-means sample (k=200's host cost is in the points)."""
    def clear():
        fig4_logreg._compare.cache_clear()
        for runner in fig5_kmeans.RUNNERS.values():
            runner.cache_clear()

    counts = collections.Counter()
    for trainer in (CrucialKMeans, KMeansMLlib, CrucialLogisticRegression,
                    LogisticRegressionWithSGD):
        def train(self, *args, _train=trainer.train):
            counts[(type(self).__name__, getattr(self, "k", None))] += 1
            return _train(self, *args)
        monkeypatch.setattr(trainer, "train", train)
    monkeypatch.setattr(fig5_kmeans, "MLDataset", functools.partial(
        MLDataset, materialized_points=400))
    clear()
    yield counts
    clear()


def test_table3_prices_the_runs_fig4_and_fig5_made(trainings):
    workers = 10
    fig5 = fig5_kmeans.run(ks=(25, 200), iterations=1, workers=workers)
    fig4 = fig4_logreg.run(iterations=2, workers=workers)
    costs = table3_costs.run(iterations_logreg=2, iterations_kmeans=1,
                             workers=workers).costs
    requests = PRICES.lambda_dollars(0, workers)
    for k in (25, 200):
        for system, rate, fixed in (
                ("crucial", crucial_rate(workers, 2048), requests),
                ("spark", spark_rate(), 0.0)):
            cost = costs[(f"k-means k={k}", system)]
            total = fig5.total_times[(system, k)]
            assert cost.iteration_dollars == \
                rate * fig5.iteration_times[(system, k)]
            assert cost.total_dollars == rate * total + fixed
    rate = crucial_rate(workers, 1792)
    crucial = costs[("logistic regression", "crucial")]
    assert crucial.iteration_dollars == rate * fig4.crucial_iter
    assert crucial.total_dollars == rate * fig4.crucial_total + requests
    spark = costs[("logistic regression", "spark")]
    assert spark.iteration_dollars == spark_rate() * fig4.spark_iter
    assert spark.total_dollars == spark_rate() * fig4.spark_total
    # Each training ran once: Table 3 read the figures' runs.
    assert set(trainings.values()) == {1}
    assert sorted(trainings) == [
        ("CrucialKMeans", 25), ("CrucialKMeans", 200),
        ("CrucialLogisticRegression", None), ("KMeansMLlib", 25),
        ("KMeansMLlib", 200), ("LogisticRegressionWithSGD", None)]


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


def test_cost_summary_shows_node_rent_in_node_hours():
    """Node rent is not storage: the grid's row reads in node-hours,
    an S3 row in GB-hours, and both rents sit under "rent $"."""
    with CrucialEnvironment(seed=3, dso_nodes=2) as env:
        NodeRentMeter(env, env.cost_ledger)
        env.object_store.seed("dataset", b"", nbytes=10 ** 9)

        def main():
            sleep(3600.0)
            return cost_summary(env.cost_ledger)

        lines = env.run(main).splitlines()
    rows = {cells[0]: cells for cells in
            ([cell.strip() for cell in line.split("|")] for line in lines)}
    assert rows["component"][4:6] == ["occupancy", "rent $"]
    assert rows["grid-nodes"][1] == "compute"
    assert rows["grid-nodes"][4:6] == ["2 node-h", "$1.008000"]
    assert rows["s3"][4] == "1 GB-h"
