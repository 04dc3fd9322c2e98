"""Smoke tests: every harness runs at reduced scale and its report
renders.  Full-scale shapes are asserted in benchmarks/."""

import pytest

from repro.__main__ import EXPERIMENTS
from repro.harness import (
    ablation_shipping,
    fig2a_throughput,
    fig2b_montecarlo,
    fig3_scaleup,
    fig4_logreg,
    fig6_mapsync,
    fig7a_barrier,
    fig7b_breakdown,
    fig7c_santa,
    fig8_persistence,
    serving,
    table2_latency,
    table4_loc,
)
from repro.harness.claims import INFO, Bound


def test_table2_small():
    result = table2_latency.run(ops=40)
    report = table2_latency.report(result)
    assert "Table 2" in report
    assert set(result.averages) == set(table2_latency.PAPER)


def test_fig2a_small():
    result = fig2a_throughput.run(threads=10, window=0.05)
    report = fig2a_throughput.report(result)
    assert "Fig. 2a" in report
    assert all(v > 0 for v in result.throughput.values())


def test_fig2b_small():
    result = fig2b_montecarlo.run(thread_counts=(1, 8),
                                  draws=2_000_000)
    assert result.speedup(8) > 5
    assert "Fig. 2b" in fig2b_montecarlo.report(result)


def test_fig3_small():
    result = fig3_scaleup.run(thread_counts=(1, 16), iterations=2)
    assert result.curves["vm-8-cores"][16] < 0.6
    assert result.curves["crucial"][16] > 0.9
    assert "Fig. 3" in fig3_scaleup.report(result)


def test_fig4_small():
    result = fig4_logreg.run(iterations=5, workers=10)
    assert result.crucial_iter < result.spark_iter
    assert "Fig. 4" in fig4_logreg.report(result)


def test_fig6_small():
    result = fig6_mapsync.run(n_threads=10, draws=2_000_000,
                              repetitions=1)
    assert result.mean("auto-reduce") < result.mean("sqs")
    assert "Fig. 6" in fig6_mapsync.report(result)


def test_fig7a_small():
    result = fig7a_barrier.run(thread_counts=(4,))
    assert result.waits[("crucial", 4)] < result.waits[("sns-sqs", 4)]
    assert "Fig. 7a" in fig7a_barrier.report(result)


def test_fig7b_small():
    result = fig7b_breakdown.run(threads=4, iterations=2)
    stages = result.phases["per-iteration stages"]
    barrier = result.phases["single stage + barrier"]
    assert stages["s3_read"] > barrier["s3_read"]
    assert "Fig. 7b" in fig7b_breakdown.report(result)


def test_fig7c_small():
    result = fig7c_santa.run(deliveries=4)
    assert all(r.deliveries == 4 for r in result.results.values())
    assert "Fig. 7c" in fig7c_santa.report(result)


def test_fig8_small():
    result = fig8_persistence.run(duration=30.0, n_threads=10,
                                  n_objects=30)
    assert result.steady() > 0
    assert result.run.total > 0
    assert "Fig. 8" in fig8_persistence.report(result)


def test_table4_report():
    result = table4_loc.run()
    assert len(result.rows) == 4
    assert "Table 4" in table4_loc.report(result)


def test_fig2a_report_contains_ratios():
    result = fig2a_throughput.run(threads=8, window=0.05)
    report = fig2a_throughput.report(result)
    assert "complex ops" in report


@pytest.mark.parametrize("module,marker", [
    (table2_latency, "Table 2"),
    (fig2b_montecarlo, "512x"),
])
def test_paper_values_documented(module, marker):
    import inspect

    assert marker.lower().replace(" ", "") in \
        inspect.getsource(module).lower().replace(" ", "")


def test_every_experiment_declares_its_claims():
    """Each CLI experiment declares claims; ids are unique and carry
    the experiment's name; a claim without limits is marked INFO; and
    every claim renders its paper value."""
    seen = set()
    for name, (module, _spec) in EXPERIMENTS.items():
        assert module.CLAIMS, name
        for claim in module.CLAIMS:
            assert claim.id.startswith(f"{name}."), claim.id
            assert claim.id not in seen, claim.id
            seen.add(claim.id)
            assert isinstance(claim.bound, Bound), claim.id
            assert claim.bound is INFO or claim.bound != INFO, claim.id
            claim.row(claim.paper)


def test_ablation_small():
    result = ablation_shipping.run(worker_counts=(4, 8))
    report = ablation_shipping.report(result)
    assert "Ablation" in report
    m = result.measurements
    assert m[("data-shipping", 8)][1] > m[("method-shipping", 8)][1]


def test_serving_small():
    result = serving.run(base_rate=15.0, peak_rate=90.0, duration=14.0)
    report = serving.report(result)
    assert "open-loop serving" in report
    assert set(result.points) == set(serving.POINTS)
    for point in result.points.values():
        assert point.errors == 0
        assert point.requests > 0
        assert point.sustained_tput > 0
