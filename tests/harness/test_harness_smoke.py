"""Smoke tests: every harness runs through the experiment runner at
its ``smoke`` scale and its report renders.  Default-scale shapes are
asserted in benchmarks/."""

import functools

import pytest

from repro.harness import fig2b_montecarlo, serving, table2_latency
from repro.harness.claims import INFO, Bound
from repro.harness.runner import EXPERIMENTS, run


@functools.cache
def smoke(name):
    """Experiment ``name`` at smoke scale, run once for all its tests."""
    return run(name, "smoke")


def test_table2_small():
    outcome = smoke("table2")
    assert "Table 2" in outcome.report
    assert set(outcome.result.averages) == set(table2_latency.PAPER)


def test_fig2a_small():
    outcome = smoke("fig2a")
    assert "Fig. 2a" in outcome.report
    assert all(v > 0 for v in outcome.result.throughput.values())


def test_fig2b_small():
    outcome = smoke("fig2b")
    assert outcome.result.speedup(8) > 5
    assert "Fig. 2b" in outcome.report


def test_fig3_small():
    outcome = smoke("fig3")
    assert outcome.result.curves["vm-8-cores"][16] < 0.6
    assert outcome.result.curves["crucial"][16] > 0.9
    assert "Fig. 3" in outcome.report


def test_fig4_small():
    outcome = smoke("fig4")
    assert outcome.result.crucial_iter < outcome.result.spark_iter
    assert "Fig. 4" in outcome.report


def test_fig6_small():
    outcome = smoke("fig6")
    assert outcome.result.mean("auto-reduce") < outcome.result.mean("sqs")
    assert "Fig. 6" in outcome.report


def test_fig7a_small():
    outcome = smoke("fig7a")
    waits = outcome.result.waits
    assert waits[("crucial", 4)] < waits[("sns-sqs", 4)]
    assert "Fig. 7a" in outcome.report


def test_fig7b_small():
    outcome = smoke("fig7b")
    stages = outcome.result.phases["per-iteration stages"]
    barrier = outcome.result.phases["single stage + barrier"]
    assert stages["s3_read"] > barrier["s3_read"]
    assert "Fig. 7b" in outcome.report


def test_fig7c_small():
    outcome = smoke("fig7c")
    assert all(r.deliveries == 4 for r in outcome.result.results.values())
    assert "Fig. 7c" in outcome.report


def test_fig8_small():
    outcome = smoke("fig8")
    assert outcome.result.steady() > 0
    assert outcome.result.run.total > 0
    assert "Fig. 8" in outcome.report


def test_table4_report():
    outcome = smoke("table4")
    assert len(outcome.result.rows) == 4
    assert "Table 4" in outcome.report


def test_fig2a_report_contains_ratios():
    assert "complex ops" in smoke("fig2a").report


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
    for name, (module, _row) in EXPERIMENTS.items():
        assert module.CLAIMS, name
        for claim in module.CLAIMS:
            assert claim.id.startswith(f"{name}."), claim.id
            assert claim.id not in seen, claim.id
            seen.add(claim.id)
            assert isinstance(claim.bound, Bound), claim.id
            assert claim.bound is INFO or claim.bound != INFO, claim.id
            claim.row(claim.paper)


def test_rows_declare_scales_once():
    """A row names its archive and its non-default scales, nothing
    else: the default scale is the harness's ``run()`` defaults."""
    for name, (_module, row) in EXPERIMENTS.items():
        assert set(row) <= {"archive", "bench", "full", "smoke"}, name
    with pytest.raises(ValueError):
        run("table4", "default ")


def test_ablation_small():
    outcome = smoke("ablation")
    assert "Ablation" in outcome.report
    m = outcome.result.measurements
    assert m[("data-shipping", 8)][1] > m[("method-shipping", 8)][1]


def test_serving_small():
    outcome = smoke("serving")
    assert "open-loop serving" in outcome.report
    assert set(outcome.result.points) == set(serving.POINTS)
    for point in outcome.result.points.values():
        assert point.errors == 0
        assert point.requests > 0
        assert point.sustained_tput > 0
