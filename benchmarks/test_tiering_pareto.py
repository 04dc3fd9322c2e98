"""Cost-vs-latency Pareto sweep across storage placements."""

import json
import math

from conftest import OUT_DIR, run_archived


def test_tiering_pareto(benchmark):
    result, report = run_archived(benchmark, "tiering")
    (OUT_DIR / "BENCH_tiering.json").write_text(json.dumps({
        "objects": result.objects,
        "object_bytes": result.object_bytes,
        "reads": result.reads,
        "points": [
            {
                "label": point.label,
                "mean_read_ms": point.mean_read * 1e3,
                "p99_read_ms": point.p99_read * 1e3,
                "hot_read_ms": (None if math.isnan(point.hot_read)
                                else point.hot_read * 1e3),
                "dollars_per_gb_month": point.dollars_per_gb_month,
                "request_dollars": point.request_dollars,
                "hot_fraction": point.hot_fraction,
                "promotions": point.promotions,
                "demotions": point.demotions,
            }
            for point in result.points.values()
        ],
    }, indent=2) + "\n")

    hot = result.points["all-hot"]
    cold = result.points["all-cold"]
    tiered = result.points["tiered"]
    # The Pareto claim: tiered strictly dominates all-cold on latency
    # and all-hot on dollars.
    assert tiered.mean_read < cold.mean_read, report
    assert tiered.dollars_per_gb_month < hot.dollars_per_gb_month, report
    # Hot-path floor: a read that finds its key on the memory tier
    # costs at most 1.5x the all-in-memory baseline.
    assert tiered.hot_read <= 1.5 * hot.mean_read, report
    # Cost floor: the placement policy keeps the effective capacity
    # price under half of keeping everything in RAM.
    assert tiered.dollars_per_gb_month <= 0.5 * hot.dollars_per_gb_month, \
        report
    # The policy actually moved data both ways.
    assert tiered.promotions > 0 and tiered.demotions > 0, report
