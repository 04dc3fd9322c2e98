"""Fig. 2b: Monte Carlo scalability up to 800 cloud threads."""

import math

from conftest import run_archived


def test_fig2b_montecarlo(benchmark):
    result, _report = run_archived(benchmark, "fig2b")

    # Paper: 512x speedup at 800 threads, 8.4G points/s.
    speedup = result.speedup(800)
    assert 400 < speedup < 700
    assert 6e9 < result.runs[800][2] < 10e9
    # Scaling is near-linear early on.
    assert result.speedup(50) > 40
    # And the estimates actually converge to pi.
    for threads, (estimate, _t, _pps) in result.runs.items():
        assert abs(estimate - math.pi) < 1e-3, threads
