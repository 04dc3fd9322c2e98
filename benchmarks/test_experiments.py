"""Every experiment, archived and checked against its claims.

One case per ``repro.harness.runner.EXPERIMENTS`` entry (``-k``
selects): run it once under pytest-benchmark (which records real wall
time; the scientific results are *virtual-time* measurements), archive
what it leaves under ``benchmarks/out/``, and fail naming each claim
whose bound the measurement misses.

Set ``REPRO_BENCH_FULL=1`` to run every experiment at paper scale; the
default scale keeps every reported shape in a fraction of the time.
"""

import os

import pytest

from repro.harness import runner


@pytest.mark.parametrize("name", list(runner.EXPERIMENTS))
def test_experiment(benchmark, name):
    scale = "full" if os.environ.get("REPRO_BENCH_FULL") == "1" else "default"
    outcome = benchmark.pedantic(runner.run, args=(name, scale),
                                 rounds=1, iterations=1)
    runner.archive(outcome)
    print("\n" + outcome.report)
    assert not outcome.missed, \
        f"claims missed: {', '.join(outcome.missed)}\n{outcome.report}"
