"""Shared helpers for the benchmark suite.

``test_experiments.py`` runs each experiment once under pytest-benchmark
(real wall time is what the benchmark records; the scientific results
are *virtual-time* measurements) and archives its report under
``benchmarks/out/``.

Set ``REPRO_BENCH_FULL=1`` to run every experiment at full paper scale
(more threads / repetitions / longer windows); the default sizes keep
the whole suite around a few minutes while preserving every reported
shape.
"""

import os

from repro.__main__ import EXPERIMENTS, OUT_DIR


def run_archived(benchmark, name: str):
    """Run experiment ``name`` once under pytest-benchmark, at the
    scale ``REPRO_BENCH_FULL`` selects, and archive its report.

    What ``name`` runs, with which arguments, and where the report
    goes all come from ``repro.__main__.EXPERIMENTS`` — the table the
    CLI runs from.  Returns ``(result, report)``.
    """
    module, spec = EXPERIMENTS[name]
    scale = "full" if os.environ.get("REPRO_BENCH_FULL") == "1" else "default"
    result = benchmark.pedantic(module.run, kwargs=spec[scale],
                                rounds=1, iterations=1)
    report = module.report(result)
    (OUT_DIR / f"{spec['archive']}.txt").write_text(report + "\n")
    print("\n" + report)
    return result, report
