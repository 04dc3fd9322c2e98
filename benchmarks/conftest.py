"""Shared helpers for the benchmark suite.

Each benchmark runs the corresponding experiment harness once under
pytest-benchmark (real wall time is what the benchmark records; the
scientific results are *virtual-time* measurements), prints the
paper-vs-measured report, and archives it under ``benchmarks/out/`` —
EXPERIMENTS.md is assembled from those files.

Set ``REPRO_BENCH_FULL=1`` to run every experiment at full paper scale
(more threads / repetitions / longer windows); the default sizes keep
the whole suite around a few minutes while preserving every reported
shape.
"""

import os
import pathlib

from repro.__main__ import EXPERIMENTS

OUT_DIR = pathlib.Path(__file__).parent / "out"


def full_scale() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "") == "1"


def archive(name: str, report: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(report + "\n")
    print("\n" + report)


def run_archived(benchmark, name: str):
    """Run experiment ``name`` once under pytest-benchmark, at the
    scale ``REPRO_BENCH_FULL`` selects, and archive its report.

    What ``name`` runs, with which arguments, and where the report
    goes all come from ``repro.__main__.EXPERIMENTS`` — the table the
    CLI runs from.  Returns ``(result, report)``.
    """
    module, spec = EXPERIMENTS[name]
    kwargs = spec["full" if full_scale() else "default"]
    result = benchmark.pedantic(module.run, kwargs=kwargs,
                                rounds=1, iterations=1)
    report = module.report(result)
    archive(spec["archive"], report)
    return result, report
