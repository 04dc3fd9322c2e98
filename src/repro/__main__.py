"""Command-line entry point: run any experiment by name.

Usage::

    python -m repro list
    python -m repro table2
    python -m repro fig5 --full
    python -m repro all
    python -m repro claims

``--full`` runs the paper-scale configuration where a reduced default
exists.  Reports print to stdout (the same text the benchmarks
archive under ``benchmarks/out/``); ``claims`` prints the claim tables
EXPERIMENTS.md carries, from the values the benchmarks recorded.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.harness import (
    ablation_shipping,
    cache_readpath,
    fig2a_throughput,
    fig2b_montecarlo,
    fig3_scaleup,
    fig4_logreg,
    fig5_kmeans,
    fig6_mapsync,
    fig7a_barrier,
    fig7b_breakdown,
    fig7c_santa,
    fig8_persistence,
    keeper,
    kernel_speed,
    serving,
    table2_latency,
    table3_costs,
    table4_loc,
    tiering_pareto,
    txn_atomicity,
)
from repro.harness.claims import claims_markdown

#: The source checkout's ``benchmarks/out/``.
OUT_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks/out"

#: name -> (harness module, {"archive": stem of the report under
#: ``benchmarks/out/``, "bench": stem of the JSON ``bench(result)``
#: fills, "default" / "full": ``run`` kwargs at that scale}).  The
#: benchmark suite reads the same table (``benchmarks/conftest.py``),
#: so the CLI and the archives cannot disagree about what an
#: experiment is.
EXPERIMENTS = {
    "table2": (table2_latency,
               {"archive": "table2_latency",
                "default": {"ops": 300}, "full": {"ops": 2000}}),
    "fig2a": (fig2a_throughput,
              {"archive": "fig2a_throughput",
               "default": {"window": 0.1}, "full": {"window": 0.2}}),
    "fig2b": (fig2b_montecarlo,
              {"archive": "fig2b_montecarlo",
               "default": {"thread_counts": (1, 50, 200, 800)},
               "full": {"thread_counts": (1, 50, 100, 200, 400, 800)}}),
    "fig3": (fig3_scaleup,
             {"archive": "fig3_kmeans_scaleup",
              "default": {"thread_counts": (1, 16, 160, 320)},
              "full": {"thread_counts": (1, 8, 16, 80, 160, 320)}}),
    "fig4": (fig4_logreg,
             {"archive": "fig4_logreg", "default": {}, "full": {}}),
    "fig5": (fig5_kmeans,
             {"archive": "fig5_kmeans_clusters",
              "default": {"ks": (25, 100, 200)},
              "full": {"ks": (25, 50, 100, 200)}}),
    "table3": (table3_costs,
               {"archive": "table3_costs", "default": {}, "full": {}}),
    "fig6": (fig6_mapsync,
             {"archive": "fig6_mapsync",
              "default": {"repetitions": 2}, "full": {"repetitions": 3}}),
    "fig7a": (fig7a_barrier,
              {"archive": "fig7a_barrier",
               "default": {"thread_counts": (4, 80, 320)},
               "full": {"thread_counts": (4, 20, 80, 320),
                        "crucial_only": (1800,)}}),
    "fig7b": (fig7b_breakdown,
              {"archive": "fig7b_breakdown", "default": {}, "full": {}}),
    "fig7c": (fig7c_santa,
              {"archive": "fig7c_santa", "default": {}, "full": {}}),
    "fig8": (fig8_persistence,
             {"archive": "fig8_persistence",
              "default": {"duration": 120.0}, "full": {"duration": 360.0}}),
    "table4": (table4_loc,
               {"archive": "table4_loc", "default": {}, "full": {}}),
    "ablation": (ablation_shipping,
                 {"archive": "ablation_shipping",
                  "default": {"worker_counts": (8, 20, 40)},
                  "full": {"worker_counts": (8, 20, 40, 80)}}),
    "cache": (cache_readpath,
              {"archive": "cache_readpath", "bench": "BENCH_readpath",
               "default": {"ops": 300}, "full": {"ops": 2000}}),
    "kernel": (kernel_speed,
               {"archive": "kernel_speed", "bench": "BENCH_kernel",
                "default": {"events": 40_000, "ops": 400},
                "full": {"events": 200_000, "ops": 2_000}}),
    "tiering": (tiering_pareto,
                {"archive": "tiering_pareto", "bench": "BENCH_tiering",
                 "default": {"reads": 600}, "full": {"reads": 2400}}),
    "txn": (txn_atomicity,
            {"archive": "txn_atomicity", "bench": "BENCH_txn",
             "default": {"reps": 20, "clients": 4},
             "full": {"reps": 50, "clients": 8}}),
    "serving": (serving,
                {"archive": "serving", "bench": "BENCH_serving",
                 "default": {},
                 "full": {"duration": 56.0, "peak_rate": 400.0}}),
    "keeper": (keeper,
               {"archive": "keeper", "bench": "BENCH_keeper",
                "default": {},
                "full": {"watchers": 300, "failovers": 3,
                         "updates": 4}}),
}


def run_experiment(name: str, full: bool) -> None:
    module, spec = EXPERIMENTS[name]
    kwargs = spec["full" if full else "default"]
    started = time.time()
    result = module.run(**kwargs)
    elapsed = time.time() - started
    print(module.report(result))
    print(f"[{name}: completed in {elapsed:.1f}s of real time]\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the Crucial paper's experiments.")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS)
                        + ["list", "all", "claims"],
                        help="experiment to run ('list' to enumerate, "
                             "'all' for everything, 'claims' for the "
                             "recorded claim tables)")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale configuration")
    args = parser.parse_args(argv)
    if args.experiment == "list":
        for name, (module, _spec) in sorted(EXPERIMENTS.items()):
            summary = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{name:10s} {summary}")
        return 0
    if args.experiment == "claims":
        for name, (module, _spec) in EXPERIMENTS.items():
            path = OUT_DIR / "claims" / f"{name}.json"
            measured = json.loads(path.read_text()) if path.exists() else {}
            print(claims_markdown(name, module.CLAIMS, measured))
        return 0
    names = (sorted(EXPERIMENTS) if args.experiment == "all"
             else [args.experiment])
    for name in names:
        run_experiment(name, args.full)
    return 0


if __name__ == "__main__":
    sys.exit(main())
