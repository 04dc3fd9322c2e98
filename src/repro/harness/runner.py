"""The one experiment runner: where an experiment is declared and run.

:data:`EXPERIMENTS` names every experiment; :func:`run` runs one at a
scale and returns its result, report and measured claims;
:func:`archive` writes them under ``benchmarks/out/``.  The CLI, the
archive suite and tier-1's smoke tests all call :func:`run`.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any

from repro.harness import (
    ablation_shipping, cache_readpath, fig2a_throughput, fig2b_montecarlo,
    fig3_scaleup, fig4_logreg, fig5_kmeans, fig6_mapsync, fig7a_barrier,
    fig7b_breakdown, fig7c_santa, fig8_persistence, keeper, kernel_speed,
    serving, table2_latency, table3_costs, table4_loc, tiering_pareto,
    txn_atomicity)

#: The source checkout's ``benchmarks/out/``.
OUT_DIR = pathlib.Path(__file__).resolve().parents[3] / "benchmarks/out"

#: ``default``: the harness's ``run()`` defaults, which the archives
#: record; ``full``: paper scale; ``smoke``: tier-1's reduced scale.
SCALES = ("default", "full", "smoke")

#: name -> (harness module, row).  Row keys: ``archive``, the stem of
#: the report under ``benchmarks/out/``; ``bench``, the stem of the
#: ``BENCH_*.json`` that ``bench(result)`` fills; ``full`` and
#: ``smoke``, the ``run()`` kwargs at that scale.  A scale the row
#: omits is the default one.
EXPERIMENTS = {
    "table2": (table2_latency, {"archive": "table2_latency",
                                "full": {"ops": 2000}, "smoke": {"ops": 40}}),
    "fig2a": (fig2a_throughput, {"archive": "fig2a_throughput",
                                 "full": {"window": 0.2},
                                 "smoke": {"threads": 10, "window": 0.05}}),
    "fig2b": (fig2b_montecarlo, {
        "archive": "fig2b_montecarlo",
        "full": {"thread_counts": (1, 50, 100, 200, 400, 800)},
        "smoke": {"thread_counts": (1, 8), "draws": 2_000_000}}),
    "fig3": (fig3_scaleup, {
        "archive": "fig3_kmeans_scaleup",
        "full": {"thread_counts": (1, 8, 16, 80, 160, 320)},
        "smoke": {"thread_counts": (1, 16), "iterations": 2}}),
    "fig4": (fig4_logreg, {"archive": "fig4_logreg",
                           "smoke": {"iterations": 5, "workers": 10}}),
    "fig5": (fig5_kmeans, {"archive": "fig5_kmeans_clusters",
                           "full": {"ks": (25, 50, 100, 200)}}),
    "table3": (table3_costs, {"archive": "table3_costs"}),
    "fig6": (fig6_mapsync, {"archive": "fig6_mapsync",
                            "full": {"repetitions": 3},
                            "smoke": {"n_threads": 10, "draws": 2_000_000,
                                      "repetitions": 1}}),
    "fig7a": (fig7a_barrier, {"archive": "fig7a_barrier",
                              "full": {"thread_counts": (4, 20, 80, 320),
                                       "crucial_only": (1800,)},
                              "smoke": {"thread_counts": (4,)}}),
    "fig7b": (fig7b_breakdown, {"archive": "fig7b_breakdown",
                                "smoke": {"threads": 4, "iterations": 2}}),
    "fig7c": (fig7c_santa, {"archive": "fig7c_santa",
                            "smoke": {"deliveries": 4}}),
    "fig8": (fig8_persistence, {"archive": "fig8_persistence",
                                "full": {"duration": 360.0},
                                "smoke": {"duration": 30.0, "n_threads": 10,
                                          "n_objects": 30}}),
    "table4": (table4_loc, {"archive": "table4_loc"}),
    "ablation": (ablation_shipping, {
        "archive": "ablation_shipping",
        "full": {"worker_counts": (8, 20, 40, 80)},
        "smoke": {"worker_counts": (4, 8)}}),
    "cache": (cache_readpath, {"archive": "cache_readpath",
                               "bench": "BENCH_readpath",
                               "full": {"ops": 2000}}),
    "kernel": (kernel_speed, {"archive": "kernel_speed",
                              "bench": "BENCH_kernel",
                              "full": {"events": 200_000, "ops": 2_000}}),
    "tiering": (tiering_pareto, {"archive": "tiering_pareto",
                                 "bench": "BENCH_tiering",
                                 "full": {"reads": 2400}}),
    "txn": (txn_atomicity, {"archive": "txn_atomicity", "bench": "BENCH_txn",
                            "full": {"reps": 50, "clients": 8}}),
    "serving": (serving, {"archive": "serving", "bench": "BENCH_serving",
                          "full": {"duration": 56.0, "peak_rate": 400.0},
                          "smoke": {"base_rate": 15.0, "peak_rate": 90.0,
                                    "duration": 14.0}}),
    "keeper": (keeper, {"archive": "keeper", "bench": "BENCH_keeper",
                        "full": {"watchers": 300, "failovers": 3,
                                 "updates": 4}}),
}


@dataclass(frozen=True)
class Outcome:
    """One run of one experiment."""

    name: str
    result: Any
    report: str
    #: claim id -> measured value (None: the scale does not measure it)
    measured: dict[str, Any]

    @property
    def missed(self) -> list[str]:
        """The ids of the claims whose bound the run misses."""
        module, _row = EXPERIMENTS[self.name]
        return [claim.id for claim in module.CLAIMS
                if claim.verdict(self.measured[claim.id]) == "FAIL"]


def run(name: str, scale: str = "default") -> Outcome:
    """Run experiment ``name`` at ``scale`` (one of :data:`SCALES`)."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; one of {SCALES}")
    module, row = EXPERIMENTS[name]
    result = module.run(**row.get(scale, {}))
    return Outcome(name, result, module.report(result),
                   {claim.id: claim.value(result) for claim in module.CLAIMS})


def _write_json(path: pathlib.Path, data) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n")


def archive(outcome: Outcome) -> None:
    """Write ``outcome`` under ``benchmarks/out/``: the report, the
    experiment's ``BENCH_*.json`` if it has one, and its measured
    claims in ``claims/<name>.json``."""
    module, row = EXPERIMENTS[outcome.name]
    (OUT_DIR / f"{row['archive']}.txt").write_text(outcome.report + "\n")
    if "bench" in row:
        _write_json(OUT_DIR / f"{row['bench']}.json",
                    module.bench(outcome.result))
    _write_json(OUT_DIR / "claims" / f"{outcome.name}.json",
                outcome.measured)


def recorded(name: str) -> dict[str, Any]:
    """The claim values the last archived run of ``name`` measured."""
    path = OUT_DIR / "claims" / f"{name}.json"
    return json.loads(path.read_text()) if path.exists() else {}
