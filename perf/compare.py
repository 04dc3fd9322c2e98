#!/usr/bin/env python3
"""Compare two benchmark results, one row per (workload, metric).

    python3 perf/compare.py A.json B.json

``A`` is the base (the parent commit), ``B`` the change; both are files
written by ``perf/run.py --out``.  Every ratio is ``B / A``, printed with
its base.  A verdict uses the metric's bound from ``BENCHMARK.json``:

    regressed   B is worse than A by more than the bound
    improved    B is better than A by more than the bound
    unchanged   neither
    unresolved  the repeat-to-repeat spread recorded in the files is
                wider than the bound, so the runs cannot tell

Virtual results are exact for a seed.  When both files were measured at
the same seed, every ``sim_*`` metric is therefore compared with a bound
of zero — any difference is *improved* or *regressed* — and each
workload gets a fingerprint row: *identical* means every op started and
ended at the same virtual instant in both runs.  (At different seeds
the inputs differ, so ``sim_*`` falls back to its cross-seed bound and
the fingerprints are expected to differ.)

Exit status 1 if anything regressed, if a workload is missing from
either file, or if at equal seeds a fingerprint or any ``sim_*`` value
differs: a change meant only to speed up the simulator must exit 0.
"""

from __future__ import annotations

import json
import math
import sys

import catalog

Row = tuple[str, str, float, float, float, float, float, str]


def verdict(base: float, change: float, better: str, bound: float,
            noise: float) -> str:
    if noise > bound:
        return "unresolved"
    if change == base:
        return "unchanged"
    # From a base of 0 any change is infinitely large, in its direction.
    worse = ((change - base) / abs(base) if base
             else math.copysign(math.inf, change))
    if better == "higher":
        worse = -worse
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def compare(base: dict, change: dict, metrics: list[dict]) -> list[Row]:
    """Rows ``(workload, metric, A, B, ratio, noise, bound, verdict)``."""
    rows: list[Row] = []
    nan = math.nan
    a_side, b_side = base["end_to_end"], change["end_to_end"]
    for workload in list(a_side) + [w for w in b_side if w not in a_side]:
        a, b = a_side.get(workload), b_side.get(workload)
        if a is None or b is None:
            rows.append((workload, "-", nan, nan, nan, 0.0, 0.0,
                         "missing from " + ("A" if a is None else "B")))
            continue
        same_seed = a["seed"] == b["seed"]
        for metric in metrics:
            name = metric["name"]
            va = a["metrics"][name]["value"]
            vb = b["metrics"][name]["value"]
            if same_seed and name.startswith("sim_"):
                bound = noise = 0.0
            else:
                bound = metric["bound"]
                noise = max(a.get("spread", {}).get(name, 0.0),
                            b.get("spread", {}).get(name, 0.0))
            rows.append((workload, name, va, vb, vb / va if va else nan,
                         noise, bound,
                         verdict(va, vb, metric["better"], bound, noise)))
        if same_seed:
            fa = a["info"]["sim_fingerprint"]
            fb = b["info"]["sim_fingerprint"]
            rows.append((workload, "sim_fingerprint", fa, fb, nan, 0.0, 0.0,
                         "identical" if fa == fb else "DIFFERENT"))
    return rows


def failed(rows: list[Row]) -> bool:
    """Whether the comparison must exit non-zero."""
    for _workload, _name, _a, _b, _ratio, _noise, bound, word in rows:
        if word in ("regressed", "DIFFERENT") or word.startswith("missing"):
            return True
        # A zero bound marks an exact comparison: the virtual result
        # moved, even if for the better.
        if bound == 0.0 and word == "improved":
            return True
    return False


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        base = json.load(handle)
    with open(argv[1]) as handle:
        change = json.load(handle)
    rows = compare(base, change, catalog.SPEC["end_to_end"])
    print(f"{'workload':16s} {'metric':18s} {'A (base)':>14s} {'B':>14s} "
          f"{'B/A':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload, name, va, vb, ratio, noise, bound, word in rows:
        if name == "sim_fingerprint":
            print(f"{workload:16s} {name:18s} {va:>14x} {vb:>14x} "
                  f"{'':25s} {word}")
            continue
        print(f"{workload:16s} {name:18s} {va:14.6g} {vb:14.6g} "
              f"{ratio:8.4f} {noise:7.2%} {bound:6.0%}  {word}")
    return 1 if failed(rows) else 0


if __name__ == "__main__":
    sys.exit(main())
