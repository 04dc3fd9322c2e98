#!/usr/bin/env python3
"""The repo's benchmark: five workloads, two clocks, per-layer attribution.

    python3 perf/run.py                      # all workloads, end to end
    python3 perf/run.py --trace              # ... plus the per-layer run
    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perf/run.py --selfcheck          # seed determinism

With ``--workload`` the process measures that workload itself (so
``ru_maxrss`` is the workload's own) and prints, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Without
it, each workload runs in a subprocess of its own and the collected
results are written to ``--out``.  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import catalog

ROOT = catalog.ROOT
SOURCE = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perf", "out")


def import_program() -> float:
    """Import ``repro`` from this checkout's sources; seconds it took."""
    sys.path.insert(0, SOURCE)
    begun = time.perf_counter()
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"cannot import repro from {SOURCE}: {exc}")
    elapsed = time.perf_counter() - begun
    origin = os.path.abspath(repro.__file__)
    if not origin.startswith(SOURCE + os.sep):
        raise SystemExit(f"imported repro from {origin}, expected {SOURCE}")
    return elapsed


def pin_to_one_cpu() -> None:
    """Pin this process to one CPU, where the platform can.

    At most one simulated thread is runnable at a time, so a second
    core adds nothing — but when the kernel and the woken thread land
    on different cores every handoff pays a cross-core wake-up, and
    host time becomes bimodal (2-3x apart on the 2-core sandbox).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def environment_info() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit}


def print_metrics(result: dict) -> None:
    verdict = "ok" if result["correct"] else "INCORRECT"
    print(f"{result['workload']} seed={result['seed']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"[{verdict}]")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in result["info"].items():
        print(f"  ({name}: {value})")


def run_one(args) -> int:
    """Measure one workload in this process (the driver's entry point)."""
    import_s = import_program()
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    if args.trace:
        result = harness.trace(workload, args.seed, OUT_DIR)
    else:
        result = harness.measure(workload, args.seed, args.seconds, import_s)
    result["info"]["cpus"] = (sorted(os.sched_getaffinity(0))
                              if hasattr(os, "sched_getaffinity") else None)
    print_metrics(result)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1)
    print(harness.result_line(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Run every workload in its own subprocess and collect the results."""
    import_program()
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    collected = {"environment": environment_info(), "seed": args.seed,
                 "seconds": args.seconds, "end_to_end": {}, "per_layer": {}}
    status = 0
    modes = [0, 1] if args.trace else [0]
    for name in WORKLOADS:
        for mode in modes:
            part = os.path.join(OUT_DIR, f".part_{name}_{mode}.json")
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(mode),
                       "--out", part]
            child = subprocess.run(command)
            status = status or child.returncode
            if os.path.exists(part):
                with open(part) as handle:
                    key = "per_layer" if mode else "end_to_end"
                    collected[key][name] = json.load(handle)
                os.remove(part)
    with open(args.out or os.path.join(OUT_DIR, "result.json"), "w") as handle:
        json.dump(collected, handle, indent=1)
    return status


def selfcheck(args) -> int:
    """Equal seeds must give identical virtual results; another seed
    must give a different fingerprint."""
    import_program()
    import harness
    from stats import fingerprint
    from workloads import WORKLOADS

    status = 0
    for name, workload in WORKLOADS.items():
        if args.workload not in (None, name):
            continue
        seen = []
        for seed in (args.seed, args.seed, args.seed + 1):
            repeat = harness.one_repeat(workload, seed, untraced=True)
            seen.append((harness.sim_metrics(workload, repeat.outcome),
                         fingerprint(repeat.outcome.ops)))
        same = seen[0] == seen[1]
        differs = seen[0][1] != seen[2][1]
        print(f"{name}: equal seeds identical={same}, "
              f"other seed differs={differs} "
              f"(fingerprints {seen[0][1]:08x} {seen[1][1]:08x} "
              f"{seen[2][1]:08x})")
        if not (same and differs):
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run just this workload, in-process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=catalog.SPEC["run_seconds"],
                        help="how long the end-to-end run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--out", help="write the full result here as JSON")
    parser.add_argument("--selfcheck", action="store_true",
                        help="check seed determinism and exit")
    args = parser.parse_args(argv)
    pin_to_one_cpu()  # subprocesses inherit the affinity
    if args.selfcheck:
        return selfcheck(args)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
