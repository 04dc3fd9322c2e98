"""Command-line entry point: run any experiment by name.

Usage::

    python -m repro list
    python -m repro table2
    python -m repro fig5 --full
    python -m repro all
    python -m repro claims

``--full`` runs the paper-scale configuration; every run goes through
:func:`repro.harness.runner.run`.  Reports print to stdout (the text
the benchmarks archive under ``benchmarks/out/``); ``claims`` prints
the claim tables EXPERIMENTS.md carries, from the recorded values.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.harness import runner
from repro.harness.claims import claims_markdown
from repro.harness.runner import EXPERIMENTS


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
        for name, (module, _row) in sorted(EXPERIMENTS.items()):
            summary = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{name:10s} {summary}")
        return 0
    if args.experiment == "claims":
        for name, (module, _row) in EXPERIMENTS.items():
            print(claims_markdown(name, module.CLAIMS,
                                  runner.recorded(name)))
        return 0
    names = (sorted(EXPERIMENTS) if args.experiment == "all"
             else [args.experiment])
    for name in names:
        started = time.time()
        outcome = runner.run(name, "full" if args.full else "default")
        print(outcome.report)
        print(f"[{name}: completed in {time.time() - started:.1f}s "
              "of real time]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
