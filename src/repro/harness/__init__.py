"""Experiment drivers: one module per table/figure of the paper.

Each module exposes ``run(...) -> <Result>`` returning structured
virtual-time measurements, ``report(result) -> str`` rendering the
paper-vs-measured comparison, and ``CLAIMS``: what the result must show
(:mod:`repro.harness.claims`), which ``report`` renders, the benchmark
suite asserts, and EXPERIMENTS.md tabulates.

:mod:`repro.harness.runner` declares and runs every experiment: a
module's ``run()`` defaults are its default scale, and its row adds the
``full`` and ``smoke`` scales.  Reduced scales keep the workload
*shape*: threads, objects and measured windows shrink together.
"""
