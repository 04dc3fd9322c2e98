"""Experiment drivers: one module per table/figure of the paper.

Each module exposes ``run(...) -> <Result>`` returning structured
virtual-time measurements, ``report(result) -> str`` rendering the
paper-vs-measured comparison, and ``CLAIMS``: what the result must show
(:mod:`repro.harness.claims`), which ``report`` renders, the benchmark
suite asserts, and EXPERIMENTS.md tabulates.

``repro.__main__.EXPERIMENTS`` names every experiment module here.
Experiments accept a ``scale`` knob where the paper's full size would
be slow to simulate; scaled runs keep the workload *shape* (threads,
objects, and measured windows shrink together).
"""
