"""Ablation: method shipping versus data shipping (Section 4.2).

The design claim: executing aggregation *as object methods* in the DSO
layer turns the AllReduce pattern's O(N^2) messages into O(N).  This
experiment makes N workers combine k x d partial aggregates so that
every worker ends with the global result:

* ``method-shipping`` — each worker merges its partial into one shared
  object and reads the combined result back: 2N object calls;
* ``data-shipping``   — each worker writes its partial to storage and
  every worker fetches all N partials to combine locally (the only
  option when storage is a dumb CRUD service): N writes + N^2 reads.

Reported: wall time and message count as N grows; the quadratic term
makes data shipping collapse, which is why Crucial's k-means beats the
store-and-gather pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import CrucialEnvironment
from repro.core.cloud_thread import run_all
from repro.core.runtime import current_environment
from repro.core.shared import dso_costs, shared
from repro.core.sync import CyclicBarrier
from repro.harness.claims import INFO, Claim, above, below, claim_lines
from repro.metrics.report import render_table

DIMS = (32, 100)  # k x d partial aggregates (k=32 centroids)


def _growth(result, kind: str, power: int) -> float:
    """``kind``-shipping's message growth from the smallest to the
    largest N, over N's growth ** ``power``: 1 for O(N ** power)."""
    counts = sorted({n for _s, n in result.measurements})
    small, big = counts[0], counts[-1]
    return (result.measurements[(f"{kind}-shipping", big)][1]
            / result.measurements[(f"{kind}-shipping", small)][1]
            / (big / small) ** power)


def _at_largest(result, index: int) -> float:
    """Data over method shipping at the largest N: wall time
    (``index`` 0) or messages (1)."""
    big = max(n for _s, n in result.measurements)
    return (result.measurements[("data-shipping", big)][index]
            / result.measurements[("method-shipping", big)][index])


CLAIMS = [
    Claim("ablation.method_linear", "method-shipping message growth over "
          "N's (O(N))", 1.0, lambda r: _growth(r, "method", 1), below(2.0)),
    Claim("ablation.data_quadratic", "data-shipping message growth over "
          "N's squared (O(N^2))", 1.0, lambda r: _growth(r, "data", 2),
          above(0.5)),
    Claim("ablation.data_slower", "data over method shipping, wall time "
          "at the largest N", None, lambda r: _at_largest(r, 0), above(1.0)),
    Claim("ablation.message_ratio", "data over method shipping, messages "
          "at the largest N", None, lambda r: _at_largest(r, 1), INFO,
          "{:.1f}x"),
]


@dso_costs(merge=lambda partial: partial.size * 2e-9,
           get=lambda: 0.0)
class Aggregate:
    """The in-store combiner."""

    def __init__(self, shape):
        self.total = np.zeros(shape)
        self.contributions = 0

    def merge(self, partial) -> int:
        self.total += partial
        self.contributions += 1
        return self.contributions

    def get(self):
        return self.total


class MethodShippingWorker:
    def __init__(self, worker_id: int, parties: int, run_id: str):
        self.worker_id = worker_id
        self.aggregate = shared(Aggregate, f"{run_id}/agg", DIMS)
        self.barrier = CyclicBarrier(f"{run_id}/barrier", parties)

    def run(self) -> float:
        rng = np.random.Generator(np.random.PCG64(self.worker_id))
        partial = rng.standard_normal(DIMS)
        self.aggregate.merge(partial)
        self.barrier.wait()
        result = self.aggregate.get()
        return float(result.sum())


class DataShippingWorker:
    def __init__(self, worker_id: int, parties: int, run_id: str):
        self.worker_id = worker_id
        self.parties = parties
        self.run_id = run_id
        self.barrier = CyclicBarrier(f"{run_id}/barrier", parties)

    def run(self) -> float:
        env = current_environment()
        grid = env.data_grid()
        from repro.core.runtime import current_location

        client = current_location()
        rng = np.random.Generator(np.random.PCG64(self.worker_id))
        partial = rng.standard_normal(DIMS)
        grid.put(client, f"{self.run_id}/{self.worker_id}", partial)
        self.barrier.wait()
        # AllReduce by gathering: every worker pulls every partial.
        total = np.zeros(DIMS)
        for peer in range(self.parties):
            total += grid.get(client, f"{self.run_id}/{peer}")
        return float(total.sum())


@dataclass
class ShippingResult:
    #: (strategy, workers) -> (wall seconds, network messages)
    measurements: dict[tuple[str, int], tuple[float, int]]


def _run(worker_cls, n: int, run_id: str, seed: int) -> tuple[float, int]:
    with CrucialEnvironment(seed=seed, dso_nodes=2) as env:
        def main():
            env.pre_warm(n)
            messages_before = env.network.messages_sent
            start = env.now
            results = {round(total, 6) for total in
                       run_all([worker_cls(i, n, run_id) for i in range(n)])}
            assert len(results) == 1  # everyone got the same aggregate
            return (env.now - start,
                    env.network.messages_sent - messages_before)

        return env.run(main)


def run(worker_counts: tuple[int, ...] = (8, 20, 40),
        seed: int = 14) -> ShippingResult:
    measurements: dict[tuple[str, int], tuple[float, int]] = {}
    for n in worker_counts:
        measurements[("method-shipping", n)] = _run(
            MethodShippingWorker, n, f"ms-{n}", seed)
        measurements[("data-shipping", n)] = _run(
            DataShippingWorker, n, f"ds-{n}", seed)
    return ShippingResult(measurements=measurements)


def report(result: ShippingResult) -> str:
    counts = sorted({n for _s, n in result.measurements})
    rows = []
    for strategy in ("method-shipping", "data-shipping"):
        for n in counts:
            wall, messages = result.measurements[(strategy, n)]
            rows.append((strategy, n, f"{wall:.3f}s", messages,
                         f"{messages / n:.1f}"))
    table = render_table(
        ["strategy", "workers", "wall", "messages", "messages/worker"],
        rows, title="Ablation - method shipping vs data shipping "
        "(Section 4.2)")
    return table + "\n" + claim_lines(CLAIMS, result)
