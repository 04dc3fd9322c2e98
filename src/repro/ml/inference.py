"""Serving a trained k-means model from the DSO layer (Fig. 8).

The persistent-state experiment: 200 replicated centroid objects
(rf=2) live on a 3-node DSO cluster; 100 cloud threads run inferences
in closed loop.  The harness crashes a node mid-run and adds one
later; throughput dips by roughly one third (a third of the serving
capacity is gone) and recovers as the background rebalancer spreads
objects onto the new node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cloud_thread import run_all
from repro.core.runtime import compute, current_environment
from repro.core.shared import shared
from repro.dso.reference import DsoReference
from repro.dso.server import TRANSIENT
from repro.errors import CloudError
from repro.ml.costmodel import inference_cost
from repro.ml.kmeans import CentroidShard
from repro.simulation.thread import sleep

#: Server CPU to read + marshal one centroid object (95 us dispatch is
#: charged separately): calibrated so 3 nodes saturate near the
#: paper's ~490 inferences/s with 100 closed-loop threads.
PER_READ_COST = 150e-6


def model_references(run_id: str, n_objects: int,
                     rf: int = 2) -> list[DsoReference]:
    return [
        DsoReference("CentroidShard", f"{run_id}/centroids-{i}",
                     persistent=True, rf=rf)
        for i in range(n_objects)
    ]


def deploy_model(run_id: str, k: int = 200, dims: int = 100,
                 rf: int = 2, seed: int = 3) -> list[DsoReference]:
    """Store a trained model: one persistent shared object per
    centroid (the paper's "200 centroids")."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for i in range(k):
        proxy = shared(CentroidShard, f"{run_id}/centroids-{i}",
                       rng.standard_normal((1, dims)),
                       persistent=True, rf=rf)
        proxy._ensure()
    return model_references(run_id, k, rf)


class InferenceWorker:
    """Closed-loop inference client (runs as a cloud thread)."""

    def __init__(self, worker_id: int, run_id: str, n_objects: int,
                 duration: float, rf: int = 2):
        self.worker_id = worker_id
        self.run_id = run_id
        self.n_objects = n_objects
        self.duration = duration
        self.rf = rf

    def run(self) -> list[float]:
        """Returns the completion timestamps of its inferences."""
        env = current_environment()
        refs = model_references(self.run_id, self.n_objects, self.rf)
        deadline = env.now + self.duration
        completions: list[float] = []
        while env.now < deadline:
            try:
                env.dso.read_bulk(env.client_endpoint, refs, method="get",
                                  per_read_cost=PER_READ_COST)
            except (CloudError, *TRANSIENT):
                # A node failure outlived the read's retry window: back
                # off briefly and retry — degraded, never blocked (Fig. 8).
                sleep(0.2)
                continue
            compute(inference_cost(env.config))
            completions.append(env.now)
        return completions


@dataclass
class InferenceRunResult:
    duration: float
    per_second: list[int]  # completed inferences per 1s bucket
    total: int

    def throughput_between(self, start: float, end: float) -> float:
        window = self.per_second[int(start):int(end)]
        return sum(window) / max(len(window), 1)


def run_inference_load(run_id: str, n_threads: int, duration: float,
                       n_objects: int = 200,
                       rf: int = 2) -> InferenceRunResult:
    """Drive the closed-loop load; call inside ``env.run(...)``.

    Fault injection (crash/add nodes) is the caller's business — see
    the Fig. 8 harness.
    """
    env = current_environment()
    env.pre_warm(n_threads)
    start = env.now
    timelines = run_all([InferenceWorker(i, run_id, n_objects, duration, rf)
                         for i in range(n_threads)])
    buckets = [0] * (int(duration) + 2)
    total = 0
    for timeline in timelines:
        for timestamp in timeline:
            buckets[min(int(timestamp - start), len(buckets) - 1)] += 1
            total += 1
    return InferenceRunResult(duration=duration, per_second=buckets,
                              total=total)
