"""Synchronizing a map phase (Section 6.3.1, Fig. 6).

Five techniques to detect that all mappers finished and aggregate
their outputs, benchmarked on a back-to-back Monte-Carlo map phase:

* ``s3-polling``   — the original PyWren scheme: mappers PUT results
  to the object store; the reducer polls listings (slow, high
  variance: latency + eventual consistency + polling);
* ``grid-polling`` — same scheme over the in-memory KV grid
  (Infinispan): faster, but still polling;
* ``sqs``          — mappers send results through the queue service;
  the reducer drains it (the slowest: queue latencies dominate);
* ``future``       — one Crucial Future per mapper; the reducer's
  ``get`` returns the moment the result is set, then reduces locally;
* ``auto-reduce``  — mappers aggregate directly into one shared object
  and trip a latch; the reduce phase disappears entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.cloud_thread import CloudThread
from repro.core.objects import AtomicLong
from repro.core.runtime import compute, current_environment
from repro.core.sync import CountDownLatch, Future
from repro.ml.costmodel import montecarlo_cost


# ---------------------------------------------------------------------------
# Publication strategies (picklable; resolve services at call time)
# ---------------------------------------------------------------------------


class S3Publish:
    name = "s3-polling"

    def __init__(self, run_id: str, parties: int):
        self.run_id = run_id
        self.parties = parties

    def publish(self, worker_id: int, value: int) -> None:
        store = current_environment().object_store
        store.put(f"{self.run_id}/out/{worker_id:04d}", value)

    def collect(self) -> int:
        """PyWren-style: poll the listing, then fetch all outputs."""
        from repro.simulation.thread import sleep

        store = current_environment().object_store
        prefix = f"{self.run_id}/out/"
        while True:
            keys = store.list_prefix(prefix)
            if len(keys) >= self.parties:
                break
            sleep(1.0)  # PyWren's poll interval
        return sum(store.get(key) for key in keys)


class GridPublish:
    name = "grid-polling"

    def __init__(self, run_id: str, parties: int):
        self.run_id = run_id
        self.parties = parties

    def publish(self, worker_id: int, value: int) -> None:
        from repro.core.runtime import current_location

        grid = current_environment().data_grid()
        grid.put(current_location(), f"{self.run_id}/{worker_id}", value)

    def collect(self) -> int:
        from repro.core.runtime import current_location
        from repro.simulation.thread import sleep

        grid = current_environment().data_grid()
        client = current_location()
        pending = set(range(self.parties))
        values: dict[int, int] = {}
        while pending:
            for worker_id in sorted(pending):
                if grid.contains(client, f"{self.run_id}/{worker_id}"):
                    values[worker_id] = grid.get(
                        client, f"{self.run_id}/{worker_id}")
                    pending.discard(worker_id)
            if pending:
                sleep(0.100)  # poll interval
        return sum(values.values())


class SqsPublish:
    name = "sqs"

    def __init__(self, run_id: str, parties: int):
        self.run_id = run_id
        self.parties = parties

    @property
    def queue_name(self) -> str:
        return f"{self.run_id}-results"

    def setup(self) -> None:
        current_environment().queue_service.create_queue(self.queue_name)

    def publish(self, worker_id: int, value: int) -> None:
        current_environment().queue_service.send(self.queue_name, value)

    def collect(self) -> int:
        """The naive consumer loop of 2019-era serverless frameworks:
        one message per receive, one delete per message."""
        sqs = current_environment().queue_service
        total = 0
        received = 0
        while received < self.parties:
            batch = sqs.receive(self.queue_name, max_messages=1, wait=5.0)
            for message in batch:
                total += message.body
                received += 1
                sqs.delete(self.queue_name, message.receipt)
        return total


class FuturePublish:
    name = "future"

    def __init__(self, run_id: str, parties: int):
        self.run_id = run_id
        self.parties = parties

    def publish(self, worker_id: int, value: int) -> None:
        Future(f"{self.run_id}/future-{worker_id}").set(value)

    def collect(self) -> int:
        """Blocking get per mapper: responds the moment results land,
        then a client-side reduce."""
        return sum(Future(f"{self.run_id}/future-{i}").get()
                   for i in range(self.parties))


class AutoReducePublish:
    name = "auto-reduce"

    def __init__(self, run_id: str, parties: int):
        self.run_id = run_id
        self.parties = parties

    def publish(self, worker_id: int, value: int) -> None:
        AtomicLong(f"{self.run_id}/total").add_and_get(value)
        CountDownLatch(f"{self.run_id}/done", self.parties).count_down()

    def collect(self) -> int:
        CountDownLatch(f"{self.run_id}/done", self.parties).wait()
        return AtomicLong(f"{self.run_id}/total").get()


STRATEGIES = {
    cls.name: cls
    for cls in (S3Publish, GridPublish, SqsPublish, FuturePublish,
                AutoReducePublish)
}


# ---------------------------------------------------------------------------
# The experiment
# ---------------------------------------------------------------------------


class MapSyncWorker:
    """One mapper: Monte-Carlo compute, then publish via the strategy."""

    def __init__(self, strategy, worker_id: int, draws: int):
        self.strategy = strategy
        self.worker_id = worker_id
        self.draws = draws

    def run(self) -> dict:
        env = current_environment()
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([self.worker_id, 77])))
        count = int(rng.binomial(self.draws, math.pi / 4.0))
        compute(montecarlo_cost(self.draws, env.config), jitter_sigma=0.02)
        compute_done = env.now
        self.strategy.publish(self.worker_id, count)
        return {"compute_done": compute_done, "publish_done": env.now}


@dataclass
class MapSyncResult:
    strategy: str
    total_time: float
    sync_time: float
    aggregate: int
    worker_reports: list[dict]


class MapSyncExperiment:
    """Runs one strategy once; call from inside ``env.run(...)``."""

    def __init__(self, strategy_name: str, n_threads: int = 100,
                 draws: int = 100_000_000, run_id: str | None = None):
        if strategy_name not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy_name!r}; "
                             f"pick one of {sorted(STRATEGIES)}")
        self.strategy_name = strategy_name
        self.n_threads = n_threads
        self.draws = draws
        self.run_id = run_id or f"mapsync-{strategy_name}"

    def execute(self) -> MapSyncResult:
        env = current_environment()
        strategy = STRATEGIES[self.strategy_name](self.run_id,
                                                  self.n_threads)
        if hasattr(strategy, "setup"):
            strategy.setup()
        env.pre_warm(self.n_threads)
        start = env.now
        threads = [
            CloudThread(MapSyncWorker(strategy, i, self.draws))
            for i in range(self.n_threads)
        ]
        for thread in threads:
            thread.start()
        aggregate = strategy.collect()
        collected = env.now
        for thread in threads:
            thread.join()
        reports = [thread.result() for thread in threads]
        mean_compute_done = sum(
            r["compute_done"] for r in reports) / len(reports)
        return MapSyncResult(
            strategy=self.strategy_name,
            total_time=env.now - start,
            sync_time=collected - mean_compute_done,
            aggregate=aggregate,
            worker_reports=reports)
