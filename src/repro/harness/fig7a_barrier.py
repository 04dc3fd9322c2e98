"""Fig. 7a: average time a thread spends waiting on a barrier.

Cloud threads execute consecutive 1-second computations in lock step;
the barrier is either Crucial's DSO CyclicBarrier or the SNS+SQS
construction.  Paper shape: Crucial is roughly an order of magnitude
faster at 320 threads, and passes the barrier in ~68 ms on average
with 1800 threads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import CrucialEnvironment, CyclicBarrier, run_all
from repro.coordination.sns_barrier import SnsSqsBarrier
from repro.core.runtime import compute, current_environment
from repro.harness.claims import Claim, above, below, claim_lines
from repro.metrics.report import render_table
from repro.simulation.thread import spawn

ROUNDS = 3
STEP_SECONDS = 1.0


def _wait_ms(result, system: str, threads: int) -> float | None:
    wait = result.waits.get((system, threads))
    return None if wait is None else wait * 1000


CLAIMS = [
    Claim("fig7a.gap_320", "SNS+SQS wait over Crucial's at 320 threads",
          10.0, lambda r: _wait_ms(r, "sns-sqs", 320)
          / _wait_ms(r, "crucial", 320) if ("sns-sqs", 320) in r.waits
          else None, above(8.0), "{:.1f}x"),
    Claim("fig7a.crucial_320", "Crucial wait at 320 threads", None,
          lambda r: _wait_ms(r, "crucial", 320), below(150), "{:.0f}ms"),
    Claim("fig7a.sns_4", "SNS+SQS wait at 4 threads", None,
          lambda r: _wait_ms(r, "sns-sqs", 4), above(200), "{:.0f}ms"),
    Claim("fig7a.crucial_1800", "Crucial wait at 1800 threads", 68.0,
          lambda r: _wait_ms(r, "crucial", 1800), below(250), "{:.0f}ms"),
]


class _CrucialLockStep:
    def __init__(self, run_id: str, thread_id: int, parties: int):
        self.thread_id = thread_id
        self.barrier = CyclicBarrier(f"{run_id}/barrier", parties)

    def run(self) -> float:
        env = current_environment()
        self.barrier.wait()  # warm-up: absorb invocation stagger
        waited = 0.0
        for _round in range(ROUNDS):
            compute(STEP_SECONDS, jitter_sigma=0.005)
            entered = env.now
            self.barrier.wait()
            waited += env.now - entered
        return waited / ROUNDS


class _SnsLockStep:
    def __init__(self, barrier: SnsSqsBarrier, thread_id: int):
        self.barrier = barrier
        self.thread_id = thread_id

    def run(self) -> float:
        env = current_environment()
        self.barrier.wait(self.thread_id, 0)  # warm-up round
        waited = 0.0
        for round_number in range(1, ROUNDS + 1):
            compute(STEP_SECONDS, jitter_sigma=0.005)
            entered = env.now
            self.barrier.wait(self.thread_id, round_number)
            waited += env.now - entered
        return waited / ROUNDS


@dataclass
class BarrierComparison:
    #: (system, threads) -> average wait seconds
    waits: dict[tuple[str, int], float]


def _run_crucial(threads: int, seed: int) -> float:
    with CrucialEnvironment(seed=seed, dso_nodes=1) as env:
        def main():
            env.pre_warm(threads)
            return sum(run_all([_CrucialLockStep(f"7a-{threads}", i, threads)
                                for i in range(threads)])) / threads

        return env.run(main)


def _run_sns(threads: int, seed: int) -> float:
    with CrucialEnvironment(seed=seed, dso_nodes=1) as env:
        def main():
            barrier = SnsSqsBarrier(f"7a-sns-{threads}", threads)
            barrier.setup()
            env.pre_warm(threads)
            coordinator = spawn(barrier.coordinate, ROUNDS + 1,
                                name="coordinator")
            waits = run_all([_SnsLockStep(barrier, i)
                             for i in range(threads)])
            coordinator.join()
            return sum(waits) / threads

        return env.run(main)


def run(thread_counts: tuple[int, ...] = (4, 80, 320),
        crucial_only: tuple[int, ...] = (), seed: int = 9) -> BarrierComparison:
    waits: dict[tuple[str, int], float] = {}
    for threads in thread_counts:
        waits[("crucial", threads)] = _run_crucial(threads, seed)
        waits[("sns-sqs", threads)] = _run_sns(threads, seed)
    for threads in crucial_only:
        waits[("crucial", threads)] = _run_crucial(threads, seed)
    return BarrierComparison(waits=waits)


def report(result: BarrierComparison) -> str:
    threads = sorted({t for _s, t in result.waits})
    rows = []
    for system in ("crucial", "sns-sqs"):
        row = [system]
        for t in threads:
            value = result.waits.get((system, t))
            row.append(f"{value * 1000:.0f}ms" if value is not None
                       else "-")
        rows.append(row)
    table = render_table(
        ["system"] + [str(t) for t in threads], rows,
        title="Fig. 7a - average barrier wait (1s lock-step rounds)")
    return table + "\n" + claim_lines(CLAIMS, result)
