"""Coordination-service scenarios: recipes + fan-out under live load.

Not a figure from the paper — the keeper is ROADMAP item 3's
FaaSKeeper-shaped extension — but measured with the paper's
methodology: virtual-time latencies through the full simulated stack
(DSO tree, SQS delivery, heartbeat leases), reported next to the
bounds the chaos/property suites pin.  Four scenarios run against one
replicated keeper while an open-loop serving workload keeps the grid
busy in the background:

* **barrier** — ``parties`` cloud-side threads rendezvous for
  ``rounds`` rounds on a :class:`~repro.coordination.KeeperBarrier`;
* **semaphore** — ``sem_workers`` workers contend for ``permits``
  leases, with the high-water concurrency audited;
* **election** — a chain of candidates; the sitting leader's session
  is killed ``failovers`` times and the convergence time (lease
  expiry + one watch hop) is measured per failover;
* **fan-out** — one config znode watched by ``watchers`` sessions;
  each of ``updates`` writes is timestamped and the delivery latency
  distribution across every watcher is reported (the hundreds-of-
  watchers notification path).

A final quiescent audit replays the watch-order checker over every
watcher's delivered stream — the harness fails loudly rather than
report latencies for a broken delivery order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from repro.coordination.keeper import KeeperService
from repro.coordination.recipes import (
    ConfigWatcher,
    KeeperBarrier,
    KeeperSemaphore,
    LeaderElector,
)
from repro.core.runtime import CrucialEnvironment
from repro.harness.claims import Claim, at_most, claim_lines, exactly
from repro.linearizability.watches import find_watch_violations
from repro.metrics.recorder import percentile
from repro.metrics.report import render_table
from repro.simulation.thread import sleep, spawn
from repro.workload.generator import (
    OpenLoopGenerator,
    RateProfile,
    TenantSpec,
)

#: Session TTL every scenario leases under (virtual seconds).
SESSION_TTL = 2.0

CLAIMS = [
    Claim("keeper.rendezvous", "barrier passes, semaphore acquisitions "
          "and high-water match the scenario sizes", None, lambda r: (
              r.barrier_passes == r.barrier_parties * r.barrier_rounds
              and r.sem_acquisitions == r.sem_workers
              and r.sem_max_concurrent == r.sem_permits), exactly(True)),
    Claim("keeper.failovers", "every leader failover converges", None,
          lambda r: len(r.convergences_s) == r.failovers, exactly(True)),
    # Lease expiry plus one watch hop; the chaos suite pins the same.
    Claim("keeper.convergence", "slowest failover convergence", None,
          attrgetter("convergence_max_s"), at_most(2 * SESSION_TTL),
          "{:.2f}s"),
    Claim("keeper.expiry", "slowest removal of a dead holder's "
          "ephemerals", None, attrgetter("expiry_max_s"),
          at_most(2 * SESSION_TTL), "{:.2f}s"),
    # A firing write wakes the delivery pump and the ack is off the
    # path, so a delivery is about one SQS lag (median 250 ms).
    Claim("keeper.fanout_p50", "watch fan-out p50 (one SQS hop)", None,
          attrgetter("fanout_p50_ms"), at_most(270.0), "{:.0f} ms"),
    Claim("keeper.fanout_p99", "watch fan-out p99 (one SQS hop)", None,
          attrgetter("fanout_p99_ms"), at_most(1000.0), "{:.0f} ms"),
    *(Claim(f"keeper.{name}", name.replace("_", " "), None,
            attrgetter(name), exactly(0), "{:d}")
      for name in ("watch_violations", "load_errors")),
]


@dataclass
class KeeperResult:
    """Everything one harness run measured, plus its audit verdicts."""

    # barrier
    barrier_parties: int
    barrier_rounds: int
    barrier_passes: int
    # semaphore
    sem_workers: int
    sem_permits: int
    sem_acquisitions: int
    sem_max_concurrent: int
    # election
    failovers: int
    convergences_s: list[float]
    # config fan-out
    watchers: int
    updates: int
    fanout_latencies_s: list[float] = field(default_factory=list)
    # session expiry
    expiry_ttl: float = SESSION_TTL
    expiry_detections_s: list[float] = field(default_factory=list)
    # watch-order audit over every watcher's delivered stream
    watch_violations: int = 0
    # background open-loop load
    load_requests: int = 0
    load_errors: int = 0

    @property
    def fanout_p50_ms(self) -> float:
        return percentile(self.fanout_latencies_s, 50.0) * 1000

    @property
    def fanout_p99_ms(self) -> float:
        return percentile(self.fanout_latencies_s, 99.0) * 1000

    @property
    def convergence_max_s(self) -> float:
        return max(self.convergences_s)

    @property
    def expiry_max_s(self) -> float:
        return max(self.expiry_detections_s)


def _background_tenants() -> list[TenantSpec]:
    return [TenantSpec(name="bg", share=1.0, keys=32, zipf_s=1.1,
                       read_fraction=0.8, rf=1, cost=0.0)]


def _run_barrier(keeper, parties: int, rounds: int) -> int:
    passes = []

    def party(index):
        with keeper.session(name=f"bar-{index}") as session:
            barrier = KeeperBarrier(session, "/harness/barrier",
                                    parties)
            for round_number in range(rounds):
                barrier.wait(round_number)
                passes.append((index, round_number))

    threads = [spawn(party, i, name=f"barrier-party-{i}")
               for i in range(parties)]
    for thread in threads:
        thread.join()
    return len(passes)


def _run_semaphore(keeper, workers: int, permits: int) -> tuple[int, int]:
    active = [0]
    high_water = [0]
    acquired = [0]

    def worker(index):
        with keeper.session(name=f"sem-{index}") as session:
            sem = KeeperSemaphore(session, "/harness/sem", permits)
            with sem:
                acquired[0] += 1
                active[0] += 1
                high_water[0] = max(high_water[0], active[0])
                sleep(0.3)
                active[0] -= 1

    threads = [spawn(worker, i, name=f"sem-worker-{i}")
               for i in range(workers)]
    for thread in threads:
        thread.join()
    return acquired[0], high_water[0]


def _run_election(env, keeper, failovers: int) -> list[float]:
    members = [f"cand-{i}" for i in range(failovers + 1)]
    sessions = {m: keeper.session(name=m) for m in members}
    electors = {m: LeaderElector(sessions[m], "/harness/svc", m)
                for m in members}
    for member in members:
        electors[member].volunteer()
    electors[members[0]].lead()
    convergences = []
    for round_number in range(failovers):
        fallen, heir = members[round_number], members[round_number + 1]
        fell_at = env.now
        sessions[fallen].kill()
        electors[heir].lead()
        convergences.append(env.now - fell_at)
    sessions[members[-1]].close()
    return convergences


def _run_fanout(env, keeper, watchers: int,
                updates: int) -> tuple[list[float], int]:
    with keeper.session(name="publisher", ttl=60.0) as publisher:
        publisher.create("/harness/conf", data=("v0", env.now))
        latencies: list[float] = []
        seen = [0]
        sessions = []

        def subscriber(index):
            session = keeper.session(name=f"sub-{index}", ttl=120.0)
            sessions.append(session)
            watcher = ConfigWatcher(session, "/harness/conf")
            for _ in range(updates):
                if watcher.await_change(timeout=60.0) is None:
                    break
                _, published_at = watcher.value
                latencies.append(env.now - published_at)
                seen[0] += 1

        threads = [spawn(subscriber, i, name=f"subscriber-{i}")
                   for i in range(watchers)]
        sleep(1.0)  # let every watcher finish its initial sync
        for update in range(1, updates + 1):
            target = update * watchers
            publisher.set("/harness/conf", (f"v{update}", env.now))
            while seen[0] < target:  # quiesce before the next write
                sleep(0.1)
        for thread in threads:
            thread.join()
        sleep(1.0)  # drain the delivery pump before the audit
        delivered = {s.sid: s.delivered for s in sessions}
        # Scope the assigned counts to the fan-out subscribers: the
        # earlier scenarios' sessions (barrier, election) also earned
        # watch events but are not part of this audit.
        assigned = {sid: count for sid, count
                    in keeper.assigned_counts().items()
                    if sid in delivered}
        violations = find_watch_violations(delivered, assigned)
        for session in sessions:
            session.close()
    return latencies, len(violations)


def _run_expiry(env, keeper, repetitions: int) -> list[float]:
    detections = []
    with keeper.session(name="expiry-audit", ttl=120.0) as auditor:
        auditor.create("/harness/locks")
        for rep in range(repetitions):
            path = f"/harness/locks/h{rep}"
            holder = keeper.session(name=f"holder-{rep}")
            holder.create(path, ephemeral=True)
            sleep(SESSION_TTL / 5.0)  # land the kill mid-lease
            killed_at = env.now
            holder.kill()
            while auditor.exists(path) is not None:
                sleep(0.05)
            detections.append(env.now - killed_at)
    return detections


def run(parties: int = 8, rounds: int = 3, sem_workers: int = 9,
        permits: int = 3, failovers: int = 2, watchers: int = 120,
        updates: int = 3, expiry_reps: int = 2,
        load_rate: float = 25.0, seed: int = 21) -> KeeperResult:
    """Run all four scenarios against one rf=2 keeper under load."""
    with CrucialEnvironment(seed=seed, dso_nodes=3) as env:
        def main():
            keeper = KeeperService(name="harness", rf=2,
                                   session_ttl=SESSION_TTL)
            with keeper.session(name="setup", ttl=120.0) as setup:
                setup.create("/harness")
            generator = OpenLoopGenerator(
                env, _background_tenants(),
                RateProfile([(0.0, load_rate)]), duration=30.0)
            load = spawn(generator.run, name="background-load")

            barrier_passes = _run_barrier(keeper, parties, rounds)
            acquisitions, high_water = _run_semaphore(
                keeper, sem_workers, permits)
            convergences = _run_election(env, keeper, failovers)
            latencies, violations = _run_fanout(env, keeper, watchers,
                                                updates)
            detections = _run_expiry(env, keeper, expiry_reps)

            load.join()
            keeper.stop()
            return KeeperResult(
                barrier_parties=parties, barrier_rounds=rounds,
                barrier_passes=barrier_passes,
                sem_workers=sem_workers, sem_permits=permits,
                sem_acquisitions=acquisitions,
                sem_max_concurrent=high_water,
                failovers=failovers, convergences_s=convergences,
                watchers=watchers, updates=updates,
                fanout_latencies_s=latencies,
                expiry_detections_s=detections,
                watch_violations=violations,
                load_requests=len(generator.metrics.records),
                load_errors=generator.metrics.errors)

        return env.run(main)


def bench(result: KeeperResult) -> dict:
    """The measurements CI uploads as ``BENCH_keeper.json``."""
    fields = {name: getattr(result, name) for name in (
        "barrier_parties", "barrier_rounds", "barrier_passes",
        "sem_workers", "sem_permits", "sem_acquisitions",
        "sem_max_concurrent", "failovers", "convergences_s", "watchers",
        "updates", "fanout_p50_ms", "fanout_p99_ms", "expiry_detections_s",
        "watch_violations", "load_requests", "load_errors")}
    return {"session_ttl": SESSION_TTL, **fields}


def report(result: KeeperResult) -> str:
    rows = [
        ("barrier",
         f"{result.barrier_parties} x {result.barrier_rounds}",
         f"{result.barrier_passes} passes",
         f"expected {result.barrier_parties * result.barrier_rounds}"),
        ("semaphore",
         f"{result.sem_workers} / {result.sem_permits} permits",
         f"{result.sem_acquisitions} acquired",
         f"high-water {result.sem_max_concurrent}"),
        ("election",
         f"{result.failovers} failovers",
         f"max {result.convergence_max_s:.2f}s",
         "TTL " + f"{SESSION_TTL:.1f}s"),
        ("fan-out",
         f"{result.watchers} watchers x {result.updates}",
         f"p50 {result.fanout_p50_ms:.0f} ms",
         f"p99 {result.fanout_p99_ms:.0f} ms"),
        ("expiry",
         f"{len(result.expiry_detections_s)} kills",
         f"max {result.expiry_max_s:.2f}s",
         f"bound {2 * result.expiry_ttl:.1f}s"),
        ("audit",
         f"{result.watchers} delivered streams",
         f"{result.watch_violations} violations",
         f"{result.load_requests} bg reqs "
         f"({result.load_errors} errors)"),
    ]
    return render_table(
        ["scenario", "scale", "measured", "bound"], rows,
        title="keeper coordination service (virtual-time measurements)"
    ) + "\n" + claim_lines(CLAIMS, result)
