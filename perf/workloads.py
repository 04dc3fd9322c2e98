"""The five benchmark workloads.

Every workload is driven from outside: inputs are generated *here* from
the seed, the program sees only those inputs, and the only handles on it
are the ``repro`` facade (``repro.__all__``) plus attributes of a live
``CrucialEnvironment``.  Nothing in this file imports a ``repro.*``
submodule, so the benchmark keeps working when the package is
restructured.

A workload exposes five steps, timed separately by ``harness.py``:

``inputs(seed)``   pure input generation (host time -> ``setup_s``)
``setup(inputs)``  environment construction + pre-population (``setup_s``)
``run(state)``     the measured phase (``host_s`` and every ``sim_*``)
``check(...)``     output correctness, returns a list of problems
``counters(...)``  per-layer counts read from the live environment

An *op* is ``(kind, virtual start, virtual end, ok)``.  Exceptions inside
an op mark it failed and never abort the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from repro import (
    DEFAULT_CONFIG,
    RUNNER_FUNCTION,
    AtomicLong,
    Autoscaler,
    AutoscalerPolicy,
    CloudThread,
    CrucialEnvironment,
    CyclicBarrier,
    KeeperService,
    LeaderElector,
    NodeRentMeter,
    OpenLoopGenerator,
    RateProfile,
    TenantSpec,
    compute,
    current_environment,
    find_watch_violations,
    shared,
)

import spans
from stats import percentile

Op = tuple[str, float, float, bool]

#: Table 2 of the paper: Crucial GET / PUT latency in microseconds.
TABLE2_GET_US = 229.8
TABLE2_PUT_US = 230.9

#: How many op errors a run keeps verbatim for its report.
_KEPT_ERRORS = 5


@dataclass
class Outcome:
    """What one measured phase produced, all in virtual time."""

    ops: list[Op]
    started: float
    ended: float
    dollars: float
    #: Workload-specific observations (per-layer metrics, audit inputs).
    extras: dict[str, Any] = field(default_factory=dict)
    #: ``repr`` of the first few exceptions raised inside ops.
    op_errors: list[str] = field(default_factory=list)


def dollars_so_far(env) -> float:
    """Everything the deployment has been billed up to now: grid-node
    rent and storage/request dollars (both in ``env.cost_ledger``) plus
    the Lambda bill.  Computed the same way for every workload."""
    env.cost_ledger.settle()
    prices = env.config.prices
    lambda_bill = (
        env.platform.billed_gb_seconds(RUNNER_FUNCTION) * prices.lambda_gb_second
        + env.platform.invocation_count(RUNNER_FUNCTION) * prices.lambda_per_request)
    return env.cost_ledger.total_dollars + lambda_bill


class OpLog:
    """Times client operations on the virtual clock."""

    def __init__(self, env):
        self.env = env
        self.ops: list[Op] = []
        self.errors: list[str] = []

    def timed(self, kind: str, call: Callable, *args) -> Any:
        """Run ``call(*args)`` as one op; returns its result or ``None``."""
        env = self.env
        start = env.now
        result, ok = None, True
        try:
            result = call(*args)
        except Exception as exc:  # an op may fail; the run must go on
            ok = False
            if len(self.errors) < _KEPT_ERRORS:
                self.errors.append(f"{kind}: {exc!r}")
        self.add(kind, start, env.now, ok)
        return result

    def add(self, kind: str, start: float, end: float, ok: bool = True,
            weight: int = 1) -> None:
        """Record one op.  ``weight`` is how many ops its span stands
        for: 0 when the span was (or will be) declared elsewhere."""
        self.ops.append((kind, start, end, ok))
        if weight:
            spans.mark_op(kind, start, end, weight)


def zipf_ranks(rng: np.random.Generator, keys: int, s: float,
               count: int) -> np.ndarray:
    """``count`` draws from a bounded Zipf(s) over ``range(keys)``."""
    weights = np.arange(1, keys + 1, dtype=float) ** -s
    return rng.choice(keys, size=count, p=weights / weights.sum())


def median_us(ops: list[Op], kind: str) -> float:
    values = [end - start for k, start, end, _ok in ops if k == kind]
    return percentile(values, 50.0) * 1e6 if values else 0.0


class Workload:
    """Base class: the steps ``harness.py`` drives, plus shared plumbing."""

    name = ""
    #: Tail percentile reported as ``sim_tail_us`` (fixed per workload).
    tail_q = 99.0
    dso_nodes = 1

    def inputs(self, seed: int) -> dict:
        """Everything the run will feed the program, from ``seed`` alone.
        ``inputs["seed"]`` also seeds the environment's own RNG streams
        (latency jitter, cold starts)."""
        return {"seed": seed}

    def config(self):
        return DEFAULT_CONFIG

    def setup(self, inputs: dict) -> SimpleNamespace:
        env = CrucialEnvironment(seed=inputs["seed"],
                                 dso_nodes=self.dso_nodes,
                                 config=self.config())
        state = SimpleNamespace(env=env, inputs=inputs,
                                rent=NodeRentMeter(env, env.cost_ledger))
        self.populate(state)
        return state

    def populate(self, state) -> None:
        """Pre-create objects / warm pools (runs inside ``setup``)."""

    def run(self, state) -> Outcome:
        raise NotImplementedError

    def check(self, state, outcome: Outcome) -> list[str]:
        raise NotImplementedError

    def counters(self, state, outcome: Outcome) -> dict[str, float]:
        """Workload-specific per-layer metrics (``--trace`` only)."""
        return {}

    def finish_spans(self, recorder: spans.SpanRecorder) -> None:
        """Hook for workloads whose ops are not declared by mark_op."""

    def close(self, state) -> None:
        state.env.close()

    # -- helpers -----------------------------------------------------------

    def measured(self, state, body: Callable[[], dict | None],
                 log: OpLog | None = None) -> Outcome:
        """Run ``body`` as the client application and bill the phase."""
        env = state.env
        box: dict[str, Any] = {}

        def main():
            before, box["started"] = dollars_so_far(env), env.now
            box["extras"] = body() or {}
            box["ended"] = env.now
            box["dollars"] = dollars_so_far(env) - before

        env.run(main)
        return Outcome(ops=log.ops if log else [], started=box["started"],
                       ended=box["ended"], dollars=box["dollars"],
                       extras=box["extras"],
                       op_errors=log.errors if log else [])


# ---------------------------------------------------------------------------
# serving_ramp
# ---------------------------------------------------------------------------


class ServingRamp(Workload):
    """Open loop: a diurnal ramp served by an autoscaled grid.  The only
    workload that spawns one OS-backed thread per request, rebalances
    under live traffic and pays cold starts."""

    name = "serving_ramp"
    #: The gated tail must hold its bound across seeds.  p99 here is the
    #: height of the backlog spike before the first scale-out lands: 37 to
    #: 344 ms over 40 seeds, and still 16 % apart as a median of nine.  p95
    #: is the highest percentile that repeats; p99 is reported per seed
    #: as ``workload.request_p99_us`` in the traced run.
    tail_q = 95.0

    BASE_RATE = 50.0
    PEAK_RATE = 340.0
    DURATION = 28.0
    TENANTS = (
        TenantSpec(name="web", share=0.88, keys=96, zipf_s=1.1,
                   read_fraction=0.9, rf=1, via="dso", cost=0.008),
        TenantSpec(name="api", share=0.12, keys=16, zipf_s=1.0,
                   read_fraction=0.5, rf=1, via="faas", cost=0.005),
    )
    POLICY = AutoscalerPolicy(
        epoch=1.0, slo_p99=0.100, high_utilization=0.75,
        low_utilization=0.25, min_nodes=1, max_nodes=4, cooldown_epochs=2,
        faas_service=0.05, warm_headroom=2.0, min_warm=2)

    # No inputs() of its own: the arrival process (Poisson thinning,
    # tenant and key draws) is the program's OpenLoopGenerator, seeded
    # through CrucialEnvironment(seed=...).

    def config(self):
        # Two-worker nodes saturate at a few hundred ops/s, so the ramp
        # crosses node capacity; the rebalance throttle lets a scale-out
        # settle within an epoch or two (the repo's serving hardware).
        return replace(DEFAULT_CONFIG, dso=replace(
            DEFAULT_CONFIG.dso, node_workers=2, transfer_per_object=0.002))

    def run(self, state) -> Outcome:
        env = state.env
        profile = RateProfile.diurnal(base=self.BASE_RATE, peak=self.PEAK_RATE)

        def body():
            generator = OpenLoopGenerator(env, list(self.TENANTS), profile,
                                          self.DURATION)
            scaler = Autoscaler(env, generator.metrics, policy=self.POLICY,
                                ledger=env.cost_ledger,
                                rent=state.rent).start()
            node_seconds = state.rent.node_seconds
            metrics = generator.run()
            scaler.stop()
            state.generator = generator
            state.rent.settle()
            due = metrics.arrivals.events
            began = sorted(r.arrived for r in metrics.records)
            late = max((b - d for b, d in zip(began, due)), default=0.0)
            return {
                "arrivals": len(due),
                "generator_late_us": late * 1e6,
                "scale_events": len(scaler.grid_events()),
                "node_seconds": state.rent.node_seconds - node_seconds,
                "errors": metrics.errors,
                "acked": dict(metrics.acked_writes),
            }

        outcome = self.measured(state, body)
        outcome.ops = [(f"{r.tenant}.{r.kind}", r.arrived, r.finished, r.ok)
                       for r in state.generator.metrics.records]
        return outcome

    def finish_spans(self, recorder) -> None:
        # The generator spawns one thread per request from inside run();
        # that thread's lifetime is the request.
        spans.promote_threads(recorder.spans, "OpenLoopGenerator.run",
                              "request")

    def check(self, state, outcome) -> list[str]:
        problems = []
        extras = outcome.extras
        if extras["errors"]:
            problems.append(f"{extras['errors']} requests failed")
        if extras["arrivals"] != len(outcome.ops):
            problems.append(f"{extras['arrivals']} arrivals but "
                            f"{len(outcome.ops)} completions")
        if extras["generator_late_us"] != 0.0:
            problems.append("generator ran late by "
                            f"{extras['generator_late_us']} us")
        final = state.env.run(state.generator.final_counts)
        if final != extras["acked"]:
            problems.append("final counter values != acknowledged writes")
        return problems

    def counters(self, state, outcome) -> dict[str, float]:
        extras = outcome.extras
        latencies = [end - start for _kind, start, end, _ok in outcome.ops]
        return {
            "workload.request_p99_us": percentile(latencies, 99.0) * 1e6,
            "workload.arrivals": extras["arrivals"],
            "workload.generator_late_us": extras["generator_late_us"],
            "workload.scale_events": extras["scale_events"],
            "workload.node_seconds": extras["node_seconds"],
        }


# ---------------------------------------------------------------------------
# dso_sync_mix
# ---------------------------------------------------------------------------


class DsoSyncMix(Workload):
    """Closed loop on the paper-model DSO (no cache, synchronous shipping):
    hops, primary execution and replication dominate virtual time, and a
    fixed thread pool isolates handoff cost from spawn cost."""

    name = "dso_sync_mix"
    dso_nodes = 3

    KEYS = 256
    RF2_KEYS = 64
    SEQ_OPS = 2000
    CLIENTS = 8
    PAR_OPS = 800
    TXN_GROUPS = 8
    #: get / increment rf=1 / increment rf=2 / 4-key transaction.
    #: Transactions ship through the client process's one pipeline, which
    #: every synchronous op drains first; at 10 % they congest it (par.get
    #: median 813 us) and the median op measures that queue instead of
    #: the two network hops.  5 % keeps them on the tail.
    PAR_MIX = (("par.get", 0.50), ("par.incr", 0.35),
               ("par.put_rf2", 0.10), ("par.txn4", 0.05))
    CALIBRATION_LIMIT_PCT = 2.0

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        seq_keys = rng.integers(0, self.KEYS, size=self.SEQ_OPS)
        seq = [("seq.put" if i % 2 else "seq.get", f"k{key}")
               for i, key in enumerate(seq_keys)]
        kinds = [kind for kind, _share in self.PAR_MIX]
        shares = [share for _kind, share in self.PAR_MIX]
        clients = []
        for _client in range(self.CLIENTS):
            drawn = rng.choice(len(kinds), size=self.PAR_OPS, p=shares)
            keys = rng.integers(0, self.KEYS, size=self.PAR_OPS)
            ops = []
            for index, key in zip(drawn, keys):
                kind = kinds[index]
                if kind == "par.put_rf2":
                    key %= self.RF2_KEYS
                elif kind == "par.txn4":
                    key %= self.TXN_GROUPS
                ops.append((kind, int(key)))
            clients.append(ops)
        return {"seed": seed, "seq": seq, "clients": clients}

    @staticmethod
    def _group_keys(client: int, group: int) -> list[str]:
        return [f"t{client}-{group}-{j}" for j in range(4)]

    def populate(self, state) -> None:
        env = state.env

        def main():
            for key in range(self.KEYS):
                env.dso.put("client", f"k{key}", 0)
                AtomicLong(f"c{key}").get()
            for key in range(self.RF2_KEYS):
                AtomicLong(f"p{key}", persistent=True).get()
            for client in range(self.CLIENTS):
                for group in range(self.TXN_GROUPS):
                    with env.transaction() as txn:
                        for key in self._group_keys(client, group):
                            txn.write(key, 0)

        env.run(main)

    def run(self, state) -> Outcome:
        env = state.env
        log = OpLog(env)
        acked: dict[str, int] = {}
        committed: dict[tuple[int, int], int] = {}

        def increment(counter: AtomicLong) -> None:
            counter.add_and_get(1)
            acked[counter.key] = acked.get(counter.key, 0) + 1

        def transact(client: int, group: int, sequence: int) -> None:
            with env.transaction() as txn:
                for key in self._group_keys(client, group):
                    txn.write(key, sequence)
            committed[(client, group)] = sequence

        def client_loop(client: int, ops: list) -> None:
            for sequence, (kind, key) in enumerate(ops, start=1):
                if kind == "par.get":
                    log.timed(kind, env.dso.get, "client", f"k{key}")
                elif kind == "par.incr":
                    log.timed(kind, increment, AtomicLong(f"c{key}"))
                elif kind == "par.put_rf2":
                    log.timed(kind, increment,
                              AtomicLong(f"p{key}", persistent=True))
                else:
                    log.timed(kind, transact, client, key, sequence)

        def body():
            wall = time.perf_counter()
            for index, (kind, key) in enumerate(state.inputs["seq"]):
                if kind == "seq.get":
                    log.timed(kind, env.dso.get, "client", key)
                else:
                    log.timed(kind, env.dso.put, "client", key, index)
            seq_wall = time.perf_counter() - wall
            wall = time.perf_counter()
            threads = [env.kernel.spawn(client_loop, c, ops, name=f"client-{c}")
                       for c, ops in enumerate(state.inputs["clients"])]
            for thread in threads:
                thread.join()
            par_wall = time.perf_counter() - wall
            return {"acked": acked, "committed": committed,
                    "seq_host_s": seq_wall, "par_host_s": par_wall}

        return self.measured(state, body, log)

    def calibration_error_pct(self, outcome: Outcome) -> float:
        get_us = median_us(outcome.ops, "seq.get")
        put_us = median_us(outcome.ops, "seq.put")
        return 100.0 * max(abs(get_us - TABLE2_GET_US) / TABLE2_GET_US,
                           abs(put_us - TABLE2_PUT_US) / TABLE2_PUT_US)

    def check(self, state, outcome) -> list[str]:
        env = state.env
        acked = outcome.extras["acked"]
        committed = outcome.extras["committed"]

        def audit():
            problems = []
            for key, expected in sorted(acked.items()):
                counter = AtomicLong(key, persistent=key.startswith("p"))
                value = counter.get()
                if value != expected:
                    problems.append(f"counter {key}: final {value} != "
                                    f"acked {expected}")
            for client in range(self.CLIENTS):
                for group in range(self.TXN_GROUPS):
                    expected = committed.get((client, group), 0)
                    with env.transaction() as txn:
                        values = [txn.read(key) for key
                                  in self._group_keys(client, group)]
                    if values != [expected] * 4:
                        problems.append(
                            f"txn group {client}/{group}: {values} is not "
                            f"all-or-nothing at sequence {expected}")
            return problems

        problems = env.run(audit)
        error = self.calibration_error_pct(outcome)
        if error > self.CALIBRATION_LIMIT_PCT:
            problems.append(f"Table 2 calibration off by {error:.2f} %")
        return problems

    def counters(self, state, outcome) -> dict[str, float]:
        ops, extras = outcome.ops, outcome.extras
        seq_ops = sum(1 for op in ops if op[0].startswith("seq."))
        return {
            "dso.get_us": median_us(ops, "seq.get"),
            "dso.put_us": median_us(ops, "seq.put"),
            "dso.put_rf2_us": median_us(ops, "par.put_rf2"),
            "dso.txn4_us": median_us(ops, "par.txn4"),
            "dso.calib_err_pct": self.calibration_error_pct(outcome),
            "simulation.host_us_per_op.seq":
                extras["seq_host_s"] / seq_ops * 1e6,
            "simulation.host_us_per_op.par":
                extras["par_host_s"] / (len(ops) - seq_ops) * 1e6,
        }


# ---------------------------------------------------------------------------
# dso_cached_skew
# ---------------------------------------------------------------------------


class DsoCachedSkew(Workload):
    """Closed loop over the same layer with the lease read cache on: hits
    bypass the network and the primary, writes pay lease revocation."""

    name = "dso_cached_skew"
    dso_nodes = 3

    #: Twice the 256-entry per-site ObjectCache, so LRU eviction is live.
    KEYS = 512
    ZIPF_S = 1.1
    SITES = 8
    OPS_PER_SITE = 2400
    BATCH = 16
    #: One 16-write batch per 160 ops: 10 % writes.
    BLOCK = 160
    #: Client-side use of each value read, inside the op.  Without it the
    #: median op is the constant 2 us cache-hit cost on every seed.
    USE_SECONDS = (0.5e-6, 1.5e-6)

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        sites = []
        for site in range(self.SITES):
            ranks = zipf_ranks(rng, self.KEYS, self.ZIPF_S, self.OPS_PER_SITE)
            use = rng.uniform(*self.USE_SECONDS, size=self.OPS_PER_SITE)
            program = []
            for base in range(0, self.OPS_PER_SITE, self.BLOCK):
                block = list(zip(ranks[base:base + self.BLOCK].tolist(),
                                 use[base:base + self.BLOCK].tolist()))
                reads = block[:-self.BATCH]
                writes = [rank for rank, _use in block[-self.BATCH:]]
                # Each key has one writer (rank rounded onto the site's
                # residue class), so "last acked version" is well defined.
                owned = [(r - r % self.SITES + site) % self.KEYS
                         for r in writes]
                at = int(rng.integers(0, len(reads) + 1))
                program.append((reads[:at], owned, reads[at:]))
            sites.append(program)
        return {"seed": seed, "sites": sites}

    def populate(self, state) -> None:
        env = state.env
        env.dso.enable_read_cache()

        def main():
            for key in range(self.KEYS):
                env.dso.put("client", f"k{key}", 0)

        env.run(main)

    def run(self, state) -> Outcome:
        env = state.env
        dso = env.dso
        log = OpLog(env)
        acked: dict[int, int] = {}
        stale: list[str] = []

        def site_loop(site: int, program: list) -> None:
            endpoint = f"site-{site}"
            seen: dict[int, int] = {}
            version = 0

            def fetch_and_use(key: int, use_seconds: float) -> int:
                value = dso.get(endpoint, f"k{key}")
                compute(use_seconds)
                return value

            def read(key: int, use_seconds: float) -> None:
                value = log.timed("read", fetch_and_use, key, use_seconds)
                if value is None:
                    return
                if value < seen.get(key, 0):
                    stale.append(f"{endpoint} read k{key}={value} after "
                                 f"{seen[key]}")
                seen[key] = value

            for before, writes, after in program:
                for key, use_seconds in before:
                    read(key, use_seconds)
                submitted = env.now
                ok = True
                try:
                    futures = []
                    for key in writes:
                        version += 1
                        futures.append(
                            (key, version,
                             dso.put_async(endpoint, f"k{key}", version)))
                    dso.flush(endpoint)
                    for key, written, future in futures:
                        future.result()
                        acked[key] = seen[key] = written
                except Exception as exc:  # the batch failed; keep going
                    ok = False
                    if len(log.errors) < _KEPT_ERRORS:
                        log.errors.append(f"put_async: {exc!r}")
                done = env.now
                # Sixteen writes submitted at one virtual instant and
                # acknowledged by one flush: one weighted span, 16 ops.
                for index in range(len(writes)):
                    log.add("put_async", submitted, done, ok,
                            weight=0 if index else len(writes))
                for key, use_seconds in after:
                    read(key, use_seconds)

        def body():
            threads = [env.kernel.spawn(site_loop, s, program, name=f"site-{s}")
                       for s, program in enumerate(state.inputs["sites"])]
            for thread in threads:
                thread.join()
            return {"acked": acked, "stale": stale}

        return self.measured(state, body, log)

    def check(self, state, outcome) -> list[str]:
        env = state.env
        acked = outcome.extras["acked"]
        problems = list(outcome.extras["stale"][:_KEPT_ERRORS])

        def audit():
            wrong = 0
            for key in range(self.KEYS):
                if env.dso.get("client", f"k{key}") != acked.get(key, 0):
                    wrong += 1
            return wrong

        wrong = env.run(audit)
        if wrong:
            problems.append(f"{wrong} keys differ from their last "
                            "acknowledged write")
        return problems

    def counters(self, state, outcome) -> dict[str, float]:
        return {
            "dso.cached_read_us": median_us(outcome.ops, "read"),
            "dso.async_put_us": median_us(outcome.ops, "put_async"),
        }


# ---------------------------------------------------------------------------
# keeper_fanout
# ---------------------------------------------------------------------------


class KeeperFanout(Workload):
    """Config fan-out to heartbeating watcher sessions, then leader
    failovers: coordination, session queues and lease heartbeats do the
    work; plain get/put does little."""

    name = "keeper_fanout"
    dso_nodes = 3

    WATCHERS = 240
    UPDATES = 8
    FAILOVERS = 3
    WATCHER_TTL = 6.0
    ELECTION_TTL = 2.0
    #: Leaders are killed on this virtual-time grid: the heartbeat and
    #: sweep period.  Convergence is lease expiry + one sweep + one watch
    #: hop, so where in that cycle the kill lands moves it by up to a
    #: second; the grid pins the phase and leaves the protocol's own cost
    #: as what varies.
    KILL_GRID = ELECTION_TTL / 3.0
    PATH = "/perf/conf"

    def inputs(self, seed: int) -> dict:
        # Watcher i sleeps a seeded think time before re-arming its
        # watch, so delivery order differs from seed to seed.
        rng = np.random.default_rng(seed)
        think = rng.uniform(0.0, 0.010, size=(self.WATCHERS, self.UPDATES))
        return {"seed": seed, "think": think.tolist()}

    def populate(self, state) -> None:
        env = state.env

        def main():
            keeper = KeeperService(name="perf", rf=2,
                                   session_ttl=self.ELECTION_TTL)
            publisher = keeper.session(name="publisher", ttl=60.0)
            publisher.create("/perf")
            publisher.create(self.PATH, data=0)
            watchers = [keeper.session(name=f"w{i:03d}", ttl=self.WATCHER_TTL)
                        for i in range(self.WATCHERS)]
            for session in watchers:
                session.get(self.PATH, watch=True)
            members = [f"cand-{i}" for i in range(self.FAILOVERS + 1)]
            candidates = [keeper.session(name=m) for m in members]
            electors = [LeaderElector(s, "/perf/svc", m)
                        for s, m in zip(candidates, members)]
            for elector in electors:
                elector.volunteer()
            electors[0].lead()
            state.keeper, state.publisher = keeper, publisher
            state.watchers, state.candidates = watchers, candidates
            state.electors = electors

        env.run(main)

    def run(self, state) -> Outcome:
        env = state.env
        log = OpLog(env)
        issued: dict[int, float] = {}
        observed: list[list[int]] = [[] for _ in state.watchers]
        seen = [0]
        depths: list[int] = []

        def watch(index: int) -> None:
            session = state.watchers[index]
            for think in state.inputs["think"][index]:
                event = session.next_event(timeout=60.0)
                arrived = env.now
                value = None
                if event is not None:
                    compute(think)
                    value, _version = session.get(self.PATH, watch=True)
                    observed[index].append(value)
                log.add("delivery", issued.get(value, arrived), arrived,
                        ok=event is not None)
                seen[0] += 1

        def body():
            threads = [env.kernel.spawn(watch, i, name=f"watcher-{i}")
                       for i in range(len(state.watchers))]
            for update in range(1, self.UPDATES + 1):
                issued[update] = env.now
                state.publisher.set(self.PATH, update)
                depths.append(state.keeper.outbox_depth())
                # Quiesce: every watcher has re-armed before the next set.
                while seen[0] < update * len(threads):
                    compute(0.05)
            for thread in threads:
                thread.join()
            elections = []
            for round_number in range(self.FAILOVERS):
                compute(self.KILL_GRID - env.now % self.KILL_GRID)
                fell = env.now
                state.candidates[round_number].kill()
                log.timed("election", state.electors[round_number + 1].lead)
                elections.append(env.now - fell)
            return {"observed": observed, "elections_s": elections,
                    "outbox_depth_max": max(depths)}

        return self.measured(state, body, log)

    def check(self, state, outcome) -> list[str]:
        env = state.env

        def audit():
            compute(1.0)  # let the delivery pump drain before the audit
            delivered = {s.sid: s.delivered for s in state.watchers}
            assigned = {sid: count for sid, count
                        in state.keeper.assigned_counts().items()
                        if sid in delivered}
            state.keeper.stop()
            return find_watch_violations(delivered, assigned)

        violations = env.run(audit)
        problems = [f"watch violation: {v}" for v in violations[:_KEPT_ERRORS]]
        expected = list(range(1, self.UPDATES + 1))
        wrong = sum(1 for values in outcome.extras["observed"]
                    if values != expected)
        if wrong:
            problems.append(f"{wrong} watchers did not see every update "
                            "once, in order")
        return problems

    def counters(self, state, outcome) -> dict[str, float]:
        deliveries = [end - start for kind, start, end, _ok in outcome.ops
                      if kind == "delivery"]
        return {
            "coordination.watch_delivery_p50_us":
                percentile(deliveries, 50.0) * 1e6,
            "coordination.watch_delivery_p99_us":
                percentile(deliveries, 99.0) * 1e6,
            "coordination.election_converge_ms":
                max(outcome.extras["elections_s"]) * 1e3,
            "coordination.watch_events":
                sum(len(s.delivered) for s in state.watchers),
            "coordination.outbox_depth_max":
                outcome.extras["outbox_depth_max"],
        }


# ---------------------------------------------------------------------------
# forkjoin_iter
# ---------------------------------------------------------------------------


class PartialSums:
    """User ``@shared`` aggregate: one integer vector per iteration."""

    def __init__(self, iterations: int, dims: int):
        self.sums = np.zeros((iterations, dims), dtype=np.int64)

    def add(self, iteration: int, vector: np.ndarray) -> None:
        self.sums[iteration] += vector

    def totals(self) -> np.ndarray:
        return self.sums


class IterativeWorker:
    """The Runnable one CloudThread executes (pickled to the function).

    Loads its partition from the object store, then per iteration:
    modelled compute, a real numpy row-weighted partial sum, one update
    of the shared aggregate, and the barrier.  Returns the virtual
    ``(start, barrier entered, end)`` of every iteration.
    """

    def __init__(self, index: int, parties: int, weights: np.ndarray,
                 dims: int, cpu_seconds: float, jitter_sigma: float):
        self.index = index
        self.parties = parties
        self.weights = weights
        self.dims = dims
        self.cpu_seconds = cpu_seconds
        self.jitter_sigma = jitter_sigma

    def run(self) -> list[tuple[float, float, float]]:
        env = current_environment()
        points = env.object_store.get(f"perf/part-{self.index:02d}")
        aggregate = shared(PartialSums, "perf-sums", len(self.weights),
                           self.dims)
        barrier = CyclicBarrier("perf-barrier", self.parties)
        timeline = []
        for iteration, weight in enumerate(self.weights):
            start = env.now
            compute(self.cpu_seconds, self.jitter_sigma)
            partial = weight.dot(points)
            aggregate.add(iteration, partial)
            waiting = env.now
            barrier.wait()
            end = env.now
            spans.mark_op("iteration", start, end)
            timeline.append((start, waiting, end))
        return timeline


class ForkJoinIter(Workload):
    """The paper's programming model — CloudThreads, a shared aggregate, a
    barrier — and the one workload whose host time is not mostly thread
    handoff (numpy and pickle do real work)."""

    name = "forkjoin_iter"
    #: 1024 worker-iterations.  The sample supports p99, but its 11
    #: samples beyond are all first iterations waiting at the barrier for
    #: the slowest cold start — one extreme draw per run, 21 % apart from
    #: seed to seed.  p95 is the straggler tail of ordinary iterations;
    #: the cold start still shows in ops/s and dollars.
    tail_q = 95.0
    dso_nodes = 2

    WORKERS = 32
    #: Enough iterations that one cold start does not decide the makespan.
    ITERATIONS = 32
    POINTS = 4096
    DIMS = 100
    #: Modelled compute per iteration, with lognormal stragglers: the
    #: slowest of the 32 parts sets each iteration's length.
    CPU_SECONDS = 0.100
    JITTER_SIGMA = 0.05

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        parts = rng.integers(-1000, 1000, dtype=np.int64,
                             size=(self.WORKERS, self.POINTS, self.DIMS))
        weights = rng.integers(1, 10, dtype=np.int64,
                               size=(self.ITERATIONS, self.POINTS))
        return {"seed": seed, "parts": parts, "weights": weights}

    def populate(self, state) -> None:
        env = state.env
        for index, part in enumerate(state.inputs["parts"]):
            env.object_store.seed(f"perf/part-{index:02d}", part,
                                  nbytes=part.nbytes)

        def main():
            shared(PartialSums, "perf-sums", self.ITERATIONS,
                   self.DIMS).totals()
            CyclicBarrier("perf-barrier", self.WORKERS).get_parties()

        env.run(main)

    def run(self, state) -> Outcome:
        env = state.env
        log = OpLog(env)
        weights = state.inputs["weights"]

        def body():
            threads = [
                CloudThread(IterativeWorker(i, self.WORKERS, weights,
                                            self.DIMS, self.CPU_SECONDS,
                                            self.JITTER_SIGMA),
                            name=f"worker-{i:02d}")
                for i in range(self.WORKERS)]
            for thread in threads:
                thread.start()
            barrier_waits = []
            for thread in threads:
                try:
                    timeline = thread.result()
                except Exception as exc:  # a failed worker fails its ops
                    timeline = []
                    if len(log.errors) < _KEPT_ERRORS:
                        log.errors.append(f"{thread.name}: {exc!r}")
                for start, waiting, end in timeline:
                    log.add("iteration", start, end, weight=0)
                    barrier_waits.append(end - waiting)
                for _missing in range(self.ITERATIONS - len(timeline)):
                    log.add("iteration", env.now, env.now, ok=False, weight=0)
            return {"barrier_waits": barrier_waits}

        return self.measured(state, body, log)

    def check(self, state, outcome) -> list[str]:
        env = state.env
        totals = env.run(lambda: shared(
            PartialSums, "perf-sums", self.ITERATIONS, self.DIMS).totals())
        reference = state.inputs["weights"] @ state.inputs["parts"].sum(axis=0)
        if not np.array_equal(totals, reference):
            return ["shared aggregate differs from the integer reference"]
        return []

    def counters(self, state, outcome) -> dict[str, float]:
        waits = outcome.extras["barrier_waits"]
        return {
            "core.cloudthreads": self.WORKERS,
            "core.barrier_wait_us":
                percentile(waits, 50.0) * 1e6 if waits else 0.0,
        }


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (ServingRamp(), DsoSyncMix(), DsoCachedSkew(),
                        KeeperFanout(), ForkJoinIter())
}
