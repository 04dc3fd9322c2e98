"""Open-loop serving under a diurnal ramp: static vs autoscaled.

Not a figure from the paper — the paper's evaluation is closed-loop —
but the ROADMAP's north star: the same DSO grid serving an open
population whose arrival rate ramps like a miniature day
(:class:`repro.workload.generator.RateProfile.diurnal`).  Three
provisioning strategies serve the identical workload:

* **static-small** — the trough-sized cluster.  Cheap, and correct at
  base load; when the ramp crests past its capacity the open-loop
  arrivals keep coming, the accept queue grows, and tail latency
  explodes (no closed-loop throttle hides it).
* **static-large** — the peak-sized cluster, pre-warmed FaaS pool.
  Great tails, but it pays peak rent for the whole day.
* **autoscaled** — starts at trough size; the
  :class:`repro.workload.autoscaler.Autoscaler` watches live p99 /
  utilisation / cost signals each epoch and grows (then shrinks) the
  grid and the warm pool with the ramp, riding membership views +
  rebalance + placement-version fencing under the live traffic.

The claim the benchmark floor pins: **autoscaled beats static-small
on p999 while staying under static-large's dollar total** — elasticity
buys the tail latency of the big cluster at a price near the small
one.

Node capacity is deliberately scaled down (2 workers per node, a
rebalance throttle tuned for elasticity) so that saturation happens
at rates a discrete-event simulation can drive in seconds; the
*shape* — open-loop overload, queueing tails, scale-out recovery —
is what the experiment preserves.  All quantities are virtual-time.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

from repro.config import DEFAULT_CONFIG, Config
from repro.core.runtime import RUNNER_FUNCTION, CrucialEnvironment
from repro.harness.claims import Claim, at_least, below, claim_lines, exactly
from repro.metrics.recorder import percentile
from repro.metrics.report import render_table
from repro.workload.autoscaler import (
    Autoscaler,
    AutoscalerPolicy,
    NodeRentMeter,
    ScaleEvent,
)
from repro.workload.generator import (
    OpenLoopGenerator,
    RateProfile,
    TenantSpec,
)

#: Provisioning strategies, cheap to expensive.
POINTS = ("static-small", "static-large", "autoscaled")

#: Trough / peak cluster sizes the three strategies interpolate.
SMALL_NODES = 1
LARGE_NODES = 4
LARGE_PREWARM = 8


def _autoscaled_over(metric: str, point: str):
    """The autoscaled point's ``metric`` over ``point``'s."""
    return lambda r: (getattr(r.points["autoscaled"], metric)
                      / getattr(r.points[point], metric))


CLAIMS = [
    # Elasticity: autoscaled beats the trough-sized cluster's tail
    # latency under the peak-sized cluster's dollars.
    Claim("serving.p999_vs_small", "autoscaled p999 over static-small's",
          None, _autoscaled_over("p999_ms", "static-small"), below(1.0)),
    Claim("serving.dollars_vs_large", "autoscaled dollars over "
          "static-large's", None, _autoscaled_over("dollars",
                                                   "static-large"),
          below(1.0)),
    # Open loop: the arrival process sets the sustained rate (the
    # 50->340 ramp averages ~197 req/s), whatever the cluster.
    Claim("serving.min_tput", "lowest sustained rate of any strategy",
          None, lambda r: min(p.sustained_tput for p in r.points.values()),
          at_least(150.0), "{:.1f}/s"),
    Claim("serving.scaled_out_and_in", "autoscaler added and removed "
          "nodes", None, lambda r: {"add-node", "remove-node"} <= {
              e.action for e in r.points["autoscaled"].scale_events},
          exactly(True)),
    Claim("serving.errors", "failed requests, all strategies", None,
          lambda r: sum(p.errors for p in r.points.values()), exactly(0),
          "{:d}"),
    Claim("serving.acked_equal", "every strategy acked the same writes",
          None, lambda r: len({p.acked_writes
                               for p in r.points.values()}) == 1,
          exactly(True)),
]


def serving_config(config: Config = DEFAULT_CONFIG) -> Config:
    """The scaled-down serving hardware (see module docstring)."""
    return replace(config, dso=replace(
        config.dso,
        # Two-worker nodes saturate at a few hundred ops/s, so the
        # diurnal ramp crosses node capacity at simulatable rates.
        node_workers=2,
        # Elasticity-tuned rebalance throttle: a scale-out must settle
        # within an epoch or two, not over minutes.
        transfer_per_object=0.002))


def serving_tenants() -> list[TenantSpec]:
    """Two populations: direct-DSO web traffic + FaaS API traffic."""
    return [
        TenantSpec(name="web", share=0.88, keys=96, zipf_s=1.1,
                   read_fraction=0.9, rf=1, via="dso", cost=0.008),
        TenantSpec(name="api", share=0.12, keys=16, zipf_s=1.0,
                   read_fraction=0.5, rf=1, via="faas", cost=0.005),
    ]


def serving_policy() -> AutoscalerPolicy:
    return AutoscalerPolicy(
        epoch=1.0, slo_p99=0.100,
        high_utilization=0.75, low_utilization=0.25,
        min_nodes=SMALL_NODES, max_nodes=LARGE_NODES,
        cooldown_epochs=2,
        faas_service=0.05, warm_headroom=2.0, min_warm=2)


@dataclass
class ServingPoint:
    """One strategy's measurements over the identical workload."""

    label: str
    nodes_start: int
    nodes_end: int
    requests: int
    errors: int
    #: Completions per second over the whole run (virtual time).
    sustained_tput: float
    p50_ms: float
    p99_ms: float
    p999_ms: float
    #: CostLedger total: grid-node rent + the Lambda bill.
    dollars: float
    node_seconds: float
    cold_starts: int
    scale_events: list[ScaleEvent] = field(default_factory=list)
    acked_writes: int = 0


@dataclass
class ServingResult:
    points: dict[str, ServingPoint]
    duration: float
    base_rate: float
    peak_rate: float

    @property
    def requests(self) -> int:
        return max(p.requests for p in self.points.values())


def _run_point(label: str, base: float, peak: float, duration: float,
               seed: int, config: Config) -> ServingPoint:
    nodes = LARGE_NODES if label == "static-large" else SMALL_NODES
    profile = RateProfile.diurnal(base=base, peak=peak)
    tenants = serving_tenants()
    with CrucialEnvironment(seed=seed, dso_nodes=nodes,
                            config=config) as env:
        rent = NodeRentMeter(env, env.cost_ledger)

        def main():
            if label == "static-large":
                env.pre_warm(LARGE_PREWARM)
            generator = OpenLoopGenerator(env, tenants, profile, duration)
            scaler = None
            if label == "autoscaled":
                scaler = Autoscaler(env, generator.metrics,
                                    policy=serving_policy(),
                                    ledger=env.cost_ledger,
                                    rent=rent).start()
            t0 = env.now
            metrics = generator.run()
            if scaler is not None:
                scaler.stop()
            env.cost_ledger.settle()
            _bill_lambda(env)
            cold = sum(1 for r in env.platform.records if r.cold_start)
            events = scaler.grid_events() if scaler else []
            return t0, metrics, events, cold

        t0, metrics, events, cold = env.run(main)
        latencies = metrics.latencies()
        last = max(r.finished for r in metrics.records) \
            if metrics.records else t0 + duration
        return ServingPoint(
            label=label,
            nodes_start=nodes,
            nodes_end=len(env.dso.member_nodes()),
            requests=len(metrics.records),
            errors=metrics.errors,
            sustained_tput=metrics.completions.rate_between(t0, last),
            p50_ms=percentile(latencies, 50.0) * 1000,
            p99_ms=percentile(latencies, 99.0) * 1000,
            p999_ms=percentile(latencies, 99.9) * 1000,
            dollars=env.cost_ledger.total_dollars,
            node_seconds=rent.node_seconds,
            cold_starts=cold,
            scale_events=events,
            acked_writes=metrics.total_acked)


def _bill_lambda(env: CrucialEnvironment) -> None:
    """Fold the FaaS bill into the ledger next to the node rent."""
    gb_seconds = env.platform.billed_gb_seconds(RUNNER_FUNCTION)
    invocations = env.platform.invocation_count(RUNNER_FUNCTION)
    env.cost_ledger.request(
        "lambda", "faas",
        dollars=env.config.prices.lambda_dollars(gb_seconds, invocations),
        count=invocations)


def run(base_rate: float = 50.0, peak_rate: float = 340.0,
        duration: float = 28.0, seed: int = 17,
        config: Config | None = None) -> ServingResult:
    """Serve the identical diurnal workload under each strategy."""
    cfg = serving_config(DEFAULT_CONFIG if config is None else config)
    points = {
        label: _run_point(label, base_rate, peak_rate, duration,
                          seed, cfg)
        for label in POINTS
    }
    return ServingResult(points=points, duration=duration,
                         base_rate=base_rate, peak_rate=peak_rate)


def report(result: ServingResult) -> str:
    rows = []
    for label in POINTS:
        point = result.points[label]
        rows.append((
            label,
            f"{point.nodes_start}->{point.nodes_end}",
            f"{point.sustained_tput:7.1f}",
            f"{point.p50_ms:7.1f}",
            f"{point.p99_ms:8.1f}",
            f"{point.p999_ms:8.1f}",
            f"${point.dollars:.4f}",
            f"{point.cold_starts}",
            f"{len(point.scale_events)}",
        ))
    table = render_table(
        ["strategy", "nodes", "tput/s", "p50 ms", "p99 ms", "p999 ms",
         "dollars", "cold", "scales"],
        rows,
        title=(f"open-loop serving, {result.base_rate:.0f}->"
               f"{result.peak_rate:.0f} req/s diurnal ramp x "
               f"{result.duration:.0f}s ({result.requests} requests)"))
    return table + "\n" + claim_lines(CLAIMS, result)


def bench(result: ServingResult) -> dict:
    """The measurements CI uploads as ``BENCH_serving.json``."""
    points = []
    for point in result.points.values():
        fields = asdict(point)
        events = fields.pop("scale_events")
        points.append({**fields, "scale_events": events})
    return {"duration": result.duration, "base_rate": result.base_rate,
            "peak_rate": result.peak_rate, "requests": result.requests,
            "points": points}

