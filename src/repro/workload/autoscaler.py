"""Elastic capacity control over live serving signals.

The Cloudburst-style monitor half of the invoker/monitor split: a
daemon control loop that wakes every ``epoch`` virtual seconds,
samples *live* signals —

* arrival and completion rates from the generator's
  :class:`~repro.metrics.recorder.ThroughputTracker` (exact
  ``rate_between`` over non-aligned epoch windows),
* interpolated tail latency over the requests that completed in the
  last epoch,
* worker-pool utilisation of every live grid node (busy-seconds
  deltas from the node's bounded worker :class:`~repro.simulation.
  resources.Resource`),
* dollars accrued so far in the shared
  :class:`~repro.metrics.cost.CostLedger` (grid-node rent is metered
  here, by :class:`NodeRentMeter`)

— and then adds or removes DSO grid nodes and FaaS warm capacity.

Scale events ride the machinery that already exists for failures:
``add_node``/``remove_node`` install a new membership view, the
rebalancer migrates objects under per-key write locks, and every
placement bumps its version so in-flight requests that raced the move
get fenced at the old primary and retry against the new placement
(DESIGN.md §15).  The autoscaler never pauses traffic: safety under
in-flight load is the fencing's job, not the control loop's.

Guard rails: ``min_nodes``/``max_nodes`` bounds, one node per
decision, and a cooldown so the loop cannot flap faster than a
rebalance settles.  Keep ``min_nodes`` at or above the largest
replication factor in use, or scale-in could leave replica sets
under-provisioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.runtime import RUNNER_FUNCTION, CrucialEnvironment
from repro.metrics.cost import CostLedger, Rent
from repro.metrics.recorder import percentile
from repro.simulation.thread import PeriodicThread
from repro.workload.generator import ServingMetrics


class NodeRentMeter(Rent):
    """Grid-node rent: a :class:`Rent` over the DSO's member nodes,
    each billed like the paper's r5.2xlarge storage instance.  The
    autoscaler settles right before changing the node count, so the
    integral is exact across scale events."""

    def __init__(self, env: CrucialEnvironment, ledger: CostLedger,
                 rate_per_hour: float | None = None,
                 name: str = "grid-nodes"):
        prices = env.config.prices
        if rate_per_hour is None:
            rate_per_hour = prices.ec2_r5_2xlarge_hour
        super().__init__(
            ledger, env.kernel, name, "compute",
            lambda: len(env.dso.member_nodes()),
            lambda node_seconds: prices.node_dollars(node_seconds,
                                                     rate_per_hour))

    @property
    def node_seconds(self) -> float:
        return self.level_seconds


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Thresholds and bounds for one :class:`Autoscaler`."""

    #: Control-loop period, virtual seconds.
    epoch: float = 1.0
    #: Scale out when the epoch's p99 latency exceeds this.
    slo_p99: float = 0.200
    #: ... or when mean worker utilisation exceeds this.
    high_utilization: float = 0.75
    #: Scale in only below this utilisation *and* half the SLO.
    low_utilization: float = 0.25
    min_nodes: int = 1
    max_nodes: int = 8
    #: Epochs to hold still after any grid scale event.
    cooldown_epochs: int = 2
    #: Consecutive idle epochs required before scaling in (debounce:
    #: one quiet epoch during a ramp must not shed capacity).
    idle_epochs: int = 2
    #: FaaS pre-warm target: arrival rate x service estimate x headroom.
    faas_service: float = 0.05
    warm_headroom: float = 2.0
    #: Warm containers kept even at zero FaaS traffic.
    min_warm: int = 0


@dataclass(frozen=True)
class ScaleEvent:
    """One capacity decision, for reports and the chaos hooks."""

    time: float
    action: str  #: "add-node" | "remove-node" | "pre-warm" | "reclaim"
    nodes_before: int
    nodes_after: int
    reason: str
    #: Membership view installed by the event (grid actions only) —
    #: the fence in-flight requests retry against.
    view_id: int | None = None


@dataclass
class _Signals:
    """What one epoch observed (kept for reports/tests)."""

    time: float
    arrival_rate: float
    completion_rate: float
    p99: float
    utilization: float
    nodes: int
    dollars: float


class Autoscaler:
    """The control loop.  ``start()`` runs :meth:`tick` every epoch."""

    def __init__(self, env: CrucialEnvironment, metrics: ServingMetrics,
                 policy: AutoscalerPolicy | None = None,
                 ledger: CostLedger | None = None,
                 rent: NodeRentMeter | None = None,
                 function_name: str = RUNNER_FUNCTION,
                 name: str = "autoscaler"):
        self.env = env
        self.metrics = metrics
        self.policy = policy if policy is not None else AutoscalerPolicy()
        self.ledger = ledger
        self.rent = rent
        if rent is None and ledger is not None:
            self.rent = NodeRentMeter(env, ledger)
        self.function_name = function_name
        self.name = name
        self.events: list[ScaleEvent] = []
        self.signals: list[_Signals] = []
        self._busy: dict[str, float] = {}
        self._hold = 0
        self._idle_streak = 0
        self._thread: PeriodicThread | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Autoscaler":
        if self.policy.min_warm > 0:
            # The provisioned-concurrency floor exists from t=0, not
            # from the first epoch — early arrivals hit warm capacity.
            self.env.platform.pre_warm(self.function_name,
                                       self.policy.min_warm)
        # ``tick`` is looked up per epoch, not bound here, so a wrapper
        # a profiler installs on the class later still sees each one.
        self._thread = self.env.kernel.every(
            self.policy.epoch, lambda: self.tick(), name=self.name)
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._thread.cancel()

    # -- one epoch ---------------------------------------------------------

    def tick(self) -> _Signals:
        """Sample the epoch's signals and act on them."""
        policy = self.policy
        now = self.env.kernel.now
        start = now - policy.epoch
        arrival = self.metrics.arrivals.rate_between(start, now)
        completion = self.metrics.completions.rate_between(start, now)
        window = self.metrics.window_latencies(start, now)
        p99 = percentile(window, 99.0) if window else 0.0
        utilization = self._utilization(policy.epoch)
        if self.rent is not None:
            self.rent.settle()
        dollars = self.ledger.total_dollars if self.ledger else 0.0
        nodes = len(self.env.dso.member_nodes())
        signals = _Signals(time=now, arrival_rate=arrival,
                           completion_rate=completion, p99=p99,
                           utilization=utilization, nodes=nodes,
                           dollars=dollars)
        self.signals.append(signals)

        overloaded = ((window and p99 > policy.slo_p99)
                      or utilization > policy.high_utilization)
        idle = (utilization < policy.low_utilization
                and p99 < 0.5 * policy.slo_p99
                and arrival <= completion)
        self._idle_streak = self._idle_streak + 1 if idle else 0
        if self._hold > 0:
            self._hold -= 1
        elif overloaded and nodes < policy.max_nodes:
            self._scale_out(signals)
        elif (self._idle_streak >= policy.idle_epochs
              and nodes > policy.min_nodes):
            self._scale_in(signals)
        self._adjust_warm_pool()
        return signals

    def _utilization(self, elapsed: float) -> float:
        """Mean busy fraction of live nodes' worker pools this epoch."""
        total, seen = 0.0, 0
        for node in self.env.dso.member_nodes():
            workers = node.node.workers
            busy = workers.busy_seconds()
            previous = self._busy.get(node.name)
            self._busy[node.name] = busy
            if previous is None:
                continue  # joined mid-epoch: no baseline yet
            total += (busy - previous) / (workers.capacity * elapsed)
            seen += 1
        return total / seen if seen else 0.0

    # -- actions -----------------------------------------------------------

    def _scale_out(self, signals: _Signals) -> None:
        if self.rent is not None:
            self.rent.settle()
        dso = self.env.dso
        before = len(dso.member_nodes())
        dso.add_node()
        self.events.append(ScaleEvent(
            time=self.env.kernel.now, action="add-node",
            nodes_before=before, nodes_after=before + 1,
            reason=(f"p99={signals.p99 * 1000:.0f}ms "
                    f"util={signals.utilization:.2f}"),
            view_id=dso.membership.view.view_id))
        self._hold = self.policy.cooldown_epochs
        self._idle_streak = 0

    def _scale_in(self, signals: _Signals) -> None:
        dso = self.env.dso
        view = dso.membership.view
        candidates = dso.member_nodes()
        if len(candidates) <= self.policy.min_nodes:
            return
        if self.rent is not None:
            self.rent.settle()
        # Drain the lightest member: fewest resident objects means the
        # cheapest rebalance.  Graceful leave — data migrates off.
        counts = dso.object_counts()
        victim = min(reversed(candidates),
                     key=lambda n: counts.get(n.name, 0))
        before = len(candidates)
        dso.remove_node(victim.name)
        self.events.append(ScaleEvent(
            time=self.env.kernel.now, action="remove-node",
            nodes_before=before, nodes_after=before - 1,
            reason=(f"util={signals.utilization:.2f} "
                    f"p99={signals.p99 * 1000:.0f}ms"),
            view_id=dso.membership.view.view_id))
        self._hold = self.policy.cooldown_epochs
        self._idle_streak = 0

    def _adjust_warm_pool(self) -> None:
        """Track the observed FaaS arrival rate with warm containers."""
        policy = self.policy
        now = self.env.kernel.now
        rate = self.metrics.faas_arrivals.rate_between(
            now - policy.epoch, now)
        target = max(policy.min_warm,
                     math.ceil(rate * policy.faas_service
                               * policy.warm_headroom))
        platform = self.env.platform
        warm = platform.warm_container_count(self.function_name)
        if warm < target:
            # pre_warm targets the *total* pool; in-flight invocations
            # hold containers, so grow past them to keep ``target``
            # containers actually idle.
            busy = len(platform.busy_containers(self.function_name))
            platform.pre_warm(self.function_name, busy + target)
            self.events.append(ScaleEvent(
                time=now, action="pre-warm",
                nodes_before=warm, nodes_after=target,
                reason=f"faas_rate={rate:.1f}/s"))
        elif warm > target and warm > policy.min_warm:
            keep = max(target, policy.min_warm)
            reclaimed = platform.reclaim_idle(self.function_name, keep=keep)
            if reclaimed:
                self.events.append(ScaleEvent(
                    time=now, action="reclaim",
                    nodes_before=warm, nodes_after=warm - reclaimed,
                    reason=f"faas_rate={rate:.1f}/s"))

    # -- reporting ---------------------------------------------------------

    def grid_events(self) -> list[ScaleEvent]:
        return [e for e in self.events
                if e.action in ("add-node", "remove-node")]
