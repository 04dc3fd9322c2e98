"""Open-loop serving traffic for the DSO grid (ROADMAP item 1).

Every harness so far is closed-loop: a fixed population of fork/join
workers re-issues a request only after the previous one returns, so a
saturated grid silently throttles its own offered load and the
measured latency stays flattering.  Serving traffic from an open
population does not wait — arrivals keep coming while the grid is
slow, queues grow, and *latency* absorbs the overload.  That is the
regime an autoscaler exists for, and the regime this generator
creates.

Shape (the Lithops invoker/monitor split, Cloudburst's workload
front-end): this module only generates arrivals and records what
happened to them; capacity decisions live in
:mod:`repro.workload.autoscaler`, reading the live
:class:`ServingMetrics` this module populates.

* **Poisson arrivals** with an optional diurnal :class:`RateProfile`,
  sampled exactly by thinning a homogeneous process at the peak rate.
* **Multi-tenant populations**: each :class:`TenantSpec` carries its
  own traffic share, keyspace, Zipf skew (one correct shared
  :class:`~repro.workload.distributions.ZipfSampler` per tenant),
  read mix, replication factor and entry path (direct DSO calls or
  FaaS invocations of the generic runner).
* **No back-pressure**: every arrival gets its own simulated thread;
  in-flight requests pile up behind a slow grid exactly like a load
  balancer's accept queue.

Writes are ``incr`` calls on :class:`TenantCounter` cells, so the run
is auditable: the sum of final counter values must equal the
generator's acknowledged-write count exactly (the chaos suite's
``final == acked`` check rides on this).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.runtime import (
    RUNNER_FUNCTION,
    CrucialEnvironment,
    current_environment,
    current_location,
)
from repro.dso.reference import DsoReference
from repro.errors import CloudError
from repro.metrics.recorder import ThroughputTracker, percentile
from repro.simulation.kernel import current_thread
from repro.simulation.thread import spawn
from repro.workload.distributions import ZipfSampler


class RateProfile:
    """Piecewise-linear arrivals-per-second profile ``lambda(t)``.

    ``t`` is seconds since the generator started; the rate is clamped
    to the first/last point outside the profile's span.
    """

    def __init__(self, points: list[tuple[float, float]]):
        if not points:
            raise ValueError("empty rate profile")
        last_t = None
        for t, rate in points:
            if rate < 0:
                raise ValueError(f"negative rate {rate} at t={t}")
            if last_t is not None and t < last_t:
                raise ValueError("profile times must be non-decreasing")
            last_t = t
        self.points = list(points)

    @classmethod
    def constant(cls, rate: float) -> "RateProfile":
        return cls([(0.0, rate)])

    @classmethod
    def diurnal(cls, base: float, peak: float, warmup: float = 4.0,
                ramp: float = 6.0, plateau: float = 8.0) -> "RateProfile":
        """A day in miniature: base load, ramp to peak, plateau, ramp
        back down — the shape an elastic cluster should track."""
        return cls([
            (0.0, base),
            (warmup, base),
            (warmup + ramp, peak),
            (warmup + ramp + plateau, peak),
            (warmup + 2 * ramp + plateau, base),
        ])

    @property
    def peak(self) -> float:
        return max(rate for _t, rate in self.points)

    def at(self, t: float) -> float:
        points = self.points
        if t <= points[0][0]:
            return points[0][1]
        for (t0, r0), (t1, r1) in zip(points, points[1:]):
            if t <= t1:
                if t1 == t0:
                    return r1
                frac = (t - t0) / (t1 - t0)
                return r0 + frac * (r1 - r0)
        return points[-1][1]


@dataclass(frozen=True)
class TenantSpec:
    """One client population sharing the open-loop arrival process."""

    name: str
    #: Relative traffic weight among tenants (normalised internally).
    share: float = 1.0
    #: Keyspace size; keys are ``{name}-{rank:04d}``.
    keys: int = 64
    #: Zipf skew over the keyspace (0 = uniform).
    zipf_s: float = 1.1
    read_fraction: float = 0.9
    #: Replication factor of the tenant's counter cells (rf >= 2
    #: survives storage-node crashes — the chaos tests rely on it).
    rf: int = 1
    #: Entry path: "dso" calls the grid directly from the client,
    #: "faas" ships each request through the generic FaaS runner.
    via: str = "dso"
    #: Modelled server-side CPU seconds per operation (beyond fixed
    #: dispatch overhead) — the knob that gives nodes finite capacity.
    cost: float = 0.0

    def key(self, rank: int) -> str:
        return f"{self.name}-{rank:04d}"


class TenantCounter:
    """Server-side shared object: one auditable counter per key."""

    def __init__(self):
        self.value = 0

    def get(self) -> int:
        return self.value

    def incr(self) -> int:
        self.value += 1
        return self.value


@dataclass
class RequestRecord:
    """One completed request, in virtual time."""

    tenant: str
    key: str
    kind: str  #: "read" | "write"
    arrived: float
    finished: float
    ok: bool
    error: str = ""

    @property
    def latency(self) -> float:
        return self.finished - self.arrived


@dataclass
class ServingMetrics:
    """Live measurements the generator writes and the autoscaler reads."""

    arrivals: ThroughputTracker = field(default_factory=ThroughputTracker)
    completions: ThroughputTracker = field(default_factory=ThroughputTracker)
    #: Arrivals routed through the FaaS runner (drives pre-warming).
    faas_arrivals: ThroughputTracker = field(default_factory=ThroughputTracker)
    records: list[RequestRecord] = field(default_factory=list)
    #: key -> acknowledged increments (only successful writes count).
    acked_writes: dict[str, int] = field(default_factory=dict)
    errors: int = 0

    def latencies(self) -> list[float]:
        return [r.latency for r in self.records]

    def window_latencies(self, start: float, end: float) -> list[float]:
        """Latencies of requests that *completed* in ``[start, end)``.

        ``records`` is appended at completion time, so it is sorted by
        ``finished`` and the scan can stop early; the autoscaler calls
        this every epoch.
        """
        out = []
        for record in reversed(self.records):
            if record.finished < start:
                break
            if record.finished < end:
                out.append(record.latency)
        return out

    def tail(self, q: float) -> float:
        """Interpolated percentile over all completed requests."""
        values = self.latencies()
        return percentile(values, q) if values else 0.0

    @property
    def total_acked(self) -> int:
        return sum(self.acked_writes.values())


@dataclass(frozen=True)
class _CounterOp:
    """A single counter op, runnable inside a FaaS container.

    Module-level and frozen so it survives the marshalling the
    platform applies to shipped payloads; it resolves the environment
    and its own network location at execution time, inside the
    container.
    """

    key: str
    read: bool
    rf: int
    cost: float

    def __call__(self):
        env = current_environment()
        return _counter_call(env, current_location(), self.key,
                             self.read, self.rf, self.cost)


def _counter_call(env: CrucialEnvironment, caller: str, key: str,
                  read: bool, rf: int, cost: float):
    ref = DsoReference("TenantCounter", key, persistent=rf > 1, rf=rf)
    method = "get" if read else "incr"
    return env.dso.invoke(caller, ref, method,
                          ctor=(TenantCounter, (), {}), cost=cost)


class OpenLoopGenerator:
    """Drive the grid with open-loop multi-tenant traffic.

    Call :meth:`run` from inside ``env.run(...)``; it blocks the
    calling simulated thread for ``duration`` virtual seconds of
    arrivals, then joins every in-flight request and returns the
    populated :class:`ServingMetrics`.  The metrics object is live
    from the first arrival, so an :class:`~repro.workload.autoscaler.
    Autoscaler` started alongside sees rates and tails as they
    happen.
    """

    def __init__(self, env: CrucialEnvironment,
                 tenants: list[TenantSpec],
                 profile: RateProfile,
                 duration: float,
                 metrics: ServingMetrics | None = None,
                 name: str = "workload"):
        if not tenants:
            raise ValueError("need at least one tenant")
        if profile.peak <= 0:
            raise ValueError("rate profile never exceeds zero")
        self.env = env
        self.tenants = list(tenants)
        self.profile = profile
        self.duration = duration
        self.name = name
        self.metrics = metrics if metrics is not None else ServingMetrics()
        kernel = env.kernel
        self._arrival_rng = kernel.rng.stream(f"{name}.arrivals")
        self._op_rng = kernel.rng.stream(f"{name}.ops")
        self._samplers = {
            t.name: ZipfSampler(t.keys, t.zipf_s,
                                rng=kernel.rng.stream(f"{name}.{t.name}.keys"))
            for t in self.tenants
        }
        total_share = sum(t.share for t in self.tenants)
        self._weights = [t.share / total_share for t in self.tenants]
        self._seq = 0

    # -- arrival process ---------------------------------------------------

    def run(self) -> ServingMetrics:
        kernel = self.env.kernel
        thread = current_thread()
        t0 = kernel.now
        peak = self.profile.peak
        pending = []
        while True:
            # Homogeneous Poisson at the peak rate, thinned to the
            # instantaneous profile rate — exact for inhomogeneous
            # Poisson arrivals, and open-loop: nothing below ever
            # delays this draw.
            thread.sleep(float(self._arrival_rng.exponential(1.0 / peak)))
            elapsed = kernel.now - t0
            if elapsed >= self.duration:
                break
            if self._arrival_rng.random() * peak > self.profile.at(elapsed):
                continue
            tenant = self._pick_tenant()
            key = tenant.key(self._samplers[tenant.name].sample())
            read = bool(self._op_rng.random() < tenant.read_fraction)
            self.metrics.arrivals.record(kernel.now)
            if tenant.via == "faas":
                self.metrics.faas_arrivals.record(kernel.now)
            self._seq += 1
            pending.append(spawn(
                self._request, tenant, key, read,
                name=f"{self.name}-req-{self._seq}"))
        for request in pending:
            request.join()
        return self.metrics

    def _pick_tenant(self) -> TenantSpec:
        point = float(self._arrival_rng.random())
        acc = 0.0
        for tenant, weight in zip(self.tenants, self._weights):
            acc += weight
            if point < acc:
                return tenant
        return self.tenants[-1]

    # -- one request -------------------------------------------------------

    def _request(self, tenant: TenantSpec, key: str, read: bool) -> None:
        kernel = self.env.kernel
        arrived = kernel.now
        ok, error = True, ""
        try:
            if tenant.via == "faas":
                self.env.platform.invoke(
                    self.env.client_endpoint, RUNNER_FUNCTION,
                    payload=_CounterOp(key, read, tenant.rf, tenant.cost))
            else:
                _counter_call(self.env, self.env.client_endpoint, key,
                              read, tenant.rf, tenant.cost)
        except CloudError as exc:
            ok, error = False, type(exc).__name__
            self.metrics.errors += 1
        finished = kernel.now
        self.metrics.completions.record(finished)
        if ok and not read:
            self.metrics.acked_writes[key] = \
                self.metrics.acked_writes.get(key, 0) + 1
        self.metrics.records.append(RequestRecord(
            tenant=tenant.name, key=key,
            kind="read" if read else "write",
            arrived=arrived, finished=finished, ok=ok, error=error))

    # -- audit -------------------------------------------------------------

    def final_counts(self) -> dict[str, int]:
        """Read back every written key's final counter value.

        Run inside the environment after traffic has drained; with
        exactly-once sessions the sum must equal ``total_acked``.
        """
        out = {}
        for tenant in self.tenants:
            for rank in range(tenant.keys):
                key = tenant.key(rank)
                if key not in self.metrics.acked_writes:
                    continue
                out[key] = _counter_call(
                    self.env, self.env.client_endpoint, key,
                    read=True, rf=tenant.rf, cost=0.0)
        return out
