"""The Crucial runtime environment.

One :class:`CrucialEnvironment` wires a whole simulated deployment —
network, FaaS platform, DSO layer, object store, queue/notification
services — around a simulation kernel, deploys the generic runner
function that executes ``Runnable`` payloads (Section 5), and tracks
*where* the current simulated thread executes (client process or a
specific function container) so that shared-object proxies charge the
right network links.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.config import Config, DEFAULT_CONFIG
from repro.dso.layer import DsoLayer
from repro.errors import SimulationError
from repro.faas.platform import FaasPlatform, FunctionContext
from repro.metrics.cost import CostLedger
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.simulation.kernel import (Kernel, _context, current_kernel,
                                     current_thread)
from repro.storage.notification import NotificationService
from repro.storage.object_store import ObjectStore
from repro.storage.queue_service import QueueService

#: The generic function that runs Runnables (Section 5: "our generic
#: function establishes the connection to the DSO layer" then executes
#: the user-defined Runnable via reflection).
RUNNER_FUNCTION = "crucial-runner"

_active_env: "CrucialEnvironment | None" = None

#: Where code outside any function container runs, at one full vCPU.
_CLIENT_SITE = ("client", 1.0)


def _site() -> tuple[str, float]:
    """``(endpoint, cpu_share)`` of the calling simulated thread.

    Kept on the :class:`SimThread` (``locals``), never on the OS thread:
    simulated threads reuse OS threads, and a new thread must start at
    the client site whatever its OS thread's previous tenant left.
    """
    thread = getattr(_context, "thread", None)
    if thread is None:
        return _CLIENT_SITE
    return thread.locals.get("site", _CLIENT_SITE)


def current_environment() -> "CrucialEnvironment":
    """The environment the calling code runs inside."""
    if _active_env is None:
        raise SimulationError(
            "no active CrucialEnvironment: use 'with env:' or env.run()")
    return _active_env


def current_location() -> str:
    """Network endpoint of the calling simulated thread.

    ``client`` in the client application; the container's endpoint
    inside a cloud function.  Proxies use this as the RPC source.
    """
    return _site()[0]


def _set_location(name: str, cpu_share: float = 1.0) -> None:
    current_thread().locals["site"] = (name, cpu_share)


def current_cpu_share() -> float:
    """CPU share of the current execution site (1.0 = one full vCPU).

    Inside a cloud function this reflects the memory-proportional CPU
    allocation (1792 MB = 1 vCPU); in the client process it is 1.0.
    """
    return _site()[1]


def compute(cpu_seconds: float, jitter_sigma: float = 0.0) -> None:
    """Charge ``cpu_seconds`` of single-vCPU work at the current site.

    This is how workload code accounts for modelled computation (the
    nominal-scale ML passes): wall time is ``cpu_seconds / cpu_share``
    with optional lognormal jitter (stragglers).
    """
    if cpu_seconds <= 0:
        return
    wall = cpu_seconds / current_cpu_share()
    if jitter_sigma > 0:
        rng = current_kernel().rng.stream("runtime.compute")
        wall *= float(rng.lognormal(0.0, jitter_sigma))
    current_thread().sleep(wall)


class CrucialEnvironment:
    """A fully wired simulated cloud running Crucial."""

    def __init__(self, kernel: Kernel | None = None, seed: int = 0,
                 dso_nodes: int = 1, config: Config = DEFAULT_CONFIG,
                 function_memory_mb: int = 1792,
                 trace_enabled: bool = False,
                 read_cache: bool = False):
        self._owns_kernel = kernel is None
        self.kernel = kernel or Kernel(seed=seed)
        if trace_enabled:
            self.kernel.enable_tracing()
        self.config = config
        self.network = Network(
            self.kernel,
            default_latency=LatencyModel(100e-6, sigma=0.05))
        self.client_endpoint = "client"
        self.network.ensure_endpoint(self.client_endpoint)
        self.platform = FaasPlatform(self.kernel, self.network, config)
        #: ``read_cache=True`` turns on lease-based client-side caching
        #: of read-only DSO methods (repro.dso.cache); off by default,
        #: preserving the paper's always-ship read path.
        self.dso = DsoLayer(self.kernel, self.network, config,
                            read_cache=read_cache)
        # Cache lifetime == container lifetime: when the platform
        # reclaims a container (keep-alive expiry, chaos kill), the DSO
        # layer drops that endpoint's leased-snapshot cache.
        self.platform.on_container_reclaim(self.dso.caches.drop)
        #: One account for the whole deployment: every storage backend
        #: created by this environment bills into it, and
        #: ``repro.metrics.cost_summary(env.cost_ledger)`` renders the
        #: per-tier split.
        self.cost_ledger = CostLedger()
        self.object_store = ObjectStore(self.kernel, config,
                                        ledger=self.cost_ledger)
        self.queue_service = QueueService(self.kernel, config)
        self.notification = NotificationService(
            self.kernel, self.queue_service, config)
        for _ in range(dso_nodes):
            self.dso.add_node()
        self.platform.deploy(RUNNER_FUNCTION, self._run_runnable,
                             memory_mb=function_memory_mb)
        self._data_grid = None
        self._redis = None
        self._previous_env: CrucialEnvironment | None = None

    def data_grid(self, nodes: int = 1):
        """A plain Infinispan-like KV grid (created on first use)."""
        if self._data_grid is None:
            from repro.storage.datagrid import DataGrid

            self._data_grid = DataGrid(self.kernel, self.network,
                                       nodes=nodes, config=self.config)
        return self._data_grid

    def redis(self, shards: int = 1):
        """A Redis deployment (created on first use)."""
        if self._redis is None:
            from repro.storage.kvstore import RedisCluster

            self._redis = RedisCluster(self.kernel, self.network,
                                       shards=shards, config=self.config)
        return self._redis

    def transaction(self, rf: int = 1):
        """A read-atomic multi-object transaction scoped to the
        calling location (client process or function container).

        ``with env.transaction() as txn:`` — reads inside the block
        observe an atomic-visibility snapshot, ``txn.write`` buffers,
        and a clean exit commits every write atomically and
        exactly-once (see :mod:`repro.dso.txn` and DESIGN.md §14).
        """
        return self.dso.transaction(current_location(), rf=rf)

    # -- the generic runner function -------------------------------------------

    def _run_runnable(self, ctx: FunctionContext, runnable: Any) -> Any:
        """Execute a shipped Runnable inside a function container.

        When the payload is a :class:`repro.trace.TracedRunnable`, the
        embedded trace context — which crossed the (simulated) wire
        inside the marshalled payload — is re-attached first, so the
        container-side ``runnable:*`` span nests under the client's
        dispatch span even across the pickle boundary.
        """
        from repro.trace.tracer import TracedRunnable

        tracer = self.kernel.tracer
        context = None
        if isinstance(runnable, TracedRunnable):
            context = runnable.context
            runnable = runnable.runnable
        previous = _site()
        _set_location(ctx.endpoint, ctx.cpu_share)
        try:
            with tracer.attach(context):
                with tracer.span(
                        f"runnable:{type(runnable).__name__}",
                        kind="server", endpoint=ctx.endpoint):
                    run = getattr(runnable, "run", None)
                    if callable(run):
                        return run()
                    if callable(runnable):
                        return runnable()
                    raise TypeError(
                        f"payload of type {type(runnable).__name__} "
                        "is not runnable")
        finally:
            _set_location(*previous)

    # -- lifecycle -----------------------------------------------------------------

    def activate(self) -> None:
        global _active_env
        if _active_env is not None and _active_env is not self:
            raise SimulationError("another CrucialEnvironment is active")
        _active_env = self

    def deactivate(self) -> None:
        global _active_env
        if _active_env is self:
            _active_env = None

    def __enter__(self) -> "CrucialEnvironment":
        self.activate()
        return self

    def __exit__(self, *exc_info) -> None:
        self.deactivate()
        if self._owns_kernel:
            self.kernel.close()

    def run(self, main: Callable[[], Any], *args, **kwargs) -> Any:
        """Run ``main`` as the client application to completion."""
        self.activate()

        def client_main():
            _set_location(self.client_endpoint)
            return main(*args, **kwargs)

        return self.kernel.run_main(client_main)

    def close(self) -> None:
        self.deactivate()
        if self._owns_kernel:
            self.kernel.close()

    # -- convenience -------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.kernel.now

    def pre_warm(self, count: int,
                 function_name: str = RUNNER_FUNCTION) -> None:
        """Provision warm containers (the paper's pre-measurement
        global barrier that excludes cold starts)."""
        self.platform.pre_warm(function_name, count)
