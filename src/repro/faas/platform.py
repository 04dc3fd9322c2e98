"""An AWS-Lambda-like FaaS platform.

Models the properties Section 2.1 calls out:

* **containers** — invocations run in per-function containers; a warm
  (recently used) container starts in milliseconds, a cold one takes
  1-2 seconds to provision (Section 6.3.3);
* **resource limits** — memory cap, 15-minute duration limit, and an
  account-wide concurrency limit;
* **CPU scaling** — CPU share is proportional to configured memory;
  1792 MB buys one full vCPU (footnote 7), so ``ctx.compute(x)`` takes
  ``x / cpu_share`` wall seconds;
* **failure semantics** — a function can fail for injected reasons
  (including the chaos layer killing its container mid-handler); the
  platform reports the error to the synchronous invoker, which may
  retry with the exact same input (Section 4.4);
* **billing** — per-invocation duration is metered and rounded up to
  100 ms blocks (the paper-era Lambda billing granularity; AWS moved
  to 1 ms rounding only in 2020) for the Table 3 cost model.

Handlers execute in the invoking simulated thread (one per
CloudThread), which is exactly Crucial's synchronous
``RequestResponse`` invocation mode.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.config import Config, DEFAULT_CONFIG
from repro.errors import (
    ContainerKilledError,
    FaasError,
    FunctionTimeoutError,
    InvocationError,
    ServiceUnavailableError,
    ThrottlingError,
)
from repro.net.network import Network, ship
from repro.simulation.kernel import Kernel, current_thread
from repro.trace.tracer import NO_SPAN


@dataclass
class _Container:
    name: str
    function: str
    created_at: float
    last_used: float
    in_use: bool = False
    invocations: int = 0
    #: Set when the platform reclaims the container (chaos kill).
    dead: bool = False


@dataclass
class _Function:
    name: str
    handler: Callable[["FunctionContext", Any], Any]
    memory_mb: int
    timeout: float
    containers: list[_Container] = field(default_factory=list)
    #: injected failure probability for the next invocations
    failure_rate: float = 0.0
    failure_kind: str = "before"  # "before" | "after" the handler runs


class FunctionContext:
    """Execution context handed to a function handler."""

    def __init__(self, platform: "FaasPlatform", function: _Function,
                 container: _Container, deadline: float):
        self.platform = platform
        self.function_name = function.name
        self.memory_mb = function.memory_mb
        self.container = container
        self.deadline = deadline
        #: 1792 MB buys a full vCPU; 3008 MB ~ 1.68 vCPUs.
        self.cpu_share = function.memory_mb / \
            platform.config.faas_limits.full_vcpu_memory_mb

    @property
    def endpoint(self) -> str:
        """Network identity of the executing container."""
        return self.container.name

    def compute(self, cpu_seconds: float) -> None:
        """Burn ``cpu_seconds`` of single-vCPU work at this memory's
        CPU share."""
        if cpu_seconds > 0:
            current_thread().sleep(cpu_seconds / self.cpu_share)
        if self.container.dead:
            raise ContainerKilledError(
                f"{self.function_name}: container {self.container.name} "
                "was killed while executing")


@dataclass
class InvocationRecord:
    """Billing/telemetry record of one invocation."""

    function: str
    container: str
    start: float
    end: float
    memory_mb: int
    cold_start: bool
    error: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def billed_duration(self) -> float:
        """AWS bills at 1 ms granularity (100 ms before 2020; we use
        the paper-era 100 ms rounding)."""
        return math.ceil(self.duration / 0.1) * 0.1 if self.duration > 0 else 0.1


class FaasPlatform:
    """Deploy and synchronously invoke cloud functions."""

    def __init__(self, kernel: Kernel, network: Network,
                 config: Config = DEFAULT_CONFIG, name: str = "lambda"):
        self.kernel = kernel
        self.network = network
        self.config = config
        self.name = name
        self._functions: dict[str, _Function] = {}
        self._rng = kernel.rng.stream(f"faas.{name}")
        self._container_ids = itertools.count()
        self._active = 0
        self.records: list[InvocationRecord] = []
        self._reclaim_hooks: list[Callable[[str], None]] = []

    def on_container_reclaim(self, hook: Callable[[str], None]) -> None:
        """Call ``hook(container_name)`` whenever a container leaves
        the warm pool (keep-alive expiry or a chaos kill).

        Per-container state elsewhere in the system — notably the DSO
        layer's leased read caches — subscribes here so its lifetime
        equals the container's: a warm container keeps its working
        set, a reclaimed one is forgotten everywhere.
        """
        self._reclaim_hooks.append(hook)

    def _reclaimed(self, container: _Container) -> None:
        for hook in self._reclaim_hooks:
            hook(container.name)

    # -- management ---------------------------------------------------------------

    def deploy(self, function_name: str,
               handler: Callable[[FunctionContext, Any], Any],
               memory_mb: int = 1792, timeout: float | None = None) -> None:
        """Register a function (name, code, memory, time limit)."""
        limits = self.config.faas_limits
        if function_name in self._functions:
            raise ValueError(f"function {function_name!r} already deployed")
        if memory_mb <= 0 or memory_mb > limits.max_memory_mb:
            raise ValueError(
                f"memory {memory_mb} MB outside (0, {limits.max_memory_mb}]")
        if timeout is None:
            timeout = limits.max_duration
        if timeout <= 0 or timeout > limits.max_duration:
            raise ValueError(
                f"timeout {timeout}s outside (0, {limits.max_duration}]")
        self._functions[function_name] = _Function(
            function_name, handler, memory_mb, timeout)

    def inject_failures(self, function_name: str, rate: float,
                        kind: str = "before") -> None:
        """Make invocations fail with probability ``rate``.

        ``kind="before"`` fails before the handler runs (clean retry);
        ``kind="after"`` fails after side effects happened, which is
        the case that requires idempotent application code.
        """
        function = self._function(function_name)
        if kind not in ("before", "after"):
            raise ValueError(f"unknown failure kind {kind!r}")
        function.failure_rate = rate
        function.failure_kind = kind

    def pre_warm(self, function_name: str, count: int) -> None:
        """Provision ``count`` warm containers (the global barrier the
        paper uses to exclude cold starts from measurements)."""
        function = self._function(function_name)
        while len(function.containers) < count:
            self._new_container(function)

    def _function(self, name: str) -> _Function:
        function = self._functions.get(name)
        if function is None:
            raise ServiceUnavailableError(f"no function {name!r} deployed")
        return function

    # -- invocation ------------------------------------------------------------------

    def invoke(self, invoker: str, function_name: str, payload: Any = None) -> Any:
        """Synchronous (RequestResponse) invocation.

        Blocks the calling simulated thread until the function returns.
        Application errors surface as :class:`InvocationError`; the
        platform does NOT retry synchronous invocations (retry policy
        lives in the client, Section 4.4).
        """
        function = self._function(function_name)
        limits = self.config.faas_limits
        timings = self.config.faas_timings
        tracer = self.kernel.tracer
        with (tracer.span(f"faas.invoke:{function_name}", kind="client",
                          endpoint=invoker,
                          attributes={"memory_mb": function.memory_mb})
              if tracer.enabled else NO_SPAN) as ispan:
            if self._active >= limits.max_concurrency:
                raise ThrottlingError(
                    f"concurrency limit {limits.max_concurrency} reached")
            self._active += 1
            try:
                payload = ship(payload)
                container, cold = self._acquire_container(function)
                if tracer.enabled:
                    ispan.set("container", container.name)
                    ispan.set("cold_start", cold)
                start = self.kernel.now
                error: BaseException | None = None
                result: Any = None
                completed = False
                hspan = None
                try:
                    with (tracer.span("faas.startup", kind="server",
                                      endpoint=container.name,
                                      attributes={"cold_start": cold})
                          if tracer.enabled else NO_SPAN):
                        startup = (timings.cold_start if cold
                                   else timings.warm_start).sample(self._rng)
                        current_thread().sleep(startup)
                    start = self.kernel.now
                    deadline = start + function.timeout
                    ctx = FunctionContext(self, function, container, deadline)
                    fail_roll = (self._rng.random() < function.failure_rate
                                 if function.failure_rate > 0 else False)
                    if tracer.enabled:
                        hspan = tracer.start_span(
                            "faas.handler", kind="server",
                            endpoint=container.name,
                            attributes={"function": function_name})
                    if fail_roll and function.failure_kind == "before":
                        error = InvocationError(
                            f"{function_name}: container {container.name} "
                            "failed before execution")
                    else:
                        try:
                            result = function.handler(ctx, payload)
                        except ContainerKilledError as exc:
                            error = exc
                        except Exception as exc:  # noqa: BLE001 - reported to invoker
                            error = InvocationError(
                                f"{function_name}: handler raised {exc!r}",
                                cause=exc)
                        if error is None and fail_roll \
                                and function.failure_kind == "after":
                            error = InvocationError(
                                f"{function_name}: container {container.name} "
                                "failed after execution")
                    if error is None and container.dead:
                        error = ContainerKilledError(
                            f"{function_name}: container {container.name} "
                            "was killed mid-invocation")
                    if error is None and self.kernel.now - start > function.timeout:
                        error = FunctionTimeoutError(
                            f"{function_name}: exceeded {function.timeout}s limit")
                    if hspan is not None:
                        tracer.end_span(
                            hspan,
                            error=type(error).__name__ if error else None)
                    completed = True
                finally:
                    # The container is released and the invocation recorded
                    # even when a BaseException (kernel shutdown, a
                    # simulated crash unwinding through a DSO call)
                    # escapes; otherwise the container would be stranded
                    # ``in_use`` forever and billing would silently drop
                    # the aborted run.
                    if hspan is not None and hspan.open:
                        exc_type = sys.exc_info()[0]
                        tracer.end_span(
                            hspan, error=(exc_type.__name__ if exc_type
                                          else "Aborted"))
                    self._release_container(container)
                    if completed:
                        error_name = type(error).__name__ if error else None
                    else:
                        exc_type = sys.exc_info()[0]
                        error_name = exc_type.__name__ if exc_type else "Aborted"
                    record = InvocationRecord(
                        function=function_name, container=container.name,
                        start=start, end=self.kernel.now,
                        memory_mb=function.memory_mb, cold_start=cold,
                        error=error_name)
                    self.records.append(record)
                    if tracer.enabled:
                        ispan.set("billed_duration", record.billed_duration)
                with (tracer.span("faas.response", kind="client",
                                  endpoint=invoker)
                      if tracer.enabled else NO_SPAN):
                    current_thread().sleep(timings.response.sample(self._rng))
                if error is not None:
                    raise error
                return ship(result)
            finally:
                self._active -= 1

    def invoke_async(self, invoker: str, function_name: str,
                     payload: Any = None, max_retries: int = 2,
                     dead_letter_queue: tuple | None = None):
        """Asynchronous (Event) invocation.

        Returns immediately with a handle; the platform executes the
        function in the background and — unlike the synchronous path —
        *automatically retries* failed events up to ``max_retries``
        times (AWS retries async invocations twice), exactly the
        behaviour Section 2.1 warns designers to account for.  Events
        that still fail are delivered to the dead-letter queue, a
        ``(QueueService, queue_name)`` pair, if one is configured.
        """
        function = self._function(function_name)  # validate up front
        payload = ship(payload)

        def attempt_loop():
            last_error: BaseException | None = None
            attempts = 0
            for attempt in range(max_retries + 1):
                attempts = attempt + 1
                try:
                    return self.invoke(invoker, function.name, payload)
                except FaasError as exc:
                    last_error = exc
                    if attempt < max_retries:
                        # AWS waits 1 min / 2 min between async retries;
                        # scaled down to keep simulations brisk.
                        current_thread().sleep(2.0 * (attempt + 1))
            if dead_letter_queue is not None:
                queue_service, queue_name = dead_letter_queue
                queue_service.deliver(queue_name, {
                    "function": function.name,
                    "payload": payload,
                    "error": str(last_error),
                    "attempts": attempts,
                })
                return None
            raise last_error

        return self.kernel.spawn(
            attempt_loop, name=f"async-{function.name}")

    # -- containers --------------------------------------------------------------------

    def _acquire_container(self, function: _Function) -> tuple[_Container, bool]:
        keep_alive = self.config.faas_timings.keep_alive
        now = self.kernel.now
        # Expire stale containers lazily, notifying reclaim subscribers
        # for each one that leaves the pool.
        kept: list[_Container] = []
        for c in function.containers:
            if c.in_use or now - c.last_used <= keep_alive:
                kept.append(c)
            else:
                self._reclaimed(c)
        function.containers = kept
        for container in function.containers:
            if not container.in_use:
                container.in_use = True
                container.invocations += 1
                return container, False
        container = self._new_container(function)
        container.in_use = True
        container.invocations += 1
        return container, True

    def _new_container(self, function: _Function) -> _Container:
        cid = next(self._container_ids)
        container = _Container(
            name=f"{self.name}.{function.name}.{cid}",
            function=function.name,
            created_at=self.kernel.now,
            last_used=self.kernel.now)
        self.network.ensure_endpoint(container.name)
        function.containers.append(container)
        return container

    def _release_container(self, container: _Container) -> None:
        container.in_use = False
        container.last_used = self.kernel.now

    def kill_container(self, container_name: str) -> bool:
        """Reclaim a container, idle or mid-invocation (chaos hook).

        The container leaves the warm pool immediately; an in-flight
        invocation on it fails with :class:`ContainerKilledError` (at
        its next ``ctx.compute`` at the latest).  Returns ``False`` if
        no live container has that name.
        """
        for function in self._functions.values():
            for container in function.containers:
                if container.name == container_name:
                    container.dead = True
                    function.containers.remove(container)
                    self._reclaimed(container)
                    return True
        return False

    def reclaim_idle(self, function_name: str, keep: int = 0) -> int:
        """Reclaim idle warm containers down to ``keep`` of them.

        The scale-*in* counterpart of :meth:`pre_warm`: an elastic
        controller that stops paying for warm capacity it no longer
        needs.  Only idle containers are touched — in-flight
        invocations always finish — and each reclaimed container fires
        the same :meth:`on_container_reclaim` hooks as a keep-alive
        expiry, so dependent state (leased read caches) is dropped
        consistently.  Returns the number reclaimed.
        """
        function = self._function(function_name)
        idle = [c for c in function.containers
                if not c.in_use and not c.dead]
        reclaimed = 0
        # Newest first: the oldest warm containers keep their working
        # sets (mirrors provider behaviour of trimming fresh capacity).
        for container in reversed(idle):
            if len(idle) - reclaimed <= keep:
                break
            container.dead = True
            function.containers.remove(container)
            self._reclaimed(container)
            reclaimed += 1
        return reclaimed

    def busy_containers(self, function_name: str) -> list[str]:
        """Names of containers currently executing an invocation."""
        function = self._function(function_name)
        return [c.name for c in function.containers if c.in_use]

    def warm_container_count(self, function_name: str) -> int:
        """Provisioned containers ready to serve (idle, not dead)."""
        function = self._function(function_name)
        return sum(1 for c in function.containers
                   if not c.in_use and not c.dead)

    # -- telemetry ----------------------------------------------------------------------

    def billed_gb_seconds(self, function_name: str | None = None) -> float:
        """Total GB-seconds billed (for the Table 3 cost model)."""
        total = 0.0
        for record in self.records:
            if function_name is not None and record.function != function_name:
                continue
            total += record.billed_duration * (record.memory_mb / 1024.0)
        return total

    def invocation_count(self, function_name: str | None = None) -> int:
        return sum(1 for r in self.records
                   if function_name is None or r.function == function_name)
