"""CloudThread: serverless functions invoked like threads.

"Every time a CloudThread is started, a standard Java thread is
spawned in the client application with some extra logic [that calls] a
generic serverless function to execute the Runnable code attached to
the CloudThread.  The Java thread remains blocked until the call to
the serverless function terminates." (Section 4.3)

The Python rendering spawns a simulated thread that performs a
synchronous FaaS invocation; ``join()`` therefore gives the familiar
fork/join pattern.  Remote failures propagate to the joiner; the
retry policy (Section 4.4) controls automatic re-invocation with the
exact same input — soundness under re-execution (idempotence) is the
application's responsibility, typically via a shared iteration
counter.

With the DSO read cache enabled (``CrucialEnvironment(read_cache=
True)``), the container a CloudThread's body lands on matters: each
FaaS container keeps its own leased-snapshot cache, so consecutive
invocations served by the same warm container hit state the previous
body already read, while a cold start — or a container reclaimed by
keep-alive expiry or chaos — begins with an empty cache (the platform
notifies the DSO layer via ``on_container_reclaim``).

When tracing is enabled, every CloudThread contributes one
``cloudthread:<name>`` span covering dispatch through completion, with
each invocation attempt as a child — so retries appear as sibling
spans — and the trace context travels *inside* the marshalled payload
(:class:`repro.trace.TracedRunnable`), nesting container-side work
under the client's dispatch span.
"""

from __future__ import annotations

from typing import Any

from repro.core.retry import RetryPolicy
from repro.core.runtime import RUNNER_FUNCTION, current_environment
from repro.errors import FaasError, RetriesExhaustedError, SimTimeoutError
from repro.simulation.kernel import current_kernel, current_thread

__all__ = ["CloudThread", "RetryPolicy", "run_all"]


class CloudThread:
    """A thread whose body runs as a serverless function invocation."""

    _ids = iter(range(1, 1 << 62))

    def __init__(self, runnable: Any, name: str | None = None,
                 retry_policy: RetryPolicy | None = None,
                 function_name: str = RUNNER_FUNCTION,
                 idempotency_key: str | None = None):
        self.runnable = runnable
        self.name = name or f"cloud-thread-{next(CloudThread._ids)}"
        self.retry_policy = retry_policy or RetryPolicy()
        self.function_name = function_name
        #: When set, every attempt runs under the named DSO session
        #: ``idempotency_key``: a re-invocation after a mid-body crash
        #: *replays* the cached replies of the DSO calls the dead
        #: attempt already made instead of re-executing them — the
        #: whole body becomes safely re-runnable without
        #: application-level idempotence (see repro.core.idempotency).
        self.idempotency_key = idempotency_key
        self.attempts = 0
        self._sim_thread = None
        self._span = None

    def start(self) -> "CloudThread":
        """Dispatch the invocation; returns immediately.

        Charges the client-side dispatch cost (SDK call, payload
        marshalling) in the *caller*: starting many cloud threads from
        one client serializes these dispatches, which is the thread
        creation overhead Fig. 2b and Fig. 3 attribute sub-linear
        scaling to.
        """
        if self._sim_thread is not None:
            raise RuntimeError(f"{self.name} already started")
        env = current_environment()
        kernel = current_kernel()
        tracer = kernel.tracer
        # The root span for this cloud thread's whole remote lifetime:
        # started here (client side, before the dispatch sleep), ended
        # by the invocation thread when the last attempt settles.
        self._span = tracer.start_span(
            f"cloudthread:{self.name}", kind="client",
            endpoint=env.client_endpoint,
            attributes={"function": self.function_name}, activate=False)
        with tracer.use(self._span):
            with tracer.span("cloudthread.dispatch", kind="client",
                             endpoint=env.client_endpoint):
                current_thread().sleep(
                    env.config.faas_timings.dispatch_overhead)
            # spawn() propagates the active span (the root) to the
            # invocation thread, so attempts nest under it.
            self._sim_thread = kernel.spawn(
                self._invoke_with_retries, env, name=self.name)
        if tracer.enabled:
            # Attribute the root span to the invocation thread's track
            # so concurrent cloud threads render as parallel timelines.
            self._span.thread = self._sim_thread.tid
            self._span.thread_name = self._sim_thread.name
        return self

    def _invoke_with_retries(self, env) -> Any:
        tracer = env.kernel.tracer
        try:
            result = self._attempt_loop(env, tracer)
        except BaseException as exc:
            tracer.end_span(self._span, error=type(exc).__name__)
            raise
        tracer.end_span(self._span)
        return result

    def _attempt_loop(self, env, tracer) -> Any:
        last_error: FaasError | None = None
        for attempt in range(self.retry_policy.max_retries + 1):
            self.attempts = attempt + 1
            try:
                with tracer.span("cloudthread.attempt", kind="client",
                                 endpoint=env.client_endpoint,
                                 attributes={"attempt": attempt + 1}):
                    # The trace context rides inside the marshalled
                    # payload: container-side spans re-attach to this
                    # attempt even across the pickle boundary.
                    payload = tracer.wrap_payload(self.runnable)
                    return self._invoke_attempt(env, payload)
            except FaasError as exc:
                last_error = exc
                if attempt < self.retry_policy.max_retries:
                    rng = env.kernel.rng.stream("cloudthread.retry")
                    current_thread().sleep(
                        self.retry_policy.delay(attempt, rng))
        raise RetriesExhaustedError(
            f"{self.name}: failed {self.attempts} time(s); "
            f"last error: {last_error}") from last_error

    def _invoke_attempt(self, env, payload) -> Any:
        if self.idempotency_key is None:
            return env.platform.invoke(
                env.client_endpoint, self.function_name, payload)
        # The body executes on this thread (the platform runs the
        # handler synchronously here), so pinning the named session now
        # covers every DSO call the body makes; each attempt re-enters
        # the same name and replays the previous attempt's replies.
        with env.dso.session(self.idempotency_key):
            return env.platform.invoke(
                env.client_endpoint, self.function_name, payload)

    def join(self, timeout: float | None = None) -> bool:
        """Block until the remote invocation completes.

        Returns ``True`` once the thread has finished — re-raising the
        function's failure in the joiner, mirroring how "the error is
        propagated back to the client application" — or ``False`` if
        ``timeout`` virtual seconds elapsed first (the thread is still
        running; ``join`` may be called again).
        """
        if self._sim_thread is None:
            raise RuntimeError(f"{self.name} was never started")
        try:
            self._sim_thread.join(timeout)
        except SimTimeoutError:
            if timeout is None:  # pragma: no cover - defensive
                raise
            return False
        return True

    def result(self) -> Any:
        """The Runnable's return value; joins implicitly if needed.

        Matching ``concurrent.futures`` expectations: calling
        ``result()`` on a running thread blocks until it completes,
        re-raising its failure.
        """
        if self._sim_thread is None:
            raise RuntimeError(f"{self.name} was never started")
        if not self._sim_thread.done:
            self.join()
        return self._sim_thread.result()

    @property
    def done(self) -> bool:
        return self._sim_thread is not None and self._sim_thread.done

    def is_alive(self) -> bool:
        """True while the invocation is still in flight
        (``threading.Thread.is_alive`` semantics)."""
        return self._sim_thread is not None and not self._sim_thread.done


def run_all(runnables: list[Any],
            retry_policy: RetryPolicy | None = None) -> list[Any]:
    """Fork/join helper: start one CloudThread per runnable, join all.

    The Listing 1 pattern (``threads.forEach(start); forEach(join)``)
    as one call.  Applies ``retry_policy`` to every thread and returns
    the runnables' results in order — no caller-side ``join`` needed
    (``result()`` joins implicitly).
    """
    threads = [CloudThread(r, retry_policy=retry_policy) for r in runnables]
    for thread in threads:
        thread.start()
    return [thread.result() for thread in threads]
