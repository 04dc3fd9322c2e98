"""Synchronous RPC with server-side worker pools.

A remote call is modelled in the *caller's* simulated thread:

1. request transfer (link latency; fails if the server is down),
2. admission to one of the server's worker threads (FIFO),
3. the handler body, which charges service time while it holds the
   worker,
4. a liveness check — if the server crashed while serving, the caller
   sees :class:`NodeCrashedError`,
5. response transfer back.

Because the kernel runs one simulated thread at a time and ordering is
governed solely by virtual time, executing the handler in the caller's
thread is observationally equivalent to a dedicated server thread, and
avoids per-request thread churn.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import NetworkError, NodeCrashedError, ServiceUnavailableError
from repro.cluster.node import Node
from repro.simulation.kernel import current_thread


class ServerCall:
    """Context handed to RPC handlers: the serving node, the calling
    endpoint and operation, and :meth:`service` to charge CPU time.

    The call holds one of the node's worker threads from admission to
    reply.  Section 5's wait()/notify() lives in the DSO
    (``ServerCondition``), not here.
    """

    def __init__(self, server: "RpcServer", client: str, op: str):
        self.server = server
        self.node = server.node
        self.client = client
        self.op = op

    def service(self, duration: float) -> None:
        """Charge ``duration`` seconds of server CPU to this call."""
        if duration > 0:
            current_thread().sleep(duration)


class RpcServer:
    """Dispatch table of operations exposed by one node."""

    def __init__(self, node: Node):
        self.node = node
        self._handlers: dict[str, Callable[..., Any]] = {}
        self.calls_served = 0

    def register(self, op: str, handler: Callable[..., Any]) -> None:
        """Expose ``handler(call: ServerCall, *args) -> result``."""
        if op in self._handlers:
            raise ValueError(f"operation {op!r} already registered")
        self._handlers[op] = handler

    def call(self, client: str, op: str, *args: Any) -> Any:
        """Invoke ``op`` from endpoint ``client``; returns the result.

        Raises :class:`NetworkError` if the node is unreachable,
        :class:`NodeCrashedError` if it fails mid-call, and re-raises
        handler exceptions at the caller (after the response transfer),
        mirroring how storage servers report application errors.
        """
        network = self.node.network
        handler = self._handlers.get(op)
        if handler is None:
            raise ServiceUnavailableError(
                f"{self.node.name} has no operation {op!r}")
        shipped_args = network.transfer(client, self.node.name, args)
        epoch = self.node.epoch
        call = ServerCall(self, client, op)
        self.node.workers.acquire()
        try:
            result: Any = None
            error: BaseException | None = None
            try:
                result = handler(call, *shipped_args)
            except NodeCrashedError:
                raise
            except NetworkError:
                raise
            except Exception as exc:  # application-level error
                error = exc
            if not self.node.alive or self.node.epoch != epoch:
                raise NodeCrashedError(
                    f"{self.node.name} crashed while serving {op!r}")
        finally:
            self.node.workers.release()
        self.calls_served += 1
        response = network.transfer(self.node.name, client,
                                    result if error is None else error)
        if error is not None:
            raise response
        return response
