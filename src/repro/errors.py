"""Exception hierarchy for the repro library.

Exceptions are grouped by layer.  ``SimulationError`` and its
subclasses concern the discrete-event substrate itself; ``CloudError``
and its subclasses model failures of the simulated cloud services
(network, storage, FaaS, DSO), which application code may legitimately
catch and handle — exactly as the paper's applications handle AWS
errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Simulation substrate
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for errors of the discrete-event kernel."""


class DeadlockError(SimulationError):
    """The event queue drained while simulated threads remain blocked."""

    def __init__(self, blocked_names: list[str],
                 waits: list[str] | None = None):
        self.blocked_names = list(blocked_names)
        super().__init__(
            "simulation deadlock: no pending events but %d thread(s) "
            "blocked: %s" % (len(blocked_names),
                             ", ".join(waits or blocked_names))
        )


class SimShutdown(BaseException):
    """Raised inside a simulated thread when the kernel tears it down.

    Derives from ``BaseException`` so that application-level
    ``except Exception`` blocks cannot swallow it.
    """


class NotInSimThread(SimulationError):
    """A blocking simulation primitive was used outside a SimThread."""


class SimTimeoutError(SimulationError, TimeoutError):
    """A wait with a timeout elapsed before the condition was met.

    Also a :class:`TimeoutError`, so callers can catch the built-in.
    """


# ---------------------------------------------------------------------------
# Simulated cloud
# ---------------------------------------------------------------------------


class CloudError(ReproError):
    """Base class for simulated cloud-service failures."""


class NetworkError(CloudError):
    """The destination endpoint is unreachable (crash or partition)."""


class NodeCrashedError(CloudError):
    """The server node crashed while serving (or before serving) a call."""


class ServiceUnavailableError(CloudError):
    """A cloud service refused a request (throttling, shutdown...)."""


class NoSuchKeyError(CloudError):
    """An object-store or KV key does not exist."""


class NoSuchObjectError(CloudError):
    """A DSO reference does not resolve to a live object."""


class ObjectLostError(CloudError):
    """An ephemeral shared object was lost in a storage-node failure."""


class SessionReplayError(CloudError):
    """A session retransmitted a sequence number the server already
    truncated (or saw out of order).

    Correct clients never trigger this: a session issues invocations
    sequentially and only retransmits its newest, unacknowledged one.
    Surfacing the condition loudly (instead of silently re-executing)
    is what keeps the exactly-once contract auditable.
    """


class SerializationError(CloudError):
    """A value shipped between nodes is not serializable."""


class TxnError(CloudError):
    """Base class for multi-object transaction failures
    (:mod:`repro.dso.txn`)."""


class TxnAbortedError(TxnError):
    """The transaction was aborted (explicitly, or by the commit
    machinery after an unrecoverable failure); none of its buffered
    writes are visible."""


class TxnFracturedReadError(TxnError):
    """No atomic-visibility snapshot could be assembled for a read.

    Raised after the read-set validation loop exhausts its retry
    budget without finding a version of the key that is consistent
    with every version already observed by this transaction.  The
    transaction must abort; surfacing the condition (instead of
    returning fractured data) is the read-atomic contract.
    """


class TxnPrepareLostError(TxnError):
    """A commit arrived at a primary that holds no prepared entry for
    the transaction.

    Prepared (pre-commit) versions live only at the primary that
    accepted them; a crash-failover promotes a backup that never saw
    the prepare.  The commit fence detects this *before* installing
    anything, so the client can re-prepare at the new primary and
    retry — without the fence the write would be silently dropped,
    leaving a fractured (half-committed) transaction.
    """


# ---------------------------------------------------------------------------
# FaaS layer
# ---------------------------------------------------------------------------


class FaasError(CloudError):
    """Base class for simulated FaaS-platform errors."""


class FunctionTimeoutError(FaasError):
    """The function exceeded the platform's execution time limit."""


class InvocationError(FaasError):
    """The function raised an application exception.

    The original exception is re-raised at the invoker wrapped in this
    type, mirroring how AWS Lambda reports handled errors in the
    response payload.
    """

    def __init__(self, message: str, cause: BaseException | None = None):
        super().__init__(message)
        self.cause = cause


class ThrottlingError(FaasError):
    """The platform's concurrency limit was exceeded."""


class ContainerKilledError(FaasError):
    """The container was reclaimed by the platform mid-invocation.

    Real FaaS providers kill workers at will (host maintenance, spot
    reclamation); the invoker sees the invocation fail and may retry
    with the identical payload — the Section 4.4 failure model the
    chaos layer injects on demand.
    """


class RetriesExhaustedError(FaasError):
    """A cloud thread failed more times than its retry policy allows."""


# ---------------------------------------------------------------------------
# Concurrency objects
# ---------------------------------------------------------------------------


class BrokenBarrierError(ReproError):
    """The barrier was reset or a party failed while others waited."""


class FutureCancelledError(ReproError):
    """The future's value was awaited after cancellation."""


# ---------------------------------------------------------------------------
# Coordination service (repro.coordination.keeper)
# ---------------------------------------------------------------------------


class KeeperError(ReproError):
    """Base class for znode-tree failures of the coordination service."""


class NoNodeError(KeeperError):
    """The znode (or its parent) does not exist."""


class NodeExistsError(KeeperError):
    """A znode already exists at the requested path."""


class BadVersionError(KeeperError):
    """The expected-version guard on a write did not match."""


class NotEmptyError(KeeperError):
    """A znode with children cannot be deleted."""


class SessionExpiredError(KeeperError):
    """The keeper session backing this call is gone (lease lapsed or
    the session was closed); its ephemeral nodes have been removed."""
