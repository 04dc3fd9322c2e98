"""repro — a reproduction of Crucial (Middleware '19).

"On the FaaS Track: Building Stateful Distributed Applications with
Serverless Architectures": a system for programming highly-concurrent
stateful applications on FaaS, built on a distributed shared object
(DSO) layer over a low-latency in-memory store.

This package re-implements the complete system — and every substrate
it depends on (FaaS platform, in-memory data grid, object store,
queues, a mini-Spark baseline) — on top of a
deterministic discrete-event simulation, so the paper's experiments
run on a laptop in seconds.  See DESIGN.md for the experiment index.

Quickstart::

    from repro import CrucialEnvironment, CloudThread, AtomicLong

    class Work:
        def __init__(self):
            self.counter = AtomicLong("counter")
        def run(self):
            self.counter.add_and_get(1)

    with CrucialEnvironment(dso_nodes=1) as env:
        def main():
            threads = [CloudThread(Work()) for _ in range(4)]
            for t in threads: t.start()
            for t in threads: t.join()
            return AtomicLong("counter").get()
        print(env.run(main))  # -> 4

**This module is the public API.**  Everything in Table 1 of the paper
— plus the observability entry points (``Tracer``, ``trace_enabled``,
the span tree and Chrome exporters), the storage layer (the
``StorageBackend`` protocol, the priced tiers, ``TieredStore`` and the
``CostLedger``/``cost_summary`` accounting), the serving stack (the
open-loop ``OpenLoopGenerator``/``TenantSpec``/``RateProfile``
workloads, the shared ``ZipfSampler``, and the elastic
``Autoscaler``) and the coordination service (the ZooKeeper-like
``KeeperService`` with its sessions and recipes, and the
``find_watch_violations`` audit of its watch deliveries) — is
re-exported here, and only names listed in ``__all__`` are covered by
compatibility guarantees.

Four subpackages are public in their own right, each through its own
``__all__``: :mod:`repro.trace` (tracer internals and exporters),
:mod:`repro.chaos` (fault plans, injector, schedule generator),
:mod:`repro.explore` (``ExplorationRunner`` and its schedulers) and
:mod:`repro.linearizability` (``HistoryRecorder``, the checkers and
their sequential models).  The ``repro.core.*``,
``repro.simulation.*``, ``repro.faas.*``, ``repro.dso.*`` ...
submodules are internal: import from ``repro`` or one of those four,
not from the implementation packages.
"""

from repro.config import Config, DEFAULT_CONFIG
from repro.coordination import (
    ConfigWatcher,
    KeeperBarrier,
    KeeperSemaphore,
    KeeperService,
    KeeperSession,
    LeaderElector,
    WatchEvent,
)
from repro.core import (
    AtomicBoolean,
    AtomicByteArray,
    AtomicInt,
    AtomicLong,
    AtomicReference,
    CloudThread,
    CountDownLatch,
    CrucialEnvironment,
    CyclicBarrier,
    Future,
    IdempotentStep,
    RetryPolicy,
    Semaphore,
    SharedField,
    SharedList,
    SharedMap,
    current_environment,
    dso_costs,
    once,
    run_all,
    shared,
)
from repro.core.runtime import RUNNER_FUNCTION, compute, current_location
from repro.dso.cache import readonly
from repro.dso.pipeline import DsoFuture
from repro.dso.txn import Txn, TxnCell, unreplicated
from repro.errors import (
    BadVersionError,
    KeeperError,
    NoNodeError,
    NodeExistsError,
    NotEmptyError,
    SessionExpiredError,
    TxnAbortedError,
    TxnError,
    TxnFracturedReadError,
    TxnPrepareLostError,
)
from repro.linearizability import WatchViolation, find_watch_violations
from repro.metrics import BackendBill, CostLedger, cost_summary
from repro.storage import (
    BackendProfile,
    BlockStore,
    DataGrid,
    MemoryStore,
    ObjectStore,
    RedisCluster,
    StorageBackend,
    TieredStore,
)
from repro.trace import (
    Span,
    TraceContext,
    Tracer,
    chrome_trace_json,
    critical_path_summary,
    span_tree,
    trace_enabled,
    write_chrome_trace,
)
from repro.workload import (
    Autoscaler,
    AutoscalerPolicy,
    NodeRentMeter,
    OpenLoopGenerator,
    RateProfile,
    ScaleEvent,
    ServingMetrics,
    TenantSpec,
    ZipfSampler,
)

__version__ = "2.0.0"

__all__ = [
    "Config",
    "DEFAULT_CONFIG",
    "CrucialEnvironment",
    "current_environment",
    "current_location",
    "compute",
    "RUNNER_FUNCTION",
    "CloudThread",
    "RetryPolicy",
    "run_all",
    "IdempotentStep",
    "once",
    "shared",
    "SharedField",
    "dso_costs",
    "readonly",
    "DsoFuture",
    "Txn",
    "TxnCell",
    "unreplicated",
    "TxnError",
    "TxnAbortedError",
    "TxnFracturedReadError",
    "TxnPrepareLostError",
    "AtomicInt",
    "AtomicLong",
    "AtomicBoolean",
    "AtomicByteArray",
    "AtomicReference",
    "SharedList",
    "SharedMap",
    "CyclicBarrier",
    "Semaphore",
    "Future",
    "CountDownLatch",
    "KeeperService",
    "KeeperSession",
    "WatchEvent",
    "KeeperBarrier",
    "KeeperSemaphore",
    "LeaderElector",
    "ConfigWatcher",
    "KeeperError",
    "NoNodeError",
    "NodeExistsError",
    "BadVersionError",
    "NotEmptyError",
    "SessionExpiredError",
    "WatchViolation",
    "find_watch_violations",
    "StorageBackend",
    "BackendProfile",
    "ObjectStore",
    "BlockStore",
    "MemoryStore",
    "TieredStore",
    "DataGrid",
    "RedisCluster",
    "CostLedger",
    "BackendBill",
    "cost_summary",
    "Tracer",
    "Span",
    "TraceContext",
    "trace_enabled",
    "span_tree",
    "critical_path_summary",
    "chrome_trace_json",
    "write_chrome_trace",
    "ZipfSampler",
    "RateProfile",
    "TenantSpec",
    "ServingMetrics",
    "OpenLoopGenerator",
    "Autoscaler",
    "AutoscalerPolicy",
    "NodeRentMeter",
    "ScaleEvent",
    "__version__",
]
