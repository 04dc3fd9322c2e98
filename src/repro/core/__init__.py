"""Crucial's programming model (Table 1 abstractions).

* :class:`CloudThread` — serverless functions invoked like threads;
* shared objects — linearizable ``AtomicInt``/``AtomicLong``/
  ``AtomicBoolean``/``AtomicByteArray``/``SharedList``/``SharedMap``;
* synchronization objects — ``CyclicBarrier``, ``Semaphore``,
  ``Future``, ``CountDownLatch``;
* :func:`shared` — user-defined shared objects (the ``@Shared``
  annotation), with ``persistent=True`` enabling replication;
* each written once, as its server class: the proxy derives its
  methods from it (:mod:`repro.core.proxy`).

.. note:: ``repro.core`` and its submodules are **internal**.  Import
   these names from the top-level :mod:`repro` package instead; the
   submodule layout may change without notice.
"""

from repro.core.runtime import CrucialEnvironment, current_environment
from repro.core.cloud_thread import CloudThread, run_all
from repro.core.idempotency import IdempotentStep, once
from repro.core.retry import RetryPolicy, backoff_schedule
from repro.core.shared import SharedField, dso_costs, shared
from repro.core.objects import (
    AtomicBoolean,
    AtomicByteArray,
    AtomicInt,
    AtomicLong,
    AtomicReference,
    SharedList,
    SharedMap,
)
from repro.core.sync import CountDownLatch, CyclicBarrier, Future, Semaphore

__all__ = [
    "CrucialEnvironment",
    "current_environment",
    "CloudThread",
    "RetryPolicy",
    "backoff_schedule",
    "run_all",
    "IdempotentStep",
    "once",
    "shared",
    "SharedField",
    "dso_costs",
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
]
