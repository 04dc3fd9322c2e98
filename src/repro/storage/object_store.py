"""An Amazon-S3-like object store.

High access latency (>10 ms, Table 2), practically unlimited
throughput (each request is charged latency but there is no shared
server bottleneck — S3 scales horizontally), and *eventually
consistent listings*: a freshly PUT key only becomes visible to
``list_prefix``/``exists`` polling after ``visibility_lag``, which is
what makes the S3-synchronization bars of Fig. 6 both slow and highly
variable.

Reads of an existing key are read-after-write consistent (S3's 2019
semantics for new-object PUTs).  Values may carry a *nominal* byte
size larger than their materialized payload so that 100 GB datasets
can be modelled without allocating them.

All of that is numbers, so the store is a :class:`~repro.storage.
backend.ProfiledStore` handed the S3 :class:`~repro.storage.backend.
BackendProfile` (Table 2 latencies, ``visibility_lag``, $0.023/GB-month,
$0.005/1k PUT, $0.0004/1k GET) and nothing else.  Every request —
including ``exists``/``list_prefix``, which are GET-class requests in
S3's pricing — accrues into a :class:`~repro.metrics.cost.CostLedger`,
so listing-heavy workloads (the Fig. 6 S3-sync pattern) are billed
faithfully.
"""

from __future__ import annotations

from repro.config import Config, DEFAULT_CONFIG
from repro.metrics.cost import CostLedger
from repro.simulation.kernel import Kernel
from repro.storage.backend import ProfiledStore, s3_profile


class ObjectStore(ProfiledStore):
    """A flat key/value blob store with S3 latencies and prices."""

    def __init__(self, kernel: Kernel, config: Config = DEFAULT_CONFIG,
                 name: str = "s3", ledger: CostLedger | None = None):
        super().__init__(kernel, s3_profile(config, name), ledger)
