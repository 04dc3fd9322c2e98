"""Simulated cloud storage services.

These are the substrates the paper measures Crucial against, all
implementing the :class:`StorageBackend` protocol (priced requests,
capacity rent, a :class:`~repro.storage.backend.BackendProfile`
identity) on one metered core in :mod:`repro.storage.backend`:

* :class:`ObjectStore` — Amazon S3 (high latency, eventual listing);
* :class:`BlockStore` — a gp3-like block volume (low latency, free
  requests, throughput-capped);
* :class:`MemoryStore` — a flat in-memory tier (RAM prices) — three
  profiles of one flat store;
* :class:`TieredStore` — heat-tracked placement across any stack of
  the above (hot next to compute, cold on the cheap tier);
* :class:`QueueService` — Amazon SQS (polling, visibility timeout);
* :class:`NotificationService` — Amazon SNS (pub/sub fan-out);
* :class:`RedisCluster` — Redis with server-side scripts, sharded,
  single-threaded per shard;
* :class:`DataGrid` — an Infinispan-like in-memory key-value grid
  (``.backend()`` on either returns a :class:`ClusterBackend`, the
  one adapter from their RPC path to the protocol).
"""

from repro.storage.backend import (
    BackendProfile,
    BackendStats,
    BlockStore,
    ClusterBackend,
    MemoryStore,
    StorageBackend,
    gp3_profile,
    memory_profile,
    s3_profile,
)
from repro.storage.object_store import ObjectStore
from repro.storage.queue_service import QueueService
from repro.storage.notification import NotificationService
from repro.storage.kvstore import RedisCluster
from repro.storage.datagrid import DataGrid
from repro.storage.tiering import TieredStore, TieringStats

__all__ = [
    "StorageBackend",
    "BackendProfile",
    "BackendStats",
    "ObjectStore",
    "BlockStore",
    "MemoryStore",
    "TieredStore",
    "TieringStats",
    "QueueService",
    "NotificationService",
    "RedisCluster",
    "DataGrid",
    "ClusterBackend",
    "s3_profile",
    "gp3_profile",
    "memory_profile",
]
