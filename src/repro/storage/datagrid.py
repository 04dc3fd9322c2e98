"""An Infinispan-like in-memory data grid (plain key-value mode).

This is the *raw* Infinispan row of Table 2 and the "in-memory
key-value store" polling baseline of Fig. 6: a partitioned,
multi-threaded KV grid with sub-millisecond operations.  The DSO layer
(:mod:`repro.dso`) is built as an object layer **on top of** this kind
of grid, with extra dispatch cost; keeping the plain-KV path separate
lets the benchmarks compare both, as the paper does.

The servers and the client verbs are those of any sharded RPC
key-value cluster (:class:`KvCluster`); what makes this one a grid is
consistent-hash placement and multi-threaded nodes.  The Redis
baseline (:mod:`repro.storage.kvstore`) is the same cluster with other
timings, one worker per server and its own placement.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.hashring import ConsistentHashRing
from repro.cluster.node import Node
from repro.config import Config, DEFAULT_CONFIG, GridTimings, RedisTimings
from repro.errors import NoSuchKeyError
from repro.metrics.cost import CostLedger
from repro.net.network import Network
from repro.rpc.server import RpcServer
from repro.simulation.kernel import Kernel
from repro.storage.backend import ClusterBackend


class KvNode:
    """One server of a :class:`KvCluster`: a dict behind an RPC
    endpoint, ``workers`` requests served at a time."""

    def __init__(self, kernel: Kernel, network: Network, name: str,
                 cluster_name: str, workers: int,
                 timings: GridTimings | RedisTimings):
        self.cluster_name = cluster_name
        self.timings = timings
        self.node = Node(kernel, network, name, workers=workers)
        self.data: dict[str, Any] = {}
        self.server = RpcServer(self.node)
        self.server.register("get", self._get)
        self.server.register("put", self._put)
        self.server.register("remove", self._remove)
        self.server.register("contains", self._contains)
        self.server.register("keys", self._keys)

    def _get(self, call, key):
        call.service(self.timings.get_service)
        if key not in self.data:
            raise NoSuchKeyError(f"{self.cluster_name}: no such key {key!r}")
        return self.data[key]

    def _put(self, call, key, value):
        call.service(self.timings.put_service)
        self.data[key] = value

    def _remove(self, call, key):
        call.service(self.timings.put_service)
        self.data.pop(key, None)

    def _contains(self, call, key):
        call.service(self.timings.get_service)
        return key in self.data

    def _keys(self, call, prefix):
        call.service(self.timings.get_service)
        return [key for key in self.data if key.startswith(prefix)]


class KvCluster:
    """N independent :class:`KvNode` servers and the client verbs over
    them.  A subclass says which node owns a key (``_owner``)."""

    def __init__(self, kernel: Kernel, network: Network, nodes: int,
                 workers: int, timings: GridTimings | RedisTimings,
                 config: Config, name: str):
        self.kernel = kernel
        self.network = network
        self.config = config
        self.timings = timings
        self.name = name
        self.nodes = [
            KvNode(kernel, network, f"{name}-{i}", name, workers, timings)
            for i in range(nodes)
        ]

    def _owner(self, key: str) -> KvNode:
        raise NotImplementedError

    def _call(self, client: str, node: KvNode, op: str, *args: Any) -> Any:
        self.network.ensure_endpoint(client)
        latency = self.timings.client_server
        if self.network.link(client, node.node.name) is not latency:
            self.network.set_link(client, node.node.name, latency)
        return node.server.call(client, op, *args)

    # -- client API ----------------------------------------------------------

    def get(self, client: str, key: str) -> Any:
        return self._call(client, self._owner(key), "get", key)

    def put(self, client: str, key: str, value: Any) -> None:
        self._call(client, self._owner(key), "put", key, value)

    def remove(self, client: str, key: str) -> None:
        """Idempotent."""
        self._call(client, self._owner(key), "remove", key)

    def contains(self, client: str, key: str) -> bool:
        return self._call(client, self._owner(key), "contains", key)

    def keys(self, client: str, prefix: str = "") -> list[str]:
        """Scan every node for keys under ``prefix`` (one RPC each)."""
        found: list[str] = []
        for node in self.nodes:
            found.extend(self._call(client, node, "keys", prefix))
        return sorted(found)

    def seed(self, key: str, value: Any) -> None:
        """Place ``key`` on its owner without charging the data path
        (pre-existing data; host-callable)."""
        self._owner(key).data[key] = value

    def backend(self, client: str = "client",
                ledger: CostLedger | None = None) -> ClusterBackend:
        """A :class:`repro.storage.backend.StorageBackend` view of this
        cluster for one client endpoint (usable as a TieredStore tier)."""
        return ClusterBackend(self, client=client, ledger=ledger)


class DataGrid(KvCluster):
    """A partitioned in-memory KV store with consistent hashing."""

    def __init__(self, kernel: Kernel, network: Network, nodes: int = 1,
                 config: Config = DEFAULT_CONFIG, name: str = "grid"):
        if nodes <= 0:
            raise ValueError(f"nodes must be positive: {nodes}")
        super().__init__(kernel, network, nodes=nodes,
                         workers=config.grid.node_workers,
                         timings=config.grid, config=config, name=name)
        self.grid_nodes = self.nodes
        self.ring = ConsistentHashRing(
            [gn.node.name for gn in self.grid_nodes])
        self._by_name = {gn.node.name: gn for gn in self.grid_nodes}

    def _owner(self, key: str) -> KvNode:
        return self._by_name[self.ring.lookup(key)]
