"""A Redis-like in-memory key-value store with server-side scripts.

Faithfully models the two properties that drive the paper's Fig. 2a
crossover and the "Crucial + Redis" line of Fig. 5:

* the server is **single-threaded** — every command, including Lua
  scripts, runs to completion on one event loop, so concurrent complex
  operations serialize (``workers=1`` per shard);
* the optimized C core gives a very low fixed per-command cost, so for
  trivial commands Redis beats the JVM-based DSO layer.

Scripts are the stand-in for Lua: a registered Python function that
runs against the shard's data dictionary, with an explicit CPU-cost
model (scripts are charged ``script_overhead + cost``), because the
*timing* of the computation — not its result — is what the simulation
must get right.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.config import Config, DEFAULT_CONFIG
from repro.errors import NoSuchKeyError
from repro.net.network import Network
from repro.simulation.kernel import Kernel
from repro.storage.datagrid import KvCluster, KvNode


@dataclass(frozen=True)
class Script:
    """A server-side script: ``fn(data, key, *args) -> result``.

    ``cost(*args)`` returns the CPU seconds the script burns on the
    event loop (beyond the fixed script overhead).
    """

    fn: Callable[..., Any]
    cost: Callable[..., float] = staticmethod(lambda *args: 0.0)


class RedisCluster(KvCluster):
    """A client-sharded Redis deployment (N independent servers, each
    one single-threaded process)."""

    def __init__(self, kernel: Kernel, network: Network, shards: int = 1,
                 config: Config = DEFAULT_CONFIG, name: str = "redis"):
        if shards <= 0:
            raise ValueError(f"shards must be positive: {shards}")
        super().__init__(kernel, network, nodes=shards, workers=1,
                         timings=config.redis, config=config, name=name)
        self.shards = self.nodes
        self._scripts: dict[str, Script] = {}
        latency = config.redis.client_server
        for shard in self.shards:
            shard.server.register("incrby", partial(self._incrby, shard.data))
            shard.server.register("script", partial(self._script, shard.data))
            for other in self.shards:
                if shard is not other:
                    network.set_link(shard.node.name, other.node.name, latency)

    def _owner(self, key: str) -> KvNode:
        digest = hashlib.blake2b(repr(key).encode(), digest_size=4).digest()
        return self.shards[int.from_bytes(digest, "big") % len(self.shards)]

    #: Redis spells the cluster's write, erase and membership verbs
    #: SET, DEL (idempotent) and EXISTS.
    set = KvCluster.put
    delete = KvCluster.remove
    exists = KvCluster.contains

    # -- what only Redis has: INCRBY and server-side scripts ---------------

    def _incrby(self, data, call, key, amount):
        call.service(self.timings.put_service)
        value = data.get(key, 0) + amount
        data[key] = value
        return value

    def _script(self, data, call, name, key, args):
        script = self._scripts.get(name)
        if script is None:
            raise NoSuchKeyError(f"{self.name}: script {name!r} not loaded")
        call.service(self.timings.script_overhead + script.cost(*args))
        return script.fn(data, key, *args)

    def incrby(self, client: str, key: str, amount: int = 1) -> int:
        return self._call(client, self._owner(key), "incrby", key, amount)

    def register_script(self, name: str, script: Script) -> None:
        """Load a script on every shard (SCRIPT LOAD)."""
        self._scripts[name] = script

    def eval_script(self, client: str, name: str, key: str, *args) -> Any:
        """EVALSHA: run a loaded script against ``key``'s shard."""
        return self._call(client, self._owner(key), "script", name, key, args)
