"""The writer keeps its lease (:mod:`repro.dso.cache`).

A cached site's write request carries its own invalidation: the site
drops its entry and installs no grant or refresh for the object until
the write settles.  The primary posts the writer nothing; a writer
that held a lease gets its refresh back in the write's reply.  Once a
write has applied, its site never again serves an older snapshot —
not while its reply is in flight, and not after a lost reply.
"""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.dso import DsoLayer
from repro.dso.cache import LeaseGrant
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from repro.simulation.thread import sleep, spawn

HOP = DEFAULT_CONFIG.dso.client_server.base
IDENT = ("KvSlot", "k")


@pytest.fixture
def kernel():
    with Kernel(seed=103) as k:
        yield k


@pytest.fixture
def layer(kernel):
    network = Network(kernel, LatencyModel(HOP))
    for endpoint in ("reader", "writer"):
        network.ensure_endpoint(endpoint)
    layer = DsoLayer(kernel, network, read_cache=True)
    layer.add_node()
    return layer


def slow_link_to(layer, endpoint, seconds):
    """Set the one-way node -> ``endpoint`` link (after first contact,
    which would reset it)."""
    (node,) = layer.nodes
    layer.network.set_link(node, endpoint, LatencyModel(seconds),
                           symmetric=False)


def test_writer_site_never_reads_behind_another_site(kernel, layer):
    """The writer's reply is slow; another site reads the new value
    first.  A read at the writer's site after that must not be served
    the entry the write's own request invalidated."""
    def main():
        layer.put("writer", "k", "v0")
        layer.get("writer", "k")  # the writer caches v0
        slow_link_to(layer, "writer", 1e-3)
        write = spawn(layer.put, "writer", "k", "v1")
        sleep(3 * HOP)  # v1 applied; its reply has 1 ms to go
        seen_elsewhere = layer.get("reader", "k")
        at_writer = layer.get("writer", "k")
        write.join()
        hits = layer.stats.cache_hits
        return (seen_elsewhere, at_writer, layer.get("writer", "k"),
                layer.stats.cache_hits - hits)

    # The last read is a hit: the reply brought the writer's lease back.
    assert kernel.run_main(main) == ("v1", "v1", "v1", 1)


def test_stale_refresh_in_writer_emptied_slot_is_refused(kernel, layer):
    """A refresh of v1 on a slow link lands after the reader's own
    write of v2 applied, in the slot that write's request emptied: the
    site must install nothing until v2's reply brings v2."""
    seen, done = [], []

    def watch(cache):
        while not done:
            entry = cache.get(IDENT)
            seen.append(entry.snapshot.value if entry else None)
            sleep(20e-6)

    def main():
        layer.put("writer", "k", "v0")
        layer.get("reader", "k")
        slow_link_to(layer, "reader", 1e-3)
        layer.put("writer", "k", "v1")  # the refresh lands in 1 ms
        watcher = spawn(watch, layer.caches.of("reader"))
        layer.put("reader", "k", "v2")  # its reply lands after the refresh
        sleep(40e-6)
        done.append(True)
        watcher.join()
        return layer.get("reader", "k")

    assert kernel.run_main(main) == "v2"
    assert set(seen) == {None, "v2"}
    assert layer.stats.lease_refreshes == 1


def test_lost_reply_retried_to_dedup_hit_regrants_the_writer(kernel, layer):
    """The write's reply is dropped and its retry is a dedup hit: the
    writer gets its lease back at the current generation, and a grant
    issued before the write can never be installed, between the
    attempts or after."""
    (node,) = layer.nodes
    network = layer.network
    refused = []

    def main():
        layer.put("writer", "k", "v0")
        layer.get("writer", "k")
        layer.get("reader", "k")
        old = layer.caches.of("writer").get(IDENT)
        stale = LeaseGrant(old.snapshot, old.expiry, old.version,
                           layer.caches.generation)

        def between_attempts():
            sleep(5e-3)  # the reply was dropped; the retry backs off
            network.set_drop_rate(node, "writer", 0.0)
            layer.caches.store("writer", IDENT, stale, stale.generation)
            refused.append(layer.caches.of("writer").get(IDENT) is None)

        network.set_drop_rate(node, "writer", 1.0, symmetric=False)
        helper = spawn(between_attempts)
        layer.put("writer", "k", "v1")
        helper.join()
        layer.caches.store("writer", IDENT, stale, stale.generation)
        entry = layer.caches.of("writer").get(IDENT)
        return entry.snapshot.value, entry.expiry == old.expiry

    assert kernel.run_main(main) == ("v1", True)
    assert refused == [True]
    assert layer.stats.dedup_hits == 1
    assert layer.stats.retries == 1
