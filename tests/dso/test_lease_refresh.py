"""Lease refresh: a write's revocation round re-arms the caches it
emptied (:mod:`repro.dso.cache`).

The primary posts the post-write snapshot to every holder its round
reached once the write's critical section ends — the writer's rides
its reply; a lease generation fences out grants and refreshes that a
later revocation overtook on the wire.
"""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.dso import DsoLayer, DsoReference, readonly
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from repro.simulation.thread import sleep, spawn

HOP = DEFAULT_CONFIG.dso.client_server.base
IDENT = ("KvSlot", "k")


@pytest.fixture
def kernel():
    with Kernel(seed=101) as k:
        yield k


def make_layer(kernel, nodes=1):
    network = Network(kernel, LatencyModel(HOP))
    for endpoint in ("reader", "writer"):
        network.ensure_endpoint(endpoint)
    layer = DsoLayer(kernel, network, read_cache=True)
    for _ in range(nodes):
        layer.add_node()
    return layer


@pytest.fixture
def layer(kernel):
    return make_layer(kernel)


def slow_link_to(layer, endpoint, seconds):
    """Set the one-way node -> ``endpoint`` link (after first contact,
    which would reset it)."""
    (node,) = layer.nodes
    layer.network.set_link(node, endpoint, LatencyModel(seconds),
                           symmetric=False)


def test_reread_after_remote_write_acked_is_a_hit(kernel, layer):
    """Each write revokes the refreshed holder again and re-arms it."""
    def main():
        layer.put("writer", "k", "v0")
        layer.get("reader", "k")  # miss: granted
        misses = layer.stats.cache_misses
        values = []
        for value in ("v1", "v2"):
            layer.put("writer", "k", value)
            sleep(2 * HOP)  # the refresh lands one hop after the section
            values.append(layer.get("reader", "k"))
        return values, layer.stats.cache_misses - misses

    assert kernel.run_main(main) == (["v1", "v2"], 0)
    assert layer.stats.lease_revocations == 2
    assert layer.stats.lease_refreshes == 2
    assert layer.stats.cache_hits == 2


def test_writer_lease_is_revoked_and_refreshed_in_its_reply(kernel, layer):
    """The writer's revoked lease comes back with the write's reply,
    holding its own value and its original expiry: no post reaches
    it, and only the reader's refresh is one."""
    def main():
        layer.put("writer", "k", "v0")
        layer.get("writer", "k")  # the writer holds a lease too
        expiry = layer.caches.of("writer").get(IDENT).expiry
        layer.get("reader", "k")
        sent = layer.network.messages_sent
        layer.put("writer", "k", "v1")
        messages = layer.network.messages_sent - sent
        sleep(2 * HOP)
        return (expiry, layer.caches.of("writer").get(IDENT), messages,
                layer.caches.of("reader").get(IDENT).snapshot.value)

    expiry, writer_entry, messages, reader_value = kernel.run_main(main)
    assert writer_entry.snapshot.value == "v1"
    assert writer_entry.expiry == expiry
    assert messages == 4  # request, the reader's revocation and refresh, reply
    assert reader_value == "v1"
    assert layer.stats.lease_revocations == 2
    assert layer.stats.lease_refreshes == 1


def test_grant_overtaken_by_revocation_is_not_installed(kernel, layer):
    """The reader's grant is issued before a write but lands after the
    write's revocation: installing it would serve v0 after v1 acked."""
    def main():
        layer.put("writer", "k", "v0")
        layer.put("reader", "other", 0)  # first contact sets the link
        slow_link_to(layer, "reader", 1e-3)
        got = []
        getter = spawn(lambda: got.append(layer.get("reader", "k")))
        sleep(200e-6)  # the get ran at the primary; its reply is slow
        slow_link_to(layer, "reader", 50e-6)
        layer.put("writer", "k", "v1")
        sleep(2e-3)
        getter.join()
        return got[0], layer.get("reader", "k")

    first, second = kernel.run_main(main)
    assert first == "v0"  # the get ran before the put: linearizable
    assert second == "v1"


def test_refresh_overtaken_by_next_revocation_is_discarded(kernel, layer):
    """A refresh on a slow link lands after the next write's revocation
    (the reader's own write, whose reply brings its own value back) and
    must not re-install the older snapshot over it."""
    def main():
        layer.put("writer", "k", "v0")
        layer.get("reader", "k")
        slow_link_to(layer, "reader", 1e-3)
        layer.put("writer", "k", "v1")  # refresh now in flight, 1 ms
        slow_link_to(layer, "reader", 50e-6)
        layer.put("reader", "k", "v2")  # revokes the reader, fast
        sleep(2e-3)
        entry = layer.caches.of("reader").get(IDENT)
        hits = layer.stats.cache_hits
        return (entry.snapshot.value, layer.get("reader", "k"),
                layer.stats.cache_hits - hits)

    assert kernel.run_main(main) == ("v2", "v2", 1)
    assert layer.stats.lease_refreshes == 1


def test_refresh_keeps_the_original_expiry_then_lapses(kernel, layer):
    """No renewal: the refreshed entry expires with the original
    lease, and a write after that revokes and posts nothing."""
    def main():
        layer.put("writer", "k", "v0")
        layer.get("reader", "k")
        expiry = layer.caches.of("reader").get(IDENT).expiry
        layer.put("writer", "k", "v1")
        sleep(2 * HOP)
        refreshed = layer.caches.of("reader").get(IDENT).expiry
        sleep(expiry - kernel.now)  # the original lease just lapsed
        sent = layer.network.messages_sent
        layer.put("writer", "k", "v2")
        return expiry, refreshed, layer.network.messages_sent - sent

    expiry, refreshed, messages = kernel.run_main(main)
    assert refreshed == expiry
    assert messages == 2  # the put's request and reply, nothing else
    assert layer.stats.lease_revocations == 1
    assert layer.stats.lease_refreshes == 1


def test_promoted_primary_grants_are_not_fenced_out(kernel):
    """Generations come from one counter per deployment, so a promoted
    backup's grants are newer than every revocation its predecessor
    sent: the reader caches the object again at once."""
    layer = make_layer(kernel, nodes=2)

    def main():
        layer.put("writer", "k", "v0", rf=2)
        layer.get("reader", "k", rf=2)
        layer.put("writer", "k", "v1", rf=2)  # fences the reader
        (primary, _) = layer.placement_of(layer._kv_ref("k", 2))
        layer.crash_node(primary)
        sleep(DEFAULT_CONFIG.dso.failure_detection + 1.0)
        layer.get("reader", "k", rf=2)  # granted by the new primary
        hits = layer.stats.cache_hits
        return layer.get("reader", "k", rf=2), layer.stats.cache_hits - hits

    assert kernel.run_main(main) == ("v1", 1)


class _Checked:
    """A register whose checked write applies, then rejects the value."""

    def __init__(self):
        self.value = "v0"

    @readonly
    def get(self):
        return self.value

    def set_checked(self, value):
        self.value = value
        raise ValueError(f"{value!r} rejected after it was applied")


def test_write_that_mutates_then_raises_still_revokes_and_refreshes(
        kernel, layer):
    """The error reply waits for the revocation round like an ack, and
    the holder is re-armed with the state the method left behind."""
    ref = DsoReference("_Checked", "c")
    ctor = (_Checked, (), {})

    def main():
        assert layer.invoke("reader", ref, "get", ctor=ctor) == "v0"
        with pytest.raises(ValueError):
            layer.invoke("writer", ref, "set_checked", ("v1",), ctor=ctor)
        now_value = layer.invoke("reader", ref, "get", ctor=ctor)
        sleep(2 * HOP)  # the refresh lands one hop after the section
        hits = layer.stats.cache_hits
        return now_value, layer.invoke("reader", ref, "get", ctor=ctor), \
            layer.stats.cache_hits - hits

    assert kernel.run_main(main) == ("v1", "v1", 1)
    assert layer.stats.lease_revocations == 1
    assert layer.stats.lease_refreshes == 1
