"""Pipelined + batched DSO shipping: unit tests at the layer level.

Covers the client-side machinery of :mod:`repro.dso.pipeline` — flush
triggers (size, window, explicit, blocking on a future), round-trip
coalescing, sync/async program order, per-op failure isolation, and
the cacheable-read bypass.
"""

import dataclasses

import pytest

from repro.config import DEFAULT_CONFIG
from repro.dso import DsoReference
from repro.errors import SerializationError
from repro.simulation import Kernel
from repro.simulation.thread import sleep
from tests.conftest import make_layer


def config_with(**dso_overrides):
    return dataclasses.replace(
        DEFAULT_CONFIG,
        dso=dataclasses.replace(DEFAULT_CONFIG.dso, **dso_overrides))


@pytest.fixture
def kernel():
    with Kernel(seed=11) as k:
        yield k


def test_flush_resolves_submitted_futures(kernel, network):
    layer = make_layer(kernel, network)

    def main():
        futures = [layer.put_async("client", f"k{i}", i) for i in range(4)]
        assert not any(f.done for f in futures)
        layer.flush("client")
        assert all(f.done for f in futures)
        return [layer.get("client", f"k{i}") for i in range(4)]

    assert kernel.run_main(main) == [0, 1, 2, 3]


def test_result_triggers_flush(kernel, network):
    """Blocking on a future flushes immediately instead of waiting out
    the batching window."""
    layer = make_layer(kernel, network)
    window = DEFAULT_CONFIG.dso.pipeline_flush_window

    def main():
        start = kernel.now
        future = layer.put_async("client", "k", "v")
        assert future.result() is None
        return kernel.now - start

    elapsed = kernel.run_main(main)
    # One round trip, not window + round trip.
    assert elapsed < window + 3 * DEFAULT_CONFIG.dso.client_server.mean()


def test_window_flush_fires_without_explicit_flush(kernel, network):
    layer = make_layer(kernel, network)
    window = DEFAULT_CONFIG.dso.pipeline_flush_window

    def main():
        futures = [layer.put_async("client", f"k{i}", i) for i in range(2)]
        sleep(window + 10 * DEFAULT_CONFIG.dso.client_server.mean())
        return [f.done for f in futures]

    assert kernel.run_main(main) == [True, True]
    assert layer.stats.batches == 1
    assert layer.stats.pipelined_ops == 2


def test_size_flush_splits_at_max_batch(kernel, network):
    config = config_with(pipeline_max_batch=4)
    layer = make_layer(kernel, network, config=config)

    def main():
        futures = [layer.put_async("client", f"k{i}", i) for i in range(8)]
        layer.flush()  # no-arg form drains every endpoint
        assert all(f.done for f in futures)

    kernel.run_main(main)
    assert layer.stats.batches == 2
    assert layer.stats.pipelined_ops == 8


def test_same_primary_ops_share_round_trips(kernel, network):
    """A batch to one primary pays ~one round trip total, not one per
    op: per-op virtual time amortizes well below the sync latency."""
    layer = make_layer(kernel, network)
    ops = 16

    def main():
        layer.put("client", "warm", 0)
        start = kernel.now
        for i in range(ops):
            layer.put("client", "warm", i)
        sync = (kernel.now - start) / ops

        start = kernel.now
        futures = [layer.put_async("client", "warm", i) for i in range(ops)]
        layer.flush("client")
        assert all(f.done for f in futures)
        pipelined = (kernel.now - start) / ops
        return sync, pipelined

    sync, pipelined = kernel.run_main(main)
    assert sync / pipelined >= 3.0


def test_sync_invoke_drains_queued_async_ops(kernel, network):
    """Program order across the sync/async boundary: a sync op never
    overtakes async ops its endpoint already queued."""
    layer = make_layer(kernel, network)

    def main():
        future = layer.put_async("client", "k", "async-first")
        layer.put("client", "k", "sync-second")
        # The sync put drained the pipeline before shipping itself.
        assert future.done
        return layer.get("client", "k")

    assert kernel.run_main(main) == "sync-second"


def test_blocking_reads_drain_queued_async_ops(kernel, network):
    """Every blocking verb shares ``invoke``'s pre-flight: a bulk read
    never overtakes async ops its endpoint already queued (no explicit
    ``flush``).  ``read_bulk`` used to skip the drain and return the
    pre-``put_async`` value."""
    layer = make_layer(kernel, network)
    ref = DsoReference("KvSlot", "a")

    def main():
        layer.put("client", "a", 0)
        future = layer.put_async("client", "a", 1)
        value, = layer.read_bulk("client", [ref])
        assert future.done
        return value

    assert kernel.run_main(main) == 1


def test_app_exception_fails_only_its_own_future(kernel, network):
    layer = make_layer(kernel, network)

    class Box:
        def __init__(self):
            self.value = None

        def set(self, value):
            self.value = value
            return value

    ref = DsoReference("Box", "box", persistent=False, rf=1)
    ctor = (Box, (), {})

    def main():
        good = layer.invoke_async("client", ref, "set", ("ok",), ctor=ctor)
        bad = layer.invoke_async("client", ref, "no_such_method", ctor=ctor)
        tail = layer.invoke_async("client", ref, "set", ("done",), ctor=ctor)
        layer.flush("client")
        assert good.result() == "ok"
        assert isinstance(bad.exception(), AttributeError)
        with pytest.raises(AttributeError):
            bad.result()
        return tail.result()

    assert kernel.run_main(main) == "done"


class Opener:
    """A shared object with one method whose reply cannot be shipped."""

    def __init__(self):
        self.opened = 0

    def open(self):
        self.opened += 1
        return lambda: self.opened  # a closure cannot cross the wire

    def count(self):
        return self.opened


def test_an_unencodable_op_fails_only_its_own_future(kernel, network):
    """An argument or a reply that cannot be pickled fails its own
    future with SerializationError — as the synchronous verb would
    raise it — while the rest of the batch completes and the queue
    ships the next one.  A failed group encode used to kill the
    shipping thread, leaving every future of the batch (and every later
    op) unsettled."""
    layer = make_layer(kernel, network)
    opener = DsoReference("Opener", "opener")
    ctor = (Opener, (), {})

    def main():
        good = layer.put_async("client", "a", 1)
        bad_argument = layer.put_async("client", "b", lambda: 1)
        bad_reply = layer.invoke_async("client", opener, "open", ctor=ctor)
        tail = layer.put_async("client", "c", 3)
        layer.flush("client")
        assert isinstance(bad_argument.exception(), SerializationError)
        assert isinstance(bad_reply.exception(), SerializationError)
        assert good.result() is None and tail.result() is None
        later = layer.put_async("client", "d", 4)
        assert later.result() is None
        return ([layer.get("client", key) for key in "abcd"],
                layer.invoke("client", opener, "count", ctor=ctor))

    # The unencodable argument never left the client; the open() whose
    # reply could not be shipped did run, as a synchronous one would.
    assert kernel.run_main(main) == ([1, None, 3, 4], 1)


def test_cacheable_read_bypasses_pipeline(kernel, network):
    """With the read cache on, async reads resolve synchronously (local
    hit or unstamped ship) and never enter the batch queue."""
    layer = make_layer(kernel, network, read_cache=True)

    def main():
        layer.put("client", "k", "v")
        layer.get("client", "k")  # grants the lease
        future = layer.get_async("client", "k")
        assert future.done  # resolved at submit, no flush needed
        return future.result()

    assert kernel.run_main(main) == "v"
    assert layer.stats.batches == 0
    assert layer.stats.cache_hits >= 1


def test_async_preserves_session_order(kernel, network):
    """Batched ops apply in submission order within a session: a
    read-modify-write chain sees every prior write."""
    layer = make_layer(kernel, network, nodes=2)

    class Log:
        def __init__(self):
            self.entries = []

        def append(self, entry):
            self.entries.append(entry)
            return list(self.entries)

    ref = DsoReference("Log", "log", persistent=True, rf=2)
    ctor = (Log, (), {})

    def main():
        futures = [layer.invoke_async("client", ref, "append", (i,),
                                      ctor=ctor) for i in range(10)]
        layer.flush("client")
        return [f.result() for f in futures]

    views = kernel.run_main(main)
    assert views == [list(range(i + 1)) for i in range(10)]
