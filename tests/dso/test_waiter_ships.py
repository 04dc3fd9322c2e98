"""Whoever waits ships (:mod:`repro.dso.pipeline`).

A blocking call is a batch of one that the calling thread ships
itself, and a thread that blocks on its async queue — ``flush()``,
``future.result()``, a synchronous verb's barrier — ships that queue.
A pump thread is spawned only for a queue nobody waits on (its flush
window passed, or it filled a batch), and one queue never has two
shippers.  Checked here: a waited-on queue spawns nothing; an
unattended op settles one window plus one round trip after its
submit; another thread's wait ships the owner's queue; the pipelined
benchmark rows are unchanged; a blocking call waits for a pump in
flight before it ships; and an application error pays the reply hop
like any result.
"""

import dataclasses
import pickle

import pytest

from repro.config import DEFAULT_CONFIG
from repro.dso import DsoLayer, DsoReference
from repro.dso.pipeline import DsoFuture
from repro.harness import kernel_speed
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from repro.simulation.thread import sleep, spawn

WINDOW = DEFAULT_CONFIG.dso.pipeline_flush_window
#: Client<->server hops without jitter, so round trips repeat exactly.
HOP = LatencyModel(100e-6, bandwidth=1.2e9)
STEADY = dataclasses.replace(
    DEFAULT_CONFIG, dso=dataclasses.replace(DEFAULT_CONFIG.dso,
                                            client_server=HOP))


class Log:
    """Order-sensitive state machine: a strictly appended log."""

    def __init__(self):
        self.entries = []

    def append(self, entry, pad=None):
        self.entries.append(entry)  # ``pad`` only makes the request big
        return len(self.entries)

    def fine(self):
        return None

    def boom(self):
        raise ValueError("boom")

    def snapshot(self):
        return list(self.entries)


CTOR = (Log, (), {})
LOG = DsoReference("Log", "log")


def make_layer(kernel, config=DEFAULT_CONFIG):
    network = Network(kernel, LatencyModel(0.0001))
    network.ensure_endpoint("client")
    layer = DsoLayer(kernel, network, config)
    layer.add_node()
    return layer


def counting_spawns(kernel):
    """Record the name of every thread ``kernel`` spawns from now on."""
    spawned = []
    original = kernel.spawn

    def spawn_and_count(target, *args, **kwargs):
        spawned.append(kwargs.get("name"))
        return original(target, *args, **kwargs)

    kernel.spawn = spawn_and_count
    return spawned


@pytest.mark.parametrize("wait", ["result", "flush"])
def test_a_waiter_ships_its_queue_and_spawns_nothing(wait):
    """k ops on one object, then a wait: the waiting thread ships the
    batch itself — no pump, and one object's ops start no lane."""
    with Kernel(seed=11) as kernel:
        layer = make_layer(kernel)

        def main():
            layer.put("client", "k", -1)
            spawned = counting_spawns(kernel)
            futures = [layer.put_async("client", "k", i) for i in range(6)]
            if wait == "result":
                futures[-1].result()
            else:
                layer.flush("client")
            assert all(future.done for future in futures)
            return spawned, layer.get("client", "k")

        spawned, value = kernel.run_main(main)
    assert spawned == []
    assert value == 5
    assert layer.stats.batches == 1 and layer.stats.pipelined_ops == 6
    assert layer._pipelines == {}


def test_an_unattended_op_settles_one_window_and_round_trip_later(
        monkeypatch):
    """Nobody waits: the window's pump ships the op, which settles one
    flush window plus one round trip after its submit, and the queue
    retires."""
    settled = []
    resolve = DsoFuture._resolve
    with Kernel(seed=11) as kernel:
        layer = make_layer(kernel, STEADY)

        def recording(future, value):
            settled.append(kernel.now)
            resolve(future, value)

        monkeypatch.setattr(DsoFuture, "_resolve", recording)

        def main():
            layer.put("client", "k", 0)
            start = kernel.now
            layer.put("client", "k", 1)
            round_trip = kernel.now - start
            submitted = kernel.now
            future = layer.put_async("client", "k", 2)
            sleep(10 * WINDOW)
            return future.done, submitted, round_trip, layer._pipelines

        done, submitted, round_trip, pipelines = kernel.run_main(main)
    assert done
    assert settled[-1] == pytest.approx(submitted + WINDOW + round_trip,
                                        abs=1e-9)
    assert pipelines == {}
    assert layer.stats.batches == 1


def test_another_threads_wait_ships_the_owners_queue():
    """The owner queues an op and goes to sleep; another thread's
    ``result()`` ships it at once — it settles one round trip after
    its submit, not a flush window later, with no pump — and nothing
    deadlocks."""
    with Kernel(seed=11) as kernel:
        layer = make_layer(kernel, STEADY)

        def waiter(future):
            future.result()
            return kernel.now

        def main():
            layer.put("client", "k", 0)
            start = kernel.now
            layer.put("client", "k", 1)
            round_trip = kernel.now - start
            spawned = counting_spawns(kernel)
            submitted = kernel.now
            helper = spawn(waiter, layer.put_async("client", "k", 2),
                           name="helper")
            sleep(1.0)  # the owner never waits on its own queue
            helper.join()
            return (helper.result() - submitted, round_trip, spawned,
                    layer.get("client", "k"))

        elapsed, round_trip, spawned, value = kernel.run_main(main)
    assert elapsed == pytest.approx(round_trip, abs=1e-9)
    assert spawned == ["helper"]
    assert value == 2


def test_a_flush_of_400_puts_keeps_the_pipelined_benchmark_rows():
    """``BENCH_kernel.json``: 400 ``put_async`` then a flush ship in 13
    batches at 37.42 us per op, beside a 230.93 us sync put."""
    sync, pipelined, batches, *_ = kernel_speed._op_rates(400, seed=1)
    assert batches == 13
    assert pipelined * 1e6 == pytest.approx(37.424095928902254, abs=1e-9)
    assert sync * 1e6 == pytest.approx(230.92872530238958, abs=1e-9)


def test_a_blocking_call_waits_for_the_pump_in_flight_then_ships():
    """A large async append is shipped by its window's pump; the owner
    then makes a blocking append to the same object while the pump's
    request is still on the wire.  The blocking call waits for that
    batch to land and only then ships: per-object order holds, and it
    ends a full round trip after the pump's reply."""
    pad = b"x" * 240_000  # ~200 us on the wire beyond the hop
    with Kernel(seed=11) as kernel:
        layer = make_layer(kernel, STEADY)

        def main():
            layer.invoke("client", LOG, "snapshot", ctor=CTOR)
            start = kernel.now
            layer.invoke("client", LOG, "fine", ctor=CTOR)
            round_trip = kernel.now - start
            submitted = kernel.now
            future = layer.invoke_async("client", LOG, "append", ("a",),
                                        {"pad": pad}, ctor=CTOR)
            sleep(WINDOW + 20e-6)  # the pump has shipped it
            assert not future.done
            layer.invoke("client", LOG, "append", ("b",), ctor=CTOR)
            assert future.done
            return (layer.invoke("client", LOG, "snapshot", ctor=CTOR),
                    round_trip, kernel.now - submitted)

        log, round_trip, elapsed = kernel.run_main(main)
    assert log == ["a", "b"]
    # The window, the pump's round trip (longer than a plain one), then
    # the blocking call's own: shipped beside the pump's batch, it
    # would have landed by WINDOW + 20 us + one round trip.
    assert elapsed > WINDOW + 2 * round_trip


def test_an_application_error_pays_the_reply_hop():
    """A blocking call whose method raises costs what one that returns
    costs, but for the bytes of its reply: the error travels back in
    the reply, which ``messages_sent`` counts."""
    with Kernel(seed=11) as kernel:
        layer = make_layer(kernel, STEADY)
        network = layer.network

        def timed(method):
            sent = network.messages_sent
            start = kernel.now
            try:
                layer.invoke("client", LOG, method, ctor=CTOR)
            except ValueError:
                pass
            return kernel.now - start, network.messages_sent - sent

        def main():
            layer.invoke("client", LOG, "snapshot", ctor=CTOR)
            return timed("fine"), timed("boom")

        (fine, fine_messages), (boom, boom_messages) = kernel.run_main(main)
    assert fine_messages == boom_messages == 2
    error_bytes = len(pickle.dumps(ValueError("boom")))
    none_bytes = len(pickle.dumps(None))
    assert boom - fine == pytest.approx(
        (error_bytes - none_bytes) / HOP.bandwidth, abs=1e-12)
