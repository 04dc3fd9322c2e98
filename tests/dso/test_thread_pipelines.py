"""One async queue per calling thread (:mod:`repro.dso.pipeline`).

The barrier contract is per thread: what a thread submitted before a
barrier (``flush``, ``future.result()``, any synchronous verb)
completes before anything it does after — and a barrier waits for
nothing another thread queued on the same endpoint.  A queue lives
only while it has work, and the thread that waits on it ships it, so
threads that used the async path once leave nothing behind.
"""

import threading

from repro.dso import DsoLayer, DsoReference
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from repro.simulation.thread import sleep, spawn

#: Server-side seconds of thread A's slow op: ~200 round trips.
SLOW = 0.05


class Log:
    """Order-sensitive state machine: a strictly appended log."""

    def __init__(self):
        self.entries = []

    def append(self, entry):
        self.entries.append(entry)
        return len(self.entries)

    def snapshot(self):
        return list(self.entries)


CTOR = (Log, (), {})
SLOW_LOG = DsoReference("Log", "slow")


def make_layer(kernel, nodes=2):
    network = Network(kernel, LatencyModel(0.0001))
    network.ensure_endpoint("client")
    layer = DsoLayer(kernel, network)
    for _ in range(nodes):
        layer.add_node()
    return layer


def _beside_a_slow_batch(b_action):
    """Thread A queues a slow append and then reads its log back
    synchronously; while A's batch is in flight, thread B — same
    endpoint, nothing of its own queued — runs ``b_action``.

    Returns (A's read-back, B's elapsed virtual time, a lone GET's)."""
    with Kernel(seed=21) as kernel:
        layer = make_layer(kernel)

        def thread_a():
            layer.invoke_async("client", SLOW_LOG, "append", ("a",),
                               ctor=CTOR, cost=SLOW)
            return layer.invoke("client", SLOW_LOG, "snapshot", ctor=CTOR)

        def thread_b(lone):
            sleep(2 * lone)  # A's batch has reached its primary
            start = kernel.now
            if b_action == "get":
                assert layer.get("client", "other") == 0
            else:
                layer.flush("client")
            return kernel.now - start

        def main():
            layer.invoke("client", SLOW_LOG, "snapshot", ctor=CTOR)
            layer.put("client", "other", 0)
            start = kernel.now
            layer.get("client", "other")
            lone = kernel.now - start
            a = spawn(thread_a, name="a")
            b = spawn(thread_b, lone, name="b")
            a.join()
            b.join()
            return a.result(), b.result(), lone

        return kernel.run_main(main)


def test_a_sync_get_does_not_wait_for_another_threads_batch():
    _, elapsed, lone = _beside_a_slow_batch("get")
    # Two hops and a GET's service time, not A's 50 ms op.
    assert elapsed < 2 * lone


def test_a_flush_with_nothing_queued_returns_at_once():
    _, elapsed, _ = _beside_a_slow_batch("flush")
    assert elapsed == 0.0


def test_the_callers_own_barrier_still_holds():
    """A's synchronous read drains A's queue first, slow op and all."""
    snapshot, _, _ = _beside_a_slow_batch("get")
    assert snapshot == ["a"]


def test_two_threads_batches_overlap():
    """Each thread flushes one slow op on its own object: the two
    batches ship side by side, so both finish in about one op's time,
    not two."""
    with Kernel(seed=21) as kernel:
        layer = make_layer(kernel)
        refs = [DsoReference("Log", f"mine-{who}") for who in "ab"]

        def thread(ref):
            layer.invoke_async("client", ref, "append", (0,), ctor=CTOR,
                               cost=SLOW)
            layer.flush("client")

        def main():
            for ref in refs:
                layer.invoke("client", ref, "snapshot", ctor=CTOR)
            start = kernel.now
            threads = [spawn(thread, ref) for ref in refs]
            for each in threads:
                each.join()
            return kernel.now - start

        elapsed = kernel.run_main(main)
    assert SLOW < elapsed < 1.5 * SLOW


def test_short_lived_threads_leave_no_pipeline_or_pump():
    """Two hundred threads each ship one op and finish: each ships its
    own queue, which retires once empty, so no pump is ever spawned and
    nothing stays parked until close()."""
    before = threading.active_count()
    with Kernel(seed=3) as kernel:
        layer = make_layer(kernel)

        def worker(index):
            layer.put_async("client", f"k{index % 8}", index).result()

        def main():
            threads = [spawn(worker, index) for index in range(200)]
            for thread in threads:
                thread.join()
            pumps = [thread.name for thread in kernel._threads
                     if "-pipe-" in thread.name]
            return dict(layer._pipelines), pumps

        pipelines, pumps = kernel.run_main(main)
        assert pipelines == {}
        assert pumps == []
        assert layer.stats.pipelined_ops == 200
    assert threading.active_count() == before


def test_a_bare_flush_drains_the_threads_queue_on_every_endpoint():
    """``flush()`` with no endpoint is the calling thread's barrier on
    every endpoint it queued on."""
    with Kernel(seed=5) as kernel:
        layer = make_layer(kernel)

        def main():
            futures = [layer.put_async(name, f"k{index}", index)
                       for index, name in enumerate(["client", "other"] * 3)]
            layer.flush()
            return [future.done for future in futures], layer._pipelines

        done, pipelines = kernel.run_main(main)
    assert all(done) and pipelines == {}
