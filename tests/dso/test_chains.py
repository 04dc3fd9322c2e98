"""Disjoint-access parallelism inside a batch (:mod:`repro.dso.pipeline`).

A primary runs a shipped group as per-object chains: one object's ops
in submission order, different objects concurrently on the node's
worker pool.  Checked here: a group costs its slowest object, not the
sum (and a group wider than ``node_workers`` runs in waves); one
object's run of ops still costs every service time; a failing op fails
only its own future; a primary crash while its chains run keeps
``final == acked``; a wait inside a chain lets other callers in; and a
group spawns one lane per extra object.
"""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.sync import _Semaphore
from repro.dso import DsoLayer, DsoReference
from repro.dso.reference import reference_for
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from repro.simulation.thread import sleep, spawn

WORKERS = DEFAULT_CONFIG.dso.node_workers
PUT_SERVICE = DEFAULT_CONFIG.dso.put_service


class Log:
    """Order-sensitive state machine: a strictly appended log."""

    def __init__(self):
        self.entries = []

    def append(self, entry):
        self.entries.append(entry)
        return len(self.entries)

    def boom(self):
        raise ValueError("boom")

    def snapshot(self):
        return list(self.entries)


CTOR = (Log, (), {})


def make_layer(kernel, nodes=1):
    network = Network(kernel, LatencyModel(0.0001))
    network.ensure_endpoint("client")
    layer = DsoLayer(kernel, network)
    for _ in range(nodes):
        layer.add_node()
    return layer


def timed_flush(kernel, layer, keys):
    """Virtual seconds to ``put_async`` every key and flush."""
    start = kernel.now
    futures = [layer.put_async("client", key, i)
               for i, key in enumerate(keys)]
    layer.flush("client")
    assert all(future.done for future in futures)
    for future in futures:
        future.result()
    return kernel.now - start


def flush_costs(widths, same_key=False):
    """``{k: one-primary flush of k puts / one sync put}``, the best of
    three flushes each (5 % jitter per hop)."""
    with Kernel(seed=21) as kernel:
        layer = make_layer(kernel)

        def main():
            keys = [f"k{i}" for i in range(max(widths))]
            for key in keys:
                layer.put("client", key, 0)  # created outside the window
            start = kernel.now
            for key in keys:
                layer.put("client", key, 1)
            sync = (kernel.now - start) / len(keys)
            return {width: min(timed_flush(
                        kernel, layer,
                        [keys[0]] * width if same_key else keys[:width])
                        for _ in range(3)) / sync
                    for width in widths}, sync

        return kernel.run_main(main)


# ---------------------------------------------------------------------------
# Cost: the slowest object, not the sum
# ---------------------------------------------------------------------------


def test_a_flush_of_distinct_keys_costs_about_one_sync_put():
    ratios, _ = flush_costs([2, 4, WORKERS])
    for width, ratio in ratios.items():
        assert ratio <= 1.15, (width, ratio)


def test_a_group_wider_than_the_worker_pool_runs_in_waves():
    """32 keys on 8 workers: four waves of service time behind one
    round trip — more than one wave (capacity is modelled), far less
    than 32 service times."""
    ratios, sync = flush_costs([32])
    ratio = ratios[32]
    assert ratio <= 1.6
    waves = 32 // WORKERS
    assert ratio * sync > sync + (waves - 1.5) * PUT_SERVICE


def test_one_objects_run_of_puts_still_costs_every_service_time():
    ratios, sync = flush_costs([8, 16], same_key=True)
    for width, ratio in ratios.items():
        extra = ratio * sync - sync  # service beyond the first put's
        assert extra == pytest.approx((width - 1) * PUT_SERVICE, rel=0.25)


# ---------------------------------------------------------------------------
# Failure: own future only; final == acked across a crash
# ---------------------------------------------------------------------------


def test_an_app_exception_in_one_chain_fails_only_its_own_future():
    with Kernel(seed=3) as kernel:
        layer = make_layer(kernel)
        a, b = (DsoReference("Log", key) for key in "ab")

        def main():
            futures = [
                layer.invoke_async("client", a, "append", (0,), ctor=CTOR),
                layer.invoke_async("client", a, "boom", ctor=CTOR),
                layer.invoke_async("client", b, "append", (0,), ctor=CTOR),
                layer.invoke_async("client", a, "append", (1,), ctor=CTOR),
                layer.invoke_async("client", b, "append", (1,), ctor=CTOR),
            ]
            layer.flush("client")
            outcomes = [future.exception() for future in futures]
            return outcomes, [layer.invoke("client", ref, "snapshot",
                                           ctor=CTOR) for ref in (a, b)]

        outcomes, logs = kernel.run_main(main)
    assert [type(exc).__name__ for exc in outcomes] == [
        "NoneType", "ValueError", "NoneType", "NoneType", "NoneType"]
    assert logs == [[0, 1], [0, 1]]
    assert layer.stats.batches == 1


def test_primary_crash_while_its_chains_run_keeps_final_equal_acked(
        chaos_seed):
    """rf=2 logs, four on one primary, appends interleaved over them;
    the primary dies at a seed-drawn instant while its chains execute.
    The chains that finished dedup on the retry, the rest complete at
    the promoted backups: every log holds each acknowledged append
    exactly once, in submission order."""
    with Kernel(seed=chaos_seed) as kernel:
        layer = make_layer(kernel, nodes=3)

        def main():
            refs: list = []
            victim = None
            for index in range(200):
                ref = DsoReference("Log", f"log-{index}", persistent=True,
                                   rf=2)
                layer.invoke("client", ref, "snapshot", ctor=CTOR)
                primary = layer.placement_of(ref)[0]
                if victim in (None, primary):
                    victim = primary
                    refs.append(ref)
                if len(refs) == 4:
                    break
            futures = [(refs[step % 4], step, layer.invoke_async(
                            "client", refs[step % 4], "append", (step,),
                            ctor=CTOR, cost=20e-6))
                       for step in range(16)]
            # Another thread waits on the batch, so it ships it now.
            waiter = spawn(futures[0][2].result)
            # The request lands after ~100 us; each chain then runs four
            # ops: ~115 us of service plus ~170 us at the backup each,
            # and one ordering round.  The crash comes after the first
            # op reached its backup, before the last.
            rng = kernel.rng.stream("test.crash")
            sleep(500e-6 + float(rng.uniform(0, 700e-6)))
            layer.crash_node(victim)
            layer.flush("client")
            waiter.join()
            acked: dict = {ref.key: [] for ref in refs}
            for ref, step, future in futures:
                future.result()
                acked[ref.key].append(step)
            final = {ref.key: layer.invoke("client", ref, "snapshot",
                                           ctor=CTOR) for ref in refs}
            return final, acked, refs

        final, acked, refs = kernel.run_main(main)
    assert final == acked == {ref.key: list(range(index, 16, 4))
                              for index, ref in enumerate(refs)}
    assert layer.stats.retries >= 1


def test_a_wait_inside_a_chain_parks_and_resumes_that_chain():
    """A blocking op of a chain gives up the object lock while it
    waits, so another thread's release gets in; the chain then runs
    its next ops on the section it took back — a second wait too."""
    with Kernel(seed=5) as kernel:
        layer = make_layer(kernel)
        ref = reference_for(_Semaphore, "s")
        ctor = (_Semaphore, (0,), {})

        def releaser():
            for _ in range(2):
                sleep(0.01)
                layer.invoke("client", ref, "release", ctor=ctor)

        def main():
            spawn(releaser)
            futures = [layer.invoke_async("client", ref, method, ctor=ctor)
                       for method in ("acquire", "available_permits",
                                      "release", "available_permits",
                                      "acquire", "acquire",
                                      "available_permits")]
            layer.flush("client")
            return tuple(future.result() for future in futures)

        assert kernel.run_main(main) == (None, 0, None, 1, None, None, 0)
    assert layer.stats.pipelined_ops == 7
    assert layer.stats.batches == 1


# ---------------------------------------------------------------------------
# Threads: one lane per extra object
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("objects", [1, 2, 5])
def test_a_flush_of_k_objects_on_one_primary_spawns_k_minus_one_lanes(
        objects):
    with Kernel(seed=11) as kernel:
        layer = make_layer(kernel)
        spawned = []
        original = kernel.spawn

        def counting_spawn(target, *args, **kwargs):
            spawned.append(kwargs.get("name"))
            return original(target, *args, **kwargs)

        def main():
            layer.put_async("client", "warm", 0).result()
            kernel.spawn = counting_spawn
            for i in range(2 * objects):
                layer.put_async("client", f"k{i % objects}", i)
            layer.flush("client")

        kernel.run_main(main)
    assert spawned == [f"dso-lane-client-dso-0-k{i}"
                       for i in range(1, objects)]
