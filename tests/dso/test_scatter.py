"""Scatter-gather flushes: a batch ships one round trip per primary,
all of them at once (:mod:`repro.dso.pipeline`).

The contract checked here is the paper's per-object one: ops on one
object apply in submission order whatever the schedule, ops on
different primaries overlap (a flush over k primaries costs about one
round trip, not k), and a primary that fails mid-flush drags only its
own group into the retry — exactly-once holds although replies now
arrive out of order.
"""

import random

import pytest

from repro.dso import DsoLayer, DsoReference
from repro.dso import pipeline as pipeline_module
from repro.dso.session import _ClientSession
from repro.explore import PctScheduler, RandomScheduler
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from repro.simulation.kernel import current_thread
from repro.simulation.thread import sleep, spawn


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


def make_layer(kernel, nodes=3):
    network = Network(kernel, LatencyModel(0.0001))
    network.ensure_endpoint("client")
    layer = DsoLayer(kernel, network)
    for _ in range(nodes):
        layer.add_node()
    return layer


def spread_refs(layer, primaries, per_primary=1, rf=1):
    """Log references covering ``primaries`` distinct primary nodes,
    ``per_primary`` objects on each, created up front.  Must run in a
    simulated thread.  Returns ``{primary: [refs]}``."""
    found: dict[str, list] = {}
    for index in range(200):
        ref = DsoReference("Log", f"log-{index}", persistent=rf > 1, rf=rf)
        layer.invoke("client", ref, "snapshot", ctor=CTOR)
        mine = found.setdefault(layer.placement_of(ref)[0], [])
        if len(mine) < per_primary:
            mine.append(ref)
        if (len(found) >= primaries and all(
                len(refs) == per_primary for refs in found.values())):
            return found
    raise AssertionError(f"200 keys covered only {sorted(found)}")


# ---------------------------------------------------------------------------
# Ordering
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheduler", [
    None,
    RandomScheduler(seed=3, preempt_prob=0.25),
    RandomScheduler(seed=41, preempt_prob=0.5),
    PctScheduler(seed=5, depth=3, expected_steps=400),
    PctScheduler(seed=19, depth=5, expected_steps=400),
], ids=["fifo", "random-3", "random-41", "pct-5", "pct-19"])
def test_per_object_order_with_keys_interleaved_over_primaries(scheduler):
    """Three objects on each of three primaries, appends round-robin
    over the nine (a primary's three in a row) and flushed in uneven
    batches: a group holds several ops of some objects besides its
    first, and runs as concurrent per-object chains, yet every log is
    its own submission order (the all-sync plan), and one round trip
    served each primary per flush."""
    with Kernel(seed=9, scheduler=scheduler) as kernel:
        layer = make_layer(kernel)

        def main():
            placed = spread_refs(layer, primaries=3, per_primary=3)
            refs = [ref for group in placed.values() for ref in group]
            before = layer.stats.batches
            for step in range(48):
                layer.invoke_async("client", refs[step % len(refs)],
                                   "append", (step,), ctor=CTOR)
                if step % 11 == 10:
                    layer.flush("client")
            layer.flush("client")
            logs = {ref.key: layer.invoke("client", ref, "snapshot",
                                          ctor=CTOR) for ref in refs}
            return refs, logs, layer.stats.batches - before

        refs, logs, batches = kernel.run_main(main)
    for index, ref in enumerate(refs):
        assert logs[ref.key] == list(range(index, 48, len(refs)))
    # 4 flushes x 3 primaries plus the last one's two (steps 44-47
    # touch objects 8, 0, 1, 2), not one round trip per op (48).
    assert batches == 14


def _submitter_plan(who, steps=24):
    """``(kind, object index)`` steps mixing async, sync and flush."""
    rng = random.Random(f"plan-{who}")
    return [(rng.choice(("async", "async", "sync", "flush")),
             rng.randrange(3)) for _ in range(steps)]


def test_concurrent_submitters_keep_their_order_on_every_object():
    """Two threads on one endpoint, each mixing ``invoke_async``,
    ``invoke`` and ``flush`` over three primaries, under FIFO, random
    and PCT schedules.  Each has its own queue and its barriers wait
    for its own ops only; restricted to one thread, each object's log
    is that thread's all-sync plan for it."""
    for scheduler in (None, RandomScheduler(seed=7, preempt_prob=0.3),
                      PctScheduler(seed=11, depth=3, expected_steps=800)):
        _check_submitters_on_one_endpoint(scheduler)


def _check_submitters_on_one_endpoint(scheduler):
    plans = {who: _submitter_plan(who) for who in "ab"}
    with Kernel(seed=13, scheduler=scheduler) as kernel:
        layer = make_layer(kernel)

        def submitter(who, refs):
            for step, (kind, index) in enumerate(plans[who]):
                if kind == "async":
                    layer.invoke_async("client", refs[index], "append",
                                       ((who, step),), ctor=CTOR)
                elif kind == "sync":
                    layer.invoke("client", refs[index], "append",
                                 ((who, step),), ctor=CTOR)
                else:
                    layer.flush("client")
            layer.flush("client")

        def main():
            placed = spread_refs(layer, primaries=3)
            refs = [group[0] for group in placed.values()]
            threads = [spawn(submitter, who, refs) for who in "ab"]
            for thread in threads:
                thread.join()
            return [layer.invoke("client", ref, "snapshot", ctor=CTOR)
                    for ref in refs]

        logs = kernel.run_main(main)
    for index, log in enumerate(logs):
        for who, plan in plans.items():
            mine = [step for owner, step in log if owner == who]
            assert mine == [step for step, (kind, target) in enumerate(plan)
                            if kind != "flush" and target == index]


# ---------------------------------------------------------------------------
# Cost: max, not sum
# ---------------------------------------------------------------------------


def test_a_flush_over_k_primaries_costs_about_one_round_trip():
    with Kernel(seed=11) as kernel:
        layer = make_layer(kernel)

        def timed_flush(refs):
            start = kernel.now
            futures = [layer.invoke_async("client", ref, "append", (0,),
                                          ctor=CTOR) for ref in refs]
            layer.flush("client")
            assert all(future.done for future in futures)
            return kernel.now - start

        def main():
            placed = spread_refs(layer, primaries=3)
            refs = [group[0] for group in placed.values()]
            one = min(timed_flush(refs[:1]) for _ in range(5))
            three = max(timed_flush(refs) for _ in range(5))
            start = kernel.now
            for ref in refs:
                layer.invoke("client", ref, "append", (0,), ctor=CTOR)
            sequential = kernel.now - start
            return one, three, sequential

        one, three, sequential = kernel.run_main(main)
    # The slowest of three concurrent round trips (5 % jitter per hop),
    # against three round trips when they shipped one after another.
    assert three / one < 1.3
    assert sequential / three > 2.3


def test_a_single_primary_flush_spawns_no_lane():
    """A flush of one object's ops starts no thread: the flushing
    thread ships the batch itself.  Ops on several objects of one
    primary do start lanes, one per extra object
    (tests/dso/test_chains.py)."""
    with Kernel(seed=11) as kernel:
        layer = make_layer(kernel, nodes=1)
        spawned = []
        original = kernel.spawn

        def counting_spawn(target, *args, **kwargs):
            spawned.append(kwargs.get("name"))
            return original(target, *args, **kwargs)

        def main():
            layer.put_async("client", "warm", 0).result()
            kernel.spawn = counting_spawn
            for i in range(8):
                layer.put_async("client", "k", i)
            layer.flush("client")

        kernel.run_main(main)
    assert spawned == []
    assert layer.stats.batches == 2


def test_a_trace_shows_the_groups_of_a_flush_overlapping():
    with Kernel(seed=11) as kernel:
        tracer = kernel.enable_tracing()
        layer = make_layer(kernel)

        def main():
            placed = spread_refs(layer, primaries=3)
            for group in placed.values():
                layer.invoke_async("client", group[0], "append", (0,),
                                   ctor=CTOR)
            layer.flush("client")

        kernel.run_main(main)
    (flush,) = tracer.find("dso.flush")
    assert flush.attributes == {"ops": 3, "groups": 3}
    batches = [span for span in tracer.children_of(flush)
               if span.name == "dso.batch"]
    assert len(batches) == 3
    assert len({span.thread for span in batches}) == 3  # flusher + two lanes
    # Every group is in flight before the first one returns.
    assert max(span.start for span in batches) \
        < min(span.end for span in batches)
    assert flush.end == max(span.end for span in batches)


# ---------------------------------------------------------------------------
# Failure: only the failed group retries, nothing applies twice
# ---------------------------------------------------------------------------


def test_primary_crash_mid_flush_retries_only_its_group(monkeypatch):
    """rf=2 logs on three primaries; one primary dies while its group
    is executing and the other two groups acknowledge.  The survivors'
    ops are never shipped again, the victim's complete at the promoted
    backup, every log holds each acknowledged append exactly once and
    in order — and while the retry runs, the session's watermark stays
    below the victim's unanswered sequence numbers although later ones
    have been acknowledged."""
    with Kernel(seed=17) as kernel:
        layer = make_layer(kernel, nodes=4)

        def main():
            placed = spread_refs(layer, primaries=3, rf=2)
            victim = next(iter(placed))
            refs = [group[0] for group in placed.values()]
            futures = [(refs[step % 3], step, layer.invoke_async(
                            "client", refs[step % 3], "append", (step,),
                            ctor=CTOR))
                       for step in range(12)]
            # This thread's queue on the endpoint.
            pipeline = layer._pipelines["client", current_thread().tid]
            seqs = {op.stamp.seq: op.ref for op in pipeline.pending}
            shipped = []
            ship_group = pipeline_module._ship_group

            def recording(layer, client, primary, group, span):
                shipped.append({op.ref.key for op in group})
                ship_group(layer, client, primary, group, span)

            monkeypatch.setattr(pipeline_module, "_ship_group", recording)
            # Another thread waits on the batch, so it ships it now.
            waiter = spawn(futures[0][2].result)
            sleep(150e-6)  # requests arrived, groups executing: kill one
            layer.crash_node(victim)
            sleep(2e-3)  # the surviving groups have long replied
            session = layer.sessions.current("client")
            mid_retry = (session.acked,
                         {ref for ref, _, future in futures if future.done})
            layer.flush("client")
            waiter.join()
            monkeypatch.setattr(pipeline_module, "_ship_group", ship_group)
            acked: dict = {}
            for ref, step, future in futures:
                future.result()
                acked.setdefault(ref.key, []).append(step)
            logs = {ref.key: layer.invoke("client", ref, "snapshot",
                                          ctor=CTOR) for ref in refs}
            return refs, seqs, shipped, mid_retry, acked, logs

        refs, seqs, shipped, mid_retry, acked, logs = kernel.run_main(main)
    # final == acked, per object, in submission order.
    assert logs == acked == {ref.key: list(range(index, 12, 3))
                             for index, ref in enumerate(refs)}
    # One scatter of three groups, then the victim's group alone.
    assert sorted(map(sorted, shipped[:3])) == sorted([ref.key]
                                                      for ref in refs)
    assert len(shipped) > 3
    assert all(group == {refs[0].key} for group in shipped[3:])
    assert layer.stats.retries == len(shipped) - 3
    assert layer.stats.pipelined_ops == 12
    # Mid-retry: eight of twelve answered, among them seqs above the
    # victim's; the watermark is still below every unanswered one.
    acked_mid_retry, done_mid_retry = mid_retry
    assert done_mid_retry == set(refs[1:])
    victim_seqs = [seq for seq, ref in seqs.items() if ref == refs[0]]
    assert max(seqs) > min(victim_seqs)
    assert acked_mid_retry == min(victim_seqs) - 1


# ---------------------------------------------------------------------------
# Exactly-once under out-of-order acknowledgements
# ---------------------------------------------------------------------------


def test_watermark_never_passes_an_unanswered_seq():
    session = _ClientSession(sid="s")
    stamps = [session.stamp(inflight=True) for _ in range(5)]
    assert [stamp.seq for stamp in stamps] == [0, 1, 2, 3, 4]
    session.acknowledge(3)  # primary B answered first
    session.acknowledge(1)
    assert session.acked == -1  # seq 0 is still being retried
    session.acknowledge(0)
    assert session.acked == 1  # 2 holds it now
    session.abandon(2)  # failed for good: never retransmitted
    assert session.acked == 3
    session.acknowledge(4)
    assert session.acked == 4
    # The synchronous path (nothing in flight) is a plain maximum.
    stamp = session.stamp()
    assert (stamp.seq, stamp.acked) == (5, 4)
    session.acknowledge(stamp.seq)
    assert session.acked == 5


def test_named_sessions_never_acknowledge():
    session = _ClientSession(sid="named:x", named=True)
    stamp = session.stamp(inflight=True)
    session.acknowledge(stamp.seq)
    session.abandon(stamp.seq)
    assert session.acked == -1 and not session._inflight
