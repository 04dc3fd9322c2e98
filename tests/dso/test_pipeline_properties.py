"""Property-based tests: batched async shipping is order-transparent.

Whatever mix of ``invoke_async`` and ``flush`` a client issues — and
however the schedule-exploration scheduler interleaves the pump thread
with the submitter — the object ends in exactly the state a purely
sequential ``invoke`` stream would have produced.  Batching may merge
round trips, but it must never reorder ops within a session.  With
several objects spread over primaries a flush ships its per-primary
groups concurrently; what must hold then is the per-object contract:
every object's log is the sequential plan's.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dso import DsoLayer, DsoReference
from repro.explore import PctScheduler, RandomScheduler
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from repro.simulation.thread import spawn


class Log:
    """Order-sensitive state machine: a strictly appended log."""

    def __init__(self):
        self.entries = []

    def append(self, entry):
        self.entries.append(entry)
        return len(self.entries)

    def snapshot(self):
        return list(self.entries)


REF = DsoReference("Log", "log", persistent=True, rf=2)
CTOR = (Log, (), {})

#: One client step: ship asynchronously, ship synchronously, or drain.
STEP = st.sampled_from(["async", "sync", "flush"])


def _run_plan(client_plans, scheduler=None, endpoint=None):
    """Execute per-client step plans, one thread each; return the
    object's final log.  Each thread ships from the endpoint named
    after its client, or — with ``endpoint`` — all from that one."""
    with Kernel(seed=5, scheduler=scheduler) as kernel:
        network = Network(kernel, LatencyModel(0.0001))
        layer = DsoLayer(kernel, network)
        for _ in range(2):
            layer.add_node()

        def client_thread(client, steps):
            source = endpoint or client
            value = 0
            for step in steps:
                if step == "async":
                    layer.invoke_async(source, REF, "append",
                                       ((client, value),), ctor=CTOR)
                    value += 1
                elif step == "sync":
                    layer.invoke(source, REF, "append",
                                 ((client, value),), ctor=CTOR)
                    value += 1
                else:
                    layer.flush(source)
            layer.flush(source)

        def main():
            threads = [spawn(client_thread, client, steps)
                       for client, steps in client_plans.items()]
            for t in threads:
                t.join()
            return layer.invoke("auditor", REF, "snapshot", ctor=CTOR)

        return kernel.run_main(main)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 9999),
       steps=st.lists(STEP, min_size=1, max_size=12))
def test_single_session_matches_sequential_invoke(seed, steps):
    """One client: any async/flush interleaving produces the *exact*
    final log of the all-sync plan, under FIFO and random schedules."""
    sequential = _run_plan(
        {"c1": ["sync" if s == "async" else s for s in steps]})
    mixed_fifo = _run_plan({"c1": steps})
    mixed_random = _run_plan(
        {"c1": steps},
        scheduler=RandomScheduler(seed=seed, preempt_prob=0.25))
    assert mixed_fifo == sequential
    assert mixed_random == sequential


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 9999),
       steps_a=st.lists(STEP, min_size=1, max_size=8),
       steps_b=st.lists(STEP, min_size=1, max_size=8))
def test_concurrent_sessions_keep_per_session_order(seed, steps_a, steps_b):
    """Two concurrent clients: the merged log restricted to either
    session is that session's submission order — batching never
    reorders within a session, whatever the global interleaving."""
    log = _run_plan({"a": steps_a, "b": steps_b},
                    scheduler=RandomScheduler(seed=seed, preempt_prob=0.25))
    _assert_each_session_in_order(log, steps_a, steps_b)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 9999),
       steps_a=st.lists(STEP, min_size=1, max_size=8),
       steps_b=st.lists(STEP, min_size=1, max_size=8))
def test_threads_sharing_an_endpoint_keep_their_own_order(seed, steps_a,
                                                          steps_b):
    """Two threads on *one* endpoint: each has its own queue, and its
    barriers wait for its own ops only — yet under random and PCT
    schedules each thread's ops still land in its submission order."""
    for scheduler in (RandomScheduler(seed=seed, preempt_prob=0.25),
                      PctScheduler(seed=seed, depth=3, expected_steps=200)):
        log = _run_plan({"a": steps_a, "b": steps_b}, scheduler=scheduler,
                        endpoint="shared")
        _assert_each_session_in_order(log, steps_a, steps_b)


def _assert_each_session_in_order(log, steps_a, steps_b):
    for client, steps in (("a", steps_a), ("b", steps_b)):
        ops = sum(1 for s in steps if s != "flush")
        mine = [value for owner, value in log if owner == client]
        assert mine == list(range(ops))
    assert len(log) == sum(1 for s in steps_a + steps_b if s != "flush")


# ---------------------------------------------------------------------------
# Several objects over three primaries: per-object order
# ---------------------------------------------------------------------------

#: Two logs on each primary of a three-node deployment.
SPREAD = [DsoReference("Log", f"log-{i}", persistent=True, rf=2)
          for i in (0, 2, 6, 3, 4, 7)]

#: (step kind, object index).
SPREAD_STEP = st.tuples(STEP, st.integers(0, len(SPREAD) - 1))


def _run_spread_plan(steps, scheduler=None):
    """One client over :data:`SPREAD`; returns every object's log."""
    with Kernel(seed=5, scheduler=scheduler) as kernel:
        network = Network(kernel, LatencyModel(0.0001))
        layer = DsoLayer(kernel, network)
        for _ in range(3):
            layer.add_node()

        def main():
            for ref in SPREAD:
                layer.invoke("c1", ref, "snapshot", ctor=CTOR)
            assert len({layer.placement_of(ref)[0] for ref in SPREAD}) == 3
            for value, (step, index) in enumerate(steps):
                if step == "async":
                    layer.invoke_async("c1", SPREAD[index], "append",
                                       (value,), ctor=CTOR)
                elif step == "sync":
                    layer.invoke("c1", SPREAD[index], "append", (value,),
                                 ctor=CTOR)
                else:
                    layer.flush("c1")
            layer.flush("c1")
            return [layer.invoke("auditor", ref, "snapshot", ctor=CTOR)
                    for ref in SPREAD]

        return kernel.run_main(main)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 9999),
       steps=st.lists(SPREAD_STEP, min_size=1, max_size=24))
def test_scattered_flushes_keep_per_object_order(seed, steps):
    """Keys interleaved over three primaries: under FIFO, random and
    PCT schedules every object ends with the log the all-sync plan
    gives it — scatter never reorders ops on one object, and a sync op
    or a flush is a barrier for the async ops before it."""
    sequential = _run_spread_plan(
        [("sync" if step == "async" else step, index)
         for step, index in steps])
    assert _run_spread_plan(steps) == sequential
    assert _run_spread_plan(steps, scheduler=RandomScheduler(
        seed=seed, preempt_prob=0.25)) == sequential
    assert _run_spread_plan(steps, scheduler=PctScheduler(
        seed=seed, depth=3, expected_steps=300)) == sequential
