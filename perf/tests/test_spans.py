import pytest

import harness
import spans
from workloads import WORKLOADS


def make(span_id, parent, thread, layer, start, end, weight=1):
    span = spans.Span(span_id, parent, thread, layer, layer, start, end)
    span.weight = weight
    return span


def test_self_time_is_span_minus_union_of_children():
    tree = [
        make(1, 0, 1, "op", 0.0, 10.0),
        make(2, 1, 1, "dso", 1.0, 9.0),
        make(3, 2, 1, "net", 2.0, 4.0),
        make(4, 2, 1, "net", 6.0, 8.0),
        # Another thread's child runs concurrently: never subtracted.
        make(5, 2, 2, "thread", 1.0, 9.0),
        make(6, 5, 2, "net", 1.0, 9.0),
    ]
    result = spans.analyze(tree)
    assert result.ops == 1
    assert result.op_seconds == 10.0
    assert result.in_ops == {"app": 2.0, "dso": 4.0, "net": 4.0}
    assert sum(result.in_ops.values()) == result.op_seconds
    assert result.total["net"] == 12.0
    assert {s.request for s in tree} == {1}


def test_children_are_clipped_to_the_op_interval():
    # A watcher blocked in next_event before the update was issued.
    tree = [
        make(1, 0, 1, "op", 5.0, 8.0),
        make(2, 1, 1, "coordination", 0.0, 8.0),
    ]
    result = spans.analyze(tree)
    assert result.in_ops == {"app": 0.0, "coordination": 3.0}


def test_weighted_op_counts_as_that_many_operations():
    tree = [
        make(1, 0, 1, "op", 0.0, 2.0, weight=16),
        make(2, 1, 1, "dso", 0.0, 2.0),
    ]
    result = spans.analyze(tree)
    assert result.ops == 16
    assert result.op_seconds == 32.0
    assert result.in_ops["dso"] == 32.0


def test_mark_op_adopts_only_overlapping_calls():
    recorder = spans.SpanRecorder()
    clock = [0.0]
    recorder._clock = lambda: clock[0]
    before = recorder._begin("dso", "early")
    clock[0] = 1.0
    recorder._end(before)
    inside = recorder._begin("net", "inside")
    clock[0] = 2.0
    recorder._end(inside)
    recorder.mark_op("read", 1.0, 2.0)
    op = recorder.spans[-1]
    assert inside.parent == op.id
    assert before.parent == 0
    assert spans.analyze(recorder.spans).in_ops == {"app": 0.0, "net": 1.0}


def test_promote_threads_turns_request_threads_into_ops():
    tree = [
        make(1, 0, 1, "workload", 0.0, 9.0),
        make(2, 1, 2, "thread", 1.0, 3.0),
        make(3, 2, 2, "dso", 1.0, 3.0),
    ]
    tree[0].name = "OpenLoopGenerator.run"
    tree.append(make(5, 0, 4, "thread", 0.0, 9.0))  # not the generator's
    spans.promote_threads(tree, "OpenLoopGenerator.run", "request")
    result = spans.analyze(tree)
    assert result.ops == 1
    assert result.in_ops == {"app": 0.0, "dso": 2.0}


def test_wrappers_are_fully_restored_and_the_layer_table_adds_up():
    workload = WORKLOADS["forkjoin_iter"]
    state = workload.setup(workload.inputs(3))
    try:
        env = state.env
        kernel = type(env.kernel)
        owners = [(kernel, "schedule_wakeup"), (kernel, "call_later"),
                  (kernel, "spawn")]
        owners += [(o, a) for o, a, _layer in spans.entry_points(env)]
        originals = {(o, a): o.__dict__.get(a) for o, a in owners}
        harness.assert_untraced(env)

        recorder = spans.SpanRecorder()
        recorder.install(env)
        assert spans.installed()
        with pytest.raises(RuntimeError, match="wrapped"):
            harness.assert_untraced(env)
        with pytest.raises(RuntimeError):
            spans.SpanRecorder().install(env)
        outcome = workload.run(state)
        recorder.uninstall()

        assert not spans.installed()
        assert {(o, a): o.__dict__.get(a) for o, a in owners} == originals
        harness.assert_untraced(env)
    finally:
        workload.close(state)

    result = spans.analyze(recorder.spans)
    latency = sum(end - start for _k, start, end, _ok in outcome.ops)
    assert result.ops == len(outcome.ops) == 1024
    assert sum(result.in_ops.values()) == pytest.approx(latency, rel=1e-9)
    assert recorder.counts["simulation.spawns"] == 33
    assert recorder.counts["faas.calls"] == 32
