"""Unit tests for the Wing & Gong checker on hand-crafted histories."""

import pytest

from repro.errors import ReproError
from repro.linearizability import HistoryRecorder, LinearizabilityChecker, Operation


class Register:
    """Sequential specification of a read/write register."""

    def __init__(self):
        self.value = 0

    def write(self, value):
        self.value = value

    def read(self):
        return self.value


class Counter:
    """Sequential specification of AtomicLong's core."""

    def __init__(self):
        self.value = 0

    def add_and_get(self, delta):
        self.value += delta
        return self.value

    def add_then_raise(self, delta):
        self.value += delta
        raise ValueError(self.value)

    def get(self):
        return self.value

    def compare_and_set(self, expected, update):
        if self.value == expected:
            self.value = update
            return True
        return False


def op(op_id, thread, method, args, result, invoke, response):
    return Operation(op_id=op_id, thread=thread, method=method, args=args,
                     result=result, invoke=invoke, response=response)


def test_empty_history_is_linearizable():
    checker = LinearizabilityChecker(Register)
    assert checker.check([]) is True


def test_sequential_history_linearizable():
    history = [
        op(0, "a", "write", (5,), None, 0.0, 1.0),
        op(1, "a", "read", (), 5, 2.0, 3.0),
    ]
    assert LinearizabilityChecker(Register).check(history) is True


def test_stale_read_after_write_not_linearizable():
    history = [
        op(0, "a", "write", (5,), None, 0.0, 1.0),
        op(1, "b", "read", (), 0, 2.0, 3.0),  # must see 5
    ]
    assert LinearizabilityChecker(Register).check(history) is False


def test_concurrent_write_read_either_value_ok():
    # Read overlaps the write: both 0 and 5 are legal outcomes.
    history_sees_new = [
        op(0, "a", "write", (5,), None, 0.0, 2.0),
        op(1, "b", "read", (), 5, 1.0, 3.0),
    ]
    history_sees_old = [
        op(0, "a", "write", (5,), None, 0.0, 2.0),
        op(1, "b", "read", (), 0, 1.0, 3.0),
    ]
    checker = LinearizabilityChecker(Register)
    assert checker.check(history_sees_new) is True
    assert checker.check(history_sees_old) is True


def test_value_out_of_thin_air_rejected():
    history = [
        op(0, "a", "write", (5,), None, 0.0, 2.0),
        op(1, "b", "read", (), 7, 1.0, 3.0),
    ]
    assert LinearizabilityChecker(Register).check(history) is False


def test_counter_interleaving_found():
    for second in (
        # Two concurrent increments: results 1 and 2 in some order.
        op(1, "b", "add_and_get", (1,), 1, 0.5, 2.5),
        # A recorded raise matches the model's raise: type and args.
        op(1, "b", "add_then_raise", (1,), ("ValueError", (1,)), 0.5, 2.5),
    ):
        history = [op(0, "a", "add_and_get", (1,), 2, 0.0, 3.0), second]
        assert LinearizabilityChecker(Counter).check(history) is True


def test_counter_duplicate_results_rejected():
    for second in (
        # Both increments observing 1 means a lost update.
        op(1, "b", "add_and_get", (1,), 1, 0.5, 2.5),
        # The model raises ValueError(1) or (2): another type, other
        # args, or a value are rejected.
        op(1, "b", "add_then_raise", (1,), ("KeyError", (1,)), 0.5, 2.5),
        op(1, "b", "add_then_raise", (1,), ("ValueError", (3,)), 0.5, 2.5),
        op(1, "b", "add_then_raise", (1,), 1, 0.5, 2.5),
    ):
        history = [op(0, "a", "add_and_get", (1,), 1, 0.0, 3.0), second]
        assert LinearizabilityChecker(Counter).check(history) is False


def test_cas_semantics_checked():
    history = [
        op(0, "a", "compare_and_set", (0, 1), True, 0.0, 1.0),
        op(1, "b", "compare_and_set", (0, 2), True, 2.0, 3.0),  # impossible
    ]
    assert LinearizabilityChecker(Counter).check(history) is False


def test_real_time_order_respected():
    # b's read strictly follows a's +1, so it must see >= 1; seeing 0
    # would require reordering across a real-time gap.
    history = [
        op(0, "a", "add_and_get", (1,), 1, 0.0, 1.0),
        op(1, "b", "get", (), 0, 2.0, 3.0),
    ]
    assert LinearizabilityChecker(Counter).check(history) is False


def test_three_way_concurrency():
    history = [
        op(0, "a", "add_and_get", (1,), 1, 0.0, 10.0),
        op(1, "b", "add_and_get", (1,), 3, 0.0, 10.0),
        op(2, "c", "add_and_get", (1,), 2, 0.0, 10.0),
    ]
    assert LinearizabilityChecker(Counter).check(history) is True


def test_recorder_round_trip():
    clock = iter(float(i) for i in range(100))
    recorder = HistoryRecorder(clock=lambda: next(clock))
    model = Counter()
    recorder.record("t1", "add_and_get", (5,),
                    lambda: model.add_and_get(5))
    recorder.record("t1", "get", (), model.get)
    # A raise is logged as its outcome and propagates; a ReproError
    # (the infrastructure failing) leaves no operation.
    with pytest.raises(ValueError):
        recorder.record("t1", "add_then_raise", (1,),
                        lambda: model.add_then_raise(1))

    def down():
        raise ReproError("node down")

    with pytest.raises(ReproError):
        recorder.record("t1", "add_and_get", (1,), down)
    assert [o.result for o in recorder.operations] == [
        5, 5, ("ValueError", (6,))]
    assert LinearizabilityChecker(Counter).check(recorder.operations)
    recorder.clear()
    assert recorder.operations == []


def test_state_budget_guard():
    checker = LinearizabilityChecker(Counter, max_states=2)
    history = [
        op(i, f"t{i}", "add_and_get", (1,), i + 1, 0.0, 100.0)
        for i in range(8)
    ]
    with pytest.raises(RuntimeError):
        checker.check(history)


def test_explain_mentions_verdict():
    history = [op(0, "a", "write", (5,), None, 0.0, 1.0)]
    text = LinearizabilityChecker(Register).explain(history)
    assert "linearizable: True" in text


# ---------------------------------------------------------------------------
# P-compositionality (per-object partitioning)
# ---------------------------------------------------------------------------


class KvStore:
    """Sequential specification of a keyed register map: the *joint*
    model for multi-object histories whose ops carry the key in args."""

    def __init__(self):
        self.data = {}

    def write(self, key, value):
        self.data[key] = value

    def read(self, key):
        return self.data.get(key, 0)


def keyed(op_id, thread, method, args, result, invoke, response, key):
    return Operation(op_id=op_id, thread=thread, method=method, args=args,
                     result=result, invoke=invoke, response=response,
                     key=key)


def _many_object_history(objects=6):
    """Fully-concurrent 4-op pattern per object; each object forces
    local backtracking (the first read needs the later write), so the
    joint search space is the *product* of per-object spaces while the
    partitioned one is their sum."""
    history = []
    oid = 0
    keys = [f"obj-{i}" for i in range(objects)]
    pattern = [("read", (), 2), ("write", (1,), None),
               ("write", (2,), None), ("read", (), 1)]
    for j, (method, tail, result) in enumerate(pattern):
        for i, key in enumerate(keys):
            history.append(keyed(
                oid, f"t{oid}", method, (key,) + tail, result,
                0.001 * (j * objects + i), 100.0, key))
            oid += 1
    return history


def test_partitioning_tames_joint_state_explosion():
    history = _many_object_history()
    joint = LinearizabilityChecker(KvStore, max_states=5_000,
                                   partition=False)
    with pytest.raises(RuntimeError, match="state budget"):
        joint.check(history)
    partitioned = LinearizabilityChecker(KvStore, max_states=5_000)
    assert partitioned.check(history) is True
    # The whole history checks in well under the per-partition budget.
    assert partitioned.states_explored < 200


def test_cross_object_violation_still_caught_per_object():
    history = [
        keyed(0, "a", "write", ("good", 5), None, 0.0, 1.0, "good"),
        keyed(1, "b", "read", ("good",), 5, 2.0, 3.0, "good"),
        keyed(2, "a", "write", ("bad", 7), None, 0.0, 1.0, "bad"),
        keyed(3, "b", "read", ("bad",), 0, 2.0, 3.0, "bad"),  # stale
    ]
    checker = LinearizabilityChecker(KvStore)
    assert checker.check(history) is False
    text = checker.explain(history)
    assert "linearizable: False for object 'bad'" in text


def test_unkeyed_history_verdicts_unchanged_by_partitioning():
    history = [
        op(0, "a", "add_and_get", (1,), 1, 0.0, 3.0),
        op(1, "b", "add_and_get", (1,), 1, 0.5, 2.5),  # lost update
    ]
    assert LinearizabilityChecker(Counter).check(history) is False
    assert LinearizabilityChecker(
        Counter, partition=False).check(history) is False


# ---------------------------------------------------------------------------
# explain(): minimal counterexample windows
# ---------------------------------------------------------------------------


def test_explain_shrinks_to_offending_window():
    history = [
        keyed(0, "a", "write", ("x", 1), None, 0.0, 0.1, "x"),
        keyed(1, "a", "read", ("x",), 1, 0.2, 0.3, "x"),
        keyed(2, "a", "write", ("x", 2), None, 0.4, 0.5, "x"),
        keyed(3, "a", "read", ("x",), 3, 0.6, 0.7, "x"),  # thin air
    ]
    text = LinearizabilityChecker(KvStore).explain(history)
    assert "linearizable: False" in text
    # The window pinpoints the impossible read, dropping the three
    # unrelated operations.
    assert "minimal unlinearizable window (1 of 4 ops)" in text
    assert "read('x') -> 3" in text


def test_explain_window_contains_all_conflicting_ops():
    # A lost update needs *both* increments to manifest: the window
    # must keep the pair.
    history = [
        op(0, "a", "add_and_get", (1,), 1, 0.0, 3.0),
        op(1, "b", "add_and_get", (1,), 1, 0.5, 2.5),
    ]
    text = LinearizabilityChecker(Counter).explain(history)
    assert "minimal unlinearizable window (2 of 2 ops)" in text
    assert "a: add_and_get(1) -> 1" in text
    assert "b: add_and_get(1) -> 1" in text



def test_long_history_checks_without_recursion():
    """The search is one level deep per linearized op: 2 000 sequential
    ``add_and_get(1)`` calls on one key, from two clients taking turns,
    must not overflow the interpreter's stack."""
    history = [Operation(i, f"c{i % 2}", "add_and_get", (1,), i + 1,
                         float(i), i + 0.5, key="counter")
               for i in range(2000)]
    assert LinearizabilityChecker(Counter).check(history)
    last = history[-1]
    history[-1] = Operation(last.op_id, last.thread, last.method,
                            last.args, last.result + 1, last.invoke,
                            last.response, key=last.key)
    assert not LinearizabilityChecker(Counter).check(history)
