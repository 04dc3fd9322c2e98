"""Property test: DSO shared objects produce linearizable histories.

This is the paper's Section 3.1 guarantee, checked end-to-end: many
cloud-side threads hammer one shared object through the full stack
(proxy -> network -> primary -> SMR replicas) and the recorded
concurrent history must admit a legal linearization.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AtomicLong, CrucialEnvironment, SharedMap
from repro.linearizability import (
    CounterModel,
    HistoryRecorder,
    LinearizabilityChecker,
)
from repro.simulation.thread import spawn


class MapSpec:
    def __init__(self):
        self.items = {}

    def put(self, key, value):
        previous = self.items.get(key)
        self.items[key] = value
        return previous

    def get(self, key, default=None):
        return self.items.get(key, default)

    def merge(self, key, value, fn=None):
        if key not in self.items:
            self.items[key] = value
        else:
            self.items[key] = self.items[key] + value
        return self.items[key]


OPS = st.sampled_from(["add", "get", "cas"])


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=9999),
    plans=st.lists(st.lists(OPS, min_size=1, max_size=3),
                   min_size=2, max_size=4),
    rf=st.sampled_from([1, 2]),
)
def test_atomic_long_histories_linearizable(seed, plans, rf):
    with CrucialEnvironment(seed=seed, dso_nodes=3) as env:
        recorder = HistoryRecorder(clock=lambda: env.kernel.now)

        def main():
            counter = AtomicLong("hot", 0, persistent=rf > 1,
                                 rf=rf if rf > 1 else None)
            counter.get()  # force creation before concurrency starts

            def worker(tid, plan):
                for index, op in enumerate(plan):
                    if op == "add":
                        recorder.record(
                            f"t{tid}", "add_and_get", (1,),
                            lambda: counter.add_and_get(1))
                    elif op == "get":
                        recorder.record(f"t{tid}", "get", (), counter.get)
                    else:
                        expected = index + tid
                        recorder.record(
                            f"t{tid}", "compare_and_set",
                            (expected, expected + 1),
                            lambda e=expected:
                            counter.compare_and_set(e, e + 1))

            threads = [spawn(worker, tid, plan)
                       for tid, plan in enumerate(plans)]
            for t in threads:
                t.join()

        env.run(main)
        checker = LinearizabilityChecker(CounterModel)
        assert checker.check(recorder.operations), \
            checker.explain(recorder.operations)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=9999))
def test_shared_map_histories_linearizable(seed):
    with CrucialEnvironment(seed=seed, dso_nodes=2) as env:
        recorder = HistoryRecorder(clock=lambda: env.kernel.now)

        def main():
            table = SharedMap("table")
            table.get("warm")  # force creation

            def worker(tid):
                recorder.record(f"t{tid}", "put", ("k", tid),
                                lambda: table.put("k", tid))
                recorder.record(f"t{tid}", "merge", ("sum", 1, None),
                                lambda: table.merge("sum", 1))
                recorder.record(f"t{tid}", "get", ("k", None),
                                lambda: table.get("k"))

            threads = [spawn(worker, tid) for tid in range(3)]
            for t in threads:
                t.join()

        env.run(main)
        checker = LinearizabilityChecker(MapSpec)
        assert checker.check(recorder.operations), \
            checker.explain(recorder.operations)


def test_contended_counter_total_is_exact():
    """No lost updates under contention (wait-free linearizable adds)."""
    with CrucialEnvironment(seed=5, dso_nodes=2) as env:
        def main():
            counter = AtomicLong("exact")

            def worker():
                for _ in range(25):
                    counter.add_and_get(1)

            threads = [spawn(worker) for _ in range(8)]
            for t in threads:
                t.join()
            return counter.get()

        assert env.run(main) == 200
