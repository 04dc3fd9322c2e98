"""The znode sequential spec, and keeper histories checked against it.

First a lockstep audit: the live ``_KeeperTree`` and the
:class:`~repro.linearizability.znode.ZnodeModel` replay the same op
sequence — including every error path — and must agree bit-for-bit
(errors are compared as ``("err", <class>)`` sentinels, exactly what
the recorded history carries).  Then the real service records a
concurrent history through the full DSO stack and the Wing & Gong
checker must find a legal linearization.
"""

from dataclasses import replace

from repro import (
    CrucialEnvironment,
    KeeperService,
    NodeExistsError,
    NoNodeError,
)
from repro.coordination.keeper import _KeeperTree
from repro.linearizability import (
    HistoryRecorder,
    LinearizabilityChecker,
    ZnodeModel,
)
from repro.simulation.thread import sleep, spawn

#: One op per line: (method, args).  Exercises every result shape and
#: every error precedence branch the model must mirror.
SCRIPT = [
    ("create_session", ("s1", 5.0, 0.0)),
    ("create_session", ("s2", 5.0, 0.0)),
    ("create_session", ("s1", 5.0, 0.0)),      # KeeperError: duplicate
    ("create", ("/a", 1, "s1", False, False)),
    ("create", ("/a", 2, "s2", False, False)),  # NodeExistsError
    ("create", ("/a/q", None, "s1", False, False)),
    ("create", ("/a/q/j-", "x", "s1", False, True)),
    ("create", ("/a/q/j-", "y", "s2", False, True)),
    ("create", ("/a/e", "tmp", "s2", True, False)),
    ("create", ("/a/e/child", None, "s2", False, False)),  # under eph
    ("create", ("/nope/child", None, "s1", False, False)),  # NoNode
    ("get", ("/a", "s1", False)),
    ("get", ("/missing", "s1", False)),          # NoNodeError
    ("set", ("/a", 10, -1, "s1")),
    ("set", ("/a", 20, 0, "s2")),                # BadVersionError
    ("set", ("/a", 20, 1, "s2")),
    ("delete", ("/a", -1, "s1")),                # NotEmptyError
    ("delete", ("/a/q/j-" + "0" * 10, 1, "s1")),  # BadVersionError
    ("delete", ("/a/q/j-" + "0" * 10, 0, "s1")),
    ("exists", ("/a/e", "s2", False)),
    ("exists", ("/gone", "s2", False)),
    ("children", ("/a", "s1", False)),
    ("children", ("/missing", "s1", False)),     # NoNodeError
    ("touch", (("s2", ), 3.0)),
    ("expire_sessions", (7.9, )),                # s1 lapsed, s2 alive
    ("create", ("/b", None, "s1", False, False)),  # SessionExpired
    ("get", ("/missing", "s1", False)),  # session beats node lookup
    ("touch", (("s1", "s2"), 4.0)),              # s1 gone: None; s2 renewed
    ("close_session", ("s2", )),
    ("close_session", ("s2", )),                 # idempotent: ()
    ("exists", ("/a/e", None, False)),           # ephemeral reaped
]


def replay(target):
    results = []
    for method, args in SCRIPT:
        try:
            results.append(getattr(target, method)(*args))
        except Exception as exc:  # noqa: BLE001 - sentinel compare
            results.append(("err", type(exc).__name__))
    return results


def test_model_matches_live_tree_in_lockstep():
    tree_results = replay(_KeeperTree())
    model_results = replay(ZnodeModel())
    for (method, args), live, model in zip(SCRIPT, tree_results,
                                           model_results):
        assert live == model, \
            f"{method}{args}: tree={live!r} model={model!r}"
    # A batched touch names the gone session and renews its batch-mate.
    assert tree_results[SCRIPT.index(
        ("touch", (("s1", "s2"), 4.0)))] == (None, 9.0)
    # The script really exercised the error paths.
    errors = [r[1] for r in tree_results
              if isinstance(r, tuple) and len(r) == 2
              and r[0] == "err"]
    assert set(errors) == {
        "KeeperError", "NodeExistsError", "NoNodeError",
        "BadVersionError", "NotEmptyError", "SessionExpiredError"}


def test_recorded_concurrent_history_is_linearizable():
    """Concurrent sessions race creates/sets/deletes through the full
    DSO stack; the recorded history (errors included) must admit a
    legal linearization against the znode model."""
    with CrucialEnvironment(seed=3, dso_nodes=3) as env:
        recorder = HistoryRecorder(clock=lambda: env.kernel.now)

        def main():
            keeper = KeeperService(name="lin", rf=2, session_ttl=60.0,
                                   recorder=recorder)
            with keeper.session(name="w0") as s0, \
                    keeper.session(name="w1") as s1, \
                    keeper.session(name="w2") as s2:
                s0.create("/r")

                def worker(session, tid):
                    for i in range(4):
                        try:
                            session.create(f"/r/shared-{i}", data=tid)
                        except NodeExistsError:
                            try:
                                session.set(f"/r/shared-{i}", tid)
                            except NoNodeError:
                                pass  # its owner deleted it in between
                        session.create("/r/item-", data=tid,
                                       sequential=True)
                        if tid == i:
                            try:
                                session.delete(f"/r/shared-{i}")
                            except NoNodeError:
                                pass
                        sleep(0.01)

                threads = [spawn(worker, session, tid)
                           for tid, session in enumerate((s0, s1, s2))]
                for thread in threads:
                    thread.join()
            keeper.stop()

        env.run(main)

    history = recorder.operations
    assert len(history) > 30
    checker = LinearizabilityChecker(ZnodeModel)
    assert checker.check(history), checker.explain(history)


def test_mutated_history_is_rejected():
    """Sanity on the spec's teeth: swap two zxid results and the
    checker must refuse the history."""
    with CrucialEnvironment(seed=5, dso_nodes=1) as env:
        recorder = HistoryRecorder(clock=lambda: env.kernel.now)

        def main():
            keeper = KeeperService(name="teeth", rf=1, session_ttl=60.0,
                                   recorder=recorder)
            with keeper.session(name="s") as s:
                s.create("/x", data=0)
                s.set("/x", 1)
                # Real time must separate the two writes: abutting
                # intervals would let the checker legally reorder them.
                sleep(0.01)
                s.set("/x", 2)
            keeper.stop()

        env.run(main)

    history = list(recorder.operations)
    sets = [op for op in history if op.method == "set"]
    assert len(sets) == 2
    a, b = sets
    swapped = [replace(op, result=b.result) if op is a
               else replace(op, result=a.result) if op is b
               else op
               for op in history]
    checker = LinearizabilityChecker(ZnodeModel)
    assert not checker.check(swapped)
