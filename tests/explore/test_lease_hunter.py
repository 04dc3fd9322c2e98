"""Hunter for lease revocation (``DsoNode._revoke_leases`` in
:mod:`repro.dso.server`).

A write posts an invalidation to every lease holder at once and may
acknowledge only after the *last* one has landed: until then a holder
can still serve the old value from its cache.  The planted
``"revoke-first-arrival"`` mutation (:mod:`repro.mutation`) wakes the
writer at the first arrival instead.  Two holders sit on links of
different latency, re-reading a key from their lease caches while one
site writes it, by synchronous puts and by flushed runs of same-key
``put_async``; the oracle is linearizability of the recorded history —
a cached read that starts after a write acked and returns the value
before it has no linearization.  The planted ``"refresh-in-revocation"``
mutation makes the invalidation install the new snapshot instead (an
update, not an invalidate): ``near`` then serves the new value while
``far`` still serves the old one, also with no linearization.  The
hunter must catch each mutant within a bounded trial budget and stay
quiet without them.
"""

import dataclasses
import random

from repro import ExplorationRunner, LinearizabilityChecker
from repro.config import DEFAULT_CONFIG
from repro.mutation import mutation
from repro.net import LatencyModel
from repro.simulation.thread import sleep, spawn

TRIALS = 4  # bounded budget: the planted bug must surface within these

#: A short lease keeps a (safe) wait-out cheap: under an exploring
#: scheduler a delivery timer tied with the writer's wakeup may run
#: after it, and that holder is then waited out to its expiry.
CONFIG = dataclasses.replace(
    DEFAULT_CONFIG,
    dso=dataclasses.replace(DEFAULT_CONFIG.dso, lease_ttl=10e-3))
FAR_HOP = 450e-6  # node -> "far"; "near" keeps the 100 us client hop
READ_GAP = 30e-6
ROUNDS = 6


class SlotSpec:
    """Sequential model of a ``KvSlot`` created with value 0."""

    def __init__(self):
        self.value = 0

    def set(self, value):
        self.value = value

    def get(self):
        return self.value


def lease_workload(trial):
    rnd = random.Random(trial.seed)
    with trial.environment(dso_nodes=1, read_cache=True,
                           config=CONFIG) as env:
        layer, recorder = env.dso, trial.recorder
        (node_name,) = layer.nodes
        done = []

        def reader(name):
            while not done:
                recorder.record(name, "get", (),
                                lambda: layer.get(name, "hot"), key="hot")
                sleep(READ_GAP)

        def write_round(base):
            invoke = env.now
            if rnd.random() < 0.5:
                layer.put("writer", "hot", base)
                recorder.add("writer", "set", (base,), None, invoke,
                             env.now, key="hot")
                return
            values = [base + i for i in range(3)]
            futures = [layer.put_async("writer", "hot", value)
                       for value in values]
            layer.flush("writer")
            for value, future in zip(values, futures):
                future.result()
                recorder.add("writer", "set", (value,), None, invoke,
                             env.now, key="hot")

        def main():
            layer.put("writer", "hot", 0)
            for name in ("near", "far"):
                layer.get(name, "hot")
            env.network.set_link(node_name, "far",
                                 LatencyModel(FAR_HOP, sigma=0.05),
                                 symmetric=False)
            threads = [spawn(reader, name, name=name)
                       for name in ("near", "far")]
            for round_ in range(1, ROUNDS + 1):
                sleep(rnd.uniform(200e-6, 900e-6))
                write_round(10 * round_)
            sleep(1e-3)
            done.append(True)
            for thread in threads:
                thread.join()

        env.run(main)


def explore():
    return ExplorationRunner(
        lease_workload, trials=TRIALS, base_seed=42, scheduler="random",
        scheduler_opts={"preempt_prob": 0.05},
        checker=LinearizabilityChecker(SlotSpec), shrink=False).run()


def test_hunter_finds_a_write_acked_before_its_last_invalidation():
    with mutation("revoke-first-arrival"):
        report = explore()
    assert report.failures, (
        f"planted revocation bug not found within {TRIALS} trials:\n"
        + report.summary())
    assert any("not linearizable" in p
               for p in report.failures[0].problems), \
        report.failures[0].describe()


def test_hunter_finds_a_revocation_that_installs_the_new_value():
    with mutation("refresh-in-revocation"):
        report = explore()
    assert report.failures, (
        f"planted one-phase update not found within {TRIALS} trials:\n"
        + report.summary())
    assert any("not linearizable" in p
               for p in report.failures[0].problems), \
        report.failures[0].describe()


def test_lease_hunter_is_quiet_when_writes_wait_for_every_holder():
    report = explore()
    assert report.ok, report.summary()
