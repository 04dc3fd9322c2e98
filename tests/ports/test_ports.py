"""Both variants of every ported application run and agree.

Table 4's claim is only meaningful if the paired programs are real:
these tests execute the local and the Crucial variant of each port and
check they compute the same thing.
"""

import math

import pytest

from repro import CrucialEnvironment
from repro.ports import (
    common,
    kmeans_crucial,
    kmeans_local,
    logreg_crucial,
    logreg_local,
    montecarlo_crucial,
    montecarlo_local,
    santa_crucial,
    santa_local,
)


@pytest.fixture
def env():
    with CrucialEnvironment(seed=73, dso_nodes=1) as environment:
        yield environment


def test_montecarlo_variants_agree(env):
    local = env.run(lambda: montecarlo_local.estimate_pi(
        6, counter_key="mc-local"))
    crucial = env.run(lambda: montecarlo_crucial.estimate_pi(
        6, counter_key="mc-crucial"))
    assert local == pytest.approx(math.pi, abs=0.01)
    assert crucial == pytest.approx(math.pi, abs=0.01)


def test_kmeans_variants_agree(env):
    local = env.run(lambda: kmeans_local.run_kmeans(
        4, run_id="kml"))
    crucial = env.run(lambda: kmeans_crucial.run_kmeans(
        4, run_id="kmc"))
    assert len(local) == 3
    # Same seeds, same math, same aggregation order => same deltas.
    assert local == pytest.approx(crucial)


def test_logreg_variants_agree(env):
    local = env.run(lambda: logreg_local.run_logreg(4, run_id="lrl"))
    crucial = env.run(lambda: logreg_crucial.run_logreg(4, run_id="lrc"))
    assert len(local) == 5
    assert local[-1] < local[0]
    assert local == pytest.approx(crucial)


def test_santa_variants_complete(env):
    local = env.run(lambda: santa_local.solve(deliveries=5,
                                              run_id="sl"))
    crucial = env.run(lambda: santa_crucial.solve(deliveries=5,
                                                  run_id="sc"))
    assert local["delivered"] == 5
    assert crucial["delivered"] == 5


def test_local_registry_shares_by_key(env):
    def main():
        a = common.LocalAtomicLong("same")
        b = common.LocalAtomicLong("same")
        a.add_and_get(3)
        return b.get()

    assert env.run(main) == 3


def test_local_objects_die_with_their_kernel():
    """A fresh environment starts with fresh local objects: the second
    run's counter does not add to the first's."""
    estimates = []
    for _ in range(2):
        with CrucialEnvironment(seed=73, dso_nodes=1) as env:
            estimates.append((
                env.run(lambda: montecarlo_local.estimate_pi(6)),
                env.run(lambda: montecarlo_crucial.estimate_pi(6))))
    assert estimates[0] == estimates[1]
    assert estimates[0][0] == pytest.approx(math.pi, abs=0.01)


def test_local_twins_never_reach_the_dso_layer(env):
    """The DSO-only verbs a twin inherits from its proxy class refuse,
    instead of touching (or creating) a DSO object under its key."""
    def main():
        counter = common.LocalAtomicLong("twin")
        counter.add_and_get(5)
        for verb in (counter.delete, lambda: counter.invoke_async("get")):
            with pytest.raises(NotImplementedError):
                verb()
        return counter.get()

    assert env.run(main) == 5
    assert env.dso.stats.invocations == 0


def test_local_shared_ignores_persistence_flags(env):
    from repro.ports.kmeans_objects import GlobalDelta

    def main():
        obj = common.local_shared(GlobalDelta, "d", persistent=True,
                                  rf=2)
        obj.update(1.0)
        return obj.last()

    assert env.run(main) == 1.0
    assert env.dso.stats.invocations == 0


def test_diff_counts_are_small():
    from repro.harness.table4_loc import PAIRS, count_changes

    for name, (local_module, crucial_module) in PAIRS.items():
        total, changed = count_changes(local_module, crucial_module)
        assert changed <= 8, name
        assert total > 30, name
