"""Unit tests for the Santa Claus problem (Fig. 7c)."""

import pytest

from repro import CrucialEnvironment
from repro.coordination import SantaClausProblem


@pytest.fixture
def env():
    with CrucialEnvironment(seed=67, dso_nodes=1) as environment:
        yield environment


def make_problem(deliveries=5):
    return SantaClausProblem(deliveries=deliveries, seed=67)


def test_local_variant_completes_all_deliveries(env):
    result = env.run(lambda: make_problem().run("local"))
    assert result.deliveries == 5
    assert result.elapsed > 0


def test_dso_variant_completes_all_deliveries(env):
    result = env.run(lambda: make_problem().run("dso"))
    assert result.deliveries == 5


def test_cloud_variant_completes_all_deliveries(env):
    result = env.run(lambda: make_problem().run("cloud"))
    assert result.deliveries == 5


@pytest.mark.parametrize("variant", ["local", "dso"])
def test_a_second_run_solves_the_problem_again(env, variant):
    """A default-named run used to find the first run's finished
    workshop and return at once with its stats."""

    def main():
        return [make_problem(deliveries=3).run(variant) for _ in range(2)]

    first, second = env.run(main)
    assert second.deliveries == first.deliveries == 3
    assert second.elapsed > first.elapsed / 2


def test_unknown_variant_rejected(env):
    with pytest.raises(ValueError):
        env.run(lambda: make_problem().run("quantum"))


def test_dso_overhead_is_small(env):
    """Fig. 7c: storing the objects in Crucial costs ~8%."""

    def main():
        problem = make_problem(deliveries=10)
        local = problem.run("local", run_id="cmp-local")
        dso = problem.run("dso", run_id="cmp-dso")
        return local.elapsed, dso.elapsed

    local_time, dso_time = env.run(main)
    overhead = dso_time / local_time - 1.0
    assert -0.05 < overhead < 0.35


def test_elves_get_helped(env):
    def main():
        problem = SantaClausProblem(deliveries=8, seed=67,
                                    vacation_mean=0.5, work_mean=0.02)
        return problem.run("local")

    result = env.run(main)
    # With slow reindeer and eager elves, Santa must help some groups.
    assert result.helps > 0


def test_deterministic_repetition():
    def run_once():
        with CrucialEnvironment(seed=71, dso_nodes=1) as env:
            return env.run(lambda: make_problem().run("dso")).elapsed

    assert run_once() == run_once()
