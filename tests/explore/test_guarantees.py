"""The contract, checked: every guarantee's hunts, mutants and README row.

* **caught** — each planted mutant is found by its hunt at base seed 42
  within its trial budget, and the first failure names the oracle
  that must notice it;
* **quiet** — with nothing planted, every hunt passes its quiet budget
  at each exploration base seed (``EXPLORE_SEED`` narrows the matrix;
  failing schedules go to ``EXPLORE_ARTIFACT_DIR`` when set);
* **closed registry** — the mutants ``src/`` tests for are exactly the
  declared ones, each declared once, and every pinning path exists;
* README's guarantees block is ``render(GUARANTEES)``.
"""

import collections
import os
import pathlib
import re

import pytest

from repro.mutation import PLANTED
from tests.explore.guarantees import (
    GUARANTEES,
    HUNTS,
    MUTANTS,
    mutation,
    render,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_caught(name):
    hunt, mutant = MUTANTS[name]
    with mutation(name):
        report = hunt.explore(trials=mutant.trials, base_seed=42,
                              preempt_prob=mutant.preempt_prob,
                              shrink=False)
    assert not PLANTED
    assert report.failures, (
        f"planted {name!r} not found by hunt {hunt.name!r} within "
        f"{mutant.trials} trials:\n" + report.summary())
    first = report.failures[0]
    for oracle in mutant.oracles:
        assert any(oracle in p for p in first.problems), first.describe()
    # Every failure carries its reproduction handle.
    for failing in report.failures:
        assert failing.schedule_id
        assert failing.schedule.decisions


@pytest.mark.parametrize("hunt", HUNTS, ids=lambda hunt: hunt.name)
def test_quiet(hunt, explore_seed):
    base = os.environ.get("EXPLORE_ARTIFACT_DIR")
    artifact_dir = (os.path.join(base, f"{hunt.name}-seed{explore_seed}")
                    if base else None)
    report = hunt.explore(trials=hunt.trials, base_seed=explore_seed,
                          preempt_prob=hunt.preempt_prob,
                          artifact_dir=artifact_dir)
    assert report.ok, report.summary()
    assert len(report.results) == hunt.trials


def test_closed_registry():
    tested = set()
    for path in (ROOT / "src").rglob("*.py"):
        tested |= set(re.findall(r'"([\w-]+)" (?:not )?in PLANTED',
                                 path.read_text()))
    assert tested == set(MUTANTS)
    declared = collections.Counter(
        mutant.name for row in GUARANTEES for hunt in row.hunts
        for mutant in hunt.mutants)
    assert all(count == 1 for count in declared.values()), declared
    assert len({row.id for row in GUARANTEES}) == len(GUARANTEES)
    assert len({hunt.name for hunt in HUNTS}) == len(HUNTS)
    missing = [path for row in GUARANTEES for path in row.pinned_by
               if not (ROOT / path).exists()]
    assert not missing, missing


def test_readme_table_is_rendered():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^<!-- guarantees -->$.*?^<!-- /guarantees -->$",
                      readme, re.M | re.S)
    assert block, "README has no <!-- guarantees --> block"
    assert block.group(0) == render(GUARANTEES), (
        "README's guarantees table is stale; regenerate it with "
        "PYTHONPATH=src python -m tests.explore.guarantees")
