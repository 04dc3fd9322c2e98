"""The facade contract: what ``repro`` exports, and from where.

The facade is the programming model.  Test tooling keeps one import
path, in its own public subpackage; only the watch-order audit the
perf workloads call stays on the facade as well.
"""

import importlib
import pathlib
import re

import pytest

import repro

TOOLING = ("repro.explore", "repro.linearizability")
#: Tooling names the facade still re-exports.
FACADE_TOOLING = {"find_watch_violations", "WatchViolation"}


def test_every_facade_name_resolves():
    missing = [name for name in repro.__all__ if not hasattr(repro, name)]
    assert not missing


def test_facade_reexports_no_other_test_tooling():
    tooling = {name for name in repro.__all__
               if getattr(getattr(repro, name), "__module__", "")
               .startswith(TOOLING)}
    assert tooling == FACADE_TOOLING


@pytest.mark.parametrize("package", TOOLING)
def test_tooling_package_names_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_version_matches_pyproject():
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    match = re.search(r'^version = "([^"]+)"$', pyproject.read_text(),
                      re.MULTILINE)
    assert match and repro.__version__ == match.group(1)
