"""Every example script runs to completion and self-checks.

The examples double as executable documentation; these tests keep
them from rotting.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"

EXAMPLES = sorted(path.stem for path in EXAMPLES_DIR.glob("*.py"))


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys):
    module = load_example(name)
    result = module.main()  # each main() asserts its own correctness
    assert result is not None
    out = capsys.readouterr().out
    assert out.strip()  # examples narrate what they did
