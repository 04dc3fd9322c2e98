"""Every experiment, checked against the claims its harness declares.

One case per ``repro.__main__.EXPERIMENTS`` entry (``-k`` selects):
archive the report, write the ``BENCH_*.json`` the harness's
``bench(result)`` fills, record every claim's measured value in
``benchmarks/out/claims/<name>.json``, and fail naming each claim whose
bound the measurement misses.
"""

import json

import pytest

from conftest import run_archived
from repro.__main__ import EXPERIMENTS, OUT_DIR


def _write_json(path, data) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n")


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment(benchmark, name):
    module, spec = EXPERIMENTS[name]
    result, report = run_archived(benchmark, name)
    if "bench" in spec:
        _write_json(OUT_DIR / f"{spec['bench']}.json", module.bench(result))
    measured = {claim.id: claim.value(result) for claim in module.CLAIMS}
    _write_json(OUT_DIR / "claims" / f"{name}.json", measured)
    missed = [claim.id for claim in module.CLAIMS
              if claim.verdict(measured[claim.id]) == "FAIL"]
    assert not missed, f"claims missed: {', '.join(missed)}\n{report}"
