"""Table 2: 1 KB access latency across the five storage systems."""

import pytest

from conftest import run_archived
from repro.harness import table2_latency


def test_table2_latency(benchmark):
    result, _report = run_archived(benchmark, "table2")

    for system, (paper_put, paper_get) in table2_latency.PAPER.items():
        put, get = result.averages[system]
        assert put == pytest.approx(paper_put, rel=0.15), system
        assert get == pytest.approx(paper_get, rel=0.15), system
    # Order-of-magnitude separation: S3 vs in-memory systems.
    assert result.averages["s3"][1] > 10 * result.averages["crucial"][1]
    # Replication roughly doubles latency.
    ratio = (result.averages["crucial-rf2"][1]
             / result.averages["crucial"][1])
    assert 1.8 < ratio < 2.6
