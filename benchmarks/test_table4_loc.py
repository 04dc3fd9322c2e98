"""Table 4: lines changed to port each application to Crucial."""

from conftest import run_archived


def test_table4_loc(benchmark):
    result, _report = run_archived(benchmark, "table4")

    # Porting is a handful of changed lines per application (the
    # paper's Java programs are longer, so fractions differ; the
    # changed-line counts match its order of magnitude).
    for row in result.rows:
        assert row.changed_lines <= 8, row.application
        assert row.changed_fraction < 0.15, row.application
