"""Fig. 6: synchronizing a map phase, five strategies."""

from conftest import run_archived


def test_fig6_mapsync(benchmark):
    result, _report = run_archived(benchmark, "fig6")

    mean = result.mean
    # Paper ordering: polling (SQS/S3) slow, in-memory faster,
    # futures better, auto-reduce best.
    assert mean("auto-reduce") <= mean("future")
    assert mean("future") < mean("grid-polling")
    assert mean("grid-polling") < mean("s3-polling")
    assert mean("sqs") > mean("future") * 3
    assert mean("sqs") > mean("s3-polling") * 0.5  # among the slowest
    # Paper: auto-reduce at least 2x faster than the S3 solution.
    assert mean("s3-polling") / mean("auto-reduce") > 2.0
