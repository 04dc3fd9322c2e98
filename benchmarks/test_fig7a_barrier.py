"""Fig. 7a: barrier wait times, Crucial vs SNS+SQS."""

from conftest import run_archived


def test_fig7a_barrier(benchmark):
    result, _report = run_archived(benchmark, "fig7a")

    waits = result.waits
    # Crucial's barrier is at least an order of magnitude faster.
    assert waits[("sns-sqs", 320)] > 8 * waits[("crucial", 320)]
    # Crucial stays in the tens of milliseconds at 320 threads.
    assert waits[("crucial", 320)] < 0.15
    # SNS+SQS is hundreds of milliseconds even at 4 threads.
    assert waits[("sns-sqs", 4)] > 0.2
    if ("crucial", 1800) in waits:
        # Paper: 68 ms on average with 1800 threads.
        assert waits[("crucial", 1800)] < 0.25
