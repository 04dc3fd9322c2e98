"""Fig. 4: logistic regression — Crucial vs Spark."""

from conftest import run_archived


def test_fig4_logreg(benchmark):
    result, _report = run_archived(benchmark, "fig4")

    # Paper: iterative phase 18% faster in Crucial (62.3s vs 75.9s).
    gain = 1.0 - result.crucial_iter / result.spark_iter
    assert 0.10 < gain < 0.35
    assert 50 < result.crucial_iter < 80
    assert 60 < result.spark_iter < 95
    # Fig. 4b: the loss decreases and both systems' math agrees.
    assert result.crucial_loss[-1] < result.crucial_loss[0] * 0.5
    drift = max(abs(a - b) for a, b in
                zip(result.crucial_loss, result.spark_loss))
    assert drift < 1e-9
