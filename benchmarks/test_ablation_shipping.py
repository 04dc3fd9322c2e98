"""Ablation: method shipping vs data shipping (Section 4.2)."""

from conftest import run_archived


def test_ablation_method_shipping(benchmark):
    result, _report = run_archived(benchmark, "ablation")

    m = result.measurements
    counts = sorted({workers for _strategy, workers in m})
    big = counts[-1]
    small = counts[0]
    # O(N) vs O(N^2): message growth is linear vs quadratic.
    method_growth = (m[("method-shipping", big)][1]
                     / m[("method-shipping", small)][1])
    data_growth = (m[("data-shipping", big)][1]
                   / m[("data-shipping", small)][1])
    scale = big / small
    assert method_growth < 2.0 * scale
    assert data_growth > 0.5 * scale ** 2
    # At the largest N, data shipping is slower in wall time too.
    assert m[("data-shipping", big)][0] > m[("method-shipping", big)][0]
