"""Fig. 3: k-means scale-up — Crucial vs single-machine VMs."""

from conftest import run_archived


def test_fig3_kmeans_scaleup(benchmark):
    result, _report = run_archived(benchmark, "fig3")

    crucial = result.curves["crucial"]
    vm8 = result.curves["vm-8-cores"]
    vm16 = result.curves["vm-16-cores"]
    # Crucial stays within ~10-15% of the optimum at every scale.
    assert crucial[160] > 0.85
    assert crucial[320] > 0.80
    # The VMs collapse once threads exceed cores.
    assert vm8[160] < 0.10
    assert vm16[160] < 0.20
    assert vm16[16] > 0.95
