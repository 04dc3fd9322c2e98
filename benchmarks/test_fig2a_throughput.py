"""Fig. 2a: throughput of simple vs complex ops, Crucial vs Redis."""

from conftest import run_archived


def test_fig2a_throughput(benchmark):
    result, _report = run_archived(benchmark, "fig2a")

    throughput = result.throughput
    # Redis wins on simple operations (optimized C core)...
    assert throughput[("redis", "simple")] > \
        throughput[("crucial", "simple")]
    # ...but Crucial's disjoint-access parallelism dominates complex
    # ones by severalfold, even with replication on.
    assert throughput[("crucial", "complex")] > \
        3.0 * throughput[("redis", "complex")]
    assert throughput[("crucial-rf2", "complex")] > \
        1.3 * throughput[("redis", "complex")]
    # Crucial is insensitive to operation complexity relative to
    # Redis: its complex/simple ratio is much higher.
    crucial_ratio = (throughput[("crucial", "complex")]
                     / throughput[("crucial", "simple")])
    redis_ratio = (throughput[("redis", "complex")]
                   / throughput[("redis", "simple")])
    assert crucial_ratio > 3.0 * redis_ratio
