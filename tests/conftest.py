"""Repo-wide test fixtures.

``CHAOS_SEED`` (environment variable, comma-separated) narrows the
seeded-chaos matrix to specific seeds — the CI soak job uses it to
shard the suite across seeds and to re-run a failing seed in
isolation.

``network`` builds on the requesting module's own ``kernel`` fixture,
so each file keeps its seed; ``make_layer`` is imported from here.
"""

import os
import threading

import pytest

from repro.config import DEFAULT_CONFIG
from repro.dso import DsoLayer
from repro.net import LatencyModel, Network

#: The default seed matrix for seeded chaos tests.  Every seed must
#: pass; failures are reported (and reproducible) per seed.
CHAOS_SEEDS = (7, 23, 101)


def _selected_seeds():
    override = os.environ.get("CHAOS_SEED")
    if override:
        return tuple(int(s) for s in override.split(","))
    return CHAOS_SEEDS


@pytest.fixture(params=_selected_seeds(),
                ids=lambda seed: f"seed{seed}")
def chaos_seed(request):
    return request.param


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Thread hygiene: once a test and the fixtures that close its
    kernels have finished, every OS thread its kernels started is gone
    (an autouse fixture is set up first, so it is torn down last)."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before, (
        f"{threading.active_count() - before} OS thread(s) outlived the "
        f"test: {[thread.name for thread in threading.enumerate()]}")


@pytest.fixture
def network(kernel):
    """A 100 µs network with a ``"client"`` endpoint."""
    net = Network(kernel, LatencyModel(0.0001))
    net.ensure_endpoint("client")
    return net


def make_layer(kernel, network, nodes=1, config=DEFAULT_CONFIG,
               read_cache=False):
    """A DSO layer over ``network`` with ``nodes`` storage nodes."""
    layer = DsoLayer(kernel, network, config, read_cache=read_cache)
    for _ in range(nodes):
        layer.add_node()
    return layer
