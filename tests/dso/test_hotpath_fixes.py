"""Regression tests for the hot-path bug sweep (ISSUE 6).

Each test pins behaviour that was observably wrong before its fix:

* ``_revoke_leases`` waited out unreachable lease holders *serially*,
  so a reachable holder queued behind a partitioned one kept serving
  stale cached reads for the whole TTL wait.
* ``invoke``'s retry backoff could sleep past ``retry_deadline()``
  and fire one extra attempt before surfacing the failure.

(The third fix of the sweep — ``run_until(limit=...)`` dropping the
event it peeked — is covered in ``tests/simulation/test_kernel.py``.)
"""

import dataclasses

import pytest

from repro.config import DEFAULT_CONFIG
from repro.dso import layer as dso_layer
from repro.errors import NetworkError
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from repro.simulation.thread import sleep, spawn
from tests.conftest import make_layer


def config_with(**dso_overrides):
    return dataclasses.replace(
        DEFAULT_CONFIG,
        dso=dataclasses.replace(DEFAULT_CONFIG.dso, **dso_overrides))


@pytest.fixture
def kernel():
    with Kernel(seed=101) as k:
        yield k


@pytest.fixture
def network(kernel):
    net = Network(kernel, LatencyModel(0.0001))
    net.ensure_endpoint("writer")
    return net


# ---------------------------------------------------------------------------
# Lease revocation: unreachable holders must not delay reachable ones
# ---------------------------------------------------------------------------


def test_reachable_holder_invalidated_before_ttl_wait(kernel, network):
    """A reachable lease holder is invalidated *before* the writer
    starts waiting out a partitioned holder's TTL.

    Pre-fix, holders were processed serially in grant order: the
    writer slept out "blocked"'s lease first and only then sent
    "reader"'s invalidation, so "reader" kept serving the stale cached
    value for the whole stall.
    """
    config = config_with(lease_ttl=2.0)
    layer = make_layer(kernel, network, config=config, read_cache=True)
    (node_name,) = layer.nodes
    observed = {}

    def reader():
        sleep(0.5)  # mid-stall, well inside both lease windows
        observed["value"] = layer.get("reader", "k")

    def main():
        layer.put("writer", "k", "v0")
        layer.get("blocked", "k")  # first lease -> first in holder order
        layer.get("reader", "k")   # second lease, still reachable
        network.partition({node_name}, {"blocked"})
        thread = spawn(reader)
        start = kernel.now
        layer.put("writer", "k", "v1")
        stall = kernel.now - start
        thread.join()
        return stall

    stall = kernel.run_main(main)
    # The write still waits out the partitioned holder's TTL...
    assert stall >= 1.8
    # ...but the reachable holder was invalidated up front, so its
    # mid-stall read missed the cache and returned the new value.
    assert observed["value"] == "v1"
    assert layer.stats.lease_revocations == 2


def test_partitioned_holders_are_waited_out_together(kernel, network):
    """Two unreachable holders stall the writer to the *max* remaining
    TTL, not the sum: their leases expire concurrently."""
    config = config_with(lease_ttl=2.0)
    layer = make_layer(kernel, network, config=config, read_cache=True)
    (node_name,) = layer.nodes

    def main():
        layer.put("writer", "k", "v0")
        layer.get("h1", "k")   # lease expires ~2.0
        sleep(1.0)
        layer.get("h2", "k")   # lease expires ~3.0
        network.partition({node_name}, {"h1", "h2"})
        start = kernel.now
        layer.put("writer", "k", "v1")
        return kernel.now - start

    stall = kernel.run_main(main)
    # max remaining TTL is ~2.0 (h2's lease); the sum would be ~3.0.
    assert stall == pytest.approx(2.0, abs=0.1)
    assert layer.stats.lease_revocations == 2


# ---------------------------------------------------------------------------
# Retry backoff: clamped to the deadline, no extra attempt
# ---------------------------------------------------------------------------


def test_retry_backoff_clamped_to_deadline(kernel, network, monkeypatch):
    """A persistent transient failure surfaces at *exactly*
    the retry window (``retry_deadline()``) after the first attempt.

    Pre-fix, the last exponential backoff slept its full duration past
    the deadline, firing one extra attempt and surfacing the error
    seconds late (~15.75s instead of 12.25s with the default policy).
    """
    layer = make_layer(kernel, network)
    (node_name,) = layer.nodes
    attempt_times = []
    original = dso_layer._attempt

    def counting(*args, **kwargs):
        attempt_times.append(kernel.now)
        return original(*args, **kwargs)

    monkeypatch.setattr(dso_layer, "_attempt", counting)

    def main():
        layer.put("writer", "k", "v0")
        network.partition({node_name}, {"writer"})
        start = kernel.now
        with pytest.raises(NetworkError):
            layer.put("writer", "k", "v1")
        return start, kernel.now

    start, end = kernel.run_main(main)
    pad = layer.retry_deadline() - kernel.now
    # The failure surfaces exactly at the deadline: the final backoff
    # is clamped to the remaining window instead of overshooting it.
    assert end - start == pytest.approx(pad, abs=1e-9)
    # Every attempt started strictly inside the retry window.
    failing_attempts = attempt_times[1:]  # [0] is the successful create
    assert all(t < start + pad for t in failing_attempts)
    # Default policy: backoffs 0.25*2^k capped at 4s (each stretched up
    # to +10% by seeded jitter) fit exactly 5 full sleeps plus the
    # clamped one inside the 12.25s window -> 6 attempts with this
    # seed.  Pre-fix the overshooting sleeps bought two more.
    assert len(failing_attempts) == 6
