"""Unit tests for the S3-like object store."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.errors import NoSuchKeyError
from repro.simulation import Kernel
from repro.simulation.thread import now
from repro.storage import ObjectStore


@pytest.fixture
def kernel():
    with Kernel(seed=21) as k:
        yield k


@pytest.fixture
def store(kernel):
    return ObjectStore(kernel)


def test_put_get_round_trip(kernel, store):
    def main():
        store.put("a/b", {"v": 1})
        return store.get("a/b")

    assert kernel.run_main(main) == {"v": 1}


def test_get_missing_key(kernel, store):
    def main():
        store.get("nope")

    with pytest.raises(NoSuchKeyError):
        kernel.run_main(main)


def test_latencies_are_tens_of_milliseconds(kernel, store):
    def main():
        t0 = now()
        store.put("k", b"x" * 1024)
        put_time = now() - t0
        t1 = now()
        store.get("k")
        get_time = now() - t1
        return put_time, get_time

    put_time, get_time = kernel.run_main(main)
    cfg = DEFAULT_CONFIG.storage
    assert put_time == pytest.approx(cfg.s3_put.base, rel=0.8)
    assert get_time == pytest.approx(cfg.s3_get.base, rel=0.8)
    assert put_time > 0.010  # an order of magnitude above in-memory
    assert get_time > 0.010


def test_values_are_copied(kernel, store):
    payload = {"list": [1, 2]}

    def main():
        store.put("k", payload)
        payload["list"].append(3)  # caller-side mutation after PUT
        return store.get("k")

    assert kernel.run_main(main) == {"list": [1, 2]}


def test_listing_is_eventually_consistent(kernel, store):
    lag = DEFAULT_CONFIG.storage.s3_visibility_lag

    def main():
        store.put("results/1", b"")
        visible_immediately = "results/1" in store.list_prefix("results/")
        from repro.simulation.thread import sleep

        sleep(lag + 0.001)
        visible_later = "results/1" in store.list_prefix("results/")
        return visible_immediately, visible_later

    immediately, later = kernel.run_main(main)
    assert immediately is False
    assert later is True


def test_get_is_read_after_write(kernel, store):
    """Unlike listing, a GET of a fresh key succeeds immediately."""
    def main():
        store.put("fresh", 1)
        return store.get("fresh")

    assert kernel.run_main(main) == 1


def test_nominal_size_drives_transfer_time(kernel, store):
    def main():
        t0 = now()
        store.put("big", b"tiny", nbytes=850_000_000)
        return now() - t0

    elapsed = kernel.run_main(main)
    # 850 MB at 85 MB/s dominates: ~10s
    assert elapsed > 9.0


def test_delete(kernel, store):
    def main():
        store.put("k", 1)
        store.delete("k")
        with pytest.raises(NoSuchKeyError):
            store.get("k")

    kernel.run_main(main)


def test_request_counters(kernel, store):
    def main():
        store.put("k", 1)
        store.get("k")
        store.list_prefix("")

    kernel.run_main(main)
    assert store.stats.puts == 1
    assert store.stats.gets == 1
    assert store.stats.lists == 1
