"""Unit tests for the Redis-like store and the Infinispan-like grid."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.errors import NoSuchKeyError
from repro.simulation import Kernel
from repro.simulation.thread import now, spawn
from repro.storage import DataGrid, RedisCluster
from repro.storage.kvstore import Script


@pytest.fixture
def kernel():
    with Kernel(seed=29) as k:
        yield k


# -- Redis ---------------------------------------------------------------------


def test_redis_set_get(kernel, network):
    redis = RedisCluster(kernel, network, shards=2)

    def main():
        redis.set("client", "k", "v")
        return redis.get("client", "k")

    assert kernel.run_main(main) == "v"


def test_redis_missing_key(kernel, network):
    redis = RedisCluster(kernel, network)

    def main():
        redis.get("client", "nope")

    with pytest.raises(NoSuchKeyError):
        kernel.run_main(main)


def test_redis_incrby(kernel, network):
    redis = RedisCluster(kernel, network)

    def main():
        assert redis.incrby("client", "c", 5) == 5
        assert redis.incrby("client", "c", 3) == 8
        return redis.get("client", "c")

    assert kernel.run_main(main) == 8


def test_redis_latency_matches_table2(kernel, network):
    redis = RedisCluster(kernel, network)
    ops = 50

    def main():
        redis.set("client", "k", b"x" * 1024)
        t0 = now()
        for _ in range(ops):
            redis.get("client", "k")
        return (now() - t0) / ops

    avg_get = kernel.run_main(main)
    # Table 2: 229 us GET.
    assert avg_get == pytest.approx(229e-6, rel=0.15)


def test_redis_script_runs_server_side(kernel, network):
    redis = RedisCluster(kernel, network)
    redis.register_script("mul", Script(
        fn=lambda data, key, factor: data.__setitem__(
            key, data.get(key, 1) * factor) or data[key],
        cost=lambda factor: 0.0))

    def main():
        redis.set("client", "x", 3)
        return redis.eval_script("client", "mul", "x", 7)

    assert kernel.run_main(main) == 21


def test_redis_scripts_serialize_on_single_thread(kernel, network):
    """Complex scripts on one shard run one-at-a-time (Fig. 2a)."""
    redis = RedisCluster(kernel, network, shards=1)
    redis.register_script("burn", Script(
        fn=lambda data, key: None, cost=lambda: 0.010))

    def worker():
        redis.eval_script("client", "burn", "k")

    def main():
        threads = [spawn(worker) for _ in range(4)]
        for t in threads:
            t.join()
        return now()

    elapsed = kernel.run_main(main)
    assert elapsed >= 0.040  # 4 x 10ms strictly serialized


def test_redis_unknown_script(kernel, network):
    redis = RedisCluster(kernel, network)

    def main():
        redis.eval_script("client", "ghost", "k")

    with pytest.raises(NoSuchKeyError):
        kernel.run_main(main)


def test_redis_sharding_spreads_keys(kernel, network):
    redis = RedisCluster(kernel, network, shards=2)

    def main():
        for i in range(40):
            redis.set("client", f"key-{i}", i)

    kernel.run_main(main)
    sizes = [len(s.data) for s in redis.shards]
    assert sum(sizes) == 40
    assert all(size > 5 for size in sizes)


def test_redis_invalid_shard_count(kernel, network):
    with pytest.raises(ValueError):
        RedisCluster(kernel, network, shards=0)


# -- DataGrid -----------------------------------------------------------------------


def test_grid_put_get(kernel, network):
    grid = DataGrid(kernel, network, nodes=2)

    def main():
        grid.put("client", "k", [1, 2])
        return grid.get("client", "k")

    assert kernel.run_main(main) == [1, 2]


def test_grid_contains_and_remove(kernel, network):
    grid = DataGrid(kernel, network)

    def main():
        grid.put("client", "k", 1)
        assert grid.contains("client", "k") is True
        grid.remove("client", "k")
        return grid.contains("client", "k")

    assert kernel.run_main(main) is False


def test_grid_latency_matches_table2(kernel, network):
    grid = DataGrid(kernel, network)
    ops = 50

    def main():
        grid.put("client", "k", b"x" * 1024)
        t_get0 = now()
        for _ in range(ops):
            grid.get("client", "k")
        get_avg = (now() - t_get0) / ops
        t_put0 = now()
        for _ in range(ops):
            grid.put("client", "k", b"x" * 1024)
        put_avg = (now() - t_put0) / ops
        return get_avg, put_avg

    get_avg, put_avg = kernel.run_main(main)
    # Table 2: Infinispan 207 us GET / 228 us PUT.
    assert get_avg == pytest.approx(207e-6, rel=0.15)
    assert put_avg == pytest.approx(228e-6, rel=0.15)


def test_grid_multithreaded_nodes_allow_parallel_ops(kernel, network):
    grid = DataGrid(kernel, network, nodes=1)
    burn = DEFAULT_CONFIG.grid.put_service

    def worker(i):
        grid.put("client", f"k-{i}", i)

    def main():
        t0 = now()
        threads = [spawn(worker, i) for i in range(8)]
        for t in threads:
            t.join()
        return now() - t0

    elapsed = kernel.run_main(main)
    # 8 workers: service times overlap, so total is far below 8x serial.
    assert elapsed < 8 * (2 * 100e-6 + burn) * 0.8


def test_grid_keys_distribute_across_nodes(kernel, network):
    grid = DataGrid(kernel, network, nodes=3)

    def main():
        for i in range(60):
            grid.put("client", f"key-{i}", i)

    kernel.run_main(main)
    sizes = [len(gn.data) for gn in grid.grid_nodes]
    assert sum(sizes) == 60
    assert all(size > 5 for size in sizes)
