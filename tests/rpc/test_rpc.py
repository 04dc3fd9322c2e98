"""Unit tests for the RPC layer."""

import pytest

from repro.cluster import Node
from repro.errors import (
    NetworkError,
    NodeCrashedError,
    ServiceUnavailableError,
)
from repro.net import LatencyModel, Network
from repro.rpc import RpcServer
from repro.simulation import Kernel
from repro.simulation.thread import now, spawn


@pytest.fixture
def kernel():
    with Kernel(seed=17) as k:
        yield k


@pytest.fixture
def setup(kernel):
    network = Network(kernel, LatencyModel(0.010))
    network.register("client")
    node = Node(kernel, network, "server", workers=2)
    server = RpcServer(node)
    return network, node, server


def test_call_round_trip_latency(kernel, setup):
    _, _, server = setup
    server.register("echo", lambda call, x: x)

    def main():
        result = server.call("client", "echo", 42)
        return result, now()

    result, elapsed = kernel.run_main(main)
    assert result == 42
    assert elapsed == pytest.approx(0.020)  # request + response


def test_service_time_charged(kernel, setup):
    _, _, server = setup

    def handler(call, x):
        call.service(0.5)
        return x * 2

    server.register("double", handler)

    def main():
        assert server.call("client", "double", 21) == 42
        return now()

    assert kernel.run_main(main) == pytest.approx(0.520)


def test_unknown_operation(kernel, setup):
    _, _, server = setup

    def main():
        server.call("client", "nope")

    with pytest.raises(ServiceUnavailableError):
        kernel.run_main(main)


def test_handler_exception_propagates_to_caller(kernel, setup):
    _, _, server = setup

    def handler(call):
        raise KeyError("missing")

    server.register("fail", handler)

    def main():
        server.call("client", "fail")

    with pytest.raises(KeyError):
        kernel.run_main(main)


def test_call_to_dead_node(kernel, setup):
    _, node, server = setup
    server.register("echo", lambda call, x: x)
    node.crash()

    def main():
        server.call("client", "echo", 1)

    with pytest.raises(NetworkError):
        kernel.run_main(main)


def test_crash_mid_service(kernel, setup):
    _, node, server = setup

    def handler(call):
        call.service(1.0)
        return "ok"

    server.register("slow", handler)
    kernel.call_later(0.5, node.crash)

    def main():
        server.call("client", "slow")

    with pytest.raises(NodeCrashedError):
        kernel.run_main(main)


def test_worker_pool_bounds_concurrency(kernel, setup):
    _, _, server = setup  # 2 workers

    def handler(call):
        call.service(1.0)

    server.register("work", handler)

    def worker():
        server.call("client", "work")

    def main():
        threads = [spawn(worker) for _ in range(4)]
        for t in threads:
            t.join()
        return now()

    # 4 x 1s jobs on 2 workers = 2s serial portions + 20ms round trip.
    assert kernel.run_main(main) == pytest.approx(2.020, abs=0.01)


def test_arguments_are_copied_not_shared(kernel, setup):
    _, _, server = setup
    captured = {}

    def handler(call, payload):
        captured["payload"] = payload
        payload["mutated"] = True
        return payload

    server.register("mutate", handler)

    def main():
        arg = {"mutated": False}
        result = server.call("client", "mutate", arg)
        return arg, result

    arg, result = kernel.run_main(main)
    assert arg == {"mutated": False}  # caller's object untouched
    assert result["mutated"] is True
    assert captured["payload"] is not arg
