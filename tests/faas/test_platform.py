"""Unit tests for the FaaS platform."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.errors import (
    FunctionTimeoutError,
    InvocationError,
    ServiceUnavailableError,
    ThrottlingError,
)
from repro.faas import FaasPlatform
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from repro.simulation.thread import now, spawn


@pytest.fixture
def kernel():
    with Kernel(seed=31) as k:
        yield k


@pytest.fixture
def platform(kernel):
    network = Network(kernel, LatencyModel(0.0005))
    network.ensure_endpoint("driver")
    return FaasPlatform(kernel, network)


def test_deploy_and_invoke(kernel, platform):
    platform.deploy("double", lambda ctx, x: x * 2)

    def main():
        return platform.invoke("driver", "double", 21)

    assert kernel.run_main(main) == 42


def test_invoke_unknown_function(kernel, platform):
    def main():
        platform.invoke("driver", "ghost")

    with pytest.raises(ServiceUnavailableError):
        kernel.run_main(main)


def test_duplicate_deploy_rejected(kernel, platform):
    platform.deploy("f", lambda ctx, x: x)
    with pytest.raises(ValueError):
        platform.deploy("f", lambda ctx, x: x)


def test_memory_limit_enforced(kernel, platform):
    limit = DEFAULT_CONFIG.faas_limits.max_memory_mb
    with pytest.raises(ValueError):
        platform.deploy("big", lambda ctx, x: x, memory_mb=limit + 1)


def test_cold_start_then_warm_start(kernel, platform):
    platform.deploy("f", lambda ctx, x: x)

    def main():
        t0 = now()
        platform.invoke("driver", "f")
        cold_time = now() - t0
        t1 = now()
        platform.invoke("driver", "f")
        warm_time = now() - t1
        return cold_time, warm_time

    cold_time, warm_time = kernel.run_main(main)
    assert cold_time > 1.0  # 1-2s cold start
    assert warm_time < 0.1
    records = platform.records
    assert records[0].cold_start is True
    assert records[1].cold_start is False
    assert records[0].container == records[1].container  # reuse


def test_pre_warm_removes_cold_starts(kernel, platform):
    platform.deploy("f", lambda ctx, x: x)
    platform.pre_warm("f", 4)

    def worker():
        platform.invoke("driver", "f")

    def main():
        threads = [spawn(worker) for _ in range(4)]
        for t in threads:
            t.join()

    kernel.run_main(main)
    assert all(not r.cold_start for r in platform.records)


def test_concurrent_invocations_use_distinct_containers(kernel, platform):
    def handler(ctx, payload):
        ctx.compute(1.0)

    platform.deploy("f", handler)
    platform.pre_warm("f", 3)

    def main():
        threads = [spawn(lambda: platform.invoke("driver", "f"))
                   for _ in range(3)]
        for t in threads:
            t.join()

    kernel.run_main(main)
    containers = {r.container for r in platform.records}
    assert len(containers) == 3


def test_cpu_share_scales_with_memory(kernel, platform):
    def handler(ctx, payload):
        start = now()
        ctx.compute(1.0)
        return now() - start

    platform.deploy("full", handler, memory_mb=1792)
    platform.deploy("half", handler, memory_mb=896)

    def main():
        return (platform.invoke("driver", "full"),
                platform.invoke("driver", "half"))

    full_time, half_time = kernel.run_main(main)
    assert full_time == pytest.approx(1.0)
    assert half_time == pytest.approx(2.0)


def test_handler_exception_wrapped(kernel, platform):
    def handler(ctx, payload):
        raise RuntimeError("user bug")

    platform.deploy("bad", handler)

    def main():
        platform.invoke("driver", "bad")

    with pytest.raises(InvocationError) as excinfo:
        kernel.run_main(main)
    assert isinstance(excinfo.value.cause, RuntimeError)


def test_timeout_enforced(kernel, platform):
    def handler(ctx, payload):
        ctx.compute(10.0)

    platform.deploy("slow", handler, timeout=1.0)

    def main():
        platform.invoke("driver", "slow")

    with pytest.raises(FunctionTimeoutError):
        kernel.run_main(main)


def test_injected_failures_before_execution(kernel, platform):
    runs = []
    platform.deploy("flaky", lambda ctx, x: runs.append(x))
    platform.inject_failures("flaky", rate=1.0, kind="before")

    def main():
        platform.invoke("driver", "flaky", 1)

    with pytest.raises(InvocationError):
        kernel.run_main(main)
    assert runs == []  # handler never ran


def test_injected_failures_after_execution(kernel, platform):
    runs = []
    platform.deploy("flaky", lambda ctx, x: runs.append(x))
    platform.inject_failures("flaky", rate=1.0, kind="after")

    def main():
        platform.invoke("driver", "flaky", 1)

    with pytest.raises(InvocationError):
        kernel.run_main(main)
    assert runs == [1]  # side effects happened before the failure


def test_invalid_failure_kind(kernel, platform):
    platform.deploy("f", lambda ctx, x: x)
    with pytest.raises(ValueError):
        platform.inject_failures("f", 0.5, kind="sideways")


def test_throttling_at_concurrency_limit(kernel):
    from repro.config import Config, FaasLimits

    config = Config(faas_limits=FaasLimits(max_concurrency=2))
    network = Network(kernel, LatencyModel(0.0005))
    network.ensure_endpoint("driver")
    platform = FaasPlatform(kernel, network, config=config)

    def handler(ctx, payload):
        ctx.compute(5.0)

    platform.deploy("f", handler)
    platform.pre_warm("f", 3)
    errors = []

    def worker():
        try:
            platform.invoke("driver", "f")
        except ThrottlingError as exc:
            errors.append(exc)

    def main():
        threads = [spawn(worker) for _ in range(3)]
        for t in threads:
            t.join()

    kernel.run_main(main)
    assert len(errors) == 1


def test_billing_records(kernel, platform):
    def handler(ctx, payload):
        ctx.compute(0.25)

    platform.deploy("f", handler, memory_mb=2048)

    def main():
        platform.invoke("driver", "f")

    kernel.run_main(main)
    assert platform.invocation_count("f") == 1
    # 0.25s rounds to 0.3 billed seconds at 2 GB.
    assert platform.billed_gb_seconds("f") == pytest.approx(0.3 * 2.0)


def test_payload_and_result_are_copied(kernel, platform):
    def handler(ctx, payload):
        payload["mutated"] = True
        return payload

    platform.deploy("f", handler)

    def main():
        arg = {"mutated": False}
        result = platform.invoke("driver", "f", arg)
        return arg, result

    arg, result = kernel.run_main(main)
    assert arg == {"mutated": False}
    assert result["mutated"] is True
