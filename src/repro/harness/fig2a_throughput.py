"""Fig. 2a: operations/second, Crucial (rf=1, rf=2) versus Redis.

200 closed-loop cloud threads access 800 integer objects uniformly at
random on a two-node storage deployment.  The *simple* operation is
one multiplication; the *complex* one is 10k sequential
multiplications.  Paper shape: Redis ~1.5x Crucial on simple ops
(optimized C beats JVM dispatch); Crucial ~5x Redis on complex ops
(disjoint-access parallelism beats the single-threaded Lua loop); the
replicated deployment still beats Redis on complex ops.

``scale`` shrinks thread count and measurement window together.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import CrucialEnvironment
from repro.core.runtime import current_location
from repro.core.shared import dso_costs, shared
from repro.harness.claims import Claim, above, claim_lines
from repro.metrics.report import render_table
from repro.simulation.thread import spawn
from repro.storage.kvstore import Script

N_OBJECTS = 800
SIMPLE_OPS = 1
COMPLEX_OPS = 10_000


def _ratio(system: str, other: str, operation: str):
    """``system``'s throughput over ``other``'s on ``operation``."""
    return lambda r: (r.throughput[(system, operation)]
                      / r.throughput[(other, operation)])


CLAIMS = [
    Claim("fig2a.simple_redis_lead", "Redis over Crucial on simple ops",
          1.5, _ratio("redis", "crucial", "simple"), above(1.0)),
    Claim("fig2a.complex_crucial_lead", "Crucial over Redis on complex "
          "ops", 5.0, _ratio("crucial", "redis", "complex"), above(3.0)),
    Claim("fig2a.complex_rf2_lead", "Crucial rf=2 over Redis on complex "
          "ops", 1.7, _ratio("crucial-rf2", "redis", "complex"), above(1.3)),
    Claim("fig2a.complexity_insensitive", "Crucial's complex/simple "
          "throughput over Redis's", None,
          lambda r: (_ratio("crucial", "redis", "complex")(r)
                     / _ratio("crucial", "redis", "simple")(r)), above(3.0)),
]


@dso_costs(multiply=lambda times, factor, cost: cost)
class MulInteger:
    """The Fig. 2a object: an integer with arithmetic methods."""

    def __init__(self, value: int = 1):
        self.value = value

    def multiply(self, times: int, factor: int, cost: float) -> int:
        for _ in range(min(times, 4)):  # real effect; time is modelled
            self.value = (self.value * factor) % (1 << 31)
        return self.value


def _redis_mul(data, key, times, factor, cost):
    data[key] = (data.get(key, 1) * factor) % (1 << 31)
    return data[key]


@dataclass
class ThroughputResult:
    #: (system, operation) -> operations/second
    throughput: dict[tuple[str, str], float]
    threads: int
    window: float


def _drive(env, threads: int, window: float, do_op) -> float:
    """Closed loop: each thread repeats ``do_op`` until the window
    closes; returns aggregate operations/second."""
    counts = [0] * threads
    rngs = [env.kernel.rng.stream(f"fig2a.{i}") for i in range(threads)]

    def worker(i):
        deadline = env.now + window
        while env.now < deadline:
            do_op(int(rngs[i].integers(0, N_OBJECTS)))
            counts[i] += 1

    workers = [spawn(worker, i) for i in range(threads)]
    for worker_thread in workers:
        worker_thread.join()
    return sum(counts) / window


def run(threads: int = 200, window: float = 0.1,
        seed: int = 2) -> ThroughputResult:
    throughput: dict[tuple[str, str], float] = {}
    for system, rf in (("crucial", 1), ("crucial-rf2", 2)):
        with CrucialEnvironment(seed=seed, dso_nodes=2) as env:
            def main():
                simple_cost = env.config.dso.simple_op_cost
                proxies = [
                    shared(MulInteger, f"obj-{i}",
                           persistent=rf > 1, rf=rf if rf > 1 else None)
                    for i in range(N_OBJECTS)
                ]
                for proxy in proxies:
                    proxy._ensure()
                for op_name, ops in (("simple", SIMPLE_OPS),
                                     ("complex", COMPLEX_OPS)):
                    throughput[(system, op_name)] = _drive(
                        env, threads, window,
                        lambda i, n=ops: proxies[i].multiply(
                            n, 3, n * simple_cost))

            env.run(main)
    with CrucialEnvironment(seed=seed, dso_nodes=1) as env:
        def main():
            redis = env.redis(shards=2)
            cost_per_op = env.config.redis.simple_op_cost
            redis.register_script("mul", Script(
                fn=_redis_mul,
                cost=lambda times, factor, cost: cost))
            client = current_location()
            for i in range(N_OBJECTS):
                redis.set(client, f"obj-{i}", 1)
            for op_name, ops in (("simple", SIMPLE_OPS),
                                 ("complex", COMPLEX_OPS)):
                throughput[("redis", op_name)] = _drive(
                    env, threads, window,
                    lambda i, n=ops: redis.eval_script(
                        current_location(), "mul", f"obj-{i}", n, 3,
                        n * cost_per_op))

        env.run(main)
    return ThroughputResult(throughput=throughput, threads=threads,
                            window=window)


def report(result: ThroughputResult) -> str:
    rows = []
    for (system, op), value in sorted(result.throughput.items()):
        rows.append((system, op, f"{value:,.0f} ops/s"))
    table = render_table(
        ["system", "operation", "throughput"], rows,
        title=(f"Fig. 2a - closed-loop throughput, "
               f"{result.threads} threads, 800 objects"))
    return table + "\n" + claim_lines(CLAIMS, result)
