"""Monte Carlo estimation of pi (Listing 1).

The embarrassingly parallel fork/join application: each cloud thread
draws points in the unit square and adds its in-circle count to a
single shared counter with ``add_and_get``.

The simulation draws the count from the exact binomial distribution of
the loop (count ~ Binomial(n, pi/4)) instead of iterating 100 M times,
and charges the modelled CPU time of the draws — statistically
indistinguishable from running the loop, at laptop speed.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.cloud_thread import run_all
from repro.core.objects import AtomicLong
from repro.core.runtime import compute, current_environment
from repro.ml.costmodel import montecarlo_cost


class PiEstimator:
    """The Runnable of Listing 1."""

    def __init__(self, iterations: int = 100_000_000,
                 counter_key: str = "counter", seed: int = 0):
        self.iterations = iterations
        self.seed = seed
        self.counter = AtomicLong(counter_key)

    def run(self) -> int:
        env = current_environment()
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([self.seed, 0x9E3779B9])))
        count = int(rng.binomial(self.iterations, math.pi / 4.0))
        compute(montecarlo_cost(self.iterations, env.config),
                jitter_sigma=0.01)
        self.counter.add_and_get(count)
        return count


def estimate_pi(n_threads: int, iterations_per_thread: int = 100_000_000,
                counter_key: str = "counter") -> tuple[float, float]:
    """Run Listing 1's fork/join; returns ``(pi_estimate, elapsed)``.

    Must be called from inside ``env.run(...)``.
    """
    env = current_environment()
    env.pre_warm(n_threads)
    start = env.now
    run_all([PiEstimator(iterations_per_thread, counter_key, seed=i)
             for i in range(n_threads)])
    total = AtomicLong(counter_key).get()
    elapsed = env.now - start
    estimate = 4.0 * total / (n_threads * iterations_per_thread)
    return estimate, elapsed
