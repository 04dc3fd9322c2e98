"""Table 2: average latency to access a 1 KB object sequentially.

Compares S3, Redis, Infinispan (plain grid), Crucial (DSO), and
Crucial with rf=2, exactly the paper's five rows.  The paper runs 30k
operations per system; latencies here are i.i.d. samples around the
calibrated means, so a few hundred suffice — ``ops`` scales it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import CrucialEnvironment
from repro.harness.claims import Claim, above, between, claim_lines, within
from repro.metrics.report import comparison_table

PAYLOAD = b"x" * 1024

#: Table 2 values, in seconds: (put, get).
PAPER = {
    "s3": (34_868e-6, 23_072e-6),
    "redis": (232e-6, 229e-6),
    "infinispan": (228e-6, 207e-6),
    "crucial": (231e-6, 229e-6),
    "crucial-rf2": (512e-6, 505e-6),
}

CLAIMS = [
    Claim(f"table2.{system.replace('-', '_')}_{verb}",
          f"{system} {verb.upper()} latency", PAPER[system][i] * 1e6,
          lambda r, s=system, i=i: r.averages[s][i] * 1e6,
          within(PAPER[system][i] * 1e6, 0.15), "{:,.1f}us")
    for system in PAPER for i, verb in enumerate(("put", "get"))
] + [
    Claim("table2.s3_vs_memory", "S3 GET in Crucial GETs", None,
          lambda r: r.averages["s3"][1] / r.averages["crucial"][1],
          above(10.0), "{:.0f}x"),
    Claim("table2.rf2_factor", "rf=2 GET in rf=1 GETs (replication)",
          PAPER["crucial-rf2"][1] / PAPER["crucial"][1],
          lambda r: (r.averages["crucial-rf2"][1]
                     / r.averages["crucial"][1]),
          between(1.8, 2.6)),
]


@dataclass
class LatencyResult:
    #: system -> (avg put seconds, avg get seconds)
    averages: dict[str, tuple[float, float]]
    ops: int


def run(ops: int = 300, seed: int = 1) -> LatencyResult:
    with CrucialEnvironment(seed=seed, dso_nodes=2) as env:
        def main():
            averages = {}
            redis = env.redis(shards=1)
            grid = env.data_grid(nodes=1)
            client = env.client_endpoint

            def timed(fn):
                start = env.now
                for _ in range(ops):
                    fn()
                return (env.now - start) / ops

            env.object_store.put("t2", PAYLOAD)
            averages["s3"] = (
                timed(lambda: env.object_store.put("t2", PAYLOAD)),
                timed(lambda: env.object_store.get("t2")))
            redis.set(client, "t2", PAYLOAD)
            averages["redis"] = (
                timed(lambda: redis.set(client, "t2", PAYLOAD)),
                timed(lambda: redis.get(client, "t2")))
            grid.put(client, "t2", PAYLOAD)
            averages["infinispan"] = (
                timed(lambda: grid.put(client, "t2", PAYLOAD)),
                timed(lambda: grid.get(client, "t2")))
            env.dso.put(client, "t2", PAYLOAD)
            averages["crucial"] = (
                timed(lambda: env.dso.put(client, "t2", PAYLOAD)),
                timed(lambda: env.dso.get(client, "t2")))
            env.dso.put(client, "t2r", PAYLOAD, rf=2)
            averages["crucial-rf2"] = (
                timed(lambda: env.dso.put(client, "t2r", PAYLOAD, rf=2)),
                timed(lambda: env.dso.get(client, "t2r", rf=2)))
            return averages

        averages = env.run(main)
    return LatencyResult(averages=averages, ops=ops)


def report(result: LatencyResult) -> str:
    entries = []
    for system, (paper_put, paper_get) in PAPER.items():
        put, get = result.averages[system]
        entries.append((f"{system} PUT", paper_put * 1e6, put * 1e6))
        entries.append((f"{system} GET", paper_get * 1e6, get * 1e6))
    return comparison_table(
        f"Table 2 - 1KB access latency, {result.ops} sequential ops",
        entries, unit="us") + "\n" + claim_lines(CLAIMS, result)
