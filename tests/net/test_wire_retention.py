"""A shipped payload's memory goes back to the OS when it dies.

Each CloudThread's Runnable crosses the wire as a copy the receiving
thread decodes.  Copies of 1 MiB arrays made by ``malloc`` land in the
decoding OS thread's glibc arena, which keeps the freed pages, so the
resident set grew by tens of MB over repeated environments.  The
out-of-band round trip maps each large buffer on its own.  The check
runs in a fresh interpreter, whose resident set no other test has
touched.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]

SCRIPT = """
import numpy as np
from repro import CloudThread, CrucialEnvironment
from repro.simulation.thread import sleep


def vmrss_mb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024


class Worker:
    def __init__(self, weights):
        self.weights = weights

    def run(self):
        sleep(0.01)  # every thread holds its copy at once
        return float(self.weights[-1])


def fork_join(seed, weights):
    with CrucialEnvironment(seed=seed) as env:
        def main():
            threads = [CloudThread(Worker(weights)).start()
                       for _ in range(32)]
            for thread in threads:
                thread.join()
        env.run(main)


fork_join(0, np.arange(4.0))  # loads every module the runs use
before = vmrss_mb()
weights = np.arange(1 << 17, dtype=np.float64)  # 1 MiB
after = []
for seed in range(1, 7):
    fork_join(seed, weights)
    after.append(vmrss_mb())
print(before, *after)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmRSS from /proc")
def test_closed_environments_leave_no_payload_memory_resident():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    before, first, *rest = map(float, done.stdout.split())
    # 1 MiB + 4 KiB of weights stays resident; 32 retained copies would
    # add 32 MiB.
    assert first - before < 8.0, (before, first)
    assert all(abs(rss - first) < 4.0 for rss in rest), (first, rest)
