"""A method's exception is an outcome: recorded, replicated, replayed.

Crucial replicates ops, not results (Section 4.4).  A deterministic
method that changed state and then raised is still an op every replica
applies, and its exception is the reply a retry gets back:

* an rf=2 write that applied and raised survives a primary crash, so a
  reader never goes back in time, with the read cache on and off;
* ``once()`` replays a raising call's exception instead of re-running
  the call;
* a raising op whose reply was lost re-raises on the retry without
  being applied again, at its primary or at the backup promoted after
  the primary crashed.

The crash and cut instants are drawn from ``CHAOS_SEED``.
"""

import random

import pytest

from repro import CrucialEnvironment, once
from repro.config import DEFAULT_CONFIG
from repro.dso import DsoLayer, DsoReference, readonly
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from repro.simulation.thread import sleep, spawn


class Register:
    def __init__(self, value="v0"):
        self.value = value

    @readonly
    def get(self):
        return self.value

    def set_checked(self, value):
        """Store ``value``, then reject it: the write applies and raises."""
        self.value = value
        raise ValueError(f"rejected {value!r}")


class Wallet:
    def __init__(self):
        self.charges = 0

    def charge_then_reject(self):
        self.charges += 1
        raise ValueError("card declined")

    @readonly
    def count(self):
        return self.charges


REGISTER = (Register, (), {})
WALLET = (Wallet, (), {})


@pytest.mark.parametrize("read_cache", [False, True],
                         ids=["no-cache", "read-cache"])
def test_a_write_that_raised_survives_a_primary_crash(read_cache,
                                                      chaos_seed):
    crash_after = random.Random(chaos_seed).uniform(0.0, 0.5)
    with Kernel(seed=chaos_seed) as kernel:
        layer = DsoLayer(kernel, Network(kernel, LatencyModel(0.0001)),
                         read_cache=read_cache)
        for _ in range(3):
            layer.add_node()
        ref = DsoReference("Register", "rollback", persistent=True, rf=2)

        def main():
            reads = [layer.invoke("reader", ref, "get", ctor=REGISTER)]
            with pytest.raises(ValueError, match="rejected 'v1'"):
                layer.invoke("writer", ref, "set_checked", ("v1",),
                             ctor=REGISTER)
            reads.append(layer.invoke("reader", ref, "get", ctor=REGISTER))
            sleep(crash_after)
            layer.crash_node(layer.placement_of(ref)[0])
            sleep(DEFAULT_CONFIG.dso.failure_detection + 2.0)
            reads.append(layer.invoke("reader", ref, "get", ctor=REGISTER))
            return reads

        assert kernel.run_main(main) == ["v0", "v1", "v1"]


def test_once_replays_a_raised_exception():
    with CrucialEnvironment(seed=2, dso_nodes=2) as env:
        ref = DsoReference("Wallet", "pay")

        def main():
            raised = []
            for _ in range(3):  # re-entries of the same logical block
                with pytest.raises(ValueError) as caught, once("pay"):
                    env.dso.invoke(env.client_endpoint, ref,
                                   "charge_then_reject", ctor=WALLET)
                raised.append(str(caught.value))
            return raised, env.dso.invoke(env.client_endpoint, ref,
                                          "count", ctor=WALLET)

        raised, charges = env.run(main)
        assert raised == ["card declined"] * 3
        assert charges == 1
        assert env.dso.stats.dedup_hits == 2


@pytest.mark.parametrize("failover", [False, True],
                         ids=["retry-at-primary", "retry-at-backup"])
def test_a_raising_op_whose_reply_is_lost_is_not_reapplied(failover,
                                                           chaos_seed):
    slow = 0.005  # server-side seconds: the window the reply is cut in
    cut_after = 0.0005 + random.Random(chaos_seed).random() * 0.004
    with Kernel(seed=chaos_seed) as kernel:
        network = Network(kernel, LatencyModel(0.0001))
        layer = DsoLayer(kernel, network)
        for _ in range(2):
            layer.add_node()
        ref = DsoReference("Wallet", "lost-reply", persistent=True, rf=2)

        def main():
            layer.invoke("client", ref, "count", ctor=WALLET)
            primary = layer.placement_of(ref)[0]
            kernel.call_later(cut_after, lambda: network.partition(
                {"client"}, {primary}))
            kernel.call_later(0.1, lambda: network.unpartition(
                {"client"}, {primary}))
            if failover:  # the retry lands on the promoted backup
                spawn(lambda: (sleep(0.05), layer.crash_node(primary)))
            start = kernel.now
            with pytest.raises(ValueError, match="card declined"):
                layer.invoke("client", ref, "charge_then_reject",
                             ctor=WALLET, cost=slow)
            assert kernel.now - start > 0.1, "the reply was not cut off"
            return layer.invoke("client", ref, "count", ctor=WALLET)

        assert kernel.run_main(main) == 1
        assert layer.stats.dedup_hits == 1
