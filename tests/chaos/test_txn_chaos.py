"""Chaos: transaction commits ride through primary crashes intact.

The dangerous window is the commit protocol itself: prepares are
unreplicated soft state, so a primary that dies between a prepare and
its commit takes the prepared entry with it, and the promoted backup
must *fence* the retried commit (``TxnPrepareLostError``) so the
client re-prepares instead of silently losing the write.  These tests
kill primaries inside that window — across the seeded chaos matrix —
and audit the survivors with the read-atomicity pass: every
acknowledged transaction is fully installed (``final == acked``,
per key, by commit id), and no reader ever observed a fractured
write set.
"""

from repro.chaos import ChaosInjector, FaultPlan
from repro.config import DEFAULT_CONFIG
from repro.errors import TxnError
from repro.linearizability import (
    final_state_violations,
    find_fractured_reads,
)
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from repro.simulation.thread import sleep, spawn
from tests.conftest import make_layer

KEYS = ("a", "b")
ROUNDS = 5


def collect_final_cids(layer):
    """Quiescent per-key commit ids (call from inside the sim)."""
    keys = {key for record in layer.txns.log for key in record.writes}
    return {key: layer.invoke("client", layer.txns.ref(key, 2),
                              "latest_cid", ctor=layer.txns.ctor())
            for key in sorted(keys)}


def audit(layer, final_cids):
    """Cross-check the quiescent state against the acknowledged log."""
    assert final_state_violations(layer.txns.log, final_cids) == []
    assert find_fractured_reads(layer.txns.log, layer.txns.reads) == []


def test_kill_primary_mid_commit_installs_exactly_acked(chaos_seed):
    """A crash landing inside one commit's prepare->commit window
    never loses an acknowledged write: the commit retries through the
    failover (fenced re-prepare if the prepare died with the primary)
    and the final state matches the acknowledged log exactly."""
    with Kernel(seed=chaos_seed) as kernel:
        network = Network(kernel, LatencyModel(0.0001))
        network.ensure_endpoint("client")
        layer = make_layer(kernel, network, nodes=3)
        injector = ChaosInjector(kernel, network=network, dso=layer)

        def main():
            with layer.transaction("client", rf=2) as txn:
                for key in KEYS:
                    txn.write(key, 0)
            primary = layer.placement_of(layer.txns.ref("a", 2))[0]
            for round_no in range(1, ROUNDS + 1):
                with layer.transaction("client", rf=2) as txn:
                    for key in KEYS:
                        txn.write(key, round_no)
                    if round_no == 2:
                        # Land the crash inside this commit's window.
                        injector.schedule(FaultPlan().add(
                            kernel.now + 0.0005, "crash_node", primary))
            sleep(DEFAULT_CONFIG.dso.failure_detection + 2.0)
            finals = tuple(
                layer.invoke("client", layer.txns.ref(key, 2),
                             "get", ctor=layer.txns.ctor())
                for key in KEYS)
            return finals, collect_final_cids(layer)

        finals, final_cids = kernel.run_main(main)
        assert injector.log.counts("inject") == {"crash_node": 1}
        # Every acknowledged commit survived the crash in full.
        assert finals == (ROUNDS, ROUNDS)
        assert layer.stats.txns_committed == ROUNDS + 1
        assert layer.stats.retries >= 1  # the kill hit in-flight work
        audit(layer, final_cids)


def test_concurrent_txns_with_reader_audit_under_crash(chaos_seed):
    """Several transactional writers race over a shared keyspace while
    readers take transactional snapshots and a primary dies mid-run:
    no reader ever observes a fractured write set, and quiescent state
    matches the acknowledged log."""
    with Kernel(seed=chaos_seed) as kernel:
        network = Network(kernel, LatencyModel(0.0001))
        network.ensure_endpoint("client")
        layer = make_layer(kernel, network, nodes=3)
        injector = ChaosInjector(kernel, network=network, dso=layer)
        keys = ("x", "y", "z")

        def writer(index):
            for round_no in range(3):
                value = index * 100 + round_no
                try:
                    with layer.transaction("client", rf=2) as txn:
                        for key in keys:
                            txn.write(key, value)
                except TxnError:
                    # Clean abort (or a commit the failover window
                    # outlasted): nothing acked, nothing owed.
                    pass
                sleep(0.002)

        def reader():
            for _ in range(4):
                try:
                    with layer.transaction("client", rf=2) as txn:
                        for key in keys:
                            txn.read(key)
                except TxnError:
                    # The reader aborts rather than ever returning
                    # fractured data — acceptable unavailability.
                    pass
                sleep(0.003)

        def main():
            with layer.transaction("client", rf=2) as txn:
                for key in keys:
                    txn.write(key, -1)
            primary = layer.placement_of(layer.txns.ref("x", 2))[0]
            injector.schedule(FaultPlan().add(
                kernel.now + 0.004, "crash_node", primary))
            threads = [spawn(writer, i, name=f"writer-{i}")
                       for i in range(3)]
            threads.append(spawn(reader, name="reader"))
            for thread in threads:
                thread.join()
            sleep(DEFAULT_CONFIG.dso.failure_detection + 2.0)
            return collect_final_cids(layer)

        final_cids = kernel.run_main(main)
        assert injector.log.counts("inject") == {"crash_node": 1}
        assert layer.stats.txns_committed >= 1
        audit(layer, final_cids)
