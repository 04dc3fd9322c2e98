"""Unit tests for read-atomic multi-object transactions (repro.dso.txn).

Covers the client-side protocol on a healthy cluster: commit/abort
semantics, read-your-writes, the read-set validation that keeps every
read an atomic-visibility snapshot (history fallback and RAMP's
forced fetch), the server-side commit fence, and the documented
*absence* of atomicity in ``read_bulk`` that transactions exist to
fix.  Crash-failover behaviour lives in ``tests/chaos/test_txn_chaos``
and the ``txn-failover`` hunt in ``tests/explore/test_guarantees.py``.
"""

import pytest

from repro.dso import DsoReference
from repro.errors import TxnAbortedError, TxnPrepareLostError
from repro.linearizability import find_fractured_reads
from repro.simulation import Kernel
from repro.simulation.thread import sleep, spawn
from tests.conftest import make_layer


class Counter:
    """Module-level (picklable) plain shared class for interop tests."""

    def __init__(self, value=0):
        self.value = value

    def add(self, delta):
        self.value += delta
        return self.value

    def get(self):
        return self.value


CTOR = (Counter, (), {})


@pytest.fixture
def kernel():
    with Kernel(seed=37) as k:
        yield k


def cell_ref(key, rf=1):
    return DsoReference("TxnCell", key, persistent=rf > 1, rf=rf)


def cell_value(layer, key, rf=1):
    return layer.invoke("client", cell_ref(key, rf), "get",
                        ctor=layer.txns.ctor())


def test_commit_installs_and_reads_back(kernel, network):
    layer = make_layer(kernel, network, nodes=3)

    def main():
        with layer.transaction("client") as txn:
            txn.write("a", 1)
            txn.write("b", 2)
        with layer.transaction("client") as txn:
            return txn.read("a"), txn.read("b")

    assert kernel.run_main(main) == (1, 2)
    assert layer.stats.txns_committed == 2
    assert len(layer.txns.log) == 1
    assert layer.txns.log[0].writes == ("a", "b")


def test_read_your_writes_and_repeatable_reads(kernel, network):
    layer = make_layer(kernel, network, nodes=2)

    def main():
        with layer.transaction("client") as txn:
            txn.write("a", "old")
        with layer.transaction("client") as txn:
            first = txn.read("a")
            txn.write("a", "mine")
            buffered = txn.read("a")
            txn.write("fresh", "new")
            unread = txn.read("fresh")
            return first, buffered, unread

    assert kernel.run_main(main) == ("old", "mine", "new")


def test_abort_discards_writes(kernel, network):
    layer = make_layer(kernel, network)

    def main():
        with layer.transaction("client") as txn:
            txn.write("a", "committed")
        txn2 = layer.transaction("client")
        with txn2 as txn:
            txn.write("a", "doomed")
            txn.abort()
        return cell_value(layer, "a")

    assert kernel.run_main(main) == "committed"
    assert layer.stats.txns_aborted == 1
    assert len(layer.txns.log) == 1  # the abort never logged a commit


def test_context_manager_aborts_on_exception(kernel, network):
    layer = make_layer(kernel, network)

    def main():
        with layer.transaction("client") as txn:
            txn.write("a", "kept")
        with pytest.raises(RuntimeError):
            with layer.transaction("client") as txn:
                txn.write("a", "lost")
                raise RuntimeError("application error")
        assert txn.status == "aborted"
        return cell_value(layer, "a")

    assert kernel.run_main(main) == "kept"


def test_closed_txn_rejects_further_operations(kernel, network):
    layer = make_layer(kernel, network)

    def main():
        with layer.transaction("client") as txn:
            txn.write("a", 1)
        with pytest.raises(TxnAbortedError):
            txn.read("a")
        with pytest.raises(TxnAbortedError):
            txn.write("a", 2)

    kernel.run_main(main)


def test_read_only_txn_commits_without_a_commit_record(kernel, network):
    layer = make_layer(kernel, network)

    def main():
        with layer.transaction("client") as txn:
            txn.write("a", 1)
        with layer.transaction("client") as txn:
            txn.read("a")
        return txn.status

    assert kernel.run_main(main) == "committed"
    assert len(layer.txns.log) == 1
    # ... but its observations are recorded for the atomicity pass.
    assert any(r.reader.startswith("ro:") or r.reads
               for r in layer.txns.reads)


def test_history_fallback_preserves_atomic_visibility(kernel, network):
    """A reader that saw txn1's 'a' must not see txn2's 'b'.

    txn2 wrote both keys after the reader observed 'a'; returning
    txn2's newer 'b' would fracture txn2 (its 'a' was missed), so the
    read falls back to the older committed sibling from the history.
    """
    layer = make_layer(kernel, network, nodes=3)

    def main():
        with layer.transaction("client") as txn:
            txn.write("a", "a1")
            txn.write("b", "b1")
        reader = layer.transaction("client")
        with reader as txn:
            seen_a = txn.read("a")
            with layer.transaction("client") as writer:
                writer.write("a", "a2")
                writer.write("b", "b2")
            seen_b = txn.read("b")
            again = txn.read("a")
        return seen_a, seen_b, again

    assert kernel.run_main(main) == ("a1", "b1", "a1")
    assert find_fractured_reads(layer.txns.log, layer.txns.reads) == []


def test_forced_fetch_from_prepared(kernel, network):
    """Having read a committed key of a half-committed transaction,
    the sibling read is served from the *prepared* entry (RAMP's
    forced fetch) — the committed half proves the commit point."""
    layer = make_layer(kernel, network, nodes=2)

    def main():
        cid = next(layer.txns.cids)
        for key, value in (("c", "c1"), ("d", "d1")):
            layer.invoke("client", cell_ref(key), "__txn_prepare__",
                         args=("manual", cid, value, ("c", "d")),
                         ctor=layer.txns.ctor())
        # Commit lands on 'c' only; 'd' is still merely prepared.
        layer.invoke("client", cell_ref("c"), "__txn_commit__",
                     args=("manual", cid, "c1", ("c", "d")))
        with layer.transaction("client") as txn:
            return txn.read("c"), txn.read("d")

    assert kernel.run_main(main) == ("c1", "d1")
    assert layer.stats.txn_forced_fetches == 1


def test_commit_fence_rejects_unprepared_commit(kernel, network):
    """A commit for a transaction the primary never saw prepared is
    fenced out before installing anything — the failover case where
    the unreplicated prepare died with the old primary."""
    layer = make_layer(kernel, network)

    def main():
        cell_value(layer, "k")  # create
        with pytest.raises(TxnPrepareLostError):
            layer.invoke("client", cell_ref("k"), "__txn_commit__",
                         args=("ghost", 99, "v", ("k",)))
        return cell_value(layer, "k")

    assert kernel.run_main(main) is None  # nothing was installed
    assert layer.stats.txn_fence_trips == 1


def test_deferred_invoke_runs_only_on_commit(kernel, network):
    layer = make_layer(kernel, network)
    counter = DsoReference("Counter", "n")

    def main():
        txn = layer.transaction("client")
        with txn as t:
            t.invoke(counter, "add", (1,), ctor=CTOR)
            t.abort()
        aborted = layer.invoke("client", counter, "get", ctor=CTOR)
        with layer.transaction("client") as t:
            t.write("a", 1)
            t.invoke(counter, "add", (1,), ctor=CTOR)
        committed = layer.invoke("client", counter, "get", ctor=CTOR)
        return aborted, committed

    assert kernel.run_main(main) == (0, 1)


def test_interop_with_plain_reads(kernel, network):
    """Committed TxnCell state is visible to the non-transactional
    surface: ``get`` via invoke and the read_bulk sweep."""
    layer = make_layer(kernel, network, nodes=3)

    def main():
        with layer.transaction("client") as txn:
            for i in range(4):
                txn.write(f"k{i}", i * 10)
        refs = [cell_ref(f"k{i}") for i in range(4)]
        return layer.read_bulk("client", refs)

    assert kernel.run_main(main) == [0, 10, 20, 30]


def test_pinned_prepares_drain_after_commit(kernel, network):
    """No replica is left holding prepared soft state or pinned
    session entries once every transaction resolved."""
    layer = make_layer(kernel, network, nodes=3)

    def main():
        with layer.transaction("client") as txn:
            txn.write("a", 1)
            txn.write("b", 2)
        with layer.transaction("client") as txn:
            txn.write("a", 3)
            txn.abort()

    kernel.run_main(main)
    for node in layer.nodes.values():
        for container in node.containers.values():
            assert container.pinned_txns() == set()


def test_abort_releases_prepares_in_one_concurrent_round(kernel, network):
    """An abort after the prepares landed releases them the way they
    were made: one flush, every primary at once — about one round
    trip for six keys on three primaries, not six."""
    layer = make_layer(kernel, network, nodes=3)
    keys = tuple(f"k{i}" for i in range(6))

    def main():
        with layer.transaction("client") as txn:
            for key in keys:
                txn.write(key, 0)
        assert len({layer.placement_of(cell_ref(key))[0]
                    for key in keys}) == 3
        start = kernel.now
        layer.invoke("client", cell_ref("k0"), "latest_cid")
        round_trip = kernel.now - start
        txn = layer.transaction("client")
        for key in keys:
            txn.write(key, 1)
        session = layer.sessions.current("client")
        txn.txn_id = f"{session.sid}+t{session.next_seq}"
        txn._prepare_all(next(layer.txns.cids), keys)
        prepared = {txn_id for node in layer.nodes.values()
                    for container in node.containers.values()
                    for txn_id in container.pinned_txns()}
        start = kernel.now
        txn.abort()
        return prepared, txn.txn_id, (kernel.now - start) / round_trip

    prepared, txn_id, round_trips = kernel.run_main(main)
    assert prepared == {txn_id}
    assert round_trips < 2.5  # six sequential releases took six
    for node in layer.nodes.values():
        for container in node.containers.values():
            assert container.pinned_txns() == set()


def test_read_bulk_fractures_under_mid_sweep_write(kernel, network):
    """Regression pinning read_bulk's *documented* non-atomicity.

    The sweep serves one group per hosting node, sequentially in
    primary-name order; a transaction that commits both keys between
    the two groups' service instants is observed half-old, half-new.
    This fractured read is expected behaviour (see the read_bulk
    docstring) — the atomic alternative is reading inside a
    transaction, asserted at the end.
    """
    layer = make_layer(kernel, network, nodes=3)
    per_read = 0.02  # stretch each group's service window to ~20ms

    def main():
        # Find two cells hosted by *different* primaries, ordered so
        # key_a's group is served first (groups sort by primary name).
        key_a, key_b = None, None
        for i in range(32):
            key = f"frac-{i}"
            cell_value(layer, key)  # create + place
            primary = layer.placement_of(cell_ref(key))[0]
            if key_a is None:
                key_a, primary_a = key, primary
            elif primary != primary_a:
                key_b, primary_b = key, primary
                break
        assert key_b is not None
        if primary_b < primary_a:
            key_a, key_b = key_b, key_a
        with layer.transaction("client") as txn:
            txn.write(key_a, "old")
            txn.write(key_b, "old")

        results = {}

        def sweep():
            results["bulk"] = layer.read_bulk(
                "client", [cell_ref(key_a), cell_ref(key_b)],
                per_read_cost=per_read)

        reader = spawn(sweep, name="bulk-reader")
        # Commit mid-sweep: after group A's service instant (~20ms),
        # before group B's (~40ms).
        sleep(per_read * 1.25)
        with layer.transaction("client") as txn:
            txn.write(key_a, "new")
            txn.write(key_b, "new")
        reader.join()

        with layer.transaction("client") as txn:
            atomic = [txn.read(key_a), txn.read(key_b)]
        return results["bulk"], atomic

    bulk, atomic = kernel.run_main(main)
    # The sweep fractured the writer: stale first key, fresh second.
    assert bulk == ["old", "new"]
    # The transactional read of the same keys never fractures.
    assert atomic == ["new", "new"]
    assert find_fractured_reads(layer.txns.log, layer.txns.reads) == []
