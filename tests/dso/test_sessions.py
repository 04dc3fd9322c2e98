"""Exactly-once method shipping: replicated client sessions.

Covers the session table itself, the DSO layer's dedup behaviour
(retries, named-session replay, rebalance, passivation), truncation by
the acknowledgement watermark, and the SMR substrate's stamped path.
"""

import gc
import weakref

import pytest

from repro.config import DEFAULT_CONFIG
from repro.dso import DsoReference
from repro.dso.session import SessionStamp, SessionTable
from repro.errors import SessionReplayError
from repro.simulation import Kernel
from repro.simulation.thread import sleep, spawn
from repro.storage import ObjectStore
from tests.conftest import make_layer


class Counter:
    def __init__(self, value=0):
        self.value = value

    def add(self, delta):
        self.value += delta
        return self.value

    def get(self):
        return self.value


CTOR = (Counter, (), {})


def ref(key, rf=1):
    return DsoReference("Counter", key, persistent=rf > 1, rf=rf)


@pytest.fixture
def kernel():
    with Kernel(seed=7) as k:
        yield k


# -- the table itself ---------------------------------------------------------


def test_table_records_and_replays():
    table = SessionTable()
    stamp = SessionStamp("c1", 0)
    assert table.lookup(stamp) is None
    table.record(stamp, "reply-0", committed=True)
    entry = table.lookup(stamp)
    assert entry is not None
    assert entry.reply == "reply-0"
    assert entry.committed


def test_table_truncates_below_watermark():
    table = SessionTable()
    table.record(SessionStamp("c1", 0), "r0", committed=True)
    # seq 1 arrives carrying acked=0: r0 may be forgotten.
    table.record(SessionStamp("c1", 1, acked=0), "r1", committed=True)
    assert table.entry_count() == 1
    # Replaying the truncated seq is a protocol violation.
    with pytest.raises(SessionReplayError):
        table.lookup(SessionStamp("c1", 0, acked=0))


def test_table_eviction_prefers_fully_acked_sessions():
    table = SessionTable(limit=2)
    table.record(SessionStamp("cold", 0), "r", committed=True)
    table.truncate(SessionStamp("cold", 0, acked=0))  # now entry-less
    table.record(SessionStamp("hot", 0), "r", committed=True)
    table.record(SessionStamp("new", 0), "r", committed=True)
    assert "cold" not in table.sessions()
    assert set(table.sessions()) == {"hot", "new"}


def test_table_merge_keeps_remembered_replies():
    a, b = SessionTable(), SessionTable()
    a.record(SessionStamp("s", 0), "original", committed=True)
    b.merge_from(a)
    assert b.lookup(SessionStamp("s", 0)).reply == "original"


# -- layer-level dedup --------------------------------------------------------


def test_named_session_replays_cached_replies(kernel, network):
    """Re-entering a named session returns the original replies
    without re-executing — the whole block is exactly-once."""
    layer = make_layer(kernel, network, nodes=2)
    r = ref("job-counter")

    def main():
        with layer.session("job-1"):
            first = layer.invoke("client", r, "add", (1,), ctor=CTOR)
        with layer.session("job-1"):  # the "retry"
            replayed = layer.invoke("client", r, "add", (1,), ctor=CTOR)
        final = layer.invoke("client", r, "get", ctor=CTOR)
        return first, replayed, final

    first, replayed, final = kernel.run_main(main)
    assert first == replayed == 1
    assert final == 1  # applied once, not twice
    assert layer.stats.dedup_hits == 1


def test_named_session_resumes_past_the_replayed_prefix(kernel, network):
    """A replay executes for real from the first call the previous run
    never made — partial progress is kept, the rest continues."""
    layer = make_layer(kernel, network, nodes=2)
    r = ref("resume")

    def main():
        with layer.session("step"):
            layer.invoke("client", r, "add", (1,), ctor=CTOR)
            layer.invoke("client", r, "add", (1,), ctor=CTOR)
        with layer.session("step"):
            a = layer.invoke("client", r, "add", (1,), ctor=CTOR)
            b = layer.invoke("client", r, "add", (1,), ctor=CTOR)
            c = layer.invoke("client", r, "add", (1,), ctor=CTOR)  # new
        return a, b, c, layer.invoke("client", r, "get", ctor=CTOR)

    a, b, c, final = kernel.run_main(main)
    assert (a, b) == (1, 2)  # cached
    assert c == 3  # freshly executed
    assert final == 3
    assert layer.stats.dedup_hits == 2


def test_retire_session_allows_re_execution(kernel, network):
    layer = make_layer(kernel, network, nodes=2)
    r = ref("retire")

    def main():
        with layer.session("once"):
            layer.invoke("client", r, "add", (1,), ctor=CTOR)
        retired = layer.retire_session("client", "once")
        with layer.session("once"):
            layer.invoke("client", r, "add", (1,), ctor=CTOR)
        return retired, layer.invoke("client", r, "get", ctor=CTOR)

    retired, final = kernel.run_main(main)
    assert retired == 1
    assert final == 2  # retired session re-executes


def test_thread_sessions_stay_truncated(kernel, network):
    """Each acked invocation truncates its predecessor: a thread
    session holds at most one reply per container."""
    layer = make_layer(kernel, network, nodes=1)
    r = ref("tight")

    def main():
        for _ in range(20):
            layer.invoke("client", r, "add", (1,), ctor=CTOR)

    kernel.run_main(main)
    (node,) = layer.nodes.values()
    container = node.containers[r.ident]
    assert container.sessions.entry_count() <= 1


def test_thread_sessions_go_with_their_threads(kernel, network):
    """A thread's implicit session lives no longer than the thread: the
    open-loop generator spawns one thread per request, so a registry
    that kept every thread's session would grow by one per request."""
    layer = make_layer(kernel, network, nodes=1)
    r = ref("short-lived")
    sessions = []

    def request():
        layer.invoke("client", r, "add", (1,), ctor=CTOR)
        sessions.append(weakref.ref(layer.sessions.current("client")))

    def main():
        for _ in range(20):
            spawn(request).join()

    kernel.run_main(main)
    gc.collect()
    assert len(sessions) == 20
    assert sessions[0]() is None


def test_dedup_state_replicates_to_backups(kernel, network):
    """With rf=2, the backup remembers the same stamps the primary
    does — that is what makes dedup survive failover."""
    layer = make_layer(kernel, network, nodes=2)
    r = ref("rep", rf=2)

    def main():
        layer.invoke("client", r, "add", (1,), ctor=CTOR)

    kernel.run_main(main)
    primary, backup = layer.placement_of(r)
    psessions = layer.nodes[primary].containers[r.ident].sessions
    bsessions = layer.nodes[backup].containers[r.ident].sessions
    assert psessions.sessions() == bsessions.sessions()
    assert bsessions.entry_count() == psessions.entry_count() >= 1


def test_sessions_migrate_with_rebalanced_objects(kernel, network):
    """Adding a node moves objects to new consistent-hash owners; the
    dedup tables move with them, so a named-session replay against the
    new owner still hits."""
    layer = make_layer(kernel, network, nodes=1)
    r = ref("mover")
    timings = DEFAULT_CONFIG.dso

    def main():
        with layer.session("migrate-job"):
            layer.invoke("client", r, "add", (5,), ctor=CTOR)
        before = layer.placement_of(r)
        layer.add_node()
        sleep(timings.view_change_pause + timings.transfer_per_object * 4
              + 1.0)
        after = layer.placement_of(r)
        with layer.session("migrate-job"):
            replayed = layer.invoke("client", r, "add", (5,), ctor=CTOR)
        return before, after, replayed, layer.invoke(
            "client", r, "get", ctor=CTOR)

    before, after, replayed, final = kernel.run_main(main)
    assert replayed == 5
    assert final == 5
    assert layer.stats.dedup_hits == 1


def test_sessions_survive_passivate_restore(kernel, network):
    """Passivation snapshots include the session table: replays dedup
    even after the object was lost and restored from the store."""
    layer = make_layer(kernel, network, nodes=2)
    store = ObjectStore(kernel)
    r = ref("phoenix")

    def main():
        with layer.session("checkpointed"):
            layer.invoke("client", r, "add", (3,), ctor=CTOR)
        key = layer.placements.passivate("client", r, store)
        layer.placements.delete("client", r)
        layer.placements.restore("client", r, store, key)
        with layer.session("checkpointed"):
            replayed = layer.invoke("client", r, "add", (3,), ctor=CTOR)
        return replayed, layer.invoke("client", r, "get", ctor=CTOR)

    replayed, final = kernel.run_main(main)
    assert replayed == 3
    assert final == 3
    assert layer.stats.dedup_hits == 1


def test_dedup_hit_emits_trace_span(kernel, network):
    kernel.enable_tracing()
    layer = make_layer(kernel, network, nodes=2)
    r = ref("traced")

    def main():
        with layer.session("traced-job"):
            layer.invoke("client", r, "add", (1,), ctor=CTOR)
        with layer.session("traced-job"):
            layer.invoke("client", r, "add", (1,), ctor=CTOR)

    kernel.run_main(main)
    hits = [s for s in kernel.tracer.spans if s.name == "dso.dedup_hit"]
    assert len(hits) == 1
    assert hits[0].attributes["session"] == "named:traced-job"
    assert hits[0].attributes["seq"] == 0
    # Client spans carry the stamp too, for cross-referencing.
    invokes = [s for s in kernel.tracer.spans
               if s.name.startswith("dso.invoke:")]
    assert all("session" in s.attributes for s in invokes)


# -- the SMR substrate's stamped path ----------------------------------------


def test_smr_invoke_with_stamp_dedups(kernel, network):
    from repro.cluster.membership import MembershipService
    from repro.cluster.node import Node
    from tests.oracles.replica import ReplicatedStateMachine

    membership = MembershipService(kernel, failure_detection_delay=1.0)
    for name in ("a", "b", "c"):
        membership.join(Node(kernel, network, name))
    rsm = ReplicatedStateMachine(kernel, network, membership, Counter)

    def main():
        stamp = SessionStamp("client#s0", 0)
        first = rsm.invoke("client", "add", 1, session=stamp)
        again = rsm.invoke("client", "add", 1, session=stamp)
        return first, again

    first, again = kernel.run_main(main)
    assert first == again == 1
    for member in ("a", "b", "c"):
        assert rsm.copy_of(member).value == 1
        assert len(rsm.log_of(member)) == 1
