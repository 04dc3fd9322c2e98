"""Unit tests for the ZooKeeper-like keeper service (ROADMAP item 3).

Covers the znode tree semantics (CRUD, versions, CAS guards,
sequential and ephemeral nodes), sessions (leases, heartbeats, expiry,
container liveness), ordered one-shot watches through the fence, and
the classic recipes built on top.
"""

from dataclasses import replace

import pytest

from repro import (
    BadVersionError,
    CrucialEnvironment,
    KeeperError,
    KeeperService,
    NoNodeError,
    NodeExistsError,
    NotEmptyError,
    SessionExpiredError,
    find_watch_violations,
)
from repro.errors import SimTimeoutError
from repro.config import DEFAULT_CONFIG
from repro.coordination import (
    ConfigWatcher,
    KeeperBarrier,
    KeeperSemaphore,
    LeaderElector,
)
from repro.net import LatencyModel
from repro.simulation import thread as thread_module
from repro.simulation.thread import sleep, spawn


@pytest.fixture
def env():
    with CrucialEnvironment(seed=11, dso_nodes=1) as environment:
        yield environment


def make_service(**kwargs):
    kwargs.setdefault("rf", 1)
    kwargs.setdefault("session_ttl", 2.0)
    kwargs.setdefault("pump_period", 0.05)
    return KeeperService(**kwargs)


# ---------------------------------------------------------------------------
# znode tree semantics
# ---------------------------------------------------------------------------


def test_create_get_set_delete_roundtrip(env):
    def main():
        keeper = make_service(name="crud")
        with keeper.session() as s:
            s.create("/app")
            s.create("/app/config", data={"workers": 4})
            assert s.get("/app/config") == ({"workers": 4}, 0)
            assert s.set("/app/config", {"workers": 8}) == 1
            assert s.get("/app/config") == ({"workers": 8}, 1)
            assert s.children("/app") == ("config",)
            assert s.exists("/app/config") == 1
            s.delete("/app/config")
            assert s.exists("/app/config") is None
        keeper.stop()

    env.run(main)


def test_error_paths(env):
    def main():
        keeper = make_service(name="errs")
        with keeper.session() as s:
            with pytest.raises(NoNodeError):
                s.get("/missing")
            with pytest.raises(NoNodeError):
                s.create("/no/parent/here")
            s.create("/a")
            with pytest.raises(NodeExistsError):
                s.create("/a")
            s.create("/a/b")
            with pytest.raises(NotEmptyError):
                s.delete("/a")
            with pytest.raises(KeeperError):
                s.create("/", data="root has no name")
            # Ephemerals are leaves: no children under them.
            s.create("/a/eph", ephemeral=True)
            with pytest.raises(KeeperError):
                s.create("/a/eph/child")
        keeper.stop()

    env.run(main)


def test_version_cas_guards(env):
    def main():
        keeper = make_service(name="cas")
        with keeper.session() as s:
            s.create("/k", data=0)
            assert s.set("/k", 1, version=0) == 1
            with pytest.raises(BadVersionError):
                s.set("/k", 99, version=0)  # stale expected version
            with pytest.raises(BadVersionError):
                s.delete("/k", version=0)
            assert s.get("/k") == (1, 1)  # failed ops left no trace
            s.delete("/k", version=1)
            assert s.exists("/k") is None
        keeper.stop()

    env.run(main)


def test_sequential_names_dense_and_ordered(env):
    def main():
        keeper = make_service(name="seq")
        with keeper.session() as s:
            s.create("/q")
            created = [s.create("/q/item-", sequential=True)
                       for _ in range(5)]
            # Dense zero-padded counters; sorted order == create order.
            names = [p.rsplit("/", 1)[1] for p in created]
            assert names == [f"item-{i:010d}" for i in range(5)]
            assert tuple(sorted(names)) == s.children("/q")
            # The counter never reuses a slot, even after a delete.
            s.delete(created[2])
            assert s.create("/q/item-", sequential=True) \
                == "/q/item-" + f"{5:010d}"
        keeper.stop()

    env.run(main)


def test_watches_fire_once_in_kind(env):
    def main():
        keeper = make_service(name="watch")
        with keeper.session(name="writer") as w, \
                keeper.session(name="observer") as o:
            w.create("/cfg", data=1)
            o.get("/cfg", watch=True)
            o.children("/", watch=True)
            w.set("/cfg", 2)
            changed = o.next_event(timeout=10.0)
            assert (changed.kind, changed.path) == ("changed", "/cfg")
            # One-shot: a second write without re-arming is silent.
            w.set("/cfg", 3)
            assert o.next_event(timeout=1.0) is None
            # Re-arm, then delete: data watch reports the deletion and
            # the root children watch reports the shrink.
            o.get("/cfg", watch=True)
            w.delete("/cfg")
            kinds = {e.kind for e in o.events(2, timeout=10.0)}
            assert kinds == {"deleted", "children"}
        keeper.stop()

    env.run(main)


def test_exists_watch_on_absent_path_fires_on_create(env):
    def main():
        keeper = make_service(name="absent")
        with keeper.session(name="w") as w, \
                keeper.session(name="o") as o:
            assert o.exists("/later", watch=True) is None
            w.create("/later", data="here")
            event = o.next_event(timeout=10.0)
            assert (event.kind, event.path) == ("created", "/later")
        keeper.stop()

    env.run(main)


def test_watch_stream_obeys_global_write_order(env):
    """Many watches armed before a write burst: the fence releases
    events seq-dense and zxid-ordered despite the queue's heavy-tailed
    delivery lag."""
    def main():
        keeper = make_service(name="order")
        with keeper.session(name="w") as w, \
                keeper.session(name="o") as o:
            paths = [f"/n{i}" for i in range(12)]
            for path in paths:
                o.exists(path, watch=True)
            for path in paths:
                w.create(path)
            events = list(o.events(len(paths), timeout=30.0))
            assert len(events) == len(paths)
            sleep(1.0)  # let the pump quiesce before the audit
            assigned = keeper.assigned_counts()
            keeper.stop()
            return events, assigned

    events, assigned = env.run(main)
    assert [e.seq for e in events] == list(range(1, len(events) + 1))
    zxids = [e.zxid for e in events]
    assert zxids == sorted(zxids)
    assert not find_watch_violations({"o": events}, assigned)


# ---------------------------------------------------------------------------
# delivery: a firing write wakes the pump, the ack is off the path
# ---------------------------------------------------------------------------

#: Fixed SQS latencies, so a delivery's deadline is exact.
LAG, RECEIVE = 0.25, 0.015


def fixed_sqs(ack: float = 0.015):
    storage = replace(DEFAULT_CONFIG.storage,
                      sqs_delivery_lag=LatencyModel(LAG),
                      sqs_receive=LatencyModel(RECEIVE),
                      sqs_send=LatencyModel(ack))
    return replace(DEFAULT_CONFIG, storage=storage)


def session_queue(env, keeper, session):
    return env.queue_service._queue(keeper._queue_name(session.sid))


def test_firing_writes_deliver_without_waiting_for_the_pump_period():
    """With a 30 s pump period the pump is only a backstop: a set's
    watchers and a sweeper expiry's watchers get their events within
    one SQS lag plus one receive (plus the write's and the drain's
    DSO round trips, a few hundred microseconds)."""
    bound = LAG + RECEIVE + 0.005
    with CrucialEnvironment(seed=11, dso_nodes=1,
                            config=fixed_sqs()) as env:
        def main():
            keeper = make_service(name="push", pump_period=30.0)
            writer = keeper.session(name="writer", ttl=60.0)
            watchers = [keeper.session(name=f"w{i}", ttl=60.0)
                        for i in range(6)]
            holder = keeper.session(name="holder", ttl=1.0)
            writer.create("/conf", data=0)
            holder.create("/lock", ephemeral=True)
            arrivals = []

            def await_event(session):
                event = session.next_event(timeout=10.0)
                arrivals.append((event and event.path, env.now))

            for session in watchers:
                session.get("/conf", watch=True)
            threads = [spawn(await_event, s) for s in watchers]
            sleep(0.5)  # every watcher is long-polling
            set_at = env.now
            writer.set("/conf", 1)
            for thread in threads:
                thread.join()
            set_delays = [at - set_at for _, at in arrivals]
            set_paths = {path for path, _ in arrivals}

            arrivals.clear()
            for session in watchers:
                session.exists("/lock", watch=True)
            threads = [spawn(await_event, s) for s in watchers]
            holder.kill()
            while writer.exists("/lock") is not None:
                sleep(0.001)
            gone_at = env.now  # the sweep's expiry acked before this
            for thread in threads:
                thread.join()
            expiry_delays = [at - gone_at for _, at in arrivals]
            keeper.stop()
            return set_paths, set_delays, expiry_delays, \
                {path for path, _ in arrivals}

        set_paths, set_delays, expiry_delays, expiry_paths = env.run(main)
    assert set_paths == {"/conf"} and expiry_paths == {"/lock"}
    assert max(set_delays) <= bound
    assert max(expiry_delays) <= bound


def test_next_event_returns_at_visibility_before_the_ack_lands():
    ack = 0.1
    with CrucialEnvironment(seed=11, dso_nodes=1,
                            config=fixed_sqs(ack)) as env:
        def main():
            keeper = make_service(name="ack")
            writer = keeper.session(name="writer")
            watcher = keeper.session(name="watcher")
            writer.create("/conf", data=0)
            watcher.get("/conf", watch=True)
            spawn(lambda: (sleep(0.5), writer.set("/conf", 1)))
            event = watcher.next_event(timeout=10.0)
            returned = env.now
            queue = session_queue(env, keeper, watcher)
            (message,) = queue.messages  # still there: the ack is in flight
            sleep(ack)
            left = len(queue.messages)
            keeper.stop()
            return event, returned, message, left

        event, returned, message, left = env.run(main)
    assert event.path == "/conf"
    # Long-polling, the watcher returns the instant the message turns
    # visible, and the receive at that instant is the last thing it did.
    assert returned == pytest.approx(message.enqueued_at + LAG)
    assert message.invisible_until == pytest.approx(returned + 30.0)
    assert left == 0


def test_redelivery_before_the_ack_lands_is_dropped_by_the_fence():
    """The ack takes longer than the visibility timeout, so the first
    event's message is received a second time: the seq fence drops the
    copy, and the application's stream is the one the tree assigned."""
    with CrucialEnvironment(seed=11, dso_nodes=1,
                            config=fixed_sqs(ack=0.5)) as env:
        def main():
            keeper = make_service(name="redo")
            writer = keeper.session(name="writer")
            watcher = keeper.session(name="watcher")
            queue = session_queue(env, keeper, watcher)
            queue.visibility_timeout = 0.05
            writer.create("/conf", data=0)
            watcher.get("/conf", watch=True)
            writer.set("/conf", 1)
            first = watcher.next_event(timeout=10.0)
            (message,) = queue.messages
            watcher.get("/conf", watch=True)
            spawn(lambda: (sleep(0.2), writer.set("/conf", 2)))
            second = watcher.next_event(timeout=10.0)
            third = watcher.next_event(timeout=1.0)
            sleep(1.0)
            assigned = keeper.assigned_counts()
            keeper.stop()
            return first, second, third, message.receive_count, \
                watcher.delivered, assigned

        first, second, third, receives, delivered, assigned = env.run(main)
    assert receives >= 2  # the copy really was received again
    assert [first.seq, second.seq] == [1, 2]
    assert third is None
    assert [e.seq for e in delivered] == [1, 2]
    assert not find_watch_violations({"watcher": delivered},
                                     {"watcher": assigned["watcher"]})


# ---------------------------------------------------------------------------
# sessions: leases, expiry, liveness
# ---------------------------------------------------------------------------


def test_close_deletes_ephemerals_immediately(env):
    def main():
        keeper = make_service(name="bye")
        auditor = keeper.session(name="aud")
        s = keeper.session(name="tmp")
        s.create("/svc")
        s.create("/svc/me", ephemeral=True)
        assert auditor.exists("/svc/me") == 0
        s.close()
        gone_at_close = auditor.exists("/svc/me") is None
        persistent_kept = auditor.exists("/svc") == 0
        auditor.close()
        keeper.stop()
        return gone_at_close, persistent_kept

    gone, kept = env.run(main)
    assert gone and kept


def test_killed_session_expires_within_two_ttl(env):
    """A fail-stopped holder's ephemerals are reaped by the sweeper
    within 2x the session TTL (the ISSUE's detection bound)."""
    ttl = 2.0

    def main():
        keeper = make_service(name="exp", session_ttl=ttl)
        auditor = keeper.session(name="aud", ttl=60.0)
        holder = keeper.session(name="holder")
        holder.create("/lock", ephemeral=True)
        sleep(3 * ttl)  # heartbeats keep the lease alive meanwhile
        assert auditor.exists("/lock") == 0
        killed_at = env.now
        holder.kill()
        while auditor.exists("/lock") is not None:
            sleep(0.1)
            assert env.now - killed_at < 2 * ttl + 0.5, \
                "ephemeral outlived the expiry bound"
        detection = env.now - killed_at
        sleep(ttl)  # let the sweeper mark the local session
        state = holder.state
        auditor.close()
        keeper.stop()
        return detection, state

    detection, state = env.run(main)
    assert detection <= 2 * ttl
    assert state == "expired"


def test_session_state_machine(env):
    def main():
        keeper = make_service(name="states")
        s = keeper.session(name="s")
        assert s.state == "open"
        s.close()
        assert s.state == "closed"
        with pytest.raises(SessionExpiredError):
            s.create("/x")
        # A *killed* session is a zombie: ops still reach the server
        # until the lease lapses, then fail with SessionExpiredError.
        z = keeper.session(name="z", ttl=1.0)
        z.kill()
        assert z.state == "killed"
        z.create("/zombie-write")  # lease not lapsed yet: accepted
        sleep(3.0)
        with pytest.raises(SessionExpiredError):
            z.create("/too-late")
        keeper.stop()

    env.run(main)


def test_expired_sessions_watches_are_dropped(env):
    def main():
        keeper = make_service(name="drop", session_ttl=1.0)
        w = keeper.session(name="w", ttl=30.0)
        dead = keeper.session(name="dead")
        w.create("/t", data=0)
        dead.get("/t", watch=True)
        dead.kill()
        sleep(3.0)  # lease lapses; registration dropped with it
        w.set("/t", 1)
        sleep(1.0)
        assigned = keeper.assigned_counts()
        keeper.stop()
        return assigned

    assigned = env.run(main)
    assert assigned.get("dead", 0) == 0


def test_container_reclaim_abandons_function_sessions(env):
    """FaaSKeeper's liveness rule: a session opened inside a function
    container dies with the container — no goodbye, the lease just
    stops being renewed and the sweeper reaps the ephemerals."""
    ttl = 2.0

    def main():
        keeper = make_service(name="faas", session_ttl=ttl)

        def handler(ctx, payload):
            # The handler declares its container as the session home,
            # tying the lease to the container's liveness.
            session = keeper.session(name="fn-session",
                                     home=ctx.endpoint)
            session.create("/workers")
            session.create("/workers/me", ephemeral=True,
                           data=ctx.endpoint)
            return ctx.endpoint

        env.platform.deploy("keeper-worker", handler)
        auditor = keeper.session(name="aud", ttl=60.0)
        home = env.platform.invoke("client", "keeper-worker")
        assert auditor.exists("/workers/me") == 0
        # The invocation is over; the platform reclaims the idle
        # container, which abandons the session it hosted.
        reclaimed_at = env.now
        assert env.platform.reclaim_idle("keeper-worker", keep=0) == 1
        while auditor.exists("/workers/me") is not None:
            sleep(0.1)
            assert env.now - reclaimed_at < 2 * ttl + 0.5
        detection = env.now - reclaimed_at
        auditor.close()
        keeper.stop()
        return home, detection

    home, detection = env.run(main)
    # The session's home really was the function container.
    assert "keeper-worker" in home
    assert detection <= 2 * ttl


def test_idle_heartbeats_hold_no_os_threads(env, monkeypatch):
    """Sessions that only heartbeat share a few OS workers: between
    beats a heartbeat is a pending wakeup, not a parked thread."""
    made = []
    original = thread_module._Worker.__init__

    def counting(worker):
        made.append(worker)
        original(worker)

    monkeypatch.setattr(thread_module._Worker, "__init__", counting)

    def main():
        keeper = make_service(name="idle")
        sessions = [keeper.session(name=f"s{i}") for i in range(40)]
        sleep(5.0)  # seven beats each
        for session in sessions:
            session.close()
        keeper.stop()

    env.run(main)
    assert len(made) <= 6


def test_a_heartbeat_bug_is_reported_not_read_as_a_lapsed_lease(env):
    """Only a typed verdict (a lapsed lease, an outlasted failover)
    stops a heartbeat quietly; a programming error in a beat ends the
    heartbeat thread as a failure the kernel reports."""

    def main():
        keeper = make_service(name="bug")
        session = keeper.session(name="s")
        call = keeper._call

        def broken(method, *args):
            if method == "touch":
                raise ValueError("beat broke")
            return call(method, *args)

        keeper._call = broken
        sleep(1.0)
        keeper._call = call
        # The failed heartbeat is not reused: a new session beats anew.
        renewed = keeper.session(name="t")._heartbeat
        keeper.stop()
        return session, renewed

    session, renewed = env.run(main)
    assert renewed is not session._heartbeat
    failed = env.kernel.failed_threads
    assert [thread.name for thread in failed] \
        == ["bug-client-ttl2-heartbeat"]
    assert isinstance(failed[0].exception, ValueError)
    assert session._heartbeat.done


# ---------------------------------------------------------------------------
# heartbeats: one batched renewal per (endpoint, TTL)
# ---------------------------------------------------------------------------


def record_touches(keeper):
    """Log every lease renewal the keeper ships: (virtual time, sids)."""
    touches = []
    invoke = keeper._invoke

    def logging(method, *args):
        if method == "touch":
            touches.append((keeper._env.now, args[0]))
        return invoke(method, *args)

    keeper._invoke = logging
    return touches


def test_one_endpoints_sessions_share_one_renewal_per_period(env):
    ttl = 2.0

    def main():
        keeper = make_service(name="group", session_ttl=ttl)
        touches = record_touches(keeper)
        sessions = [keeper.session(name=f"s{i}") for i in range(40)]
        sleep(5.0)
        for session in sessions:
            assert not session.expired
            session.close()
        keeper.stop()
        return touches, {s.sid for s in sessions}

    touches, sids = env.run(main)
    # One touch per ttl/3 period for all 40 sessions, not 40 per period.
    assert len(touches) == int(5.0 // (ttl / 3.0))
    assert all(set(batch) == sids for _at, batch in touches)


def test_a_session_joining_mid_beat_is_renewed_right_after_it(env):
    ttl = 2.0

    def main():
        keeper = make_service(name="late", session_ttl=ttl)
        touches = record_touches(keeper)
        invoke = keeper._invoke
        joined = []

        def opening_mid_beat(method, *args):
            if method == "touch" and not joined:
                # The batch is already cut: "late" is not in it.
                joined.append((env.now, keeper.session(name="late")))
            return invoke(method, *args)

        keeper._invoke = opening_mid_beat
        keeper.session(name="early")
        sleep(ttl)
        keeper.stop()
        return touches, joined[0][0]

    touches, joined_at = env.run(main)
    (first, batch), (second, next_batch) = touches[:2]
    assert batch == ("early",)
    # Renewed as soon as the beat in flight returns, not ttl/3 later.
    assert set(next_batch) == {"early", "late"}
    assert second - joined_at < 0.01


def test_sessions_of_another_home_or_ttl_never_share_a_renewal(env):
    def main():
        keeper = make_service(name="split", session_ttl=2.0)
        touches = record_touches(keeper)
        groups = [
            {keeper.session(name="a1").sid, keeper.session(name="a2").sid},
            {keeper.session(name="b", home="elsewhere").sid},
            {keeper.session(name="c", ttl=3.0).sid},
        ]
        sleep(4.0)
        keeper.stop()
        return touches, groups

    touches, groups = env.run(main)
    batches = [set(batch) for _at, batch in touches]
    assert all(batch in groups for batch in batches)
    assert all(group in batches for group in groups)


def test_a_reclaimed_containers_heartbeat_stops_and_others_beat_on(env):
    ttl = 2.0

    def main():
        keeper = make_service(name="reclaim", session_ttl=ttl)
        touches = record_touches(keeper)
        hosted = []

        def handler(ctx, payload):
            hosted.extend(keeper.session(name=f"fn{i}", home=ctx.endpoint)
                          for i in range(2))

        env.platform.deploy("keeper-group", handler)
        local = keeper.session(name="local")
        env.platform.invoke("client", "keeper-group")
        sleep(ttl)  # both groups beat
        assert env.platform.reclaim_idle("keeper-group", keep=0) == 1
        reclaimed_at = env.now
        sleep(2 * ttl)
        states = [session.state for session in hosted]
        stopped = hosted[0]._heartbeat.done
        beating = not local._heartbeat.done
        local.close()
        keeper.stop()
        return touches, reclaimed_at, states, stopped, beating

    touches, reclaimed_at, states, stopped, beating = env.run(main)
    assert {"fn0", "fn1"} in [set(batch) for at, batch in touches
                              if at < reclaimed_at]
    after = [set(batch) for at, batch in touches if at > reclaimed_at]
    assert after and all(batch == {"local"} for batch in after)
    assert states == ["expired", "expired"]
    assert stopped and beating


def test_heartbeat_and_pump_drain_spans(env):
    """Traced, a beat is a ``keeper.heartbeat`` span on its endpoint
    counting renewed and dropped sessions, and every outbox drain is a
    ``keeper.pump.drain`` span counting the events it moved."""
    tracer = env.kernel.enable_tracing()

    def main():
        keeper = make_service(name="spans", session_ttl=2.0)
        writer = keeper.session(name="writer")
        watcher = keeper.session(name="watcher")
        writer.create("/conf", data=0)
        watcher.get("/conf", watch=True)
        writer.set("/conf", 1)
        assert watcher.next_event(timeout=10.0).path == "/conf"
        sleep(1.0)  # one beat renews both
        # Another client ends the watcher's session on the tree: the
        # next beat reads it as gone and drops it from the group.
        keeper._call("close_session", "watcher")
        sleep(2.0)
        writer.close()
        keeper.stop()
        return watcher._heartbeat.members

    members = env.run(main)
    assert "watcher" not in members
    beats = [span for span in tracer.spans
             if span.name == "keeper.heartbeat"]
    assert beats and {span.endpoint for span in beats} == {"client"}
    counts = [(span.attributes["renewed"], span.attributes["dropped"])
              for span in beats]
    assert counts[0] == (2, 0) and (1, 1) in counts
    drains = [span.attributes["events"] for span in tracer.spans
              if span.name == "keeper.pump.drain"]
    assert sum(drains) >= 1


# ---------------------------------------------------------------------------
# replication + audit
# ---------------------------------------------------------------------------


def test_replicated_tree_audit_log():
    with CrucialEnvironment(seed=13, dso_nodes=3) as env:
        def main():
            keeper = make_service(name="audit", rf=2)
            with keeper.session() as s:
                s.create("/a", data=1)
                s.set("/a", 2)
                s.create("/a/b")
                s.delete("/a/b")
                acked = list(s.acked)
            log = keeper.zxid_log()
            dump = keeper.dump()
            keeper.stop()
            return acked, log, dump

        acked, log, dump = env.run(main)
    # zxids are dense and every acked write is in the log exactly once.
    assert [z for z, _, _ in log] == list(range(1, len(log) + 1))
    logged = {(op, path, zxid) for zxid, op, path in log}
    for op, path, zxid in acked:
        assert (op, path, zxid) in logged
    assert dump["/a"] == (2, 1, None)
    assert "/a/b" not in dump


# ---------------------------------------------------------------------------
# recipes
# ---------------------------------------------------------------------------


def test_barrier_rendezvous(env):
    parties, rounds = 4, 2

    def main():
        keeper = make_service(name="bar")
        passes = []

        def party(i):
            with keeper.session(name=f"p{i}") as session:
                barrier = KeeperBarrier(session, "/barrier", parties)
                for round_number in range(rounds):
                    barrier.wait(round_number)
                    passes.append((i, round_number))

        threads = [spawn(party, i, name=f"party-{i}")
                   for i in range(parties)]
        for thread in threads:
            thread.join()
        keeper.stop()
        return passes

    passes = env.run(main)
    assert len(passes) == parties * rounds
    # Nobody passes round 1 before every party passed round 0.
    order = [r for _, r in passes]
    assert order == sorted(order)


def test_semaphore_bounds_concurrency(env):
    permits, workers = 2, 6

    def main():
        keeper = make_service(name="sem")
        active = [0]
        high_water = [0]

        def worker(i):
            with keeper.session(name=f"w{i}") as session:
                sem = KeeperSemaphore(session, "/sem", permits)
                with sem:
                    active[0] += 1
                    high_water[0] = max(high_water[0], active[0])
                    sleep(0.5)
                    active[0] -= 1

        threads = [spawn(worker, i, name=f"worker-{i}")
                   for i in range(workers)]
        for thread in threads:
            thread.join()
        keeper.stop()
        return high_water[0]

    assert env.run(main) == permits


def test_leader_election_and_failover(env):
    def main():
        keeper = make_service(name="elect", session_ttl=2.0)
        sessions = {m: keeper.session(name=m) for m in ("c0", "c1", "c2")}
        electors = {m: LeaderElector(sessions[m], "/svc", m)
                    for m in sessions}
        for member in ("c0", "c1", "c2"):  # deterministic ranks
            electors[member].volunteer()
        electors["c0"].lead(timeout=30.0)
        assert electors["c0"].is_leader()
        assert not electors["c1"].is_leader()
        first = sessions["c2"].get("/svc/leader")[0]

        # The leader fail-stops; its successor must take over.
        fell_at = env.now
        sessions["c0"].kill()
        electors["c1"].lead(timeout=60.0)
        convergence = env.now - fell_at
        second = sessions["c2"].get("/svc/leader")[0]
        for name in ("c1", "c2"):
            sessions[name].close()
        keeper.stop()
        return first, second, convergence

    first, second, convergence = env.run(main)
    assert (first, second) == ("c0", "c1")
    # Failover = lease expiry + one watch delivery: well under 4x TTL.
    assert convergence < 8.0


def test_barrier_deadline_raises_a_typed_timeout(env):
    def main():
        keeper = make_service(name="bar-late")
        with keeper.session(name="alone") as session:
            barrier = KeeperBarrier(session, "/late", parties=2)
            with pytest.raises(SimTimeoutError, match="/late/round-0"):
                barrier.wait(0, timeout=1.0)
        keeper.stop()

    env.run(main)


def test_semaphore_deadline_raises_a_typed_timeout(env):
    def main():
        keeper = make_service(name="sem-late")
        with keeper.session(name="holder") as holder, \
                keeper.session(name="waiter") as waiter:
            KeeperSemaphore(holder, "/permits", 1).acquire()
            with pytest.raises(SimTimeoutError, match="/permits"):
                KeeperSemaphore(waiter, "/permits", 1).acquire(timeout=1.0)
        keeper.stop()

    env.run(main)


def test_election_deadline_raises_a_typed_timeout(env):
    def main():
        keeper = make_service(name="elect-late")
        with keeper.session(name="c0") as first, \
                keeper.session(name="c1") as second:
            LeaderElector(first, "/office", "c0").volunteer()
            runner_up = LeaderElector(second, "/office", "c1")
            runner_up.volunteer()
            with pytest.raises(SimTimeoutError, match="/office") as raised:
                runner_up.lead(timeout=1.0)
        keeper.stop()
        return raised.value

    # Still the built-in too: callers catching TimeoutError keep working.
    assert isinstance(env.run(main), TimeoutError)


def test_config_watcher_follows_updates(env):
    def main():
        keeper = make_service(name="cfg")
        with keeper.session(name="pub") as pub, \
                keeper.session(name="sub") as sub:
            watcher = ConfigWatcher(sub, "/conf")
            assert watcher.value is None  # absent is a valid start
            pub.create("/conf", data="v1")
            watcher.await_change(timeout=10.0)
            assert (watcher.value, watcher.version) == ("v1", 0)
            pub.set("/conf", "v2")
            watcher.await_change(timeout=10.0)
            assert (watcher.value, watcher.version) == ("v2", 1)
        keeper.stop()

    env.run(main)
