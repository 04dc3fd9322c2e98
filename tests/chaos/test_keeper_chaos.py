"""Seeded chaos for the keeper: dead leaders, dead holders, dead nodes.

Three fail-stop scenarios per seed:

* the elected leader's and a lock holder's *sessions* are killed
  mid-heartbeat — their ephemerals must vanish exactly once (one
  delete in the zxid log, one ``deleted`` watch event), and the next
  candidate must take over;
* one member of an endpoint's shared heartbeat is killed mid-period —
  its lease lapses and its ephemeral goes within 2x TTL, while the
  heartbeat keeps renewing its group-mates, whose ephemerals stay;
* the DSO node hosting the replicated tree's primary crashes under
  live writer traffic — rf=2 SMR plus exactly-once sessions must keep
  every acknowledged write in the zxid log exactly once
  (``final == acked``), with the audit run against the promoted
  backup.
"""

import random

from repro import CrucialEnvironment, KeeperService
from repro.config import DEFAULT_CONFIG
from repro.coordination import LeaderElector
from repro.simulation.thread import sleep, spawn


def audit_final_equals_acked(keeper, sessions):
    """Every acknowledged write appears in the zxid log exactly once,
    and zxids are dense — nothing dropped, nothing double-applied."""
    log = keeper.zxid_log()
    zxids = [zxid for zxid, _, _ in log]
    assert zxids == list(range(1, len(zxids) + 1)), "zxid log not dense"
    logged = {(op, path, zxid) for zxid, op, path in log}
    for session in sessions:
        for op, path, zxid in session.acked:
            assert (op, path, zxid) in logged, \
                f"acked write missing from the log: {(op, path, zxid)}"
    assert len(logged) == len(log), "duplicate zxid log entries"


def test_leader_and_holder_killed_mid_heartbeat(chaos_seed):
    ttl = 2.0
    with CrucialEnvironment(seed=chaos_seed, dso_nodes=3) as env:
        def main():
            keeper = KeeperService(name="chaos-elect", rf=2,
                                   session_ttl=ttl)
            observer = keeper.session(name="observer", ttl=60.0)
            sessions = {m: keeper.session(name=m)
                        for m in ("c0", "c1", "c2")}
            electors = {m: LeaderElector(sessions[m], "/svc", m)
                        for m in sessions}
            for member in ("c0", "c1", "c2"):
                electors[member].volunteer()
            electors["c0"].lead(timeout=30.0)
            holder = keeper.session(name="holder")
            holder.create("/locks")
            holder.create("/locks/h", ephemeral=True)
            leader_node = electors["c0"].candidate_node
            observer.exists("/locks/h", watch=True)
            observer.exists(leader_node, watch=True)

            # Mid-heartbeat: land the kills between two beats.
            sleep(ttl / 6.0)
            fell_at = env.now
            sessions["c0"].kill()
            holder.kill()

            electors["c1"].lead(timeout=60.0)
            convergence = env.now - fell_at
            new_leader = sessions["c2"].get("/svc/leader")[0]
            deleted = [e for e in observer.events(2, timeout=30.0)
                       if e.kind == "deleted"]
            sleep(1.0)  # quiesce before the audit
            log = keeper.zxid_log()
            audit_final_equals_acked(
                keeper, [sessions["c1"], sessions["c2"], holder,
                         observer])
            keeper.stop()
            return (new_leader, convergence, deleted, log,
                    leader_node, holder.state)

        new_leader, convergence, deleted, log, leader_node, \
            holder_state = env.run(main)

    assert new_leader == "c1"
    # Expiry (<= 2x ttl) + one watch hop: comfortably under 4x ttl.
    assert convergence < 4 * ttl
    assert holder_state == "expired"
    # The ephemerals vanished exactly once: one deleted event each at
    # the observer, one delete per path in the zxid log.
    assert sorted(e.path for e in deleted) \
        == sorted(["/locks/h", leader_node])
    for path in ("/locks/h", leader_node):
        assert sum(1 for _, op, p in log
                   if op == "delete" and p == path) == 1


def test_one_member_of_a_heartbeat_group_killed_mid_period(chaos_seed):
    ttl, members = 2.0, 4
    rng = random.Random(chaos_seed)
    victim = f"h{rng.randrange(members)}"
    # Past the first beat, then a seed-drawn instant inside a period.
    kill_after = ttl / 3.0 + rng.uniform(0.05, 0.95) * ttl / 3.0
    with CrucialEnvironment(seed=chaos_seed, dso_nodes=3) as env:
        def main():
            keeper = KeeperService(name="chaos-group", rf=2,
                                   session_ttl=ttl)
            observer = keeper.session(name="observer", ttl=60.0)
            observer.create("/held")
            holders = {f"h{i}": keeper.session(name=f"h{i}")
                       for i in range(members)}
            for sid, holder in holders.items():
                holder.create(f"/held/{sid}", ephemeral=True)
            sleep(kill_after)
            killed_at = env.now
            holders[victim].kill()
            while observer.exists(f"/held/{victim}") is not None:
                sleep(0.05)
            detection = env.now - killed_at
            sleep(2 * ttl)  # the survivors ride several more beats
            held = observer.children("/held")
            states = {sid: holder.state for sid, holder in holders.items()}
            log = keeper.zxid_log()
            keeper.stop()
            return detection, held, states, log

        detection, held, states, log = env.run(main)

    assert detection <= 2 * ttl
    assert states.pop(victim) == "expired"
    assert set(states.values()) == {"open"}
    assert held == tuple(sorted(states))
    assert [path for _, op, path in log if op == "delete"] \
        == [f"/held/{victim}"]


def test_tree_primary_crash_preserves_acked_writes(chaos_seed):
    """Fail-stop the DSO node hosting the tree's primary while a
    writer streams creates and CAS sets; the promoted backup must
    hold every acknowledged write exactly once."""
    keys = 6
    rounds = 8
    with CrucialEnvironment(seed=chaos_seed, dso_nodes=3) as env:
        def main():
            # A TTL far above the failover window: heartbeats stall
            # while the primary is being replaced, and a short lease
            # would spuriously expire mid-crash.
            keeper = KeeperService(name="chaos-tree", rf=2,
                                   session_ttl=60.0)
            primary = env.dso.placement_of(keeper._proxy.ref)[0]
            with keeper.session(name="writer") as writer, \
                    keeper.session(name="observer", ttl=120.0) as obs:
                writer.create("/data")
                for i in range(keys):
                    writer.create(f"/data/k{i}", data=0)
                obs.exists("/data/k0", watch=True)

                def assassin():
                    sleep(0.5)  # land inside the write stream
                    env.dso.crash_node(primary)

                killer = spawn(assassin, name="assassin")
                for round_number in range(1, rounds + 1):
                    for i in range(keys):
                        writer.set(f"/data/k{i}", round_number)
                    sleep(0.2)
                killer.join()
                # Let the failover and any pump retries fully drain.
                sleep(DEFAULT_CONFIG.dso.failure_detection + 4.0)
                first_event = obs.next_event(timeout=30.0)
                dump = keeper.dump()
                audit_final_equals_acked(keeper, [writer])
                acked_sets = len([1 for op, _, _ in writer.acked
                                  if op == "set"])
            keeper.stop()
            return dump, first_event, acked_sets

        dump, first_event, acked_sets = env.run(main)

    # No write was lost to the crash: every key holds the last round
    # at the version the acks imply (rounds sets after the create).
    assert acked_sets == keys * rounds
    for i in range(keys):
        assert dump[f"/data/k{i}"] == (rounds, rounds, None)
    # The watch armed before the crash still fired afterwards.
    assert first_event is not None
    assert (first_event.kind, first_event.path) \
        == ("changed", "/data/k0")
