"""The contract: every guarantee the stack makes, declared once.

A :class:`Guarantee` is one row of README's guarantees table (the
block between ``<!-- guarantees -->`` markers is :func:`render` of
:data:`GUARANTEES`).  Its hunts are the exploration scenarios that
audit it under randomized schedules — a workload plus the oracles it
is checked with — and each hunt lists the planted bugs
(:class:`Mutant`) it must catch: a mutant switches off one safety
mechanism wherever ``src/`` tests ``"<name>" in PLANTED``.
``tests/explore/test_guarantees.py`` plants each mutant and hunts it,
runs every hunt quiet, and keeps this registry closed.

Print the README block with ``PYTHONPATH=src python -m
tests.explore.guarantees``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro import (
    AtomicBoolean,
    AtomicByteArray,
    AtomicInt,
    AtomicLong,
    AtomicReference,
    KeeperService,
    OpenLoopGenerator,
    RateProfile,
    SharedList,
    SharedMap,
    TenantSpec,
    readonly,
)
from repro.chaos import ChaosInjector, FaultPlan
from repro.config import DEFAULT_CONFIG
from repro.core.objects import _AtomicLong
from repro.core.proxy import GenericProxy, remote_methods
from repro.dso import DsoReference
from repro.dso.layer import KvSlot
from repro.errors import ReproError, TxnError
from repro.explore import ExplorationReport, ExplorationRunner
from repro.harness.serving import serving_config
from repro.linearizability import (
    LinearizabilityChecker,
    final_state_violations,
    find_fractured_reads,
    watch_order_invariant,
)
from repro.linearizability.history import raised
from repro.mutation import PLANTED
from repro.net import LatencyModel
from repro.ports.common import _InProcess
from repro.ports.montecarlo_crucial import estimate_pi
from repro.simulation.thread import sleep, spawn


@dataclass(frozen=True)
class Mutant:
    """A planted bug and the budget its hunt must catch it within."""

    name: str
    breaks: str
    trials: int
    preempt_prob: float
    #: Substrings the first failing trial's problems must each contain.
    oracles: tuple[str, ...]


@dataclass(frozen=True)
class Hunt:
    """An exploration scenario: a workload, its oracles, its mutants.

    ``trials`` and ``preempt_prob`` are the quiet budget: with nothing
    planted, every trial from any base seed must pass.
    """

    name: str
    workload: Callable[[Any], Any]
    trials: int
    preempt_prob: float
    #: Factory of the linearizability checker's sequential model, if
    #: any: for a shared object, its server class.
    model: Callable[[], object] | None = None
    invariants: tuple[Callable[[Any, Any], Any], ...] = ()
    mutants: tuple[Mutant, ...] = ()

    def explore(self, *, trials: int, base_seed: int,
                preempt_prob: float, **options) -> ExplorationReport:
        checker = LinearizabilityChecker(self.model) if self.model else None
        return ExplorationRunner(
            self.workload, trials=trials, base_seed=base_seed,
            scheduler="random",
            scheduler_opts={"preempt_prob": preempt_prob},
            checker=checker, invariants=self.invariants,
            **options).run()


@dataclass(frozen=True)
class Guarantee:
    """One row of the contract."""

    id: str
    text: str
    mechanism: str
    #: Repo paths of the tests that pin it.
    pinned_by: tuple[str, ...]
    hunts: tuple[Hunt, ...] = ()


# ---------------------------------------------------------------------------
# rf=2 durability: open-loop traffic under random scale/crash schedules
# ---------------------------------------------------------------------------
# Each trial drives a burst of open-loop rf=2 counter traffic while a
# seed-derived schedule of add/remove/crash events churns the grid;
# the audit must balance: no client-visible error and the final
# counters summing to the generator's acknowledged increments.

SERVING_DURATION = 8.0

TENANT = TenantSpec(name="web", keys=24, zipf_s=1.1,
                    read_fraction=0.7, rf=2, cost=0.004)


def serving_workload(trial):
    rnd = random.Random(trial.seed)
    with trial.environment(dso_nodes=2,
                           config=serving_config()) as env:
        def churner():
            # Two or three scale events at random times; crashes are
            # allowed but never below two members (rf=2 must survive).
            for _ in range(rnd.randint(2, 3)):
                sleep(0.5 + rnd.random() * 2.5)
                members = env.dso.member_nodes()
                action = rnd.choice(["add", "remove", "crash"])
                if action == "add" and len(members) < 4:
                    env.dso.add_node()
                elif action == "remove" and len(members) > 2:
                    env.dso.remove_node(members[-1].name)
                elif action == "crash" and len(members) > 2:
                    env.dso.crash_node(
                        rnd.choice(members[1:]).name)

        def main():
            generator = OpenLoopGenerator(
                env, [TENANT], RateProfile.constant(40.0),
                SERVING_DURATION)
            churn = spawn(churner, name="churner")
            metrics = generator.run()
            churn.join()
            # Let any trailing view change settle before the audit.
            sleep(env.config.dso.failure_detection + 1.0)
            final = generator.final_counts()
            return metrics.errors, metrics.total_acked, \
                sum(final.values())

        return env.run(main)


def no_client_errors(trial, value):
    return value[0] == 0


def final_sum_equals_acked(trial, value):
    return value[1] == value[2]


# ---------------------------------------------------------------------------
# Exactly-once shipping: a half-replicated write, retried, then promoted
# ---------------------------------------------------------------------------
# A partition between the primary and the far backup across a write
# window half-replicates a write; the client's retransmission dedups at
# the primary and re-replicates, so a backup that skips its session
# lookup applies the increment twice, and a primary crash promotes it.

DEDUP_KEY = "mutation-counter"
DEDUP_WRITES = 8


def dedup_workload(trial):
    """Eight spaced increments across a primary<->far-backup partition,
    then a primary crash, then a read from the promoted backup."""
    rnd = random.Random(trial.seed)
    part_at = 0.2 + rnd.random() * 0.6
    part_len = 0.8 + rnd.random() * 0.8  # < failure_detection: no view change
    with trial.environment(dso_nodes=3) as env:
        injector = ChaosInjector(env.kernel, network=env.network,
                                 dso=env.dso)

        def main():
            counter = AtomicLong(DEDUP_KEY, 0, persistent=True, rf=3)
            counter.get()  # create and place before the chaos starts
            placement = env.dso.placement_of(counter.ref)
            primary, far_backup = placement[0], placement[2]
            plan = FaultPlan()
            plan.add(part_at, "partition",
                     groups=((primary,), (far_backup,)),
                     duration=part_len)
            plan.add(part_at + part_len + 1.0, "crash_node", primary)
            injector.schedule(plan)
            for _ in range(DEDUP_WRITES):
                trial.recorder.record(
                    "writer", "add_and_get", (1,),
                    lambda: counter.add_and_get(1), key=DEDUP_KEY)
                sleep(0.3)
            # Let detection promote the (possibly poisoned) backup.
            sleep(DEFAULT_CONFIG.dso.failure_detection + 3.0)
            return trial.recorder.record(
                "writer", "get", (), counter.get, key=DEDUP_KEY)

        return env.run(main)


def exact_count(trial, value):
    """``final == acked``, an increment that raised after it applied
    counted as acked."""
    assert value == DEDUP_WRITES, \
        f"expected exactly {DEDUP_WRITES} increments, read {value}"
    return True


# ---------------------------------------------------------------------------
# Exactly-once shipping: a write that applied and then raised
# ---------------------------------------------------------------------------
# A method's exception is an outcome: recorded in the session table,
# replicated to the backup and replayed to a retry, like a value.  Half
# of an rf=2 counter's increments raise after they apply; one's reply
# is cut off (the retry must get the recorded exception, not re-apply),
# then the primary crashes (the promoted backup must hold every raised
# increment).

RAISE_KEY = "raising-counter"


class CheckedCounter:
    """A counter whose ``add_then_raise`` applies, then raises."""

    def __init__(self):
        self.value = 0

    def add_and_get(self, delta):
        self.value += delta
        return self.value

    def add_then_raise(self, delta):
        self.value += delta
        raise ValueError(self.value)

    @readonly
    def get(self):
        return self.value


CHECKED_CTOR = (CheckedCounter, (), {})


def raised_write_workload(trial):
    """Eight spaced increments on an rf=2 counter, alternating returning
    and raising ones; a raising one's reply is cut off by a seed-timed
    partition, and the primary crashes at a seed-drawn instant later."""
    rnd = random.Random(trial.seed)
    cut_step = 2 * rnd.randrange(DEDUP_WRITES // 4) + 1  # raising, first half
    cut_after = 0.0005 + rnd.random() * 0.004  # inside the slow op
    crash_after = 1.5 + rnd.random() * 1.0  # second half of the writes
    ref = DsoReference("CheckedCounter", RAISE_KEY, persistent=True, rf=2)
    with trial.environment(dso_nodes=3) as env:
        layer, network = env.dso, env.network
        client = env.client_endpoint

        def increment(method, cost=0.0):
            try:
                trial.recorder.record(
                    "writer", method, (1,),
                    lambda: layer.invoke(client, ref, method, (1,),
                                         ctor=CHECKED_CTOR, cost=cost),
                    key=RAISE_KEY)
            except ValueError:  # add_then_raise: recorded as it raised
                pass

        injector = ChaosInjector(env.kernel, network=network, dso=layer)

        def main():
            layer.invoke(client, ref, "get", ctor=CHECKED_CTOR)
            primary = layer.placement_of(ref)[0]
            injector.schedule(FaultPlan().add(env.now + crash_after,
                                              "crash_node", primary))
            for step in range(DEDUP_WRITES):
                method = "add_then_raise" if step % 2 else "add_and_get"
                cost = 0.0
                if step == cut_step:
                    cost = SLOW
                    env.kernel.call_later(cut_after, lambda: network.partition(
                        {client}, {primary}))
                    env.kernel.call_later(0.1, lambda: network.unpartition(
                        {client}, {primary}))
                increment(method, cost)
                sleep(0.3)
            sleep(DEFAULT_CONFIG.dso.failure_detection + 3.0)
            return trial.recorder.record(
                "writer", "get", (),
                lambda: layer.invoke(client, ref, "get", ctor=CHECKED_CTOR),
                key=RAISE_KEY)

        return env.run(main)


# ---------------------------------------------------------------------------
# Linearizability: the paper's two canonical workloads
# ---------------------------------------------------------------------------
# The Listing-1 counter (two threads, two increments each) and a
# scaled-down Monte Carlo pi estimation over a shared counter.

SMOKE_COUNTER = "smoke-counter"


def counter_workload(trial):
    with trial.environment(dso_nodes=2) as env:
        def main():
            counter = AtomicLong(SMOKE_COUNTER)
            counter.get()

            def worker(tid):
                for _ in range(2):
                    trial.recorder.record(
                        f"w{tid}", "add_and_get", (1,),
                        lambda: counter.add_and_get(1),
                        key=SMOKE_COUNTER)

            workers = [spawn(worker, tid, name=f"worker-{tid}")
                       for tid in range(2)]
            for worker_thread in workers:
                worker_thread.join()
            return trial.recorder.record(
                "main", "get", (), counter.get, key=SMOKE_COUNTER)

        return env.run(main)


def counts_every_increment(trial, value):
    return value == 4


def montecarlo_workload(trial):
    with trial.environment(dso_nodes=1) as env:
        return env.run(lambda: estimate_pi(4, counter_key="smoke-pi"))


def estimates_pi(trial, value):
    return abs(value - math.pi) < 0.01


# ---------------------------------------------------------------------------
# Linearizability: every shared object against its own server class
# ---------------------------------------------------------------------------
# One hunt per object.  Threads call methods drawn from the object's
# ``remote_methods``, with arguments drawn per parameter name; a call
# that raises is recorded as raised.  Trial i runs on transport
# i mod 5: rf=1, rf=2 with a seed-timed primary crash, the lease cache
# on, pipelined ``invoke_async``, or the proxy class's in-process
# twin.  The checker's sequential spec is the server class itself,
# built from the proxy's constructor arguments.

TRANSPORTS = ("rf=1", "rf=2+crash", "cache", "pipelined", "in-process")
OBJECT_KEY = "hunted"
OBJECT_THREADS = 3
OBJECT_CALLS = 8

#: Per parameter name, a draw of its argument: small domains, so that
#: compare-and-set hits, merges combine and an index sometimes misses.
ARGUMENTS = {
    "value": lambda rnd: rnd.randrange(3),
    "expected": lambda rnd: rnd.randrange(3),
    "update": lambda rnd: rnd.randrange(3),
    "item": lambda rnd: rnd.randrange(3),
    "delta": lambda rnd: rnd.randrange(1, 3),
    "items": lambda rnd: [rnd.randrange(3)] * rnd.randrange(3),
    "index": lambda rnd: rnd.randrange(-1, 3),
    "key": lambda rnd: rnd.choice("ab"),
    "default": lambda rnd: rnd.randrange(3),
    "fn": lambda rnd: rnd.choice((max, min)),
}


def draw_call(rnd, methods):
    """A method of ``methods`` and its arguments; each optional
    parameter is passed with even odds, up to the first left out."""
    name = rnd.choice(sorted(methods))
    args = []
    for param in list(methods[name].__signature__.parameters.values())[1:]:
        if param.default is not param.empty and rnd.random() < 0.5:
            break
        args.append(ARGUMENTS[param.name](rnd))
    return name, tuple(args)


def record_calls(trial, obj, name, calls, pipelined):
    """Make ``calls`` on ``obj`` and record each: one at a time, or
    queued with ``invoke_async`` in two runs, each op recorded over its
    whole run.  An infrastructure error fails the trial."""
    if not pipelined:
        for method, args in calls:
            try:
                trial.recorder.record(
                    name, method, args,
                    lambda: getattr(obj, method)(*args), key=OBJECT_KEY)
            except ReproError:
                raise
            except Exception:  # noqa: BLE001 - recorded as raised
                pass
        return
    half = len(calls) // 2
    for run in (calls[:half], calls[half:]):
        invoke = trial.kernel.now
        futures = [obj.invoke_async(method, *args) for method, args in run]
        for (method, args), future in zip(run, futures):
            error = future.exception()
            if isinstance(error, ReproError):
                raise error
            trial.recorder.add(
                name, method, args,
                future.result() if error is None else raised(error),
                invoke, trial.kernel.now, key=OBJECT_KEY)


def object_hunt(proxy_cls, *ctor_args, server_cls=None, mutants=()):
    """The hunt of one shared object: a Table 1 proxy class, or
    :class:`GenericProxy` over a ``shared()`` class ``server_cls``."""
    server_cls = server_cls or proxy_cls._server_cls
    lead = (server_cls,) if proxy_cls is GenericProxy else ()
    twin = type(f"Local{proxy_cls.__name__}", (_InProcess, proxy_cls), {})
    methods = remote_methods(server_cls)

    def workload(trial):
        rnd = random.Random(trial.seed)
        transport = TRANSPORTS[trial.index % len(TRANSPORTS)]
        crash = transport == "rf=2+crash"
        plans = [[draw_call(rnd, methods) for _ in range(OBJECT_CALLS)]
                 for _ in range(OBJECT_THREADS)]
        crash_after = rnd.uniform(0.0, 3e-3)
        with trial.environment(dso_nodes=3,
                               read_cache=transport == "cache") as env:
            def main():
                cls = twin if transport == "in-process" else proxy_cls
                obj = cls(*lead, OBJECT_KEY, *ctor_args, persistent=crash,
                          rf=2 if crash else None)
                if crash:
                    obj._ensure()
                    ChaosInjector(env.kernel, dso=env.dso).schedule(
                        FaultPlan().add(env.now + crash_after, "crash_node",
                                        env.dso.placement_of(obj.ref)[0]))
                threads = [spawn(record_calls, trial, obj, f"t{index}",
                                 plan, transport == "pipelined")
                           for index, plan in enumerate(plans)]
                for thread in threads:
                    thread.join()

            env.run(main)

    return Hunt(server_cls.__name__.lstrip("_"), workload,
                trials=len(TRANSPORTS), preempt_prob=0.05,
                model=functools.partial(server_cls, *ctor_args),
                mutants=mutants)


# ---------------------------------------------------------------------------
# No stale cached read: holders on links of different latency
# ---------------------------------------------------------------------------
# A write posts an invalidation to every other lease holder at once and
# may acknowledge only after the last one landed; the writer's own
# request carries its invalidation.  Two holders and a reader at the
# writer's own site re-read a key from their lease caches while one
# site writes it, by synchronous puts and by flushed runs of same-key
# ``put_async``; a cached read that starts after a write acked (or
# after another read saw the write) and returns the value before it
# has no linearization.

#: A short lease keeps a (safe) wait-out cheap: under an exploring
#: scheduler a delivery timer tied with the writer's wakeup may run
#: after it, and that holder is then waited out to its expiry.
LEASE_CONFIG = dataclasses.replace(
    DEFAULT_CONFIG,
    dso=dataclasses.replace(DEFAULT_CONFIG.dso, lease_ttl=10e-3))
#: node -> "far" and node -> "writer"; "near" keeps the 100 us client
#: hop, so it sees a write's value well before the writer's reply lands.
FAR_HOP = 450e-6
READ_GAP = 30e-6
#: The writer's site reads less often: with its entry never dropped
#: (``writer-unmarked``) its reads all hit, and a longer history would
#: overflow the linearizability checker's recursion.
WRITER_SITE_GAP = 200e-6
LEASE_ROUNDS = 6


def lease_workload(trial):
    rnd = random.Random(trial.seed)
    with trial.environment(dso_nodes=1, read_cache=True,
                           config=LEASE_CONFIG) as env:
        layer, recorder = env.dso, trial.recorder
        (node_name,) = layer.nodes
        done = []

        def reader(name, site, gap):
            while not done:
                recorder.record(name, "get", (),
                                lambda: layer.get(site, "hot"), key="hot")
                sleep(gap)

        def write_round(base):
            invoke = env.now
            if rnd.random() < 0.5:
                layer.put("writer", "hot", base)
                recorder.add("writer", "set", (base,), None, invoke,
                             env.now, key="hot")
                return
            values = [base + i for i in range(3)]
            futures = [layer.put_async("writer", "hot", value)
                       for value in values]
            layer.flush("writer")
            for value, future in zip(values, futures):
                future.result()
                recorder.add("writer", "set", (value,), None, invoke,
                             env.now, key="hot")

        def main():
            layer.put("writer", "hot", 0)
            for name in ("near", "far"):
                layer.get(name, "hot")
            for site in ("far", "writer"):
                env.network.set_link(node_name, site,
                                     LatencyModel(FAR_HOP, sigma=0.05),
                                     symmetric=False)
            threads = [spawn(reader, name, site, gap, name=name)
                       for name, site, gap in (
                           ("near", "near", READ_GAP),
                           ("far", "far", READ_GAP),
                           ("at-writer", "writer", WRITER_SITE_GAP))]
            for round_ in range(1, LEASE_ROUNDS + 1):
                sleep(rnd.uniform(200e-6, 900e-6))
                write_round(10 * round_)
            sleep(1e-3)
            done.append(True)
            for thread in threads:
                thread.join()

        env.run(main)


# ---------------------------------------------------------------------------
# Batched async shipping: per-thread order, one shipper, exactly once
# ---------------------------------------------------------------------------
# Each async queue belongs to one (endpoint, thread) pair; whoever
# waits on a queue ships it, one shipper at a time.  The ordering hunt
# runs two threads mixing ``invoke_async`` / ``invoke`` / ``flush`` on a
# shared endpoint beside a lagging third one (a large append, a sleep
# past the flush window so a pump ships it, a small append to the same
# object, a blocking verb); restricted to one thread, every object's
# log must be that thread's all-synchronous plan.  A flush fans out
# twice — per-primary groups, then per-object chains at each primary —
# through one helper that joins every lane and re-raises a transient
# failure: the chains hunt checks per-object order on one node, the
# lanes hunt crashes a lane's primary mid-flush.


class Log:
    """Order-sensitive state machine: a strictly appended log."""

    def __init__(self):
        self.entries = []

    def append(self, entry, pad=None):
        self.entries.append(entry)  # ``pad`` only makes the request big
        return len(self.entries)

    def snapshot(self):
        return list(self.entries)


LOG_CTOR = (Log, (), {})
LOGS = [DsoReference("Log", f"hunt-{index}") for index in range(3)]
ORDER_STEPS = 16
#: The lagging thread's large append: ~200 us on the wire beyond the
#: hop, so a small append shipped after it but beside it lands first.
PAD = b"x" * 240_000
#: Longer than the flush window: the large append's pump is in flight.
LAG = DEFAULT_CONFIG.dso.pipeline_flush_window + 20e-6


def plans(trial):
    """Per-thread ``(kind, object index)`` plans, drawn per trial: two
    threads mixing every verb, and a lagging one whose rounds are a
    large async append, a sleep past the flush window, a small async
    append to the same object and a blocking verb."""
    rnd = random.Random(trial.seed)
    drawn = {who: [(rnd.choice(("async", "async", "sync", "flush")),
                    rnd.randrange(len(LOGS))) for _ in range(ORDER_STEPS)]
             for who in "ab"}
    drawn["c"] = []
    for _ in range(ORDER_STEPS // 4):
        index = rnd.randrange(len(LOGS))
        drawn["c"] += [("lag", index), ("async", index),
                       (rnd.choice(("sync", "flush")), index)]
    return drawn


def ordering_workload(trial):
    with trial.environment(dso_nodes=3) as env:
        layer, client = env.dso, env.client_endpoint

        def submitter(who, plan):
            for step, (kind, index) in enumerate(plan):
                if kind == "lag":
                    layer.invoke_async(client, LOGS[index], "append",
                                       ((who, step),), {"pad": PAD},
                                       ctor=LOG_CTOR)
                    sleep(LAG)
                elif kind == "async":
                    layer.invoke_async(client, LOGS[index], "append",
                                       ((who, step),), ctor=LOG_CTOR)
                elif kind == "sync":
                    layer.invoke(client, LOGS[index], "append",
                                 ((who, step),), ctor=LOG_CTOR)
                else:
                    layer.flush(client)
            layer.flush(client)

        def main():
            for ref in LOGS:
                layer.invoke(client, ref, "snapshot", ctor=LOG_CTOR)
            threads = [spawn(submitter, who, plan)
                       for who, plan in plans(trial).items()]
            for thread in threads:
                thread.join()
            return [layer.invoke(client, ref, "snapshot", ctor=LOG_CTOR)
                    for ref in LOGS]

        return env.run(main)


def program_order(trial, logs):
    for index, log in enumerate(logs):
        for who, plan in plans(trial).items():
            mine = [step for owner, step in log if owner == who]
            expected = [step for step, (kind, target) in enumerate(plan)
                        if kind != "flush" and target == index]
            assert mine == expected, (
                f"thread {who} on {LOGS[index].key}: {mine} != its "
                f"all-sync plan {expected}")
    return True


class Counter:
    def __init__(self):
        self.value = 0

    def add(self, delta):
        self.value += delta
        return self.value

    def get(self):
        return self.value


COUNTER_CTOR = (Counter, (), {})
TARGET = DsoReference("Counter", "hunt-target")
OTHER = DsoReference("Counter", "hunt-other")
#: Server-side seconds of the first increment: the window in which its
#: reply is cut off.
SLOW = 0.005


def watermark_workload(trial):
    """One thread, two endpoints.  ``c1`` ships a slow increment of
    TARGET and loses the reply to a partition (seed-jittered start),
    so it retries after the heal; meanwhile ``c2`` answers an op on
    OTHER and then increments TARGET itself, its stamp carrying the
    session's watermark."""
    rnd = random.Random(trial.seed)
    cut_after = 0.0005 + rnd.random() * 0.004  # inside the slow op
    with trial.environment(dso_nodes=3) as env:
        layer, network = env.dso, env.network

        def main():
            for ref in (TARGET, OTHER):
                layer.invoke("c1", ref, "get", ctor=COUNTER_CTOR)
            primary = layer.placement_of(TARGET)[0]
            start = env.now
            first = layer.invoke_async("c1", TARGET, "add", (1,),
                                       ctor=COUNTER_CTOR, cost=SLOW)
            env.kernel.call_later(
                cut_after, lambda: network.partition({"c1"}, {primary}))
            env.kernel.call_later(
                0.1, lambda: network.unpartition({"c1"}, {primary}))
            sleep(0.001)
            layer.invoke_async("c2", OTHER, "add", (1,),
                               ctor=COUNTER_CTOR).result()
            layer.invoke_async("c2", TARGET, "add", (1,),
                               ctor=COUNTER_CTOR).result()
            first.result()
            assert env.now - start > 0.1, "the first reply was not cut off"
            return layer.invoke("c1", TARGET, "get", ctor=COUNTER_CTOR)

        return env.run(main)


def exactly_once(trial, final):
    assert final == 2, f"two acknowledged increments, final value {final}"
    return True


CHAIN_STEPS = 12
ONE_NODE_LOGS = [DsoReference("Log", f"chain-{index}") for index in range(3)]


def order_plan(trial):
    """Which log each step appends to, drawn per trial."""
    rnd = random.Random(trial.seed)
    return [rnd.randrange(len(ONE_NODE_LOGS)) for _ in range(CHAIN_STEPS)]


def chain_workload(trial):
    with trial.environment(dso_nodes=1) as env:
        layer, client = env.dso, env.client_endpoint

        def main():
            for ref in ONE_NODE_LOGS:
                layer.invoke(client, ref, "snapshot", ctor=LOG_CTOR)
            for step, index in enumerate(order_plan(trial)):
                layer.invoke_async(client, ONE_NODE_LOGS[index], "append",
                                   (step,), ctor=LOG_CTOR)
            layer.flush(client)
            return [layer.invoke(client, ref, "snapshot", ctor=LOG_CTOR)
                    for ref in ONE_NODE_LOGS]

        return env.run(main)


def per_object_order(trial, logs):
    plan = order_plan(trial)
    for index, log in enumerate(logs):
        expected = [step for step, target in enumerate(plan)
                    if target == index]
        assert log == expected, (
            f"{ONE_NODE_LOGS[index].key}: {log} != its all-sync plan "
            f"{expected}")
    return True


RF2_LOGS = [DsoReference("Log", f"lane-{index}", persistent=True, rf=2)
            for index in range(4)]


def lane_workload(trial):
    """Appends over four rf=2 logs, the first to ``RF2_LOGS[0]`` (so
    its primary's group runs inline on the window's pump); the flush
    window ships them, and another primary — a lane's — crashes at a
    seed-drawn instant while its group executes."""
    rnd = random.Random(trial.seed)
    plan = [0] + [rnd.randrange(len(RF2_LOGS))
                  for _ in range(CHAIN_STEPS - 1)]
    crash_after = 300e-6 + rnd.random() * 400e-6
    with trial.environment(dso_nodes=4) as env:
        layer, client = env.dso, env.client_endpoint

        def main():
            for ref in RF2_LOGS:
                layer.invoke(client, ref, "snapshot", ctor=LOG_CTOR)
            primaries = [layer.placement_of(ref)[0] for ref in RF2_LOGS]
            victim = next(primary for primary in primaries[1:]
                          if primary != primaries[0])
            if victim not in {primaries[index] for index in plan}:
                plan.append(primaries.index(victim))
            futures = [(index, step, layer.invoke_async(
                            client, RF2_LOGS[index], "append", (step,),
                            ctor=LOG_CTOR))
                       for step, index in enumerate(plan)]
            sleep(crash_after)  # past the flush window, mid-execution
            layer.crash_node(victim)
            layer.flush(client)
            unsettled = sum(not future.done for _, _, future in futures)
            acked = {ref.key: [] for ref in RF2_LOGS}
            for index, step, future in futures:
                if future.done and future.exception() is None:
                    acked[RF2_LOGS[index].key].append(step)
            final = {ref.key: layer.invoke(client, ref, "snapshot",
                                           ctor=LOG_CTOR)
                     for ref in RF2_LOGS}
            return unsettled, acked, final

        return env.run(main)


def settled_and_final_equals_acked(trial, outcome):
    unsettled, acked, final = outcome
    assert unsettled == 0, f"{unsettled} op(s) never settled"
    assert final == acked, f"final {final} != acked {acked}"
    return True


# ---------------------------------------------------------------------------
# Read-atomic transactions: a primary killed inside a commit window
# ---------------------------------------------------------------------------
# Sequential multi-key transactions, the write set's primary killed
# inside the last commit's prepare->commit window; each trial is
# audited for fractured reads and for a quiescent state equal to the
# acknowledged commit log per key.

TXN_KEYS = ("h-a", "h-b")
TXN_ROUNDS = 4


def txn_workload(trial):
    """Sequential multi-key transactions with a primary kill landed
    inside one commit's prepare->commit window (seed-jittered so the
    trials sweep the window), then a transactional read-back and a
    final-state audit snapshot."""
    rnd = random.Random(trial.seed)
    crash_jitter = 0.0002 + rnd.random() * 0.001
    with trial.environment(dso_nodes=3) as env:
        layer = env.dso
        injector = ChaosInjector(env.kernel, network=env.network,
                                 dso=layer)

        def main():
            with env.transaction(rf=2) as txn:
                for key in TXN_KEYS:
                    txn.write(key, 0)
            primary = layer.placement_of(layer.txns.ref(TXN_KEYS[0], 2))[0]
            for round_no in range(1, TXN_ROUNDS + 1):
                with env.transaction(rf=2) as txn:
                    for key in TXN_KEYS:
                        txn.write(key, round_no)
                    if round_no == TXN_ROUNDS:
                        # The *last* commit straddles the crash, so a
                        # silently dropped write has no later commit
                        # to mask it from the final-state audit.
                        injector.schedule(FaultPlan().add(
                            env.now + crash_jitter, "crash_node",
                            primary))
                sleep(0.001)
            sleep(DEFAULT_CONFIG.dso.failure_detection + 2.0)
            try:
                with env.transaction(rf=2) as txn:
                    for key in TXN_KEYS:
                        txn.read(key)
            except TxnError:
                pass  # aborted rather than fractured: fine
            final_cids = {
                key: layer.invoke("client", layer.txns.ref(key, 2),
                                  "latest_cid", ctor=layer.txns.ctor())
                for key in TXN_KEYS}
            return (tuple(layer.txns.log), tuple(layer.txns.reads),
                    final_cids)

        return env.run(main)


def read_atomic(trial, value):
    commits, reads, _ = value
    violations = find_fractured_reads(list(commits), list(reads))
    assert not violations, "; ".join(v.describe() for v in violations)
    return True


def final_equals_acked(trial, value):
    commits, _, final_cids = value
    findings = final_state_violations(list(commits), final_cids)
    assert not findings, "; ".join(findings)
    return True


# ---------------------------------------------------------------------------
# Ordered, exactly-once watches: a write burst past pre-armed watches
# ---------------------------------------------------------------------------
# One observer arms one-shot watches, one writer bursts creates through
# the keeper; the observer's delivered stream must carry strictly
# increasing per-session sequence numbers and non-decreasing zxids,
# nothing duplicated or lost.

WATCH_PATHS = 6


def watch_workload(trial):
    """One observer with pre-armed watches, one writer bursting
    creates; returns the delivered stream and the tree's assigned
    counts for the order/exactly-once audit."""
    with trial.environment(dso_nodes=1) as env:
        def main():
            keeper = KeeperService(name="hunt", rf=1, session_ttl=30.0,
                                   pump_period=0.05)
            paths = [f"/k{i}" for i in range(WATCH_PATHS)]
            with keeper.session(name="observer") as observer, \
                    keeper.session(name="writer") as writer:
                for path in paths:
                    observer.exists(path, watch=True)

                def burst():
                    for path in paths:
                        writer.create(path, data=path)
                        sleep(0.002)

                writer_thread = spawn(burst, name="writer-burst")
                events = list(observer.events(WATCH_PATHS, timeout=60.0))
                writer_thread.join()
                sleep(1.0)  # quiesce the delivery pump
                assigned = keeper.assigned_counts()
                delivered = {"observer": events}
            keeper.stop()
            return delivered, assigned

        return env.run(main)


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

HUNTS_TEST = "tests/explore/test_guarantees.py"

GUARANTEES = (
    Guarantee(
        "durability",
        text=(
            "rf=2 durability: no acknowledged write lost under any single "
            "node crash"),
        mechanism="state machine replication + view-synchronous failover",
        pinned_by=("tests/chaos/test_dso_chaos.py", HUNTS_TEST),
        hunts=(
            Hunt("serving-churn", serving_workload, trials=3,
                 preempt_prob=0.05,
                 invariants=(no_client_errors, final_sum_equals_acked)),
        ),
    ),
    Guarantee(
        "exactly-once",
        text=(
            "Exactly-once method shipping: retries (client, failover, "
            "`CloudThread` re-invocation) never double-apply — `final == "
            "acked`, not `>=`, an op that applied and then raised counted "
            "as acked"),
        mechanism=(
            "replicated client sessions: `(session, seq)` stamps "
            "deduplicated against per-container tables that travel with "
            "SMR, rebalance, and passivation; a method's exception is an "
            "outcome like its value, recorded, replicated and replayed (a "
            "deliberate strengthening of the paper's application-level "
            "idempotence, Section 4.4 — see DESIGN.md §8)"),
        pinned_by=("tests/chaos/test_exactly_once.py",
                   "tests/dso/test_sessions.py",
                   "tests/dso/test_error_outcomes.py", HUNTS_TEST),
        hunts=(
            Hunt("backup-dedup", dedup_workload, trials=6,
                 preempt_prob=0.05, model=_AtomicLong,
                 invariants=(exact_count,),
                 mutants=(
                     Mutant("no-backup-dedup",
                            "backups skip the session lookup during "
                            "replication, so a re-replicated op "
                            "double-applies at backups that already "
                            "executed it",
                            trials=6, preempt_prob=0.05,
                            oracles=("exact_count", "not linearizable")),
                 )),
            Hunt("raised-write", raised_write_workload, trials=6,
                 preempt_prob=0.05, model=CheckedCounter,
                 invariants=(exact_count,),
                 mutants=(
                     Mutant("error-not-recorded",
                            "a method that applies and then raises is "
                            "neither session-recorded nor replicated, so "
                            "a retry of its lost reply applies it again "
                            "and a promoted backup never had it",
                            trials=6, preempt_prob=0.05,
                            oracles=("exact_count", "not linearizable")),
                 )),
        ),
    ),
    Guarantee(
        "rerunnable",
        text=(
            "Re-runnable function bodies: `once()` / `IdempotentStep` / "
            "`CloudThread(idempotency_key=...)` replay completed DSO calls "
            "on re-entry, a call that raised re-raising its exception"),
        mechanism=(
            "named sessions restart their sequence and collect cached "
            "replies, values and exceptions alike"),
        pinned_by=("tests/core/test_idempotency.py",
                   "tests/core/test_retry.py",
                   "tests/dso/test_error_outcomes.py"),
    ),
    Guarantee(
        "dead-letter",
        text=(
            "Failed async events dead-letter exactly once, with attempt "
            "counts, and replay cleanly"),
        mechanism="platform retry loop + DLQ delivery",
        pinned_by=("tests/chaos/test_dlq_chaos.py",),
    ),
    Guarantee(
        "linearizable",
        text=(
            "Linearizability of non-idempotent ops across "
            "crash/retry/rebalance"),
        mechanism=(
            "per-object locks + exactly-once sessions, checked with Wing & "
            "Gong against each object's own server class by the generic "
            "hunts `AtomicInt`, `AtomicLong`, `AtomicBoolean`, "
            "`AtomicReference`, `AtomicByteArray`, `SharedList`, "
            "`SharedMap`, `KvSlot` and `CheckedCounter` (a `shared()` "
            "class): random calls over rf=1, rf=2 with a primary crash, the "
            "lease cache, pipelined `invoke_async` and the in-process twin"),
        pinned_by=("tests/linearizability/", "tests/explore/guarantees.py",
                   HUNTS_TEST),
        hunts=(
            Hunt("counter", counter_workload, trials=3, preempt_prob=0.05,
                 model=_AtomicLong, invariants=(counts_every_increment,)),
            Hunt("montecarlo", montecarlo_workload, trials=3,
                 preempt_prob=0.0, invariants=(estimates_pi,)),
            object_hunt(AtomicInt),
            object_hunt(AtomicLong, mutants=(
                Mutant("get-is-readonly",
                       "every method whose name starts with `get` counts "
                       "as read-only, so with the cache on `get_and_set` "
                       "and `get_and_add` are served from a lease without "
                       "being applied",
                       trials=10, preempt_prob=0.05,
                       oracles=("not linearizable",)),
            )),
            object_hunt(AtomicBoolean),
            object_hunt(AtomicReference),
            object_hunt(AtomicByteArray, 2),
            object_hunt(SharedList),
            object_hunt(SharedMap),
            object_hunt(GenericProxy, server_cls=KvSlot),
            object_hunt(GenericProxy, server_cls=CheckedCounter),
        ),
    ),
    Guarantee(
        "no-stale-read",
        text=(
            "No stale cached read after an acknowledged write (with "
            "`read_cache=True`)"),
        mechanism=(
            "primary-granted leases revoked before write ack (reachable "
            "holders in one hop, writer woken by the last arrival; "
            "unreachable ones waited out to expiry; the writer's own request "
            "drops its entry, and its site installs nothing for the object "
            "until the write settles), then refreshed: as the write's "
            "section ends the primary posts the new snapshot to the holders "
            "the round reached, and returns it in the writer's reply, with "
            "their original expiry; a lease generation on revocations, "
            "grants and refreshes lets a site drop any grant or refresh a "
            "later revocation overtook; placement-version fencing on "
            "failover/rebalance (DESIGN.md §10)"),
        pinned_by=("tests/dso/test_cache.py",
                   "tests/dso/test_lease_refresh.py",
                   "tests/dso/test_writer_lease.py",
                   "tests/linearizability/test_cached_reads.py",
                   "tests/chaos/test_cache_chaos.py", HUNTS_TEST),
        hunts=(
            Hunt("lease", lease_workload, trials=4, preempt_prob=0.05,
                 model=functools.partial(KvSlot, 0),  # its setup put
                 mutants=(
                     Mutant("revoke-first-arrival",
                            "a write's lease revocation wakes at the "
                            "earliest invalidation's arrival instead of "
                            "the last and counts the ones still in flight "
                            "as delivered, so a holder on a slower link "
                            "serves a stale cached read after the write "
                            "acked",
                            trials=4, preempt_prob=0.05,
                            oracles=("not linearizable",)),
                     Mutant("refresh-in-revocation",
                            "a revocation installs the new snapshot "
                            "instead of dropping the old, so a fast "
                            "holder serves the new value while a slow "
                            "one still serves the old",
                            trials=4, preempt_prob=0.05,
                            oracles=("not linearizable",)),
                     Mutant("writer-unmarked",
                            "a site that ships a write keeps its cached "
                            "entry and installs grants for the object "
                            "while the write is in flight, so a read at "
                            "the writer's site serves the old value after "
                            "another site read the new one",
                            trials=4, preempt_prob=0.05,
                            oracles=("not linearizable",)),
                 )),
        ),
    ),
    Guarantee(
        "hot-key-flush",
        text=(
            "A batched run of writes to one object pays one lease "
            "revocation round, and a write waiting out an unreachable lease "
            "holder stalls only its own object: a hot key's flush beside "
            "caching readers stays linearizable, `final == acked` through a "
            "primary crash mid-run, and a put on another key on the node "
            "costs one round trip"),
        mechanism=(
            "each per-object chain of a flush is one critical section at "
            "its primary (`DsoNode.hold`: the object's lock, then a worker, "
            "taken once; no lease is granted without the lock); a "
            "revocation wait gives its worker up and the next op takes one "
            "again (DESIGN.md §10, §12)"),
        pinned_by=("tests/dso/test_chain_leases.py",),
    ),
    Guarantee(
        "ordered-shipping",
        text=(
            "Batched async shipping never reorders a thread's ops on an "
            "object: any `invoke_async`/`invoke`/`flush` interleaving, by "
            "one thread or several sharing an endpoint, leaves every object "
            "with each thread's sequential-`invoke` log (ops of one flush "
            "on different objects are concurrent, on one primary too; "
            "`flush()`, `future.result()` and every synchronous verb are "
            "barriers *for the calling thread* — they wait for nothing "
            "another thread queued — the paper's per-object contract), an "
            "op that cannot be encoded fails only its own future, and "
            "`final == acked` survives a primary crash mid-flush, which "
            "retries only that primary's ops"),
        mechanism=(
            "submit-time session stamps + one async queue per (endpoint, "
            "thread), shipped by whichever thread waits on it, one shipper "
            "and one batch at a time, other threads' batches overlapping; a "
            "blocking call a batch of one shipped after its thread's queue "
            "drains; scatter-gather flush: one group per primary, all "
            "groups shipped at once, each run as in-order per-object chains "
            "concurrent up to `node_workers`; contiguous acknowledgement "
            "watermark (DESIGN.md §12)"),
        pinned_by=("tests/dso/test_pipeline.py",
                   "tests/dso/test_pipeline_properties.py",
                   "tests/dso/test_scatter.py", "tests/dso/test_chains.py",
                   "tests/dso/test_thread_pipelines.py",
                   "tests/dso/test_waiter_ships.py",
                   "tests/chaos/test_pipeline_chaos.py", HUNTS_TEST),
        hunts=(
            Hunt("ordering", ordering_workload, trials=4, preempt_prob=0.1,
                 invariants=(program_order,),
                 mutants=(
                     Mutant("no-own-barrier",
                            "a synchronous verb skips draining the calling "
                            "thread's own async queue, so it overtakes ops "
                            "the thread submitted before it",
                            trials=4, preempt_prob=0.1,
                            oracles=("program_order",)),
                     Mutant("second-shipper",
                            "a thread waiting on an async queue ships its "
                            "next batch without checking for an active "
                            "shipper, so a window pump and the waiter ship "
                            "overlapping batches of one queue and a later "
                            "op overtakes an earlier one on its object",
                            trials=4, preempt_prob=0.1,
                            oracles=("program_order",)),
                 )),
            Hunt("watermark", watermark_workload, trials=4,
                 preempt_prob=0.05, invariants=(exactly_once,),
                 mutants=(
                     Mutant("ack-max",
                            "a session's acknowledgement watermark is the "
                            "highest answered seq instead of the "
                            "contiguous one, so a later stamp prunes the "
                            "reply an in-flight retransmission needs and "
                            "it re-executes",
                            trials=4, preempt_prob=0.05,
                            oracles=("exactly_once",)),
                 )),
            Hunt("chains", chain_workload, trials=4, preempt_prob=0.1,
                 invariants=(per_object_order,),
                 mutants=(
                     Mutant("chain-per-op",
                            "a primary splits a batched group into one "
                            "chain per op instead of per object, so one "
                            "object's ops of a batch race each other",
                            trials=4, preempt_prob=0.1,
                            oracles=("per_object_order",)),
                 )),
            Hunt("lanes", lane_workload, trials=4, preempt_prob=0.05,
                 invariants=(settled_and_final_equals_acked,),
                 mutants=(
                     Mutant("swallow-lane-error",
                            "a fan-out lane's transient failure is dropped "
                            "at join, so the clean-looking pass leaves the "
                            "lane's ops unsettled",
                            trials=4, preempt_prob=0.05,
                            oracles=("settled_and_final_equals_acked",)),
                 )),
        ),
    ),
    Guarantee(
        "replay",
        text="Byte-exact same-seed replay of chaotic runs, traces included",
        mechanism="deterministic kernel + named RNG streams",
        pinned_by=("tests/chaos/test_determinism.py",
                   "tests/chaos/test_exactly_once.py"),
    ),
    Guarantee(
        "read-atomic",
        text=(
            "Read-atomic multi-object transactions (`env.transaction()`): "
            "no fractured reads across objects, fenced exactly-once commit, "
            "`final == acked` under kill-primary-mid-commit"),
        mechanism=(
            "AFT-style commit-timestamped versions carrying write-set "
            "metadata + two-phase commit over exactly-once sessions; "
            "prepare records pinned against LRU eviction; server-side "
            "commit fence on failover (a deliberate extension — the paper's "
            "model is single-object, see DESIGN.md §14)"),
        pinned_by=("tests/dso/test_txn.py",
                   "tests/linearizability/test_atomicity.py",
                   "tests/chaos/test_txn_chaos.py", HUNTS_TEST),
        hunts=(
            Hunt("txn-failover", txn_workload, trials=6, preempt_prob=0.05,
                 invariants=(read_atomic, final_equals_acked),
                 mutants=(
                     Mutant("no-commit-fence",
                            "a txn commit whose prepared entry died in a "
                            "failover acks without installing anything "
                            "instead of raising TxnPrepareLostError",
                            trials=6, preempt_prob=0.05,
                            oracles=("final_equals_acked",)),
                 )),
        ),
    ),
    Guarantee(
        "ordered-watches",
        text=(
            "Ordered, exactly-once watch delivery (`KeeperService`): each "
            "session sees its watch events in the order of the writes that "
            "fired them, none duplicated or lost, however the queues' "
            "delivery lag reorders arrivals"),
        mechanism=(
            "the tree numbers each session's fired events under the object "
            "lock (sequence order == zxid order) and parks them in a "
            "replicated outbox; a pump fans them out through per-session "
            "SQS queues, and the session's watch fence releases them in "
            "sequence order, dropping redelivered copies (DESIGN.md §16)"),
        pinned_by=("tests/coordination/test_keeper.py",
                   "tests/coordination/test_keeper_properties.py", HUNTS_TEST),
        hunts=(
            Hunt("watch-order", watch_workload, trials=50, preempt_prob=0.05,
                 invariants=(watch_order_invariant,),
                 mutants=(
                     Mutant("no-watch-fence",
                            "keeper sessions release watch events in "
                            "arrival order, so SQS delivery reordering "
                            "becomes client-visible",
                            trials=8, preempt_prob=0.05,
                            oracles=("watch_order_invariant",)),
                 )),
        ),
    ),
)

HUNTS = tuple(hunt for row in GUARANTEES for hunt in row.hunts)
MUTANTS = {mutant.name: (hunt, mutant)
           for hunt in HUNTS for mutant in hunt.mutants}


@contextmanager
def mutation(name: str) -> Iterator[None]:
    """Plant ``name`` for the duration of the block."""
    if name not in MUTANTS:
        raise ValueError(f"unknown mutation {name!r}")
    PLANTED.add(name)
    try:
        yield
    finally:
        PLANTED.discard(name)


def render(guarantees: tuple[Guarantee, ...]) -> str:
    """README's guarantees table, between its markers."""
    lines = ["<!-- guarantees -->",
             "| Guarantee | Mechanism | Pinned by | Planted mutants |",
             "|---|---|---|---|"]
    for row in guarantees:
        pins = ", ".join(f"`{path}`" for path in row.pinned_by)
        mutants = ", ".join(f"`{mutant.name}`" for hunt in row.hunts
                            for mutant in hunt.mutants) or "—"
        lines.append(f"| {row.text} | {row.mechanism} | {pins} | "
                     f"{mutants} |")
    lines.append("<!-- /guarantees -->")
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(GUARANTEES))
