"""Determinism and consistency of chaotic runs.

The subsystem's core promise: a chaotic run is a pure function of the
kernel seed.  Two runs with the same seed produce byte-identical fault
logs, identical final state and identical retry counts — which makes
failures found under chaos *replayable*.  And linearizability (the
Section 3.1 guarantee) must survive membership changes and slowdowns
injected mid-workload.
"""

from repro import AtomicLong, CrucialEnvironment
from repro.chaos import ChaosInjector, ChaosScheduleGenerator, FaultPlan
from repro.core.objects import _AtomicLong
from repro.dso import DsoLayer
from repro.linearizability import HistoryRecorder, LinearizabilityChecker
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from repro.simulation.thread import sleep, spawn


def _chaotic_run(seed):
    """One complete chaotic run; returns everything observable."""
    with Kernel(seed=seed) as kernel:
        network = Network(kernel, LatencyModel(0.0001))
        network.ensure_endpoint("client")
        layer = DsoLayer(kernel, network)
        for _ in range(3):
            layer.add_node()
        layer.enable_failure_detector()
        injector = ChaosInjector(kernel, network=network, dso=layer)
        generator = ChaosScheduleGenerator(kernel)
        nodes = list(layer.nodes)
        links = [("client", name) for name in nodes]
        plan = generator.generate(15.0, nodes=nodes, links=links,
                                  mean_faults=5, recovery=8.0)
        injector.schedule(plan)

        def main():
            for index in range(25):
                layer.put("client", "k", f"v{index}", rf=2)
                sleep(0.5)
            return layer.get("client", "k", rf=2)

        final = kernel.run_main(main)
        return (plan.describe(), injector.log.lines(), final,
                layer.stats.retries, network.messages_dropped)


def test_same_seed_replays_byte_identically():
    first = _chaotic_run(7)
    second = _chaotic_run(7)
    assert first == second
    # The run was actually chaotic, not trivially identical-by-vacuity.
    _, log_lines, final, _, _ = first
    assert len(log_lines) >= 1
    assert final == "v24"


def test_different_seeds_draw_different_schedules():
    assert _chaotic_run(7)[0] != _chaotic_run(8)[0]


def test_linearizable_across_rebalance_and_slowdown():
    """Histories stay linearizable while the rebalancer re-homes the
    object to a freshly joined node and chaos slows a replica.

    Deliberately no crash faults here: at-least-once retry of a
    non-idempotent ``add_and_get`` whose ack was lost in a crash can
    double-apply, which is the documented Section 4.4 caveat, not a
    linearizability bug.
    """
    with CrucialEnvironment(seed=11, dso_nodes=2) as env:
        recorder = HistoryRecorder(clock=lambda: env.kernel.now)
        injector = ChaosInjector(env.kernel, network=env.network,
                                 dso=env.dso)
        victim = next(iter(env.dso.nodes))
        injector.schedule(FaultPlan().add(
            0.02, "slow_node", victim, factor=5.0, duration=2.0))

        def main():
            counter = AtomicLong("hot", 0, persistent=True, rf=2)
            counter.get()  # force creation before the chaos starts

            def worker(tid):
                for _ in range(4):
                    recorder.record(f"t{tid}", "add_and_get", (1,),
                                    lambda: counter.add_and_get(1))
                    recorder.record(f"t{tid}", "get", (), counter.get)

            threads = [spawn(worker, tid) for tid in range(3)]
            sleep(0.2)
            env.dso.add_node()  # triggers a background rebalance
            for t in threads:
                t.join()
            return counter.get()

        final = env.run(main)
        assert final == 12
        assert injector.log.counts("inject").get("slow_node") == 1
        checker = LinearizabilityChecker(_AtomicLong)
        assert checker.check(recorder.operations), \
            checker.explain(recorder.operations)
