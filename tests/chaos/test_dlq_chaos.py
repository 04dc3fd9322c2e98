"""Dead-letter path under chaos: container kills on async invokes.

Section 2.1 warns that async (Event) invocations are retried by the
platform and that designers must account for where failed events end
up.  Here the chaos layer kills every container the platform spins up
for a window long enough to exhaust all platform retries: each failed
payload must land in the dead-letter queue *exactly once*, carrying
its attempt count, and draining the queue and replaying the payloads
once the chaos stops must succeed.
"""

from repro.chaos import ChaosInjector, FaultPlan
from repro.faas import FaasPlatform
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from repro.simulation.thread import sleep
from repro.storage import QueueService

JOBS = 3
MAX_RETRIES = 2


def run_workload(seed):
    with Kernel(seed=seed) as kernel:
        network = Network(kernel, LatencyModel(0.0005))
        network.ensure_endpoint("driver")
        platform = FaasPlatform(kernel, network)
        platform.deploy("worker", lambda ctx, x: ctx.compute(1.0) or x * 2)
        sqs = QueueService(kernel)
        sqs.create_queue("dlq")
        injector = ChaosInjector(kernel, network=network,
                                 platform=platform)

        # Kill every busy container for ~14s: long enough to cover the
        # initial attempt plus both platform retries (2s/4s waits) of
        # every job, with margin for startup jitter.
        plan = FaultPlan()
        t = 0.2
        while t < 14.0:
            plan.add(t, "kill_container", "worker")
            t += 0.4
        injector.schedule(plan)

        def main():
            handles = [
                platform.invoke_async("driver", "worker", payload=i,
                                      max_retries=MAX_RETRIES,
                                      dead_letter_queue=(sqs, "dlq"))
                for i in range(JOBS)
            ]
            for handle in handles:
                handle.join()
            sleep(16.0)  # past the kill window

            # Each failed payload is dead-lettered exactly once.
            assert sqs.approximate_depth("dlq") == JOBS
            batch = sqs.receive("dlq", max_messages=JOBS, wait=5.0)
            assert len(batch) == JOBS
            payloads = sorted(message.body["payload"]
                              for message in batch)
            assert payloads == list(range(JOBS))
            for message in batch:
                assert message.body["function"] == "worker"
                assert message.body["attempts"] == MAX_RETRIES + 1
                assert "killed" in message.body["error"]

            # Drained replay: chaos is over, re-running the payloads
            # through the same function succeeds.
            replays = [platform.invoke("driver", message.body["function"],
                                       message.body["payload"])
                       for message in batch]
            for message in batch:
                sqs.delete("dlq", message.receipt)
            return sorted(replays), sqs.approximate_depth("dlq")

        replays, depth = kernel.run_main(main)
        kills = injector.log.counts("inject").get("kill_container", 0)
        assert kills >= JOBS  # chaos actually fired
        return replays, depth


def test_killed_async_payloads_dead_letter_once_then_replay(chaos_seed):
    replays, depth = run_workload(chaos_seed)
    assert replays == [i * 2 for i in range(JOBS)]
    assert depth == 0
