"""Edge-case tests for the storage services."""

import pytest

from repro.errors import NoSuchKeyError
from repro.net.network import payload_size
from repro.simulation import Kernel
from repro.simulation.thread import sleep, spawn
from repro.storage import BlockStore, MemoryStore, ObjectStore, QueueService


@pytest.fixture
def kernel():
    with Kernel(seed=141) as k:
        yield k


# -- object store ---------------------------------------------------------------


def test_overwrite_updates_value_and_resets_visibility(kernel):
    store = ObjectStore(kernel)

    def main():
        store.put("k", 1)
        sleep(1.0)
        assert store.exists("k") is True
        store.put("k", 2)
        # Overwritten key: new value readable, listing lag restarts.
        value = store.get("k")
        listed_now = store.exists("k")
        sleep(1.0)
        return value, listed_now, store.exists("k")

    value, listed_now, listed_later = kernel.run_main(main)
    assert value == 2
    assert listed_now is False
    assert listed_later is True


@pytest.mark.parametrize("make_store", [ObjectStore, BlockStore, MemoryStore])
def test_put_stores_the_value_as_it_was_when_sent(kernel, make_store):
    """Regression: a store sized the value before the PUT latency but
    copied it after, so a caller mutating its object meanwhile stored
    the mutated value under the stale byte count."""
    store = make_store(kernel)
    value = {"rows": [1, 2, 3]}
    sent_bytes = payload_size(value)

    def mutator():
        sleep(1e-7)  # inside every tier's PUT latency
        value["rows"].extend(range(1000))

    def main():
        spawn(mutator)
        store.put("k", value)
        assert len(value["rows"]) == 1003  # the mutator did run mid-PUT
        return store.get("k")

    assert kernel.run_main(main) == {"rows": [1, 2, 3]}
    assert store.stored_bytes() == store.stats.bytes_written == sent_bytes


def test_list_prefix_filters(kernel):
    store = ObjectStore(kernel)

    def main():
        store.put("a/1", 1)
        store.put("a/2", 2)
        store.put("b/1", 3)
        sleep(1.0)
        return store.list_prefix("a/")

    assert kernel.run_main(main) == ["a/1", "a/2"]


def test_delete_missing_key_is_noop(kernel):
    store = ObjectStore(kernel)

    def main():
        store.delete("missing")  # S3 semantics: idempotent delete

    kernel.run_main(main)


def test_concurrent_puts_last_writer_wins(kernel):
    store = ObjectStore(kernel)

    def writer(value, delay):
        sleep(delay)
        store.put("shared", value)

    def main():
        threads = [spawn(writer, v, d)
                   for v, d in ((1, 0.0), (2, 0.5), (3, 1.0))]
        for t in threads:
            t.join()
        return store.get("shared")

    assert kernel.run_main(main) == 3


# -- queue service -----------------------------------------------------------------


def test_delete_batch_chunks_of_ten(kernel):
    service = QueueService(kernel)
    service.create_queue("bulk")

    def main():
        for i in range(25):
            service.deliver("bulk", i)
        sleep(5.0)  # ride out delivery lag
        receipts = []
        while len(receipts) < 25:
            for message in service.receive("bulk", max_messages=10):
                receipts.append(message.receipt)
        t0 = kernel.now
        service.delete_batch("bulk", receipts)
        elapsed = kernel.now - t0
        return elapsed, service.approximate_depth("bulk")

    elapsed, depth = kernel.run_main(main)
    assert depth == 0
    # 25 receipts = 3 batch requests, not 25 singles.
    single = 25 * 0.010
    assert elapsed < single


def test_receive_respects_max_messages(kernel):
    service = QueueService(kernel)
    service.create_queue("cap")

    def main():
        for i in range(7):
            service.deliver("cap", i)
        sleep(5.0)
        return len(service.receive("cap", max_messages=3))

    assert kernel.run_main(main) == 3


def test_approximate_depth_counts_only_visible(kernel):
    service = QueueService(kernel)
    service.create_queue("depth", visibility_timeout=100.0)

    def main():
        service.deliver("depth", "m")
        sleep(5.0)
        before = service.approximate_depth("depth")
        service.receive("depth")
        after = service.receive("depth") or service.approximate_depth(
            "depth")
        return before, service.approximate_depth("depth")

    before, after = kernel.run_main(main)
    assert before == 1
    assert after == 0  # in flight, invisible


def test_messages_preserve_fifo_within_lag(kernel):
    """With deterministic zero lag, order is FIFO."""
    from dataclasses import replace

    from repro.config import Config, StorageLatencies
    from repro.net.latency import LatencyModel

    config = Config(storage=replace(
        StorageLatencies(), sqs_delivery_lag=LatencyModel(0.0)))
    service = QueueService(kernel, config=config)
    service.create_queue("fifo")

    def main():
        for i in range(5):
            service.send("fifo", i)
        batch = service.receive("fifo", max_messages=5)
        return [m.body for m in batch]

    assert kernel.run_main(main) == [0, 1, 2, 3, 4]


def test_unknown_queue_receive(kernel):
    service = QueueService(kernel)

    def main():
        service.receive("ghost")

    with pytest.raises(NoSuchKeyError):
        kernel.run_main(main)
