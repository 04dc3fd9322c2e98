"""Unit tests for the SQS-like queue and SNS-like notification services."""

import pytest

from repro.errors import NoSuchKeyError
from repro.simulation import Kernel
from repro.simulation.thread import now, sleep, spawn
from repro.storage import NotificationService, QueueService


@pytest.fixture
def kernel():
    with Kernel(seed=23) as k:
        yield k


@pytest.fixture
def sqs(kernel):
    service = QueueService(kernel)
    service.create_queue("q")
    return service


def test_send_receive_round_trip(kernel, sqs):
    def main():
        sqs.send("q", {"job": 1})
        batch = sqs.receive("q", wait=10.0)  # ride out delivery lag
        return [m.body for m in batch]

    assert kernel.run_main(main) == [{"job": 1}]


def test_receive_empty_queue_returns_nothing(kernel, sqs):
    def main():
        return sqs.receive("q")

    assert kernel.run_main(main) == []


def test_long_poll_returns_when_message_arrives(kernel, sqs):
    def producer():
        sleep(0.5)
        sqs.send("q", "late")

    def main():
        spawn(producer)
        batch = sqs.receive("q", wait=10.0)
        return [m.body for m in batch], now()

    bodies, elapsed = kernel.run_main(main)
    assert bodies == ["late"]
    # Returned on arrival + delivery lag, well before the deadline.
    assert 0.5 < elapsed < 5.0


def test_long_poll_times_out(kernel, sqs):
    def main():
        batch = sqs.receive("q", wait=1.0)
        return batch, now()

    batch, elapsed = kernel.run_main(main)
    assert batch == []
    assert elapsed >= 1.0


def test_visibility_timeout_redelivers_unacked(kernel, sqs):
    service = QueueService(kernel, name="sqs2")
    service.create_queue("v", visibility_timeout=1.0)

    def main():
        service.send("v", "m")
        first = service.receive("v", wait=10.0)
        assert first
        # Not deleted: invisible now, redelivered after the timeout.
        assert service.receive("v") == []
        sleep(1.5)
        second = service.receive("v")
        return second[0].receive_count

    assert kernel.run_main(main) == 2


def test_delete_acknowledges(kernel, sqs):
    service = QueueService(kernel, name="sqs3")
    service.create_queue("v", visibility_timeout=0.5)

    def main():
        service.send("v", "m")
        msg = service.receive("v", wait=10.0)[0]
        service.delete("v", msg.receipt)
        sleep(1.0)
        return service.receive("v")

    assert kernel.run_main(main) == []


def test_delete_rejects_a_receipt_never_issued(kernel, sqs):
    def main():
        sqs.send("q", "m")
        (message,) = sqs.receive("q", wait=10.0)
        for forged in (message, "r-99", "receipt"):
            with pytest.raises(ValueError, match="not a receipt"):
                sqs.delete("q", forged)
        with pytest.raises(ValueError, match="not a receipt"):
            sqs.delete_batch("q", [message.receipt, "r-99"])
        sqs.delete("q", message.receipt)
        sqs.delete("q", message.receipt)  # already deleted: a no-op
        return sqs.approximate_depth("q"), message.receipt

    assert kernel.run_main(main) == (0, "r-0")


def test_unknown_queue(kernel, sqs):
    def main():
        sqs.send("ghost", 1)

    with pytest.raises(NoSuchKeyError):
        kernel.run_main(main)


def test_duplicate_queue_rejected(kernel, sqs):
    with pytest.raises(ValueError):
        sqs.create_queue("q")


def test_latency_is_tens_of_milliseconds(kernel, sqs):
    def main():
        t0 = now()
        sqs.send("q", 1)
        send_time = now() - t0
        t1 = now()
        sqs.receive("q")
        receive_time = now() - t1
        return send_time, receive_time

    send_time, receive_time = kernel.run_main(main)
    assert send_time > 0.005
    assert receive_time > 0.003


# -- SNS -------------------------------------------------------------------------


def test_publish_fans_out_to_subscribed_queues(kernel, sqs):
    sns = NotificationService(kernel, sqs)
    sns.create_topic("t")
    sqs.create_queue("sub-a")
    sqs.create_queue("sub-b")
    sns.subscribe("t", "sub-a")
    sns.subscribe("t", "sub-b")

    def main():
        sns.publish("t", "announcement")
        a = sqs.receive("sub-a", wait=5.0)
        b = sqs.receive("sub-b", wait=5.0)
        return [m.body for m in a], [m.body for m in b]

    a, b = kernel.run_main(main)
    assert a == ["announcement"]
    assert b == ["announcement"]


def test_publish_to_unknown_topic(kernel, sqs):
    sns = NotificationService(kernel, sqs)

    def main():
        sns.publish("ghost", 1)

    with pytest.raises(NoSuchKeyError):
        kernel.run_main(main)


def test_subscribe_unknown_topic(kernel, sqs):
    sns = NotificationService(kernel, sqs)
    with pytest.raises(NoSuchKeyError):
        sns.subscribe("ghost", "q")
