"""An Amazon-SQS-like message queue service.

Messages are delivered to *polling* consumers: ``receive`` charges the
(tens of ms) request latency and supports long polling.  Delivered
messages become invisible for a visibility timeout and reappear unless
deleted — consumers must explicitly acknowledge, exactly the loop that
makes SQS-based synchronization the slowest strategy in Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.config import Config, DEFAULT_CONFIG
from repro.errors import NoSuchKeyError
from repro.simulation.kernel import Kernel, current_thread
from repro.simulation.primitives import Event
from repro.trace.tracer import NO_SPAN


@dataclass
class Message:
    body: Any
    receipt: str
    enqueued_at: float
    #: invisible until this time (0 = visible now)
    invisible_until: float = 0.0
    receive_count: int = 0


@dataclass
class _Queue:
    name: str
    visibility_timeout: float
    messages: list[Message] = field(default_factory=list)
    #: Long-poll waiters; set from kernel context on arrival.
    waiters: list[Event] = field(default_factory=list)


class QueueService:
    """A named-queue service with SQS semantics and latencies."""

    def __init__(self, kernel: Kernel, config: Config = DEFAULT_CONFIG,
                 name: str = "sqs"):
        self.kernel = kernel
        self.config = config
        self.name = name
        self._queues: dict[str, _Queue] = {}
        self._rng = kernel.rng.stream(f"storage.{name}")
        self._receipts = 0  # issued so far: r-0 .. r-{n-1}
        self.send_count = 0
        self.receive_count = 0

    # -- management -----------------------------------------------------------

    def create_queue(self, name: str, visibility_timeout: float = 30.0) -> None:
        if name in self._queues:
            raise ValueError(f"queue {name!r} already exists")
        self._queues[name] = _Queue(name, visibility_timeout)

    def _queue(self, name: str) -> _Queue:
        queue = self._queues.get(name)
        if queue is None:
            raise NoSuchKeyError(f"{self.name}: no such queue {name!r}")
        return queue

    # -- data path ----------------------------------------------------------------

    def send(self, queue_name: str, body: Any) -> None:
        """Send a message (charges SQS send latency)."""
        tracer = self.kernel.tracer
        with (tracer.span(f"{self.name}.send", kind="producer",
                          endpoint=self.name,
                          attributes={"queue": queue_name})
              if tracer.enabled else NO_SPAN):
            delay = self.config.storage.sqs_send.sample(self._rng)
            current_thread().sleep(delay)
            self.deliver(queue_name, body)

    def deliver(self, queue_name: str, body: Any) -> None:
        """Enqueue without caller-side latency (service-side fan-in).

        The entry point for other *services* handing a message to the
        queue — SNS fan-out, the FaaS platform's dead-letter delivery —
        where the producer's request latency was already charged
        elsewhere.  The message only becomes receivable after the
        delivery lag — SQS's heavy-tailed propagation across its
        storage hosts.
        """
        queue = self._queue(queue_name)
        receipt = f"r-{self._receipts}"
        self._receipts += 1
        lag = self.config.storage.sqs_delivery_lag.sample(self._rng)
        queue.messages.append(
            Message(body=body, receipt=receipt,
                    enqueued_at=self.kernel.now,
                    invisible_until=self.kernel.now + lag))
        self.send_count += 1
        self.kernel.call_later(lag, lambda: self._wake_waiters(queue))

    def _wake_waiters(self, queue: _Queue) -> None:
        for waiter in queue.waiters:
            waiter.set()
        queue.waiters.clear()

    def receive(self, queue_name: str, max_messages: int = 1,
                wait: float = 0.0) -> list[Message]:
        """Poll for messages (charges receive latency).

        With ``wait > 0`` this is a long poll: the call returns as soon
        as a message arrives, or after ``wait`` seconds with an empty
        list.  Returned messages become invisible for the queue's
        visibility timeout; call :meth:`delete` to acknowledge.
        """
        queue = self._queue(queue_name)
        tracer = self.kernel.tracer
        with (tracer.span(f"{self.name}.receive", kind="consumer",
                          endpoint=self.name,
                          attributes={"queue": queue_name})
              if tracer.enabled else NO_SPAN) as span:
            delay = self.config.storage.sqs_receive.sample(self._rng)
            current_thread().sleep(delay)
            self.receive_count += 1
            deadline = self.kernel.now + wait
            while True:
                batch = self._take_visible(queue, max_messages)
                if batch or self.kernel.now >= deadline:
                    if tracer.enabled:
                        span.set("messages", len(batch))
                    return batch
                waiter = Event(self.kernel)
                queue.waiters.append(waiter)
                waiter.wait(timeout=deadline - self.kernel.now)
                if waiter in queue.waiters:
                    queue.waiters.remove(waiter)

    def _take_visible(self, queue: _Queue, limit: int) -> list[Message]:
        now = self.kernel.now
        batch: list[Message] = []
        for message in queue.messages:
            if message.invisible_until <= now:
                message.invisible_until = now + queue.visibility_timeout
                message.receive_count += 1
                batch.append(message)
                if len(batch) == limit:
                    break
        return batch

    def delete(self, queue_name: str, receipt: str) -> None:
        """Acknowledge (remove) a received message."""
        tracer = self.kernel.tracer
        with (tracer.span(f"{self.name}.delete", kind="client",
                          endpoint=self.name,
                          attributes={"queue": queue_name})
              if tracer.enabled else NO_SPAN):
            self.delete_batch(queue_name, [receipt])

    def delete_batch(self, queue_name: str, receipts: list[str]) -> None:
        """DeleteMessageBatch: up to 10 acknowledgements per request."""
        queue = self._queue(queue_name)
        for chunk in self._chunks(receipts):
            delay = self.config.storage.sqs_send.sample(self._rng)
            current_thread().sleep(delay)
            self._remove(queue, chunk)

    def ack(self, queue_name: str, receipts: list[str]) -> None:
        """DeleteMessageBatch without waiting for it: each 10-receipt
        request's latency is drawn as :meth:`delete_batch` draws it,
        and its messages leave the queue when it lands.  Until then a
        message whose visibility timeout runs out is received again."""
        queue = self._queue(queue_name)
        for chunk in self._chunks(receipts):
            delay = self.config.storage.sqs_send.sample(self._rng)
            self.kernel.call_later(
                delay, lambda chunk=chunk: self._remove(queue, chunk))

    @staticmethod
    def _chunks(receipts: list[str]) -> list[list[str]]:
        return [receipts[start:start + 10]
                for start in range(0, len(receipts), 10)]

    def _remove(self, queue: _Queue, receipts: list[str]) -> None:
        """Drop the messages ``receipts`` acknowledge (none for one
        already deleted); a receipt never issued raises ValueError."""
        for receipt in receipts:
            if not (isinstance(receipt, str) and receipt[:2] == "r-"
                    and receipt[2:].isdigit()
                    and int(receipt[2:]) < self._receipts):
                raise ValueError(f"{receipt!r} is not a receipt it issued")
        gone = set(receipts)
        queue.messages = [m for m in queue.messages if m.receipt not in gone]

    def approximate_depth(self, queue_name: str) -> int:
        """Visible-message count (no latency; monitoring API)."""
        now = self.kernel.now
        return sum(1 for m in self._queue(queue_name).messages
                   if m.invisible_until <= now)
