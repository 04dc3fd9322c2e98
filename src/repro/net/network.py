"""A point-to-point message-passing network with failures.

Endpoints register by name.  A *transfer* charges the calling simulated
thread the sampled link latency; reachability honours endpoint
liveness and the current partition set.  Payloads cross the network by
``pickle`` round-trip (see :func:`ship`) so no mutable Python reference
leaks between simulated nodes — the discipline that lets the DSO layer
legitimately claim distributed-memory semantics.  A message is encoded
**once** per hop: the length of that encoding is its wire size and its
decoding is what arrives (:func:`ship_sized`).
"""

from __future__ import annotations

import pickle
from typing import Any, Callable

from repro.errors import NetworkError, SerializationError
from repro.net.latency import LatencyModel
from repro.simulation.kernel import Kernel, current_thread
from repro.trace.tracer import NO_SPAN

#: Exact types that are immutable all the way down: the receiver may be
#: handed the sender's own object, so they are never decoded.
_SCALARS = frozenset((type(None), bool, int, float, str, bytes))


def ship_sized(value: Any, nbytes: int | None = None) -> tuple[Any, int]:
    """``(value as it arrives, wire bytes)`` from a single encode.

    ``nbytes`` is a caller's nominal size; it is returned in place of
    the encoding's length.  Raises :class:`SerializationError` for
    unpicklable values, exactly as Crucial requires shared objects and
    method arguments to be serializable for marshalling.
    """
    scalar = type(value) in _SCALARS
    if scalar and nbytes is not None:
        return value, nbytes
    try:
        blob = pickle.dumps(value)
        if not scalar:
            value = pickle.loads(blob)
    except Exception as exc:  # pickle raises a zoo of types
        raise SerializationError(f"value is not serializable: {exc!r}") from exc
    return value, len(blob) if nbytes is None else nbytes


def ship(value: Any) -> Any:
    """Copy ``value`` as if it were serialized onto the wire."""
    if type(value) in _SCALARS:
        return value
    return ship_sized(value)[0]


def payload_size(value: Any) -> int:
    """Wire size of a value, in bytes (its pickle length).

    Raises :class:`SerializationError` for unpicklable values, like
    :func:`ship` does: sizing them as 0 would under-charge transfer
    latency for exactly the payloads that could never cross a real
    wire.
    """
    try:
        return len(pickle.dumps(value))
    except Exception as exc:  # pickle raises a zoo of types
        raise SerializationError(f"value is not serializable: {exc!r}") from exc


class Endpoint:
    """A network-attached process (server node, client, service)."""

    def __init__(self, name: str):
        self.name = name
        self.alive = True
        #: Incremented on every crash; in-flight calls compare epochs to
        #: detect that the server died under them.
        self.epoch = 0

    def crash(self) -> None:
        self.alive = False
        self.epoch += 1

    def restart(self) -> None:
        self.alive = True

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"<Endpoint {self.name} {state} epoch={self.epoch}>"


class Network:
    """Latency-modelled connectivity between named endpoints."""

    def __init__(self, kernel: Kernel, default_latency: LatencyModel,
                 copy_messages: bool = True, name: str = "net"):
        self.kernel = kernel
        self.default_latency = default_latency
        self.copy_messages = copy_messages
        self.name = name
        self._endpoints: dict[str, Endpoint] = {}
        self._links: dict[tuple[str, str], LatencyModel] = {}
        self._partitions: set[frozenset[str]] = set()
        self._drop_rates: dict[tuple[str, str], float] = {}
        self._rng = kernel.rng.stream(f"net.{name}")
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped = 0

    # -- topology -----------------------------------------------------------

    def register(self, name: str) -> Endpoint:
        if name in self._endpoints:
            raise NetworkError(f"endpoint {name!r} already registered")
        endpoint = Endpoint(name)
        self._endpoints[name] = endpoint
        return endpoint

    def endpoint(self, name: str) -> Endpoint:
        try:
            return self._endpoints[name]
        except KeyError:
            raise NetworkError(f"unknown endpoint {name!r}") from None

    def ensure_endpoint(self, name: str) -> Endpoint:
        """Register ``name`` if unknown; idempotent (used by clients)."""
        existing = self._endpoints.get(name)
        if existing is not None:
            return existing
        return self.register(name)

    def set_link(self, src: str, dst: str, model: LatencyModel,
                 symmetric: bool = True) -> None:
        """Override the latency model of one link."""
        self._links[(src, dst)] = model
        if symmetric:
            self._links[(dst, src)] = model

    def link(self, src: str, dst: str) -> LatencyModel:
        return self._links.get((src, dst), self.default_latency)

    # -- failures -------------------------------------------------------------

    def partition(self, group_a: set[str], group_b: set[str]) -> None:
        """Disconnect every pair across the two groups."""
        for a in group_a:
            for b in group_b:
                self._partitions.add(frozenset((a, b)))

    def unpartition(self, group_a: set[str], group_b: set[str]) -> None:
        """Reconnect the pairs a matching :meth:`partition` cut.

        Unlike :meth:`heal`, other partitions stay in force, so
        overlapping injected partitions compose.
        """
        for a in group_a:
            for b in group_b:
                self._partitions.discard(frozenset((a, b)))

    def heal(self) -> None:
        self._partitions.clear()

    def set_drop_rate(self, src: str, dst: str, rate: float,
                      symmetric: bool = True) -> None:
        """Drop each message on the link with probability ``rate``.

        A dropped message still charges the sender its link latency
        (the bytes left, they just never arrived), then surfaces as a
        :class:`NetworkError` — indistinguishable, to the sender, from
        the destination failing mid-flight, which is what forces the
        upper layers' retry paths.  ``rate=0`` restores the link.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"drop rate {rate} outside [0, 1]")
        pairs = [(src, dst)] + ([(dst, src)] if symmetric else [])
        for pair in pairs:
            if rate == 0.0:
                self._drop_rates.pop(pair, None)
            else:
                self._drop_rates[pair] = rate

    def drop_rate(self, src: str, dst: str) -> float:
        return self._drop_rates.get((src, dst), 0.0)

    def reachable(self, src: str, dst: str) -> bool:
        return src == dst or self._connected(self.endpoint(src),
                                             self.endpoint(dst))

    def _connected(self, src: Endpoint, dst: Endpoint) -> bool:
        if src is dst:
            return True
        if not (src.alive and dst.alive):
            return False
        return (not self._partitions
                or frozenset((src.name, dst.name)) not in self._partitions)

    # -- data plane -------------------------------------------------------------

    def transfer(self, src: str, dst: str, value: Any = None,
                 nbytes: int | None = None) -> Any:
        """Move ``value`` from ``src`` to ``dst``, charging link latency.

        Blocks the calling simulated thread for the sampled delay and
        returns the shipped (copied) value: a snapshot taken at send
        time, from the one encode that also sizes the message.  Raises
        :class:`NetworkError` if the destination is unreachable at send
        time *or* crashes mid-flight.
        """
        tracer = self.kernel.tracer
        with (tracer.span("net.transfer", kind="internal", endpoint=src,
                          attributes={"src": src, "dst": dst})
              if tracer.enabled else NO_SPAN) as span:
            src_ep = self.endpoint(src)
            dst_ep = self.endpoint(dst)
            if not self._connected(src_ep, dst_ep):
                raise NetworkError(f"{dst!r} unreachable from {src!r}")
            if self.copy_messages:
                value, nbytes = ship_sized(value, nbytes)
            elif nbytes is None:
                nbytes = 0
            if tracer.enabled:
                span.set("bytes", nbytes)
            delay = self._links.get((src, dst), self.default_latency) \
                .sample(self._rng, nbytes)
            dropped = False
            if self._drop_rates:
                rate = self._drop_rates.get((src, dst), 0.0)
                dropped = rate > 0.0 and float(self._rng.random()) < rate
            dst_epoch = dst_ep.epoch
            current_thread().sleep(delay)
            self.messages_sent += 1
            self.bytes_sent += nbytes
            if dropped:
                self.messages_dropped += 1
                raise NetworkError(f"message {src!r} -> {dst!r} dropped")
            if not self._connected(src_ep, dst_ep) \
                    or dst_ep.epoch != dst_epoch:
                raise NetworkError(
                    f"{dst!r} failed during transfer from {src!r}")
            return value

    def post(self, src: str, dst: str, value: Any,
             deliver: Callable[[Any], None]) -> float:
        """Send ``value`` one way without blocking; returns its flight
        time.

        The message is sized, delayed and counted exactly like a
        :meth:`transfer`, but the sender keeps running: a fan-out of k
        posts costs the slowest hop, not the sum.  When the flight time
        has passed ``deliver(shipped value)`` runs in kernel context (it
        must not block) — unless the message was dropped, the endpoints
        were partitioned, or ``dst`` crashed in flight, in which case
        nothing runs: the sender learns of delivery only through what
        ``deliver`` does.  A sender that sleeps the returned time wakes
        after the delivery.  Raises :class:`NetworkError` if ``dst`` is
        unreachable at send time.
        """
        src_ep = self.endpoint(src)
        dst_ep = self.endpoint(dst)
        if not self._connected(src_ep, dst_ep):
            raise NetworkError(f"{dst!r} unreachable from {src!r}")
        nbytes = 0
        if self.copy_messages:
            value, nbytes = ship_sized(value)
        delay = self._links.get((src, dst), self.default_latency) \
            .sample(self._rng, nbytes)
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if self._drop_rates:
            rate = self._drop_rates.get((src, dst), 0.0)
            if rate > 0.0 and float(self._rng.random()) < rate:
                self.messages_dropped += 1
                return delay
        dst_epoch = dst_ep.epoch

        def arrive() -> None:
            if self._connected(src_ep, dst_ep) \
                    and dst_ep.epoch == dst_epoch:
                deliver(value)

        self.kernel.call_later(delay, arrive)
        return delay

    def delay(self, src: str, dst: str, nbytes: int = 0) -> float:
        """Sample a link delay without blocking (for timers)."""
        return self.link(src, dst).sample(self._rng, nbytes)
