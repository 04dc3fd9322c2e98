"""An Amazon-S3-like object store.

High access latency (>10 ms, Table 2), practically unlimited
throughput (each request is charged latency but there is no shared
server bottleneck — S3 scales horizontally), and *eventually
consistent listings*: a freshly PUT key only becomes visible to
``list_prefix``/``exists`` polling after ``visibility_lag``, which is
what makes the S3-synchronization bars of Fig. 6 both slow and highly
variable.

Reads of an existing key are read-after-write consistent (S3's 2019
semantics for new-object PUTs).  Values may carry a *nominal* byte
size larger than their materialized payload so that 100 GB datasets
can be modelled without allocating them.

The store satisfies the :class:`repro.storage.backend.StorageBackend`
protocol: it carries an S3 :class:`~repro.storage.backend.
BackendProfile` ($0.023/GB-month, $0.005/1k PUT, $0.0004/1k GET) and
accrues every request — including ``exists``/``list_prefix``, which
are GET-class requests in S3's pricing — into a
:class:`~repro.metrics.cost.CostLedger`, so listing-heavy workloads
(the Fig. 6 S3-sync pattern) are billed faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.config import Config, DEFAULT_CONFIG
from repro.errors import NoSuchKeyError
from repro.metrics.cost import CostLedger
from repro.net.network import payload_size, ship, ship_sized
from repro.simulation.kernel import Kernel, current_thread
from repro.storage.backend import BackendStats, s3_profile
from repro.trace.tracer import NO_SPAN


@dataclass
class _StoredObject:
    value: Any
    nbytes: int
    put_time: float
    visible_at: float


class ObjectStore:
    """A flat key/value blob store with S3 latencies and prices."""

    def __init__(self, kernel: Kernel, config: Config = DEFAULT_CONFIG,
                 name: str = "s3", ledger: CostLedger | None = None):
        self.kernel = kernel
        self.config = config
        self.name = name
        self.profile = s3_profile(config, name)
        self.profile.validate()
        self.ledger = ledger if ledger is not None else CostLedger()
        self.ledger.attach(self)
        self.stats = BackendStats()
        self._blobs: dict[str, _StoredObject] = {}
        self._rng = kernel.rng.stream(f"storage.{name}")
        self._resting_bytes = 0
        self._last_settle = kernel.now

    # -- billing ------------------------------------------------------------

    def settle(self) -> None:
        """Accrue capacity rent up to the current virtual time."""
        now = self.kernel.now
        elapsed = now - self._last_settle
        if elapsed > 0 and self._resting_bytes > 0:
            byte_seconds = self._resting_bytes * elapsed
            self.ledger.occupancy(
                self.name, self.profile.tier, byte_seconds,
                self.profile.storage_dollars(byte_seconds))
        self._last_settle = now

    def _charge(self, dollars: float, count_attr: str) -> None:
        setattr(self.stats, count_attr, getattr(self.stats, count_attr) + 1)
        self.stats.request_dollars += dollars
        self.ledger.request(self.name, self.profile.tier, dollars)

    def _install(self, key: str, stored: _StoredObject) -> None:
        self.settle()
        old = self._blobs.get(key)
        if old is not None:
            self._resting_bytes -= old.nbytes
        self._blobs[key] = stored
        self._resting_bytes += stored.nbytes

    # -- data path ------------------------------------------------------------

    def put(self, key: str, value: Any, nbytes: int | None = None) -> None:
        """Store ``value`` under ``key`` (charges PUT latency).

        What is stored is the value as it was when the request was
        sent: one encode up front sizes it and snapshots it, so a
        caller mutating its object during the PUT changes nothing.
        """
        value, nbytes = ship_sized(value, nbytes)
        tracer = self.kernel.tracer
        with (tracer.span(f"{self.name}.put", kind="client",
                          endpoint=self.name,
                          attributes={"key": key, "bytes": nbytes})
              if tracer.enabled else NO_SPAN):
            delay = self.config.storage.s3_put.sample(self._rng, nbytes)
            current_thread().sleep(delay)
            lag = self.config.storage.s3_visibility_lag
            self._install(key, _StoredObject(
                value=value, nbytes=nbytes,
                put_time=self.kernel.now,
                visible_at=self.kernel.now + lag))
            self._charge(self.profile.put_request_dollars, "puts")
            self.stats.bytes_written += nbytes

    def get(self, key: str) -> Any:
        """Fetch ``key`` (charges GET latency, size-dependent)."""
        stored = self._blobs.get(key)
        nbytes = stored.nbytes if stored is not None else 0
        tracer = self.kernel.tracer
        with (tracer.span(f"{self.name}.get", kind="client",
                          endpoint=self.name,
                          attributes={"key": key, "bytes": nbytes})
              if tracer.enabled else NO_SPAN):
            delay = self.config.storage.s3_get.sample(self._rng, nbytes)
            current_thread().sleep(delay)
            stored = self._blobs.get(key)  # re-check after the delay
            self._charge(self.profile.get_request_dollars, "gets")
            if stored is None:
                raise NoSuchKeyError(f"{self.name}: no such key {key!r}")
            self.stats.bytes_read += stored.nbytes
            return ship(stored.value)

    def delete(self, key: str) -> None:
        with self.kernel.tracer.span(
                f"{self.name}.delete", kind="client", endpoint=self.name,
                attributes={"key": key}):
            delay = self.config.storage.s3_put.sample(self._rng, 0)
            current_thread().sleep(delay)
            self._charge(self.profile.put_request_dollars, "deletes")
            stored = self._blobs.pop(key, None)
            if stored is not None:
                self.settle()
                self._resting_bytes -= stored.nbytes

    # -- polling path (eventually consistent) -------------------------------------

    def list_prefix(self, prefix: str) -> list[str]:
        """List visible keys under ``prefix`` (charges one GET latency
        and one GET-class request fee, like any other request).

        Keys PUT within the last ``visibility_lag`` seconds are *not*
        returned: this is the eventual consistency that foils naive
        S3-based synchronization.
        """
        with self.kernel.tracer.span(
                f"{self.name}.list", kind="client", endpoint=self.name,
                attributes={"prefix": prefix}):
            delay = self.config.storage.s3_get.sample(self._rng, 0)
            current_thread().sleep(delay)
            self._charge(self.profile.get_request_dollars, "lists")
            now = self.kernel.now
            return sorted(
                key for key, stored in self._blobs.items()
                if key.startswith(prefix) and stored.visible_at <= now)

    def exists(self, key: str) -> bool:
        """HEAD request with listing (eventual) visibility.

        Counted and billed like a GET: polling loops built on
        ``exists`` (the Fig. 6 S3-sync pattern) pay per poll.
        """
        with self.kernel.tracer.span(
                f"{self.name}.head", kind="client", endpoint=self.name,
                attributes={"key": key}):
            delay = self.config.storage.s3_get.sample(self._rng, 0)
            current_thread().sleep(delay)
            self._charge(self.profile.get_request_dollars, "heads")
            stored = self._blobs.get(key)
            return stored is not None and stored.visible_at <= self.kernel.now

    # -- free paths (no latency; for tests, harnesses, pre-existing data) ----------

    def seed(self, key: str, value: Any, nbytes: int | None = None) -> None:
        """Install pre-existing data without charging the data path.

        The object is immediately visible (it predates the experiment,
        like the paper's S3-hosted dataset); capacity rent still
        accrues from now on.
        """
        if nbytes is None:
            nbytes = payload_size(value)
        self._install(key, _StoredObject(value=value, nbytes=nbytes,
                                         put_time=0.0, visible_at=0.0))

    def size(self) -> int:
        return len(self._blobs)

    def stored_bytes(self) -> int:
        return self._resting_bytes
