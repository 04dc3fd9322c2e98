"""Pluggable storage backends: one protocol, priced tiers.

Every storage substrate the simulation offers — the S3-like
:class:`~repro.storage.object_store.ObjectStore`, the gp3-like
:class:`BlockStore`, the in-memory :class:`MemoryStore`, the
grid/Redis adapters, and the tier-routing
:class:`~repro.storage.tiering.TieredStore` — satisfies the same
:class:`StorageBackend` protocol: ``put``/``get``/``delete``/
``list_prefix``/``exists`` plus a zero-cost ``seed`` for pre-existing
data, and a :class:`BackendProfile` that carries the tier's latency
distributions, $/GB-month capacity rent, per-request fees, and
throughput cap.

The profile numbers are seeded from the ``HW_PARAMETERS`` table used
in serverless cost modelling (S3: 100-200 ms, $0.023/GB-month,
$0.005/1k PUT + $0.0004/1k GET; gp3: 1-2 ms, $0.081/GB-month, free
requests, 125 MB/s) — see :class:`repro.config.TieringSettings`.
Every request accrues dollars into a
:class:`repro.metrics.cost.CostLedger`, and capacity rent is accrued
as a byte-seconds integral over virtual time, so a harness can report
exactly what a placement policy costs, not just how fast it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

from repro.config import Config, DEFAULT_CONFIG
from repro.errors import NoSuchKeyError
from repro.metrics.cost import CostLedger
from repro.net.latency import LatencyModel
from repro.net.network import payload_size, ship, ship_sized
from repro.simulation.kernel import Kernel, current_thread

#: Billing month (AWS convention: 730 hours).
MONTH_SECONDS = 730.0 * 3600.0

#: The tier classes a profile may declare.
TIERS = ("memory", "block", "object", "tiered")


@dataclass(frozen=True)
class BackendProfile:
    """The cost/latency identity of one storage tier.

    Latency models cover a zero-byte request; payload transfer time
    comes from their ``bandwidth`` term (which is how the gp3 125 MB/s
    throughput cap is charged).  Request prices are dollars *per
    request*; capacity rent is dollars per GB-month, accrued
    continuously over virtual time.
    """

    name: str
    tier: str
    get_latency: LatencyModel
    put_latency: LatencyModel
    dollars_per_gb_month: float
    get_request_dollars: float = 0.0
    put_request_dollars: float = 0.0
    #: Advertised sequential throughput (bytes/s); ``None`` when the
    #: tier scales horizontally (S3) and per-request bandwidth is
    #: already folded into the latency models.
    throughput_bytes_per_sec: float | None = None
    #: Lag before a fresh PUT is visible to LIST/HEAD polling
    #: (eventually consistent listings, the Fig. 6 failure mode).
    visibility_lag: float = 0.0

    def validate(self) -> None:
        """Raise ``ValueError`` unless the profile is self-consistent."""
        if self.tier not in TIERS:
            raise ValueError(f"unknown tier {self.tier!r}")
        if self.get_latency.base < 0 or self.put_latency.base < 0:
            raise ValueError(f"{self.name}: negative latency")
        if self.dollars_per_gb_month < 0:
            raise ValueError(f"{self.name}: negative capacity price")
        if self.get_request_dollars < 0 or self.put_request_dollars < 0:
            raise ValueError(f"{self.name}: negative request price")
        if (self.throughput_bytes_per_sec is not None
                and self.throughput_bytes_per_sec <= 0):
            raise ValueError(f"{self.name}: non-positive throughput")
        if self.visibility_lag < 0:
            raise ValueError(f"{self.name}: negative visibility lag")

    def storage_dollars(self, byte_seconds: float) -> float:
        """Capacity rent for ``byte_seconds`` of occupancy."""
        return (byte_seconds / 1e9) * self.dollars_per_gb_month \
            / MONTH_SECONDS


@dataclass
class BackendStats:
    """Per-backend request counters (every request class counted the
    same way, so listing-heavy workloads cannot undercount)."""

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    lists: int = 0
    heads: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    request_dollars: float = 0.0

    @property
    def requests(self) -> int:
        return (self.puts + self.gets + self.deletes
                + self.lists + self.heads)


@runtime_checkable
class StorageBackend(Protocol):
    """What every storage tier offers.

    Data-path methods must run inside a simulated thread (they charge
    the tier's latency and accrue request dollars); ``seed`` and the
    introspection methods are free and host-callable.
    """

    profile: BackendProfile
    stats: BackendStats
    ledger: CostLedger

    def put(self, key: str, value: Any, nbytes: int | None = None) -> None:
        """Store ``value`` under ``key`` (charges PUT latency + fee)."""
        ...

    def get(self, key: str) -> Any:
        """Fetch ``key`` (charges GET latency + fee) or raise
        :class:`~repro.errors.NoSuchKeyError`."""
        ...

    def delete(self, key: str) -> None:
        """Remove ``key`` if present (charges PUT-class latency)."""
        ...

    def list_prefix(self, prefix: str) -> list[str]:
        """Sorted visible keys under ``prefix`` (charges a LIST)."""
        ...

    def exists(self, key: str) -> bool:
        """HEAD request with the tier's listing visibility."""
        ...

    def seed(self, key: str, value: Any, nbytes: int | None = None) -> None:
        """Install pre-existing data without charging the data path
        (datasets that predate the experiment); rent still accrues."""
        ...

    def size(self) -> int:
        """Number of stored objects (free introspection)."""
        ...

    def stored_bytes(self) -> int:
        """Total nominal bytes at rest (free introspection)."""
        ...


# ---------------------------------------------------------------------------
# Profile builders (HW_PARAMETERS numbers via repro.config)
# ---------------------------------------------------------------------------


def s3_profile(config: Config = DEFAULT_CONFIG,
               name: str = "s3") -> BackendProfile:
    """S3: Table 2 latencies, $0.023/GB-month, per-request fees."""
    return BackendProfile(
        name=name, tier="object",
        get_latency=config.storage.s3_get,
        put_latency=config.storage.s3_put,
        dollars_per_gb_month=config.tiering.s3_dollars_per_gb_month,
        get_request_dollars=config.prices.s3_get_per_1000 / 1000.0,
        put_request_dollars=config.prices.s3_put_per_1000 / 1000.0,
        visibility_lag=config.storage.s3_visibility_lag)


def gp3_profile(config: Config = DEFAULT_CONFIG,
                name: str = "gp3") -> BackendProfile:
    """gp3 block volume: 1-2 ms, free requests, 125 MB/s cap."""
    return BackendProfile(
        name=name, tier="block",
        get_latency=config.tiering.gp3_get,
        put_latency=config.tiering.gp3_put,
        dollars_per_gb_month=config.tiering.gp3_dollars_per_gb_month,
        throughput_bytes_per_sec=config.tiering.gp3_get.bandwidth)


def memory_profile(config: Config = DEFAULT_CONFIG,
                   name: str = "memory") -> BackendProfile:
    """In-memory tier next to compute: grid latency, RAM rent."""
    return BackendProfile(
        name=name, tier="memory",
        get_latency=config.tiering.memory_get,
        put_latency=config.tiering.memory_put,
        dollars_per_gb_month=config.tiering.memory_dollars_per_gb_month)


# ---------------------------------------------------------------------------
# ProfiledStore: a flat store driven entirely by its profile
# ---------------------------------------------------------------------------


@dataclass
class _Blob:
    value: Any
    nbytes: int


class ProfiledStore:
    """A flat, strongly consistent KV store priced by its profile.

    The base class behind :class:`BlockStore` and :class:`MemoryStore`
    — the two tiers that differ only in their numbers.  Reads are
    read-after-write; listings are immediate (``visibility_lag`` in
    the profile is honoured, but both shipped profiles set it to 0).
    """

    def __init__(self, kernel: Kernel, profile: BackendProfile,
                 ledger: CostLedger | None = None):
        profile.validate()
        self.kernel = kernel
        self.profile = profile
        self.name = profile.name
        self.ledger = ledger if ledger is not None else CostLedger()
        self.ledger.attach(self)
        self.stats = BackendStats()
        self._blobs: dict[str, _Blob] = {}
        self._visible_at: dict[str, float] = {}
        self._rng = kernel.rng.stream(f"storage.{profile.name}")
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

    def _charge(self, kind: str, dollars: float, count_attr: str) -> None:
        setattr(self.stats, count_attr, getattr(self.stats, count_attr) + 1)
        self.stats.request_dollars += dollars
        self.ledger.request(self.name, self.profile.tier, dollars)

    def _install(self, key: str, value: Any, nbytes: int,
                 visible_at: float) -> None:
        self.settle()
        old = self._blobs.get(key)
        if old is not None:
            self._resting_bytes -= old.nbytes
        self._blobs[key] = _Blob(value=value, nbytes=nbytes)
        self._visible_at[key] = visible_at
        self._resting_bytes += nbytes

    # -- data path ----------------------------------------------------------

    def put(self, key: str, value: Any, nbytes: int | None = None) -> None:
        # One encode, before the latency: it sizes the request and is
        # the snapshot that gets stored, whatever the caller does to
        # its object meanwhile.
        value, nbytes = ship_sized(value, nbytes)
        with self.kernel.tracer.span(
                f"{self.name}.put", kind="client", endpoint=self.name,
                attributes={"key": key, "bytes": nbytes}):
            delay = self.profile.put_latency.sample(self._rng, nbytes)
            current_thread().sleep(delay)
            self._install(key, value, nbytes,
                          self.kernel.now + self.profile.visibility_lag)
            self._charge("put", self.profile.put_request_dollars, "puts")
            self.stats.bytes_written += nbytes

    def get(self, key: str) -> Any:
        blob = self._blobs.get(key)
        nbytes = blob.nbytes if blob is not None else 0
        with self.kernel.tracer.span(
                f"{self.name}.get", kind="client", endpoint=self.name,
                attributes={"key": key, "bytes": nbytes}):
            delay = self.profile.get_latency.sample(self._rng, nbytes)
            current_thread().sleep(delay)
            self._charge("get", self.profile.get_request_dollars, "gets")
            blob = self._blobs.get(key)  # re-check after the delay
            if blob is None:
                raise NoSuchKeyError(f"{self.name}: no such key {key!r}")
            self.stats.bytes_read += blob.nbytes
            return ship(blob.value)

    def delete(self, key: str) -> None:
        with self.kernel.tracer.span(
                f"{self.name}.delete", kind="client", endpoint=self.name,
                attributes={"key": key}):
            delay = self.profile.put_latency.sample(self._rng, 0)
            current_thread().sleep(delay)
            self._charge("delete", self.profile.put_request_dollars,
                         "deletes")
            blob = self._blobs.pop(key, None)
            self._visible_at.pop(key, None)
            if blob is not None:
                self.settle()
                self._resting_bytes -= blob.nbytes

    def list_prefix(self, prefix: str) -> list[str]:
        with self.kernel.tracer.span(
                f"{self.name}.list", kind="client", endpoint=self.name,
                attributes={"prefix": prefix}):
            delay = self.profile.get_latency.sample(self._rng, 0)
            current_thread().sleep(delay)
            self._charge("list", self.profile.get_request_dollars, "lists")
            now = self.kernel.now
            return sorted(
                key for key in self._blobs
                if key.startswith(prefix)
                and self._visible_at.get(key, 0.0) <= now)

    def exists(self, key: str) -> bool:
        with self.kernel.tracer.span(
                f"{self.name}.head", kind="client", endpoint=self.name,
                attributes={"key": key}):
            delay = self.profile.get_latency.sample(self._rng, 0)
            current_thread().sleep(delay)
            self._charge("head", self.profile.get_request_dollars, "heads")
            return (key in self._blobs
                    and self._visible_at.get(key, 0.0) <= self.kernel.now)

    # -- free paths ---------------------------------------------------------

    def seed(self, key: str, value: Any, nbytes: int | None = None) -> None:
        if nbytes is None:
            nbytes = payload_size(value)
        self._install(key, value, nbytes, 0.0)

    def size(self) -> int:
        return len(self._blobs)

    def stored_bytes(self) -> int:
        return self._resting_bytes


class BlockStore(ProfiledStore):
    """A gp3-like block tier: 1-2 ms requests, free fees, cheap-ish
    capacity, throughput capped at 125 MB/s."""

    def __init__(self, kernel: Kernel, config: Config = DEFAULT_CONFIG,
                 name: str = "gp3", ledger: CostLedger | None = None):
        super().__init__(kernel, gp3_profile(config, name), ledger)
        self.config = config


class MemoryStore(ProfiledStore):
    """An in-memory tier next to compute: grid-grade latency, RAM
    rent at the r5.2xlarge rate."""

    def __init__(self, kernel: Kernel, config: Config = DEFAULT_CONFIG,
                 name: str = "memory", ledger: CostLedger | None = None):
        super().__init__(kernel, memory_profile(config, name), ledger)
        self.config = config
