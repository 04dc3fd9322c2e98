"""Pluggable storage backends: one protocol, priced tiers.

Every storage substrate the simulation offers — the S3-like
:class:`~repro.storage.object_store.ObjectStore`, the gp3-like
:class:`BlockStore`, the in-memory :class:`MemoryStore`, the
grid/Redis adapters, and the tier-routing
:class:`~repro.storage.tiering.TieredStore` — satisfies the same
:class:`StorageBackend` protocol: ``put``/``get``/``delete``/
``list_prefix``/``exists`` plus a zero-cost ``seed`` for pre-existing
data, and a :class:`BackendProfile` that carries the tier's latency
distributions, $/GB-month capacity rent and per-request fees.  The
billing is implemented once, in the metered core every flat store and
the cluster adapter are built on; a store adds only where its values
live and what a request costs in time.

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
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro.config import Config, DEFAULT_CONFIG
from repro.errors import NoSuchKeyError
from repro.metrics.cost import CostLedger
from repro.net.latency import LatencyModel
from repro.net.network import payload_size, ship, ship_sized
from repro.simulation.kernel import Kernel, current_thread
from repro.trace.tracer import NO_SPAN

if TYPE_CHECKING:
    from repro.storage.datagrid import KvCluster

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

    def settle(self) -> None:
        """Accrue capacity rent up to the current virtual time (what
        :meth:`CostLedger.settle` calls on every attached backend)."""
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
        dollars_per_gb_month=config.tiering.gp3_dollars_per_gb_month)


def memory_profile(config: Config = DEFAULT_CONFIG,
                   name: str = "memory") -> BackendProfile:
    """In-memory tier next to compute: grid latency, RAM rent."""
    return BackendProfile(
        name=name, tier="memory",
        get_latency=config.tiering.memory_get,
        put_latency=config.tiering.memory_put,
        dollars_per_gb_month=config.tiering.memory_dollars_per_gb_month)


# ---------------------------------------------------------------------------
# The metered core and the two stores built on it
# ---------------------------------------------------------------------------


class _MeteredStore:
    """The billing half of every flat store, implemented once.

    Owns the profile, the ledger attachment, the request counters and
    the nominal byte size of every key (values may be billed at a size
    larger than their materialized payload, so 100 GB datasets can be
    modelled without allocating them), from which capacity rent is
    integrated as byte-seconds over virtual time.  A subclass supplies
    where the values live and what a request costs in time: the five
    data-path verbs, and ``_seed``.
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
        self._nbytes: dict[str, int] = {}
        self._resting_bytes = 0
        self._last_settle = kernel.now

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

    def _account(self, key: str, nbytes: int | None) -> None:
        """``key`` now rests at ``nbytes`` (``None``: it is gone); rent
        on the old occupancy is settled first."""
        self.settle()
        self._resting_bytes -= self._nbytes.pop(key, 0)
        if nbytes is not None:
            self._nbytes[key] = nbytes
            self._resting_bytes += nbytes

    # -- free paths (no latency; for tests, harnesses, pre-existing data) ---

    def seed(self, key: str, value: Any, nbytes: int | None = None) -> None:
        """Install pre-existing data without charging the data path.

        The object is immediately visible (it predates the experiment,
        like the paper's S3-hosted dataset); capacity rent still
        accrues from now on.
        """
        if nbytes is None:
            nbytes = payload_size(value)
        self._seed(key, value)
        self._account(key, nbytes)

    def _seed(self, key: str, value: Any) -> None:
        raise NotImplementedError

    def size(self) -> int:
        return len(self._nbytes)

    def stored_bytes(self) -> int:
        return self._resting_bytes


@dataclass
class _Blob:
    value: Any
    #: When LIST/HEAD polling starts to see it.
    visible_at: float


class ProfiledStore(_MeteredStore):
    """A flat KV blob store driven entirely by its profile.

    The class behind :class:`~repro.storage.object_store.ObjectStore`,
    :class:`BlockStore` and :class:`MemoryStore` — tiers that differ
    only in their numbers.  Every request charges one sample of the
    profile's latency model (no shared server bottleneck) and one
    request fee.  Reads of an existing key are read-after-write;
    ``list_prefix``/``exists`` see a fresh PUT only after the
    profile's ``visibility_lag`` (zero on gp3 and memory).
    """

    def __init__(self, kernel: Kernel, profile: BackendProfile,
                 ledger: CostLedger | None = None):
        super().__init__(kernel, profile, ledger)
        self._blobs: dict[str, _Blob] = {}
        self._rng = kernel.rng.stream(f"storage.{profile.name}")

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
            delay = self.profile.put_latency.sample(self._rng, nbytes)
            current_thread().sleep(delay)
            self._blobs[key] = _Blob(
                value, self.kernel.now + self.profile.visibility_lag)
            self._account(key, nbytes)
            self._charge(self.profile.put_request_dollars, "puts")
            self.stats.bytes_written += nbytes

    def get(self, key: str) -> Any:
        """Fetch ``key`` (charges GET latency, size-dependent)."""
        nbytes = self._nbytes.get(key, 0)
        tracer = self.kernel.tracer
        with (tracer.span(f"{self.name}.get", kind="client",
                          endpoint=self.name,
                          attributes={"key": key, "bytes": nbytes})
              if tracer.enabled else NO_SPAN):
            delay = self.profile.get_latency.sample(self._rng, nbytes)
            current_thread().sleep(delay)
            self._charge(self.profile.get_request_dollars, "gets")
            blob = self._blobs.get(key)  # looked up after the delay
            if blob is None:
                raise NoSuchKeyError(f"{self.name}: no such key {key!r}")
            self.stats.bytes_read += self._nbytes[key]
            return ship(blob.value)

    def delete(self, key: str) -> None:
        tracer = self.kernel.tracer
        with (tracer.span(f"{self.name}.delete", kind="client",
                          endpoint=self.name, attributes={"key": key})
              if tracer.enabled else NO_SPAN):
            delay = self.profile.put_latency.sample(self._rng, 0)
            current_thread().sleep(delay)
            self._charge(self.profile.put_request_dollars, "deletes")
            if self._blobs.pop(key, None) is not None:
                self._account(key, None)

    def list_prefix(self, prefix: str) -> list[str]:
        """List visible keys under ``prefix`` (charges one GET latency
        and one GET-class request fee, like any other request).

        Keys PUT within the last ``visibility_lag`` seconds are *not*
        returned: this is the eventual consistency that foils naive
        S3-based synchronization.
        """
        tracer = self.kernel.tracer
        with (tracer.span(f"{self.name}.list", kind="client",
                          endpoint=self.name, attributes={"prefix": prefix})
              if tracer.enabled else NO_SPAN):
            delay = self.profile.get_latency.sample(self._rng, 0)
            current_thread().sleep(delay)
            self._charge(self.profile.get_request_dollars, "lists")
            now = self.kernel.now
            return sorted(key for key, blob in self._blobs.items()
                          if key.startswith(prefix) and blob.visible_at <= now)

    def exists(self, key: str) -> bool:
        """HEAD request with listing (eventual) visibility.

        Counted and billed like a GET: polling loops built on
        ``exists`` (the Fig. 6 S3-sync pattern) pay per poll.
        """
        tracer = self.kernel.tracer
        with (tracer.span(f"{self.name}.head", kind="client",
                          endpoint=self.name, attributes={"key": key})
              if tracer.enabled else NO_SPAN):
            delay = self.profile.get_latency.sample(self._rng, 0)
            current_thread().sleep(delay)
            self._charge(self.profile.get_request_dollars, "heads")
            blob = self._blobs.get(key)
            return blob is not None and blob.visible_at <= self.kernel.now

    def _seed(self, key: str, value: Any) -> None:
        self._blobs[key] = _Blob(value, visible_at=0.0)


class BlockStore(ProfiledStore):
    """A gp3-like block tier: 1-2 ms requests, free fees, cheap-ish
    capacity, throughput capped at 125 MB/s."""

    def __init__(self, kernel: Kernel, config: Config = DEFAULT_CONFIG,
                 name: str = "gp3", ledger: CostLedger | None = None):
        super().__init__(kernel, gp3_profile(config, name), ledger)


class MemoryStore(ProfiledStore):
    """An in-memory tier next to compute: grid-grade latency, RAM
    rent at the r5.2xlarge rate."""

    def __init__(self, kernel: Kernel, config: Config = DEFAULT_CONFIG,
                 name: str = "memory", ledger: CostLedger | None = None):
        super().__init__(kernel, memory_profile(config, name), ledger)


class ClusterBackend(_MeteredStore):
    """Protocol adapter: a sharded RPC key-value cluster
    (:class:`~repro.storage.datagrid.DataGrid`, :class:`~repro.storage.
    kvstore.RedisCluster`) as a priced in-memory tier, for one client
    endpoint.

    Requests delegate to the cluster's RPC path — latency is charged
    by the cluster itself (network hops + service time), never twice —
    while the metered core adds per-request stats, RAM rent at the
    in-memory tier rate, and nominal-size tracking.
    """

    def __init__(self, cluster: KvCluster, client: str = "client",
                 ledger: CostLedger | None = None):
        super().__init__(cluster.kernel,
                         memory_profile(cluster.config, cluster.name), ledger)
        self.cluster = cluster
        self.client = client

    def put(self, key: str, value: Any, nbytes: int | None = None) -> None:
        if nbytes is None:
            nbytes = payload_size(value)
        self.cluster.put(self.client, key, value)
        self._account(key, nbytes)
        self._charge(self.profile.put_request_dollars, "puts")
        self.stats.bytes_written += nbytes

    def get(self, key: str) -> Any:
        try:
            value = self.cluster.get(self.client, key)
        except NoSuchKeyError:
            # The server answered: a miss is a request like a hit (an
            # infrastructure error is not, and propagates unbilled).
            self._charge(self.profile.get_request_dollars, "gets")
            raise
        self._charge(self.profile.get_request_dollars, "gets")
        self.stats.bytes_read += self._nbytes.get(key, 0)
        return value

    def delete(self, key: str) -> None:
        self.cluster.remove(self.client, key)
        self._account(key, None)
        self._charge(self.profile.put_request_dollars, "deletes")

    def list_prefix(self, prefix: str) -> list[str]:
        found = self.cluster.keys(self.client, prefix)
        self._charge(self.profile.get_request_dollars, "lists")
        return found

    def exists(self, key: str) -> bool:
        found = self.cluster.contains(self.client, key)
        self._charge(self.profile.get_request_dollars, "heads")
        return found

    def _seed(self, key: str, value: Any) -> None:
        self.cluster.seed(key, value)
