"""Cost-aware tiered storage: hot data next to compute, cold data on
the cheap tier.

A :class:`TieredStore` routes keys across an ordered list of
:class:`~repro.storage.backend.StorageBackend` tiers (hottest first,
coldest last), tracking per-key heat (recency + access frequency).
Writes land on the hottest tier that will take them; a background
sweep demotes objects that have gone cold — or that overflow the hot
tier's capacity budget, least-recently-used first — down a tier, and
repeated access to a cold object promotes it back next to compute.
Migrations run on simulated threads, pay the real read+write cost of
both tiers, and are traced as ``storage.promote``/``storage.demote``
spans.

Correctness under concurrency and faults:

* **No lost writes during migration.**  Every mutation of a key's
  placement — a ``put`` installing a fresh value, a migration
  committing, a superseded copy being evicted — runs under that key's
  FIFO write lock.  A migration snapshots the key's version, copies
  the value out of the source tier *outside* the lock, then validates
  the snapshot, writes the destination, re-routes, and deletes the
  source copy in one locked critical section: a concurrent ``put``
  either lands before validation (the migration aborts without ever
  writing its stale copy) or blocks until the eviction has finished
  (so the eviction can never delete a value it did not validate).
* **Read-after-write across tier failure.**  If the tier that owns a
  key stops answering (a crashed grid node mid-demotion, say), reads
  fall back to the remaining tiers in order — the migration's
  destination copy, written *before* the source copy is deleted,
  keeps acknowledged data readable.  A read that finds the key gone
  from the tier it started on re-checks the routing table and retries
  on the key's new home, so an eviction landing mid-read never
  surfaces a spurious miss for a key that still exists.

The store itself satisfies the backend protocol, so anything written
against :class:`~repro.storage.backend.StorageBackend` — the Fig. 6
map-sync strategies, DSO passivation, the ML dataset loaders — runs
unmodified over tiered storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.config import Config, DEFAULT_CONFIG
from repro.errors import NetworkError, NoSuchKeyError, NodeCrashedError
from repro.metrics.cost import CostLedger
from repro.net.network import payload_size
from repro.simulation.kernel import Kernel
from repro.simulation.primitives import Lock
from repro.simulation.thread import PeriodicThread
from repro.storage.backend import BackendProfile, BackendStats, StorageBackend

#: Infrastructure failures a tier may surface (vs. app-level misses).
_INFRA = (NetworkError, NodeCrashedError)


@dataclass
class _Heat:
    """Per-key access heat: recency for LRU, a windowed hit count for
    promotion decisions."""

    last_access: float = 0.0
    window_start: float = 0.0
    hits: int = 0

    def touch(self, now: float, window: float) -> int:
        if now - self.window_start > window:
            self.window_start = now
            self.hits = 0
        self.hits += 1
        self.last_access = now
        return self.hits


@dataclass
class TieringStats:
    promotions: int = 0
    demotions: int = 0
    #: Migrations abandoned because a write raced them (the no-lost-
    #: writes guard firing) or the destination tier failed.
    aborted_migrations: int = 0
    #: Reads served by the hottest tier / by any colder tier.
    hot_hits: int = 0
    cold_hits: int = 0
    #: Reads answered by a non-owning tier after the owner failed.
    fallback_reads: int = 0


class TieredStore:
    """Routes keys across priced storage tiers with heat tracking.

    ``tiers`` is ordered hottest → coldest.  Build the tiers with one
    shared :class:`~repro.metrics.cost.CostLedger` so the whole
    deployment bills into a single account (``cost_summary`` then
    shows the split per tier); the store adopts ``ledger`` or, by
    default, the hottest tier's.
    """

    def __init__(self, kernel: Kernel, tiers: Sequence[StorageBackend],
                 config: Config = DEFAULT_CONFIG, name: str = "tiered",
                 ledger: CostLedger | None = None):
        if not tiers:
            raise ValueError("need at least one tier")
        self.kernel = kernel
        self.tiers = list(tiers)
        self.config = config
        self.name = name
        self.ledger = ledger if ledger is not None else tiers[0].ledger
        self.stats = BackendStats()
        self.tiering = TieringStats()
        hot, cold = self.tiers[0].profile, self.tiers[-1].profile
        #: Composite identity: hot-tier latency, cold-tier capacity
        #: price — what the placement policy is aiming for.
        self.profile = BackendProfile(
            name=name, tier="tiered",
            get_latency=hot.get_latency, put_latency=hot.put_latency,
            dollars_per_gb_month=cold.dollars_per_gb_month,
            get_request_dollars=hot.get_request_dollars,
            put_request_dollars=hot.put_request_dollars)
        self._where: dict[str, int] = {}
        self._heat: dict[str, _Heat] = {}
        self._versions: dict[str, int] = {}
        self._nbytes: dict[str, int] = {}
        self._migrating: set[str] = set()
        #: Per-key write locks serializing installs, migrations, and
        #: evictions (retained for the life of the store — bounded by
        #: the keyspace, like ``_versions``).
        self._locks: dict[str, Lock] = {}
        self._sweeper: PeriodicThread | None = None

    # -- placement bookkeeping ----------------------------------------------

    def tier_of(self, key: str) -> int | None:
        """Index of the tier currently owning ``key`` (introspection)."""
        return self._where.get(key)

    def _touch(self, key: str) -> int:
        heat = self._heat.get(key)
        if heat is None:
            heat = self._heat[key] = _Heat()
        return heat.touch(self.kernel.now, self.config.tiering.heat_window)

    def _route(self, key: str, tier: int, nbytes: int) -> None:
        self._where[key] = tier
        self._nbytes[key] = nbytes
        self._versions[key] = self._versions.get(key, 0) + 1

    def _forget(self, key: str) -> None:
        self._where.pop(key, None)
        self._heat.pop(key, None)
        self._versions.pop(key, None)
        self._nbytes.pop(key, None)

    def _lock(self, key: str) -> Lock:
        lock = self._locks.get(key)
        if lock is None:
            lock = self._locks[key] = Lock(self.kernel)
        return lock

    # -- data path ----------------------------------------------------------

    def put(self, key: str, value: Any, nbytes: int | None = None) -> None:
        """Write to the hottest tier that will take it.

        A tier that fails with an infrastructure error (crashed node)
        is skipped, so writes survive the loss of the hot tier; the
        old copy on a different tier is deleted once the write lands,
        keeping exactly one authoritative copy.
        """
        if nbytes is None:
            nbytes = payload_size(value)
        last_error: Exception | None = None
        with self._lock(key):
            old_tier = self._where.get(key)
            for index, tier in enumerate(self.tiers):
                try:
                    tier.put(key, value, nbytes=nbytes)
                except _INFRA as exc:
                    last_error = exc
                    continue
                self._route(key, index, nbytes)
                self._touch(key)
                self.stats.puts += 1
                self.stats.bytes_written += nbytes
                if old_tier is not None and old_tier != index:
                    self._unlocked_evict(key, old_tier)
                return
        raise last_error if last_error is not None else \
            NetworkError(f"{self.name}: no tier accepted {key!r}")

    def get(self, key: str) -> Any:
        """Read from the owning tier, falling back across tiers if it
        fails; repeated cold reads promote the key next to compute."""
        owner = self._where.get(key)
        if owner is None:
            # Unknown key: one honest miss round trip on the cold tier.
            self.stats.gets += 1
            return self.tiers[-1].get(key)
        for _attempt in range(len(self.tiers) + 1):
            try:
                value = self.tiers[owner].get(key)
                break
            except _INFRA:
                value = self._fallback_read(key, owner)
                owner = self._where.get(key, owner)
                break
            except NoSuchKeyError:
                # A migration's eviction may land while this read was
                # in flight on the source tier: if the key is still
                # routed — just somewhere else now — retry on its new
                # home instead of surfacing a spurious miss.
                moved = self._where.get(key)
                if moved is None or moved == owner:
                    raise  # deleted, or the tier truly lost the blob
                owner = moved
        else:
            raise NoSuchKeyError(
                f"{self.name}: {key!r} kept moving mid-read")
        self.stats.gets += 1
        self.stats.bytes_read += self._nbytes.get(key, 0)
        if owner == 0:
            self.tiering.hot_hits += 1
        else:
            self.tiering.cold_hits += 1
        hits = self._touch(key)
        if owner > 0 and hits >= self.config.tiering.promote_hits:
            self.promote(key)
        return value

    def _fallback_read(self, key: str, owner: int) -> Any:
        """The owning tier is down: try every other tier in heat order
        (a committed migration's destination copy keeps acknowledged
        data readable).

        A surviving copy is *adopted* as the new authoritative
        location only under the key's write lock, and only while the
        key is still routed to the failed tier — if a migration or a
        racing ``put`` re-routed the key concurrently, that placement
        wins and the copy is merely served.  On adoption the abandoned
        copy on the failed owner is evicted best-effort in the
        background, so a tier that was only *transiently* down does
        not keep a superseded copy around leaking rent.
        """
        for index, tier in enumerate(self.tiers):
            if index == owner:
                continue
            try:
                value = tier.get(key)
            except (NoSuchKeyError, *_INFRA):
                continue
            self.tiering.fallback_reads += 1
            with self._lock(key):
                if self._where.get(key) == owner:
                    self._where[key] = index
                    self._versions[key] = self._versions.get(key, 0) + 1
                    self.kernel.spawn(self._evict_copy, key, owner,
                                      daemon=True,
                                      name=f"{self.name}-scavenge-{key}")
            return value
        raise NoSuchKeyError(
            f"{self.name}: {key!r} unreadable (owning tier down, "
            f"no surviving copy)")

    def delete(self, key: str) -> None:
        self.stats.deletes += 1
        with self._lock(key):
            owner = self._where.get(key)
            if owner is None:
                self.tiers[-1].delete(key)
                return
            self._forget(key)
            self.tiers[owner].delete(key)

    def list_prefix(self, prefix: str) -> list[str]:
        """Union of every tier's listing (each tier's LIST is charged
        — tiered placement does not make listing cheaper)."""
        self.stats.lists += 1
        found: set[str] = set()
        for tier in self.tiers:
            found.update(tier.list_prefix(prefix))
        return sorted(found)

    def exists(self, key: str) -> bool:
        owner = self._where.get(key)
        self.stats.heads += 1
        return self.tiers[-1 if owner is None else owner].exists(key)

    # -- free paths ---------------------------------------------------------

    def seed(self, key: str, value: Any, nbytes: int | None = None) -> None:
        """Install pre-existing data on the *coldest* tier (datasets
        start cheap; the heat machinery promotes what gets used)."""
        if nbytes is None:
            nbytes = payload_size(value)
        self.tiers[-1].seed(key, value, nbytes=nbytes)
        self._route(key, len(self.tiers) - 1, nbytes)

    def size(self) -> int:
        return len(self._where)

    def stored_bytes(self) -> int:
        return sum(self._nbytes.values())

    def dollars_per_gb_month(self) -> float:
        """Effective capacity price of the *current* placement: each
        tier's $/GB-month weighted by the bytes resting on it.  This is
        the number the heat policy optimizes — it falls toward the cold
        tier's price as data ages out of RAM."""
        total = sum(tier.stored_bytes() for tier in self.tiers)
        if total == 0:
            return self.profile.dollars_per_gb_month
        return sum(tier.stored_bytes() * tier.profile.dollars_per_gb_month
                   for tier in self.tiers) / total

    def settle(self) -> None:
        for tier in self.tiers:
            tier.settle()

    # -- migration ----------------------------------------------------------

    def promote(self, key: str) -> None:
        """Move ``key`` one step hotter, on a background thread."""
        owner = self._where.get(key)
        if owner is None or owner == 0 or key in self._migrating:
            return
        self._spawn_migration(key, owner, owner - 1, "storage.promote")

    def demote(self, key: str) -> None:
        """Move ``key`` one step colder, on a background thread."""
        owner = self._where.get(key)
        if owner is None or owner >= len(self.tiers) - 1 \
                or key in self._migrating:
            return
        self._spawn_migration(key, owner, owner + 1, "storage.demote")

    def _spawn_migration(self, key: str, src: int, dst: int,
                         span: str) -> None:
        self._migrating.add(key)
        self.kernel.spawn(self._migrate, key, src, dst, span, daemon=True,
                          name=f"{self.name}-{span.split('.')[1]}-{key}")

    def _migrate(self, key: str, src: int, dst: int, span: str) -> None:
        """Copy src → dst, re-route, then delete the source copy.

        The value is read out of the source tier *outside* the key's
        write lock (so a racing ``put`` never waits on a slow copy),
        but the version snapshot is validated and the destination
        write, re-route, and source eviction all happen in one locked
        critical section.  A ``put`` that lands before validation
        aborts the migration *before* its stale copy ever reaches the
        destination tier; a ``put`` issued during the critical section
        blocks until the source eviction has finished — either way no
        acknowledged write can be deleted or shadowed by a migration.
        """
        counter = ("promotions" if span == "storage.promote"
                   else "demotions")
        try:
            version = self._versions.get(key)
            with self.kernel.tracer.span(
                    span, kind="server", endpoint=self.name,
                    attributes={"key": key,
                                "from": self.tiers[src].profile.name,
                                "to": self.tiers[dst].profile.name}):
                try:
                    value = self.tiers[src].get(key)
                except (NoSuchKeyError, *_INFRA):
                    # Source gone (deleted, or its node died before the
                    # copy was read): nothing to migrate.
                    self.tiering.aborted_migrations += 1
                    return
                nbytes = self._nbytes.get(key, payload_size(value))
                with self._lock(key):
                    if (self._versions.get(key) != version
                            or self._where.get(key) != src):
                        # A write raced the copy: the fresh value wins;
                        # nothing to clean up — the stale copy was
                        # never written to the destination.
                        self.tiering.aborted_migrations += 1
                        return
                    try:
                        self.tiers[dst].put(key, value, nbytes=nbytes)
                    except _INFRA:
                        self.tiering.aborted_migrations += 1
                        return
                    self._where[key] = dst
                    setattr(self.tiering, counter,
                            getattr(self.tiering, counter) + 1)
                    self._unlocked_evict(key, src)
        finally:
            self._migrating.discard(key)

    def _evict_copy(self, key: str, tier: int) -> None:
        """Best-effort delete of a superseded copy, serialized against
        writers via the key's lock; re-checks routing so it never
        deletes a copy that has (re)become authoritative."""
        with self._lock(key):
            if self._where.get(key) == tier:
                return
            self._unlocked_evict(key, tier)

    def _unlocked_evict(self, key: str, tier: int) -> None:
        """Delete ``key``'s superseded copy on ``tier``; the caller
        holds the key's write lock, so no racing ``put`` can install a
        fresh value there while the delete is in flight (a dead tier
        lost the copy along with everything else)."""
        try:
            self.tiers[tier].delete(key)
        except _INFRA:
            pass

    # -- background sweep ---------------------------------------------------

    def sweep(self) -> int:
        """One demotion pass; returns the number of demotions started.

        Demotes keys idle longer than ``demote_after`` one step colder
        (from *any* non-coldest tier, so aged data keeps sinking down a
        memory → block → object stack), then — if the hottest tier is
        over its capacity budget — the least-recently-used hot keys
        until the budget holds.  Runs inline on the calling simulated
        thread's clock for the bookkeeping, with migrations on
        background threads.
        """
        settings = self.config.tiering
        now = self.kernel.now
        started = 0
        coldest = len(self.tiers) - 1
        warm_keys = [key for key, tier in self._where.items()
                     if tier < coldest]
        by_lru = sorted(
            warm_keys,
            key=lambda k: self._heat[k].last_access if k in self._heat
            else 0.0)
        demoted: set[str] = set()
        for key in by_lru:
            heat = self._heat.get(key)
            idle = now - heat.last_access if heat is not None else now
            if idle >= settings.demote_after and key not in self._migrating:
                self.demote(key)
                demoted.add(key)
                started += 1
        hot_bytes = sum(self._nbytes.get(k, 0)
                        for k, tier in self._where.items()
                        if tier == 0 and k not in demoted)
        for key in by_lru:
            if hot_bytes <= settings.hot_capacity_bytes:
                break
            if (key in demoted or key in self._migrating
                    or self._where.get(key) != 0):
                continue
            self.demote(key)
            demoted.add(key)
            hot_bytes -= self._nbytes.get(key, 0)
            started += 1
        return started

    def start_sweeper(self) -> None:
        """Run :meth:`sweep` every ``sweep_period`` (idempotent)."""
        if self._sweeper is None:
            self._sweeper = self.kernel.every(
                self.config.tiering.sweep_period, self.sweep,
                name=f"{self.name}-sweeper")

    def stop_sweeper(self) -> None:
        if self._sweeper is not None:
            self._sweeper.cancel()
            self._sweeper = None
