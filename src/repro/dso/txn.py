"""Read-atomic multi-object transactions on the DSO layer.

The paper's consistency story is strictly per-object: each DSO is
linearizable in isolation, and a crash between two writes leaves
readers seeing *fractured* state (half of a logical multi-object
update).  This module layers AFT-style read-atomic transactions
("A Fault-Tolerance Shim for Serverless Computing", Sreekanti et al.)
on top of the existing exactly-once machinery — a deliberate
deviation from the paper, documented in DESIGN.md §14.

The moving parts:

* :class:`TxnCell` — the transactional shared object: a versioned
  value cell.  Committed versions carry the *commit id* (``cid``) and
  the full write set of the writing transaction, exactly the metadata
  RAMP/AFT attach to each version; a bounded history of committed
  versions (``DsoTimings.txn_history``) lets readers fall back to an
  older version to preserve atomic visibility.  Prepared (pre-commit)
  versions live in ``prepared`` and are installed — or discarded — by
  the commit/abort half of the protocol.

* :class:`Txn` — the client-side transaction: a per-txn write buffer
  (read-your-writes), a read set of ``(key -> cid, writeset)``
  observations, and read-set validation that only ever returns
  versions forming an atomic-visibility snapshot: having observed a
  write of transaction *T*, a reader can never observe a pre-*T*
  version of any other key *T* wrote (and symmetrically never a
  *newer* sibling of an already-read older version — the interactive
  generalization of RAMP's two-round algorithm).  When the newest
  committed version is too old (a sibling commit is still in flight)
  the reader *force-fetches* the prepared entry, which is safe
  exactly because a committed sibling proves the commit point passed.

* The two-phase commit: ``prepare`` every written key, adopt one
  commit id, then ``commit`` every key.  Each phase is one
  scatter-gather flush of the committing thread's own queue
  (:mod:`repro.dso.pipeline`; other threads' batches neither wait for
  it nor hold it up) — the write set goes out to all its primaries at
  once (same-primary keys share a round trip) and the phase costs the
  slowest of them, so an
  uncontended k-key commit is about two round trips whatever k is
  (AFT ships a write set the same way).  An abort releases its
  prepares with one more such flush.  Prepare and abort are
  :func:`unreplicated` — prepared state is primary-local and dies
  with the primary; commit carries the full ``(cid, value,
  writeset)`` payload and installs idempotently-by-cid at the primary
  *and* its SMR backups, so acknowledged transactions meet the same
  rf>=2 durability contract as single ops.

* The **commit fence**: a commit arriving at a primary that holds no
  prepared entry for the transaction (a crash-failover promoted a
  backup that never saw the unreplicated prepare) is rejected with
  :class:`~repro.errors.TxnPrepareLostError` *before* anything is
  installed; the client re-prepares at the new primary and retries.
  Commits are additionally fenced client-side by the placement
  version recorded at prepare time.  Disabling the fence (the
  ``"no-commit-fence"`` entry of :mod:`repro.mutation`, mutation
  testing only) silently drops such writes — producing exactly the
  fractured, half-committed state the exploration fuzzer is required
  to find (``tests/explore/test_txn_hunter.py``).

Exactly-once commit falls out of the existing session machinery: every
prepare/commit op is a stamped invocation deduplicated end-to-end
through the replicated :class:`~repro.dso.session.SessionTable`, the
transaction id is derived from the session (so a named-session replay
re-issues the *same* transaction), and installation is idempotent by
commit id.  Prepare dedup records are *pinned* in the session table
until the commit or abort resolves them, so LRU pressure can never
evict the one record that makes a retried commit exactly-once.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.dso.cache import readonly
from repro.dso.reference import DsoReference
from repro.errors import (
    CloudError,
    TxnAbortedError,
    TxnError,
    TxnFracturedReadError,
    TxnPrepareLostError,
)
from repro.linearizability.atomicity import TxnCommitRecord, TxnReadRecord
from repro.trace.tracer import NO_SPAN

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dso.layer import DsoLayer


def unreplicated(method: Callable) -> Callable:
    """Mark a shared-object method as primary-local (never SMR'd).

    The replication round is skipped even for rf>=2 objects: the
    method's effect deliberately does *not* survive a primary crash.
    Transaction prepares use this — a prepared version is soft state
    that the commit fence re-creates after failover — so a prepare
    costs one round trip instead of an SMR round.
    """
    method.__dso_unreplicated__ = True
    return method


def is_unreplicated(cls: type, method: str) -> bool:
    """Whether ``method`` on ``cls`` is marked :func:`unreplicated`."""
    return bool(getattr(getattr(cls, method, None),
                        "__dso_unreplicated__", False))


class TxnCell:
    """A transactional value cell: the unit of read-atomic storage.

    State is plain data (pickles through ``ship()``): ``versions`` is
    the bounded, cid-ordered committed history — each entry a
    ``(cid, value, writeset)`` triple, seeded with ``(0, initial,
    ())`` — and ``prepared`` maps transaction ids to not-yet-committed
    triples.  All mutators are deterministic functions of their
    arguments, as SMR requires; ``__txn_commit__`` in particular
    carries its full payload so a backup installs the identical
    version without ever having seen the prepare.
    """

    def __init__(self, value: Any = None, history: int = 8):
        self.history_limit = max(1, int(history))
        self.versions: list[tuple[int, Any, tuple]] = [(0, value, ())]
        self.prepared: dict[str, tuple[int, Any, tuple]] = {}

    @readonly
    def get(self) -> Any:
        """The latest committed value (plain, non-transactional read
        — the interop surface ``read_bulk``/``invoke`` see)."""
        return self.versions[-1][1]

    @readonly
    def latest_cid(self) -> int:
        """Commit id of the latest committed version."""
        return self.versions[-1][0]

    @readonly
    def __txn_read__(self) -> dict:
        """Snapshot for a transactional read: the committed history
        plus the prepared map, from which the client's read-set
        validation picks an atomic-visibility version."""
        return {"versions": list(self.versions),
                "prepared": dict(self.prepared)}

    @unreplicated
    def __txn_prepare__(self, txn_id: str, cid: int, value: Any,
                        writeset: Iterable[str]) -> int:
        """Phase one: stage ``value`` under ``txn_id``.  Primary-local
        (see :func:`unreplicated`); overwriting an earlier prepare of
        the same transaction is the idempotent-retry path.  Returns
        the cid recorded, which the client adopts — a deduplicated
        replay therefore converges on the original commit id."""
        self.prepared[txn_id] = (cid, value, tuple(writeset))
        return cid

    def __txn_commit__(self, txn_id: str, cid: int, value: Any,
                       writeset: Iterable[str]) -> int:
        """Phase two: discard the prepared entry and install the
        version, idempotently by cid.  Replicated: backups install
        from the arguments alone."""
        self.prepared.pop(txn_id, None)
        self._install(cid, value, tuple(writeset))
        return cid

    @unreplicated
    def __txn_abort__(self, txn_id: str) -> bool:
        """Drop ``txn_id``'s prepared entry, if any."""
        return self.prepared.pop(txn_id, None) is not None

    def _install(self, cid: int, value: Any, writeset: tuple) -> None:
        if any(c == cid for c, _, _ in self.versions):
            return  # already installed (commit retry / SMR re-send)
        self.versions.append((cid, value, writeset))
        self.versions.sort(key=lambda v: v[0])
        if len(self.versions) > self.history_limit:
            del self.versions[:len(self.versions) - self.history_limit]


class Transactions:
    """A layer's transaction commit ids, audit logs and cell recipe.

    Commit ids come from a plain counter — no RNG, no clock — and the
    logs are append-only client-side records for the atomicity checker
    (:mod:`repro.linearizability.atomicity`); all of it is free until
    the first transaction runs, so the Table 2 / Fig. 2a calibration
    is untouched.
    """

    def __init__(self, layer: "DsoLayer"):
        self._layer = layer
        self.cids = itertools.count(1)
        self.log: list[TxnCommitRecord] = []
        self.reads: list[TxnReadRecord] = []

    def ref(self, key: str, rf: int = 1) -> DsoReference:
        return DsoReference("TxnCell", key, persistent=rf > 1, rf=rf)

    def ctor(self) -> tuple:
        return (TxnCell, (), {"history": self._layer.config.dso.txn_history})


class Txn:
    """One interactive read-atomic transaction (client side).

    Obtained from ``DsoLayer.transaction(client)`` or
    ``env.transaction()``; :meth:`read`/:meth:`write` operate on
    string keys naming :class:`TxnCell` objects, :meth:`invoke`
    defers an arbitrary DSO invocation to commit time.  ``commit``
    runs the two-phase protocol; ``abort`` discards everything.  The
    context manager commits on clean exit and aborts on exception.
    """

    def __init__(self, layer: "DsoLayer", client: str, rf: int = 1):
        self._layer = layer
        self._client = client
        self._rf = rf
        self.status = "open"
        self.txn_id: str | None = None
        self.cid: int | None = None
        self._writes: dict[str, Any] = {}
        self._reads: dict[str, tuple[int, tuple]] = {}
        self._read_values: dict[str, Any] = {}
        self._deferred: list[tuple] = []
        self._prepare_versions: dict[str, int] = {}

    # -- application surface ------------------------------------------------

    def read(self, key: str) -> Any:
        """Read ``key`` under atomic visibility.

        Buffered writes win (read-your-writes), then previously read
        values (repeatable reads), then a shipped snapshot validated
        against the read set.  When no version of ``key`` is
        consistent with the versions already observed, the read
        backs off and re-fetches — a sibling commit is in flight —
        and past the retry deadline the transaction aborts with
        :class:`TxnFracturedReadError` rather than ever returning
        fractured data.
        """
        self._check_open()
        if key in self._writes:
            return self._writes[key]
        if key in self._read_values:
            return self._read_values[key]
        layer = self._layer
        ref = layer.txns.ref(key, self._rf)
        deadline = layer.retry_deadline()
        attempts = 0
        while True:
            snap = layer.invoke(self._client, ref, "__txn_read__",
                                ctor=layer.txns.ctor())
            chosen = self._choose_version(key, snap)
            if chosen is not None:
                cid, value, writeset = chosen
                self._reads[key] = (cid, tuple(writeset))
                self._read_values[key] = value
                return value
            attempts += 1
            layer.stats.txn_read_retries += 1
            # A lease-cached snapshot would just replay the same
            # stale history; force the next fetch to ship.
            layer.caches.invalidate(self._client, ref.ident)
            if not layer.backoff(attempts, deadline):
                self.abort()
                raise TxnFracturedReadError(
                    f"txn read of {key!r}: no version consistent with "
                    f"the read set after {attempts} attempts "
                    f"(observed {sorted(self._reads)})")

    def write(self, key: str, value: Any) -> None:
        """Buffer a write; visible to this txn's reads immediately,
        to others only after :meth:`commit` — all writes or none."""
        self._check_open()
        self._writes[key] = value

    def invoke(self, ref: DsoReference, method: str, args: tuple = (),
               kwargs: dict | None = None, ctor: tuple | None = None,
               cost: float = 0.0) -> None:
        """Defer an arbitrary DSO invocation to commit time.

        Deferred invocations run *after* the write set is installed,
        as ordinary exactly-once stamped invocations: they happen iff
        the transaction commits, exactly once under retries, but they
        are **not** atomically visible with the write set (only
        :class:`TxnCell` writes get read-atomic visibility).
        """
        self._check_open()
        self._deferred.append((ref, method, tuple(args),
                               dict(kwargs or {}), ctor, cost))

    def commit(self) -> None:
        """Run the two-phase commit; returns with every write durably
        installed (and deferred invocations executed), or raises.

        Failures *before* the commit point (a prepare that cannot be
        placed) abort cleanly with :class:`TxnAbortedError`.  After
        every key acknowledged its prepare the transaction must
        commit: fence rejections trigger re-prepare + retry, bounded
        by the layer's retry deadline.
        """
        self._check_open()
        layer = self._layer
        if not self._writes and not self._deferred:
            self.status = "committed"
            layer.stats.txns_committed += 1
            self._record_reads()
            return
        session = layer.sessions.current(self._client)
        # Derived from the session, not a counter: a named-session
        # replay (sequence restarts at 0) re-issues the identical
        # transaction id, so its prepares and commits deduplicate.
        self.txn_id = f"{session.sid}+t{session.next_seq}"
        writeset = tuple(sorted(self._writes))
        tracer = layer.kernel.tracer
        with (tracer.span("dso.txn_commit", kind="client",
                          endpoint=self._client,
                          attributes={"txn": self.txn_id,
                                      "writes": len(writeset),
                                      "deferred": len(self._deferred)})
              if tracer.enabled else NO_SPAN):
            if writeset:
                proposed = next(layer.txns.cids)
                try:
                    cid = self._prepare_all(proposed, writeset)
                except TxnError:
                    self.abort()
                    raise
                except CloudError as exc:
                    self.abort()
                    raise TxnAbortedError(
                        f"txn {self.txn_id} aborted: prepare failed "
                        f"({exc})") from exc
                # ---- commit point: every key holds a prepared entry.
                self.cid = cid
                self._commit_all(cid, writeset)
            self.status = "committed"
            layer.stats.txns_committed += 1
            if writeset:
                layer.txns.log.append(
                    TxnCommitRecord(txn_id=self.txn_id, cid=self.cid,
                                    writes=writeset))
            self._record_reads()
            for ref, method, args, kwargs, ctor, cost in self._deferred:
                layer.invoke(self._client, ref, method, args, kwargs,
                             ctor=ctor, cost=cost)

    def abort(self) -> None:
        """Discard the transaction: buffered writes are dropped and
        prepared entries are released (best effort — an unreachable
        primary's prepare dies with it, or is fenced out later)."""
        if self.status != "open":
            return
        self.status = "aborted"
        layer = self._layer
        layer.stats.txns_aborted += 1
        if self.txn_id is not None:
            # One concurrent round, like the prepares they undo.
            futures = [layer.invoke_async(self._client,
                                          layer.txns.ref(key, self._rf),
                                          "__txn_abort__",
                                          args=(self.txn_id,))
                       for key in sorted(self._writes)]
            layer.flush(self._client)
            for future in futures:
                exc = future.exception()
                if exc is not None and not isinstance(exc, CloudError):
                    raise exc
        self._record_reads()

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "Txn":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            if self.status == "open":
                self.commit()
        elif self.status == "open":
            self.abort()
        return False

    # -- read-set validation ------------------------------------------------

    def _choose_version(self, key: str, snap: dict
                        ) -> tuple[int, Any, tuple] | None:
        """The newest version of ``key`` that keeps the read set an
        atomic-visibility snapshot, or ``None`` (retry).

        Lower bound: a previously read version whose writer also
        wrote ``key`` forces ``cid >= that writer's cid`` (else we
        would fracture its transaction).  Upper bound: a candidate
        whose writer also wrote an already-read key must not be newer
        than that observation (else the *candidate's* transaction
        fractures).  Prepared entries are eligible only at exactly
        the lower bound — a committed sibling proves that commit
        point passed (RAMP's forced fetch).
        """
        lower = 0
        for rcid, rws in self._reads.values():
            if key in rws and rcid > lower:
                lower = rcid

        def valid(cid: int, writeset: tuple) -> bool:
            if cid < lower:
                return False
            for rkey, (rcid, _) in self._reads.items():
                if rkey in writeset and rcid < cid:
                    return False
            return True

        best = None
        for cid, value, ws in snap["versions"]:
            if valid(cid, ws) and (best is None or cid > best[0]):
                best = (cid, value, ws)
        if best is not None:
            return best
        if lower:
            for cid, value, ws in snap["prepared"].values():
                if cid == lower and valid(cid, ws):
                    self._layer.stats.txn_forced_fetches += 1
                    return (cid, value, ws)
        return None

    # -- two-phase commit ---------------------------------------------------

    def _prepare_all(self, proposed: int, writeset: tuple) -> int:
        """Prepare every written key (one concurrent round: a round
        trip per primary, all in flight together) and adopt a single
        commit id.

        Replies carry the cid each primary recorded; a deduplicated
        replay returns the *original* cid, so adopting the maximum —
        and re-preparing any key that answered with a lower one —
        converges a partially replayed commit on one id.
        """
        layer = self._layer
        futures = {}
        for key in writeset:
            futures[key] = layer.invoke_async(
                self._client, layer.txns.ref(key, self._rf),
                "__txn_prepare__",
                args=(self.txn_id, proposed, self._writes[key], writeset),
                ctor=layer.txns.ctor())
        layer.flush(self._client)
        replies = {key: future.result() for key, future in futures.items()}
        layer.stats.txn_prepares += len(futures)
        cid = max(replies.values())
        for key in writeset:
            if replies[key] != cid:
                self._reprepare(key, cid, writeset)
            else:
                self._note_version(key)
        return cid

    def _commit_all(self, cid: int, writeset: tuple) -> None:
        """Install every key's write (one concurrent round per pass).

        Client-side fence first: a key whose placement version moved
        since its prepare re-prepares before the commit ships.  A
        server-side fence rejection (:class:`TxnPrepareLostError` —
        the failover raced the version check) re-prepares and retries
        that key, bounded by the retry deadline.
        """
        layer = self._layer
        deadline = layer.retry_deadline()
        pending = list(writeset)
        while True:
            for key in pending:
                placement = layer.placements.live(
                    layer.txns.ref(key, self._rf))
                if (placement is None or placement.version
                        != self._prepare_versions.get(key)):
                    self._reprepare(key, cid, writeset)
            futures = {}
            for key in pending:
                futures[key] = layer.invoke_async(
                    self._client, layer.txns.ref(key, self._rf),
                    "__txn_commit__",
                    args=(self.txn_id, cid, self._writes[key], writeset))
            layer.flush(self._client)
            retry: list[str] = []
            fence_exc: TxnPrepareLostError | None = None
            for key, future in futures.items():
                exc = future.exception()
                if exc is None:
                    continue
                if isinstance(exc, TxnPrepareLostError):
                    retry.append(key)
                    fence_exc = exc
                else:
                    raise exc
            if not retry:
                return
            if layer.kernel.now >= deadline:
                raise fence_exc
            for key in retry:
                self._reprepare(key, cid, writeset)
            pending = retry

    def _reprepare(self, key: str, cid: int, writeset: tuple) -> None:
        layer = self._layer
        layer.invoke(self._client, layer.txns.ref(key, self._rf),
                     "__txn_prepare__",
                     args=(self.txn_id, cid, self._writes[key], writeset),
                     ctor=layer.txns.ctor())
        layer.stats.txn_prepares += 1
        self._note_version(key)

    def _note_version(self, key: str) -> None:
        layer = self._layer
        placement = layer.placements.live(layer.txns.ref(key, self._rf))
        self._prepare_versions[key] = (
            placement.version if placement is not None else -1)

    # -- bookkeeping --------------------------------------------------------

    def _check_open(self) -> None:
        if self.status != "open":
            raise TxnAbortedError(
                f"transaction is {self.status}; no further operations")

    def _record_reads(self) -> None:
        if self._reads:
            self._layer.txns.reads.append(TxnReadRecord(
                reader=self.txn_id or f"ro:{self._client}",
                reads=tuple(sorted((key, cid) for key, (cid, _)
                                   in self._reads.items()))))

