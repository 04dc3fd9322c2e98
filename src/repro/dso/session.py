"""Replicated client sessions: exactly-once method shipping.

The paper's fault-tolerance story (Section 4.4) retries failed
invocations with the identical input and leaves idempotence to the
application.  This module lifts the guarantee into the DSO layer: every
shipped invocation carries a :class:`SessionStamp` — a deterministic
``(session id, sequence number)`` pair plus the client's
acknowledgement watermark — and every :class:`ObjectContainer` keeps a
:class:`SessionTable` mapping sessions to the replies already produced
for them.  A retransmission (a client retry after a crash, timeout, or
failover to a new consistent-hash owner) finds its stamp in the table
and receives the *cached* reply instead of re-executing the method.

The table is part of the object's replicated state: it is recorded at
every backup during SMR replication, shipped with the instance during
rebalancing, and included in passivation snapshots — so duplicate
suppression survives node failures, view changes, and migration.

Two kinds of session exist:

* **thread sessions** (one per calling simulated thread, created
  lazily) acknowledge each reply as the next invocation is stamped,
  letting servers truncate everything at or below the watermark; a
  thread session therefore occupies one table slot per object it
  touched, holding at most one unacknowledged reply.
* **named sessions** (``DsoLayer.session(name)`` /
  :class:`repro.core.idempotency.IdempotentStep`) never advance their
  watermark and restart their sequence from zero on re-entry, so
  re-running the same deterministic code block *replays* the original
  stamps and collects the original replies — whole blocks become
  safely re-executable.  They are retired explicitly (or evicted by
  the table cap).

The acknowledgement watermark is **contiguous**: it never passes a
sequence number that is still in flight.  The pipelined path ships the
per-primary groups of a flush concurrently, so replies arrive out of
order; a plain ``max`` over received replies would let a later stamp
truncate a reply whose retransmission is still to come.  Exactly-once
therefore does not rest on batches shipping one at a time — a thread
that submits on two endpoints has two queues, whose batches overlap
(see :class:`_ClientSession`).

Identifiers are drawn from per-layer counters and the caller-supplied
names — never from wall-clock time or process-global state — so a
fixed kernel seed yields byte-identical session ids, traces included.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import SessionReplayError
from repro.mutation import PLANTED
from repro.simulation.kernel import current_thread

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dso.layer import DsoLayer


@dataclass(frozen=True)
class SessionStamp:
    """What a stamped invocation carries on the wire."""

    #: Session identity (deterministic; see module docstring).
    sid: str
    #: Per-session sequence number of this invocation.
    seq: int
    #: Highest sequence number whose reply the client has received.
    #: Servers may forget everything at or below it.  Named sessions
    #: pin this at -1 so their replies survive for replay.
    acked: int = -1


@dataclass
class _ClientSession:
    """Client-side sequence/watermark state of one session.

    The watermark is **contiguous**: ``acked`` never rises above the
    lowest sequence number still in flight on the async path.  A flush
    ships its per-primary groups concurrently
    (:mod:`repro.dso.pipeline`), so seq 4 (primary B) can be answered
    while seq 3 (primary A) is still being retried; a later stamp
    carrying ``acked=4`` would let A's :class:`SessionTable` prune the
    one reply seq 3's retransmission needs.  Synchronous invocations
    have nothing in flight behind them and acknowledge as a plain
    maximum, as they always did.
    """

    sid: str
    named: bool = False
    next_seq: int = 0
    acked: int = -1
    #: Highest sequence number whose reply has arrived.
    _received: int = -1
    #: Async-path sequence numbers neither answered nor given up
    #: (made by the first async stamp: most sessions never ship one).
    _inflight: set | None = None

    def stamp(self, inflight: bool = False) -> SessionStamp:
        """The next stamp; ``inflight`` marks it as shipped through the
        pipeline, where replies can arrive out of order — the caller
        then owes one :meth:`acknowledge` or :meth:`abandon`."""
        seq = self.next_seq
        self.next_seq = seq + 1
        if inflight and not self.named:
            if self._inflight is None:
                self._inflight = set()
            self._inflight.add(seq)
        return SessionStamp(sid=self.sid, seq=seq, acked=self.acked)

    def acknowledge(self, seq: int) -> None:
        """Record receipt of ``seq``'s reply (no-op for named
        sessions, whose replies must remain replayable)."""
        if self.named:
            return
        if seq > self._received:
            self._received = seq
        if self._inflight:
            self._settle(seq)
        else:  # the synchronous path: nothing to hold the watermark back
            self.acked = self._received

    def abandon(self, seq: int) -> None:
        """``seq`` failed for good and will never be retransmitted, so
        it no longer holds the watermark back."""
        if not self.named:
            self._settle(seq)

    def _settle(self, seq: int) -> None:
        inflight = self._inflight
        if inflight:
            inflight.discard(seq)
        # Later stamps only ever exceed ``_received``, and the lowest
        # in-flight seq only rises, so this never moves backwards.
        self.acked = (min(self._received, min(inflight) - 1)
                      if inflight and "ack-max" not in PLANTED
                      else self._received)


class ClientSessions:
    """Client-side registry: which session stamps the calling thread.

    Thread sessions are keyed by the calling sim thread's tid; their
    ids come from a per-registry counter, so session ids — and hence
    traces — are deterministic for a fixed seed and workload.
    """

    def __init__(self, layer: DsoLayer):
        self._layer = layer
        self._ids = itertools.count()
        self._thread_sessions: dict[int, _ClientSession] = {}
        self._named_stack: dict[int, list[_ClientSession]] = {}

    def current(self, client: str) -> _ClientSession:
        """The session that will stamp the calling thread's next
        invocation: the innermost active named session, else the
        thread's implicit session (created lazily)."""
        tid = current_thread().tid
        stack = self._named_stack.get(tid)
        if stack:
            return stack[-1]
        session = self._thread_sessions.get(tid)
        if session is None:
            session = _ClientSession(
                sid=f"{self._layer.name}/{client}#s{next(self._ids)}")
            self._thread_sessions[tid] = session
        return session

    @contextmanager
    def named(self, name: str) -> Iterator[str]:
        """Run a block under a *named* session.

        Re-entering the same name replays the original stamps, so
        every DSO invocation inside the block returns its originally
        cached reply instead of re-executing — the primitive behind
        :func:`repro.core.idempotency.once`.  Call :meth:`retire` once
        the block's effects are no longer needed.  Yields the
        wire-level session id.
        """
        tid = current_thread().tid
        session = _ClientSession(sid=f"named:{name}", named=True)
        stack = self._named_stack.setdefault(tid, [])
        stack.append(session)
        try:
            yield session.sid
        finally:
            stack.pop()
            if not stack:
                del self._named_stack[tid]

    def retire(self, client: str, name: str) -> int:
        """Drop a named session's cached replies from every live node.

        Returns the number of containers that held state for it.  Must
        run in a simulated thread (it pays one network round per
        node).
        """
        layer = self._layer
        sid = f"named:{name}"
        retired = 0
        for node in layer.live_nodes():
            layer.connect(client, node.name)
            layer.network.transfer(client, node.name, ("retire", sid))
            for container in node.containers.values():
                if container.sessions.retire(sid):
                    retired += 1
        return retired


@dataclass
class SessionEntry:
    """One remembered reply: the server-side dedup record."""

    reply: Any
    #: True once the op is known stable at every replica (set by the
    #: primary after SMR replication completed, or immediately for
    #: unreplicated objects).  A dedup hit on an uncommitted entry
    #: re-runs replication — which backups in turn deduplicate — so a
    #: cached acknowledgement never weakens durability.
    committed: bool = False
    #: Non-``None`` while this reply must survive LRU eviction no
    #: matter how cold its session goes: a transaction prepare's dedup
    #: record is pinned under its txn id until the commit or abort
    #: resolves it (:meth:`SessionTable.unpin`).  Evicting it earlier
    #: would let a crashed-and-retried prepare re-execute under a
    #: fresh entry, breaking exactly-once commit.
    pin: str | None = None


@dataclass
class _SessionState:
    """Per-session server-side state inside one container's table."""

    #: Highest sequence number ever recorded for this session here.
    last_seq: int = -1
    #: seq -> entry, pruned by the acknowledgement watermark.
    replies: dict[int, SessionEntry] = field(default_factory=dict)


class SessionTable:
    """Per-container map of client sessions to cached replies.

    Plain data (picklable): tables travel inside ``ship()`` during
    rebalancing and passivation exactly like the object instance they
    guard.
    """

    #: The session at the recent end, if it is still in the table:
    #: touching it again — every op does, twice — moves nothing.
    _newest: str | None = None

    def __init__(self, limit: int = 4096):
        self.limit = limit
        #: Ordered by recency (dict insertion order), coldest first.
        self._sessions: dict[str, _SessionState] = {}

    def __getstate__(self) -> dict:
        # ``_newest`` is a local shortcut, not state: a shipped table's
        # bytes are charged (passivation), so they must not grow by it.
        return {"limit": self.limit, "_sessions": self._sessions}

    def __len__(self) -> int:
        return len(self._sessions)

    def entry_count(self) -> int:
        return sum(len(s.replies) for s in self._sessions.values())

    def lookup(self, stamp: SessionStamp) -> SessionEntry | None:
        """The cached entry for ``stamp``, or ``None`` if the call is
        new.  Raises :class:`SessionReplayError` for sequence numbers
        the table has already truncated — a protocol violation.
        """
        state = self._sessions.get(stamp.sid)
        if state is None:
            return None
        self._touch(stamp.sid, state)
        entry = state.replies.get(stamp.seq)
        if entry is not None:
            return entry
        if stamp.seq <= state.last_seq and stamp.seq <= stamp.acked:
            raise SessionReplayError(
                f"session {stamp.sid!r} replayed acknowledged seq "
                f"{stamp.seq} (watermark {stamp.acked})")
        return None

    def record(self, stamp: SessionStamp, reply: Any,
               committed: bool, pin: str | None = None) -> SessionEntry:
        """Remember ``reply`` for ``stamp`` and prune acknowledged
        predecessors.  A ``pin`` token exempts the entry (and its
        session) from LRU eviction until :meth:`unpin` releases it.
        """
        state = self._sessions.get(stamp.sid)
        if state is None:
            state = self._sessions[stamp.sid] = _SessionState()
            self._newest = stamp.sid
        else:
            self._touch(stamp.sid, state)
        # Prune first: what a session still remembers here is then
        # usually all acknowledged (a thread session acknowledges each
        # reply as it stamps the next) and goes in one sweep.
        self._prune(state.replies, stamp.acked)
        entry = SessionEntry(reply=reply, committed=committed, pin=pin)
        if stamp.seq > stamp.acked:  # else acknowledged before it is kept
            state.replies[stamp.seq] = entry
        if stamp.seq > state.last_seq:
            state.last_seq = stamp.seq
        if len(self._sessions) > self.limit:
            self._evict()
        return entry

    def unpin(self, token: str) -> int:
        """Release every entry pinned under ``token``; returns how
        many were held.  Called when the pinning transaction's commit
        or abort resolves — only then may LRU pressure reclaim the
        prepare's dedup record."""
        released = 0
        for state in self._sessions.values():
            for entry in state.replies.values():
                if entry.pin == token:
                    entry.pin = None
                    released += 1
        return released

    def pinned_tokens(self) -> set[str]:
        """Distinct pin tokens currently held (test introspection)."""
        return {entry.pin for state in self._sessions.values()
                for entry in state.replies.values()
                if entry.pin is not None}

    def truncate(self, stamp: SessionStamp) -> None:
        """Drop this session's replies at or below the watermark."""
        state = self._sessions.get(stamp.sid)
        if state is not None:
            self._prune(state.replies, stamp.acked)

    @staticmethod
    def _prune(replies: dict[int, SessionEntry], acked: int) -> None:
        if acked < 0 or not replies:
            return
        if max(replies) <= acked:
            replies.clear()
            return
        for seq in [s for s in replies if s <= acked]:
            del replies[seq]

    def retire(self, sid: str) -> bool:
        """Forget a session entirely (explicit GC for named
        sessions)."""
        return self._sessions.pop(sid, None) is not None

    def _touch(self, sid: str, state: _SessionState) -> None:
        # dict preserves insertion order; re-inserting keeps the table
        # ordered by recency so eviction hits the coldest session.
        if sid != self._newest:  # else it is at the recent end already
            del self._sessions[sid]
            self._sessions[sid] = state
            self._newest = sid

    def _evict(self) -> None:
        # Eviction preference, cheapest information loss first:
        # (1) a session retaining no replies (fully acknowledged);
        # (2) the coldest session whose retained replies are all
        #     committed — a retransmission would re-execute the
        #     lookup, but every replica already holds the op;
        # (3) only as a last resort, the coldest session holding an
        #     *uncommitted* reply, whose retransmission could
        #     re-replicate — the standard bounded-table tradeoff.
        # A session holding any *pinned* entry (an unresolved txn
        # prepare) is never a candidate: losing its dedup record could
        # double-apply a retried commit.  If every session is pinned
        # the table transiently exceeds its cap — unpin resolves it.
        # Size the cap generously.
        victim = None
        committed_victim = None
        fallback = None
        for sid, state in self._sessions.items():
            if any(entry.pin is not None
                   for entry in state.replies.values()):
                continue
            if fallback is None:
                fallback = sid
            if not state.replies:
                victim = sid
                break
            if committed_victim is None and all(
                    entry.committed for entry in state.replies.values()):
                committed_victim = sid
        if victim is None:
            victim = (committed_victim if committed_victim is not None
                      else fallback)
        if victim is None:
            return  # every session pinned: defer eviction to unpin
        del self._sessions[victim]

    def merge_from(self, other: "SessionTable") -> None:
        """Adopt sessions from ``other`` that this table lacks.

        Used when rebalancing hosts an object on a node that already
        held a (stale) replica: remembered replies must never be
        forgotten by a transfer.
        """
        for sid, state in other._sessions.items():
            mine = self._sessions.get(sid)
            if mine is None:
                self._sessions[sid] = state
                self._newest = sid
            else:
                for seq, entry in state.replies.items():
                    mine.replies.setdefault(seq, entry)
                mine.last_seq = max(mine.last_seq, state.last_seq)

    def sessions(self) -> list[str]:
        """Session ids currently remembered (test introspection)."""
        return list(self._sessions)
