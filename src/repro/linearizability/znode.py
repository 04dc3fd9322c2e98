"""Sequential specification of the keeper's znode tree.

:class:`ZnodeModel` is the Wing & Gong model for histories recorded
by :class:`repro.coordination.keeper.KeeperService` (pass a
``recorder``): method names and positional arguments match the tree's
wire methods exactly, and results — including zxids — must replay
bit-for-bit.  Because every write result carries its zxid, a history
has at most one admissible linearization order, which both sharpens
the property (the DSO layer must agree with the zxid log it handed
out) and keeps the checker's search nearly linear.

Errors are *values* here: where the live tree raises
``NodeExistsError`` etc., the recorded result is the sentinel
``("err", <class name>)`` and the model returns the same sentinel —
the checker compares results with ``!=``, so a failed op constrains
the linearization exactly like a successful one.  Error precedence
mirrors the tree's validation order (session liveness before path
resolution before guards).
"""

from __future__ import annotations

from typing import Any

#: Width of the zero-padded counter appended to sequential znodes
#: (ZooKeeper uses 10 digits; sorted() order == creation order).
#: Defined here — the sequential *spec* — and imported by the live
#: tree, so the two can never disagree.
SEQUENTIAL_WIDTH = 10


class _MNode:
    __slots__ = ("data", "version", "owner", "children", "cseq")

    def __init__(self, data: Any, owner: str | None):
        self.data = data
        self.version = 0
        self.owner = owner
        self.children: dict[str, None] = {}
        self.cseq = 0

    def __getstate__(self):
        return (self.data, self.version, self.owner, self.children,
                self.cseq)

    def __setstate__(self, state):
        (self.data, self.version, self.owner, self.children,
         self.cseq) = state


class _MSession:
    __slots__ = ("ttl", "expires_at", "ephemerals")

    def __init__(self, ttl: float, expires_at: float):
        self.ttl = ttl
        self.expires_at = expires_at
        self.ephemerals: dict[str, None] = {}

    def __getstate__(self):
        return (self.ttl, self.expires_at, self.ephemerals)

    def __setstate__(self, state):
        self.ttl, self.expires_at, self.ephemerals = state


def _err(kind: str) -> tuple[str, str]:
    return ("err", kind)


class ZnodeModel:
    """Pure in-memory mirror of ``_KeeperTree`` (no watches, no
    outbox — watch *ordering* has its own checker,
    :mod:`repro.linearizability.watches`)."""

    def __init__(self):
        self.nodes: dict[str, _MNode] = {"/": _MNode(None, None)}
        self.zxid = 0
        self.sessions: dict[str, _MSession] = {}

    # -- helpers -----------------------------------------------------------------

    def _session_gone(self, sid: str | None) -> bool:
        return sid is not None and sid not in self.sessions

    # -- znode ops (signatures mirror _KeeperTree) -----------------------------------

    def create(self, path: str, data: Any = None, sid: str | None = None,
               ephemeral: bool = False, sequential: bool = False) -> Any:
        if self._session_gone(sid):
            return _err("SessionExpiredError")
        if ephemeral and sid is None:
            return _err("KeeperError")
        parent_path, _, name = path.rpartition("/")
        parent_path = parent_path or "/"
        if not name:
            return _err("KeeperError")
        parent = self.nodes.get(parent_path)
        if parent is None:
            return _err("NoNodeError")
        if parent.owner is not None:
            return _err("KeeperError")
        if sequential:
            name = f"{name}{parent.cseq:0{SEQUENTIAL_WIDTH}d}"
            path = parent_path.rstrip("/") + "/" + name
        if path in self.nodes:
            return _err("NodeExistsError")
        self.zxid += 1
        if sequential:
            parent.cseq += 1
        self.nodes[path] = _MNode(data, sid if ephemeral else None)
        parent.children[name] = None
        if ephemeral:
            self.sessions[sid].ephemerals[path] = None
        return path, self.zxid

    def get(self, path: str, sid: str | None = None,
            watch: bool = False) -> Any:
        if self._session_gone(sid):
            return _err("SessionExpiredError")
        node = self.nodes.get(path)
        if node is None:
            return _err("NoNodeError")
        return node.data, node.version

    def set(self, path: str, data: Any, version: int = -1,
            sid: str | None = None) -> Any:
        if self._session_gone(sid):
            return _err("SessionExpiredError")
        node = self.nodes.get(path)
        if node is None:
            return _err("NoNodeError")
        if version >= 0 and version != node.version:
            return _err("BadVersionError")
        self.zxid += 1
        node.data = data
        node.version += 1
        return node.version, self.zxid

    def delete(self, path: str, version: int = -1,
               sid: str | None = None) -> Any:
        if self._session_gone(sid):
            return _err("SessionExpiredError")
        node = self.nodes.get(path)
        if node is None:
            return _err("NoNodeError")
        if node.children:
            return _err("NotEmptyError")
        if version >= 0 and version != node.version:
            return _err("BadVersionError")
        return self._delete_now(path, node)

    def _delete_now(self, path: str, node: _MNode) -> int:
        parent_path, _, name = path.rpartition("/")
        parent_path = parent_path or "/"
        self.zxid += 1
        del self.nodes[path]
        self.nodes[parent_path].children.pop(name, None)
        if node.owner is not None:
            owner = self.sessions.get(node.owner)
            if owner is not None:
                owner.ephemerals.pop(path, None)
        return self.zxid

    def exists(self, path: str, sid: str | None = None,
               watch: bool = False) -> Any:
        if self._session_gone(sid):
            return _err("SessionExpiredError")
        node = self.nodes.get(path)
        return None if node is None else node.version

    def children(self, path: str, sid: str | None = None,
                 watch: bool = False) -> Any:
        if self._session_gone(sid):
            return _err("SessionExpiredError")
        node = self.nodes.get(path)
        if node is None:
            return _err("NoNodeError")
        return tuple(sorted(node.children))

    # -- sessions ----------------------------------------------------------------

    def create_session(self, sid: str, ttl: float, now: float) -> Any:
        if sid in self.sessions:
            return _err("KeeperError")
        self.sessions[sid] = _MSession(ttl, now + ttl)
        return True

    def touch(self, sids: tuple[str, ...], now: float) -> Any:
        expiries = []
        for sid in sids:
            session = self.sessions.get(sid)
            if session is None:
                expiries.append(None)  # gone: no error, just no lease
            else:
                session.expires_at = now + session.ttl
                expiries.append(session.expires_at)
        return tuple(expiries)

    def close_session(self, sid: str) -> Any:
        if sid not in self.sessions:
            return ()
        return self._end_session(sid)

    def expire_sessions(self, now: float) -> Any:
        lapsed = sorted(sid for sid, session in self.sessions.items()
                        if session.expires_at <= now)
        return tuple((sid, self._end_session(sid)) for sid in lapsed)

    def _end_session(self, sid: str) -> tuple[tuple[str, int], ...]:
        session = self.sessions.pop(sid)
        return tuple(
            (path, self._delete_now(path, self.nodes[path]))
            for path in sorted(session.ephemerals)
            if path in self.nodes)
