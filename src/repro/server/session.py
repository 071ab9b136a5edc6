"""Sessions: one per connected client, with a staged write-set.

A session carries exactly the state the shared knowledge base must not:
the client's *pinned read epoch* (the commit sequence number its open
transaction read from) and, while a transaction is open, its private
workspace — the staged ``tell``/``untell`` ops plus their *write-set*,
the ordered set of proposition keys they touch.  Nothing staged
reaches any store before commit: the write-set is the unit
first-committer-wins validation reads, and ``commit`` or ``abort``
simply forgets both, so an aborted transaction leaves no trace in the
shared processor's closure caches.

Admission allows several concurrent requests per session, so session
state needs its own synchronization: every session carries a reentrant
:attr:`Session.lock`, the staging methods take it themselves, and the
service additionally holds it across each *whole* session-mutating
operation — a commit's snapshot-submit-clear sequence is atomic against
a concurrent ``tell``, so a stage can never slip between the snapshot
and the clearing ``end_transaction`` and be silently lost.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.concurrency.lockdep import make_lock, make_rlock
from repro.errors import SessionError
from repro.obs.metrics import Namespace

#: A staged operation: ("tell", frame_source) | ("untell", object_name).
StagedOp = Tuple[str, str]


class Session:
    """One client's server-side state."""

    __slots__ = ("sid", "read_epoch", "in_flight", "lock",
                 "_in_transaction", "_staged_ops", "_write_set")

    def __init__(self, sid: str, read_epoch: int) -> None:
        self.sid = sid
        #: Serializes this session's mutable state (staged ops,
        #: write-set, read epoch).  Reentrant so the service can hold it
        #: across a whole operation while the methods below also take it.
        self.lock = make_rlock("server.session.lock")
        #: The commit sequence number this session's open transaction
        #: (or last acknowledged commit) read from.
        self.read_epoch = read_epoch  # guarded-by: lock
        #: Requests currently executing for this session (admission cap).
        self.in_flight = 0  # guarded-by: external: AdmissionController._cond
        self._in_transaction = False  # guarded-by: lock
        self._staged_ops: List[StagedOp] = []  # guarded-by: lock
        #: The staged ops' keys, in first-staged order (an ordered set).
        self._write_set: Dict[str, None] = {}  # guarded-by: lock

    # -- transaction staging ----------------------------------------------

    @property
    def in_transaction(self) -> bool:  # holds: lock
        return self._in_transaction

    def begin(self, read_epoch: int) -> None:
        """Open a staged transaction pinned to ``read_epoch``."""
        with self.lock:
            if self._in_transaction:
                raise SessionError(
                    f"session {self.sid!r} already has an open transaction"
                )
            self._in_transaction = True
            self.read_epoch = read_epoch

    def stage(self, kind: str, arg: str, keys: List[str]) -> int:
        """Stage one operation and add its keys to the write-set;
        returns how many ops are now staged."""
        with self.lock:
            if not self._in_transaction:
                raise SessionError(
                    f"session {self.sid!r} has no open transaction "
                    f"to stage into"
                )
            self._staged_ops.append((kind, arg))
            self._write_set.update(dict.fromkeys(keys))
            return len(self._staged_ops)

    def staged_ops(self) -> List[StagedOp]:
        """The staged operations, in staging order."""
        with self.lock:
            return list(self._staged_ops)

    def staged_keys(self) -> List[str]:
        """The write-set: every proposition key the staged ops touch."""
        with self.lock:
            return sorted(self._write_set)

    def end_transaction(self) -> int:
        """Forget the staged ops and write-set (after commit or on
        abort); returns how many write-set keys were dropped."""
        with self.lock:
            if not self._in_transaction:
                raise SessionError(
                    f"session {self.sid!r} has no open transaction"
                )
            dropped = len(self._write_set)
            self._in_transaction = False
            self._staged_ops = []
            self._write_set = {}
            return dropped


class SessionManager:
    """Open/resolve/close sessions, under a cap, thread-safely."""

    def __init__(self, metrics: Namespace, max_sessions: int = 64) -> None:
        self._lock = make_lock("server.sessions.lock")
        self._sessions: Dict[str, Session] = {}  # guarded-by: _lock
        self._max_sessions = max_sessions
        self._next_sid = 1  # guarded-by: _lock
        self._g_sessions = metrics.gauge("sessions")
        self._c_opened = metrics.counter("sessions_opened")
        self._c_closed = metrics.counter("sessions_closed")

    def open(self, read_epoch: int) -> Session:
        with self._lock:
            if len(self._sessions) >= self._max_sessions:
                raise SessionError(
                    f"session cap reached ({self._max_sessions}); "
                    f"close a session first"
                )
            sid = f"s{self._next_sid}"
            self._next_sid += 1
            session = Session(sid, read_epoch)
            self._sessions[sid] = session
            self._g_sessions.set(len(self._sessions))
            self._c_opened.inc()
            return session

    def get(self, sid: Optional[str]) -> Session:
        if not isinstance(sid, str):
            raise SessionError("request carries no session id (send hello)")
        with self._lock:
            session = self._sessions.get(sid)
        if session is None:
            raise SessionError(f"unknown session {sid!r}")
        return session

    def close(self, sid: str) -> None:
        with self._lock:
            session = self._sessions.pop(sid, None)
            if session is None:
                raise SessionError(f"unknown session {sid!r}")
            self._g_sessions.set(len(self._sessions))
            self._c_closed.inc()
        with session.lock:
            if session.in_transaction:
                session.end_transaction()

    def invalidate_transactions(self) -> int:
        """Discard every open transaction's staged ops; returns how
        many were dropped.  A supervised restart calls this while
        quiescing: epochs pinned against the pre-fault head cannot be
        honoured across the rebuild, so in-flight transactions fail
        (typed, retryable) rather than committing against the wrong
        history.  The sessions themselves survive — each client's next
        ``begin`` re-pins against the recovered head."""
        with self._lock:
            sessions = list(self._sessions.values())
        dropped = 0
        for session in sessions:
            with session.lock:
                if session.in_transaction:
                    session.end_transaction()
                    dropped += 1
        return dropped

    def close_all(self) -> None:
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
            self._g_sessions.set(0)
        for session in sessions:
            with session.lock:
                if session.in_transaction:
                    session.end_transaction()

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)
