"""The GKBMS service: one request handler, every transport.

:class:`GKBMSService` owns a :class:`~repro.conceptbase.ConceptBase`
and serves the wire-protocol operations against it concurrently:

- *reads* (``ask``/``ask_all``/``query``/``instances``/``frame``) run
  under the shared side of a writer-preferring
  :class:`~repro.server.locks.ReadWriteLock`, inside an epoch-pinned
  :meth:`~repro.propositions.processor.PropositionProcessor.read_transaction`
  scope — many readers at once, and every read carries a structural
  witness that no commit tore it (``server.torn_reads`` counts any that
  were);
- *writes* (``tell``/``untell``/transaction ``commit``) funnel through
  the single-writer :class:`~repro.server.pipeline.CommitPipeline` with
  group commit and first-committer-wins validation;
- everything first passes the
  :class:`~repro.server.admission.AdmissionController` front door.

The handler's contract is total: :meth:`handle` maps any request dict
to a response dict and never raises — errors become typed wire errors.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import ExitStack
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from repro.analysis.concurrency import lockdep
from repro.conceptbase import ConceptBase
from repro.decisions import KINDS, DecisionHistory, decide_keys
from repro.errors import (
    CommitConflict,
    DecisionError,
    ProtocolError,
    ServerError,
    ServerReadOnly,
    ServerRestarting,
    SessionError,
)
from repro.obs.explain import QueryExplain
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import get_tracer
from repro.objects.frame import parse_frames
from repro.propositions.wal import WalStore
from repro.server.admission import AdmissionController
from repro.server.pipeline import CommitPipeline, PendingCommit
from repro.server.protocol import (
    SESSION_SERIAL,
    SESSIONLESS,
    WRITE_OPS,
    Result,
    error_response,
    negotiate_protocol,
    ok_response,
    validate_request,
)
from repro.server.session import Session, SessionManager, StagedOp


def apply_ops(cb: ConceptBase, decisions: DecisionHistory,
              ops: List[StagedOp]) -> Dict[str, Any]:
    """Apply one accepted commit's ops to ``cb`` and its decision
    history — the one commit-apply path, shared by the serving writer,
    the accepted-commit-log oracle and a memory-backed restart's
    replay.

    A decide or backtrack op is its own commit and runs its own
    transaction (record and delta share one WAL transaction); staged
    tells and untells apply as one transaction.  Decision ids and ticks
    are functions of the op sequence, so replaying an accepted log
    rebuilds the identical ledger."""
    if ops and ops[0][0] == "decide":
        return decisions.apply_decide(ops[0][1])
    if ops and ops[0][0] == "backtrack":
        return decisions.apply_backtrack(ops[0][1])
    created = 0
    retracted = 0
    with cb.transaction():
        for kind, arg in ops:
            if kind == "tell":
                created += len(cb.tell(arg))
            elif kind == "untell":
                retracted += len(cb.untell(arg))
            else:
                raise ServerError(f"unknown staged op kind {kind!r}")
    return {"created": created, "retracted": retracted}


class Prepared(NamedTuple):
    """A request frame validated once, at receipt
    (:meth:`GKBMSService.prepare`)."""

    op: str
    session: Optional[Session]
    #: Absolute admission deadline (admission clock), or ``None``.
    deadline: Optional[float]


class GKBMSService:
    """Concurrent request handler over one shared ConceptBase."""

    def __init__(self, cb: Optional[ConceptBase] = None, *,
                 registry: Optional[MetricsRegistry] = None,
                 check_consistency: bool = False,
                 max_sessions: int = 64,
                 max_in_flight: int = 32,
                 max_waiting: int = 64,
                 per_session: int = 4,
                 max_wait: float = 5.0,
                 max_batch: int = 8,
                 batch_window: float = 0.0,
                 max_queue: int = 128) -> None:
        if cb is None:
            cb = ConceptBase(registry=registry)
        self.cb = cb
        self.registry = cb.registry
        #: The serving lock: shared for reads, exclusive for applies.
        #: Critical: nothing blocking may run under it — fsync happens
        #: in the pipeline's batch scope *after* the apply releases it.
        self._rwlock = lockdep.make_rwlock("server.service.rwlock")  # lock: critical
        self._max_wait = max_wait
        #: Per-request absolute deadline (admission clock), carried
        #: thread-locally from handle() to the lock-budget computation.
        self._deadline = threading.local()
        sanitizer = lockdep.manager()
        if sanitizer is not None:
            sanitizer.bind_registry(cb.registry)
        ns = self.registry.namespace("server")
        self._c_requests = ns.counter("requests")
        self._c_errors = ns.counter("request_errors")
        self._c_torn = ns.counter("torn_reads")
        self._h_request = ns.histogram("request_ms")
        self.sessions = SessionManager(ns, max_sessions=max_sessions)
        self.admission = AdmissionController(
            ns, max_in_flight=max_in_flight, max_waiting=max_waiting,
            per_session=per_session, max_wait=max_wait,
        )
        self._ns = ns
        #: Pipeline sizing, remembered so a supervised restart rebuilds
        #: the successor pipeline with identical shape.
        self._pipeline_conf = dict(
            max_batch=max_batch, batch_window=batch_window,
            max_queue=max_queue,
        )
        self._check_consistency = check_consistency
        #: ``serving`` | ``restarting`` | ``read_only`` — the restart
        #: state machine.  Written by the supervisor path, read racily
        #: at dispatch (a late read just means one more request reaches
        #: the poisoned pipeline and fails typed there).
        self._status = "serving"  # guarded-by: <atomic>
        #: The supervisor's poison callback, re-attached to every
        #: successor pipeline a restart builds.
        self._fault_listener: Optional[Callable[[BaseException], None]] = None
        store = cb.propositions.store
        self.pipeline = CommitPipeline(
            self._apply_commit, ns.namespace("commit"),
            wal=store if isinstance(store, WalStore) else None,
            max_batch=max_batch, batch_window=batch_window,
            max_queue=max_queue,
        )
        #: The commit currently applying on the writer thread — read by
        #: the defence-in-depth validator below.
        self._applying: Optional[PendingCommit] = None  # guarded-by: _rwlock
        #: The decision-history engine: its ledger is mutated only in
        #: ``_apply_commit`` (writer thread, write lock held) and read
        #: through ``_read`` — the same discipline as the base itself.
        self.decisions = DecisionHistory(cb)
        if check_consistency:
            cb.enforce_on_commit()
        # Second line of first-committer-wins defence *inside* the
        # processor's commit protocol: the pipeline already validated
        # pre-apply (so refused commits burn no pids), and with a single
        # writer nothing can invalidate that check mid-apply — but if a
        # caller ever commits around the pipeline, this refuses the
        # stale batch at the commit hook with full rollback.
        cb.propositions.add_commit_validator(self._revalidate_applying)

    # ------------------------------------------------------------------
    # Request entry
    # ------------------------------------------------------------------

    def prepare(self, frame: Any) -> Prepared:
        """Validate ``frame`` and resolve its session and absolute
        admission deadline, once per request.  Raises the typed error a
        malformed frame or an unknown session earns.  Prepared at frame
        receipt, a request's deadline counts any time the transport then
        spends parked behind backpressure."""
        if not isinstance(frame, dict):
            raise ProtocolError("request must be a JSON object")
        validate_request(frame)
        op = frame["op"]
        session = (None if op in SESSIONLESS
                   else self.sessions.get(frame.get("session")))
        deadline = self.admission.deadline_from(frame.get("deadline_ms"))
        return Prepared(op, session, deadline)

    def handle(self, frame: Dict[str, Any], *,
               prepared: Optional[Prepared] = None) -> Dict[str, Any]:
        """One request dict in, one response dict out.

        Never raises for any failure *of the request* — those become
        typed wire errors.  Shutdown signals (``KeyboardInterrupt``,
        ``SystemExit``) are deliberately not part of that contract:
        they propagate so a serving thread can actually be stopped.

        Without ``prepared``, ``handle`` prepares the frame itself and
        blocks in admission.  A ``prepared`` request is the asyncio
        transport's contract: it came from :meth:`prepare` at frame
        receipt, and the transport already holds its admission slot
        (taken via :meth:`AdmissionController.try_admit` on the event
        loop, so no executor thread ever blocks in admission) and
        releases it when the call returns.
        """
        request_id = frame.get("id") if isinstance(frame, dict) else None
        start = self._clock()
        self._c_requests.inc()
        try:
            admitted = prepared is not None
            if prepared is None:
                prepared = self.prepare(frame)
            op, session, deadline = prepared
            self._deadline.value = deadline
            with ExitStack() as stack:
                if not admitted:
                    with get_tracer().span("server.admit", op=op):
                        stack.enter_context(
                            self.admission.admit(session, deadline)
                        )
                with get_tracer().span("server.execute", op=op):
                    result = self._dispatch(op, session,
                                            frame.get("params", {}))
            return ok_response(request_id, result)
        except Exception as exc:  # noqa: BLE001 - total handler
            self._c_errors.inc()
            return error_response(request_id, exc)
        finally:
            self._deadline.value = None
            self._h_request.observe((self._clock() - start) * 1000.0)

    def reject(self, request_id: Any, exc: Exception) -> Dict[str, Any]:
        """Shape (and count) a request the transport refused before
        :meth:`handle` — an async admission shed, a duplicate pipeline
        id, an expired deadline.  Keeps ``server.requests`` /
        ``server.request_errors`` coherent across transports."""
        self._c_requests.inc()
        self._c_errors.inc()
        return error_response(request_id, exc)

    @staticmethod
    def _clock() -> float:
        return time.monotonic()

    def _lock_budget(self) -> float:
        """Seconds this request may wait for the serving lock: its
        remaining admission deadline when it carries one, capped at
        ``max_wait`` — so a wedged writer surfaces as a typed
        :class:`~repro.errors.LockTimeout`, never an unbounded stall."""
        deadline = getattr(self._deadline, "value", None)
        if deadline is None:
            return self._max_wait
        return min(self._max_wait, max(0.0, deadline - self._clock()))

    def close(self) -> None:
        """Stop the writer thread and drop every session."""
        self.pipeline.close()
        self.sessions.close_all()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, op: str, session: Optional[Session],
                  params: Dict[str, Any]) -> Result:
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ProtocolError(f"op {op!r} not implemented")
        status = self._status
        if status == "restarting" and op != "ping":
            raise ServerRestarting(
                "service is restarting after a durability fault; "
                "retry shortly (idempotency tokens apply exactly once)"
            )
        if status == "read_only" and op in WRITE_OPS:
            raise ServerReadOnly(
                "service degraded to read-only after repeated restart "
                "failures; writes are refused until operator intervention"
            )
        if op in SESSIONLESS:
            return handler(params)
        if op in SESSION_SERIAL:
            assert session is not None
            with session.lock:
                return handler(session, params)
        return handler(session, params)

    @staticmethod
    def _param(params: Dict[str, Any], name: str) -> str:
        value = params.get(name)
        if not isinstance(value, str) or not value.strip():
            raise ProtocolError(f"param {name!r} must be a non-empty string")
        return value

    @staticmethod
    def _opt_token(params: Dict[str, Any]) -> Optional[str]:
        """The optional client-generated idempotency token."""
        token = params.get("token")
        if token is None:
            return None
        if not isinstance(token, str) or not token.strip():
            raise ProtocolError(
                "param 'token' must be a non-empty string when given"
            )
        return token

    # -- sessionless -------------------------------------------------------

    def _op_hello(self, params: Dict[str, Any]) -> Dict[str, Any]:
        # Version negotiation happens before the session opens, so a
        # bad `protocol` param costs nothing.  The granted version is
        # a *permission*: v2 lets the transport answer this client out
        # of order; the lockstep threaded transport trivially satisfies
        # it by never having two requests of one connection in flight.
        protocol = negotiate_protocol(params)
        session = self.sessions.open(self.pipeline.commit_seq)
        return {
            "session": session.sid,
            "protocol": protocol,
            "commit_seq": self.pipeline.commit_seq,
        }

    def _op_ping(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "pong": True,
            "epoch": self.cb.propositions.epoch,
            "commit_seq": self.pipeline.commit_seq,
        }

    # -- session control ---------------------------------------------------

    def _op_bye(self, session: Session,
                params: Dict[str, Any]) -> Dict[str, Any]:
        self.sessions.close(session.sid)
        return {"closed": session.sid}

    # -- reads -------------------------------------------------------------

    def _read(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` under the shared lock inside an epoch-pinned read;
        a torn read (epoch moved mid-read) is counted, never silent."""
        with self._rwlock.read_locked(self._lock_budget()):
            with self.cb.propositions.read_transaction() as pin:
                result = fn()
        if pin.consistent is False:
            self._c_torn.inc()
        return result

    def _op_ask(self, session: Session,
                params: Dict[str, Any]) -> Dict[str, Any]:
        assertion = self._param(params, "assertion")
        return {"holds": bool(self._read(lambda: self.cb.ask(assertion)))}

    def _op_ask_all(self, session: Session,
                    params: Dict[str, Any]) -> Dict[str, Any]:
        assertion = self._param(params, "assertion")
        witnesses = self._read(lambda: self.cb.ask_all(assertion))
        return {"witnesses": [dict(w) for w in witnesses]}

    def _op_query(self, session: Session,
                  params: Dict[str, Any]) -> Dict[str, Any]:
        literal = self._param(params, "literal")
        answers = self._read(lambda: self.cb.query(literal))
        return {"answers": [list(row) for row in answers]}

    def _op_instances(self, session: Session,
                      params: Dict[str, Any]) -> Dict[str, Any]:
        cls = self._param(params, "cls")
        return {"instances": self._read(lambda: self.cb.instances(cls))}

    def _op_frame(self, session: Session,
                  params: Dict[str, Any]) -> Dict[str, Any]:
        name = self._param(params, "name")
        rendered = self._read(lambda: self.cb.ask_object(name).render())
        return {"name": name, "frame": rendered}

    def _op_summary(self, session: Session,
                    params: Dict[str, Any]) -> Dict[str, Any]:
        return {"summary": self._read(self.cb.summary)}

    def _op_stats(self, session: Session,
                  params: Dict[str, Any]) -> Dict[str, Any]:
        prefix = params.get("prefix", "")
        if not isinstance(prefix, str):
            raise ProtocolError("param 'prefix' must be a string")
        return {"metrics": self.registry.snapshot(prefix)}

    # -- writes ------------------------------------------------------------

    def _op_tell(self, session: Session,
                 params: Dict[str, Any]) -> Dict[str, Any]:
        source = self._param(params, "source")
        token = self._opt_token(params)
        keys = [frame.name for frame in parse_frames(source)]
        if session.in_transaction:
            staged = session.stage("tell", source, keys)
            return {"staged": staged}
        return self.pipeline.submit(
            [("tell", source)], keys, None, session.sid, token=token
        )

    def _op_untell(self, session: Session,
                   params: Dict[str, Any]) -> Dict[str, Any]:
        name = self._param(params, "name")
        token = self._opt_token(params)
        if session.in_transaction:
            staged = session.stage("untell", name, [name])
            return {"staged": staged}
        return self.pipeline.submit(
            [("untell", name)], [name], None, session.sid, token=token
        )

    # -- decisions ---------------------------------------------------------

    def _op_decide(self, session: Session,
                   params: Dict[str, Any]) -> Dict[str, Any]:
        token = self._opt_token(params)
        if session.in_transaction:
            raise SessionError(
                "decide is its own transaction; commit or abort the open "
                "one first"
            )
        spec = {key: value for key, value in params.items()
                if key != "token"}
        self._param(spec, "decision_class")
        for name in ("tell", "untell", "parents", "obligations"):
            value = spec.get(name, [])
            if not isinstance(value, list) \
                    or not all(isinstance(item, str) for item in value):
                raise ProtocolError(f"param {name!r} must be a list of strings")
        inputs = spec.get("inputs", {})
        if not isinstance(inputs, dict) or not all(
                isinstance(role, str) and isinstance(value, str)
                for role, value in inputs.items()):
            raise ProtocolError(
                "param 'inputs' must map role names to object names"
            )
        for name in ("kind", "tool", "rationale"):
            if name in spec and not isinstance(spec[name], str):
                raise ProtocolError(f"param {name!r} must be a string")
        if spec.get("kind", "other") not in KINDS:
            raise DecisionError(
                f"unknown decision kind {spec['kind']!r} (choose from {KINDS})"
            )
        arg = json.dumps(spec, sort_keys=True)
        return self.pipeline.submit(
            [("decide", arg)], decide_keys(spec), None, session.sid,
            token=token,
        )

    def _op_backtrack(self, session: Session,
                      params: Dict[str, Any]) -> Dict[str, Any]:
        did = self._param(params, "did")
        token = self._opt_token(params)
        if session.in_transaction:
            raise SessionError(
                "backtrack is its own transaction; commit or abort the "
                "open one first"
            )
        arg = json.dumps({"did": did}, sort_keys=True)
        return self.pipeline.submit(
            [("backtrack", arg)], [], None, session.sid, token=token
        )

    def _op_replay(self, session: Session,
                   params: Dict[str, Any]) -> Dict[str, Any]:
        did = self._param(params, "did")
        return self._read(lambda: self.decisions.replay(did))

    def _op_history(self, session: Session,
                    params: Dict[str, Any]) -> Result:
        include_retracted = params.get("include_retracted", True)
        if not isinstance(include_retracted, bool):
            raise ProtocolError(
                "param 'include_retracted' must be a boolean"
            )
        return self._read(
            lambda: self.decisions.history(include_retracted)
        )

    def _op_versions(self, session: Session,
                     params: Dict[str, Any]) -> Result:
        return self._read(self.decisions.versions)

    # -- transactions ------------------------------------------------------

    def _op_begin(self, session: Session,
                  params: Dict[str, Any]) -> Dict[str, Any]:
        session.begin(self.pipeline.commit_seq)
        return {"read_epoch": session.read_epoch}

    def _op_staged(self, session: Session,
                   params: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "ops": [list(op) for op in session.staged_ops()],
            "keys": session.staged_keys(),
        }

    def _op_commit(self, session: Session,
                   params: Dict[str, Any]) -> Dict[str, Any]:
        token = self._opt_token(params)
        # The idempotency check comes BEFORE the open-transaction check:
        # a retried commit often arrives on a *new* session (the client
        # reconnected after a drop or restart), which naturally has no
        # open transaction — if the original attempt acked, the retry
        # must collect that result, not a SessionError.
        cached = self.pipeline.token_result(token)
        if cached is not None:
            cached["idempotent"] = True
            if session.in_transaction:
                session.end_transaction()
                session.read_epoch = self.pipeline.commit_seq
            return cached
        if not session.in_transaction:
            raise SessionError(
                f"session {session.sid!r} has no open transaction to commit"
            )
        ops = session.staged_ops()
        keys = session.staged_keys()
        try:
            if not ops:
                return {"created": 0, "retracted": 0, "empty": True,
                        "commit_seq": self.pipeline.commit_seq}
            return self.pipeline.submit(
                ops, keys, session.read_epoch, session.sid, token=token
            )
        finally:
            # Commit ends the transaction either way: a refused commit
            # (conflict, consistency, parse error) leaves the session
            # clean for a retry against a fresh read epoch.
            session.end_transaction()
            session.read_epoch = self.pipeline.commit_seq

    def _op_abort(self, session: Session,
                  params: Dict[str, Any]) -> Dict[str, Any]:
        dropped = session.end_transaction()
        session.read_epoch = self.pipeline.commit_seq
        return {"aborted": True, "dropped": dropped}

    # -- explain -----------------------------------------------------------

    def _op_explain(self, session: Session,
                    params: Dict[str, Any]) -> Dict[str, Any]:
        kind = params.get("kind", "query")
        if kind not in ("ask", "query"):
            raise ProtocolError("param 'kind' must be 'ask' or 'query'")
        text = self._param(params, "text")

        def fn() -> Any:
            if kind == "ask":
                return self.cb.ask(text)
            return [list(row) for row in self.cb.query(text)]
        # EXPLAIN captures exclusively (write side of the lock): the
        # capture's spans are its own context's, but its counter deltas
        # are registry-wide and must not mix with other sessions' work.
        with self._rwlock.write_locked(self._lock_budget()):
            report = QueryExplain(self.registry).explain(
                fn, label=f"{kind}:{text}"
            )
        return {
            "label": report.label,
            "result": report.result,
            "headline": report.headline(),
            "subsystems": report.subsystems(),
            "render": report.render(),
        }

    # ------------------------------------------------------------------
    # Writer-thread apply
    # ------------------------------------------------------------------

    def _apply_commit(self, pending: PendingCommit) -> Dict[str, Any]:
        """Apply one accepted commit (writer thread, exclusive lock)."""
        if pending.ops and pending.ops[0][0] == "checkpoint":
            return self._apply_checkpoint()
        with self._rwlock.write_locked():
            self._applying = pending
            try:
                result = apply_ops(self.cb, self.decisions, pending.ops)
            finally:
                self._applying = None
        result["epoch"] = self.cb.propositions.epoch
        return result

    def _apply_checkpoint(self) -> Dict[str, Any]:
        """Fold the WAL into a snapshot, on the writer thread.

        Checkpoints ride the commit pipeline as a special op, so they
        serialize with commit applies and run exactly where the store's
        writer-confined state lives.  A checkpoint inside a group batch
        is still crash-safe: records already applied in the batch are
        covered by the (fsynced-on-write) snapshot, and records after it
        land in the fresh log that the batch's deferred force covers.
        """
        store = self.cb.propositions.store
        if not isinstance(store, WalStore):
            return {"checkpoint": False, "dropped": 0}
        with self._rwlock.write_locked():
            dropped = store.checkpoint()
        # The checkpoint itself is durable (atomic, fsynced), so the
        # fresh log head is a confirmed durability boundary.
        self.pipeline.mark_durable(store.log_offset)
        return {"checkpoint": True, "dropped": dropped,
                "generation": store.generation}

    def _revalidate_applying(self, _created: List[Any]) -> None:  # holds: _rwlock
        pending = self._applying
        if pending is None or pending.read_epoch is None:
            return
        stale = self.pipeline.stale_keys(pending.keys, pending.read_epoch)
        if stale:
            raise CommitConflict(
                f"write-set keys {', '.join(stale)} changed under "
                f"read epoch {pending.read_epoch} during apply"
            )

    # ------------------------------------------------------------------
    # Checkpoint, drain, supervised restart
    # ------------------------------------------------------------------

    @property
    def status(self) -> str:
        """``serving`` | ``restarting`` | ``read_only``."""
        return self._status

    def checkpoint(self) -> Dict[str, Any]:
        """Fold the WAL into a snapshot via the commit pipeline (so the
        checkpoint serializes with in-flight commits).  No-op result on
        a memory-backed service."""
        return self.pipeline.submit(
            [("checkpoint", "")], [], None, "__system__"
        )

    def drain(self) -> None:
        """Graceful shutdown: flush the pipeline behind a final
        checkpoint, stop the writer, drop sessions, close the WAL.

        The transport stops accepting first (its job); anything still
        queued commits ahead of the checkpoint.  A poisoned pipeline has
        nothing flushable — its queue was already failed — so the
        checkpoint is skipped and the store closed as-is."""
        try:
            self.checkpoint()
        except ServerError:
            pass
        self.pipeline.close()
        self.sessions.close_all()
        store = self.cb.propositions.store
        if isinstance(store, WalStore):
            store.close()

    def set_fault_listener(
        self, listener: Optional[Callable[[BaseException], None]]
    ) -> None:
        """Attach the supervisor's poison callback (survives restarts:
        every successor pipeline is wired with it too)."""
        self._fault_listener = listener
        self.pipeline.set_fault_listener(listener)

    def begin_restart(self) -> None:
        """Quiesce for a supervised restart: refuse new work with the
        retryable :class:`~repro.errors.ServerRestarting` and fail every
        open transaction's staging (their pinned epochs cannot survive
        the rebuild)."""
        self._status = "restarting"
        self.sessions.invalidate_transactions()

    def degrade_read_only(self) -> None:
        """Crash-loop last resort: serve reads from the last recovered
        state, refuse writes, stop flapping."""
        self._status = "read_only"

    def complete_restart(self, cb: ConceptBase,
                         state: Dict[str, Any]) -> None:
        """Swap in the recovered knowledge base and a successor pipeline
        seeded with the predecessor's exported (acked-only) state, then
        resume serving.

        The swap holds the write side of the serving lock, so no read
        can observe a half-replaced pair; the old pipeline must already
        be closed by the caller (the supervisor)."""
        with self._rwlock.write_locked():
            self.cb = cb
            store = cb.propositions.store
            # A recovered WAL hands its ledger to the successor engine
            # when the engine binds it.  A memory-backed base arrives
            # empty and is rebuilt from the acked commit log, decisions
            # included: either way every acked commit survives the
            # restart.
            self.decisions = DecisionHistory(cb)
            if not isinstance(store, WalStore):
                for _seq, _sid, ops in state.get("commit_log", []):
                    if ops and ops[0][0] != "checkpoint":
                        apply_ops(cb, self.decisions, ops)
            self.pipeline = CommitPipeline(
                self._apply_commit, self._ns.namespace("commit"),
                wal=store if isinstance(store, WalStore) else None,
                state=state, **self._pipeline_conf,
            )
            if self._fault_listener is not None:
                self.pipeline.set_fault_listener(self._fault_listener)
            if self._check_consistency:
                cb.enforce_on_commit()
            cb.propositions.add_commit_validator(self._revalidate_applying)
        self._status = "serving"

    # ------------------------------------------------------------------

    def __enter__(self) -> "GKBMSService":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (f"<GKBMSService sessions={len(self.sessions)} "
                f"commit_seq={self.pipeline.commit_seq}>")
