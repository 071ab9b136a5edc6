"""Clients: the same API in-process and over TCP, with safe retries.

:class:`LocalClient` talks to a :class:`~repro.server.service.GKBMSService`
in the same process; :class:`TCPClient` talks to a
``python -m repro.server`` instance over a socket.  Both speak the
exact protocol frames of :mod:`repro.server.protocol` — the local
client round-trips every request and response through the wire encoder,
so anything that works locally works remotely (and a non-serializable
result fails in the unit tests, not in production).

Typed errors survive the wire: a refused commit raises
:class:`~repro.errors.CommitConflict` from either client, a shed
request raises :class:`~repro.errors.ServerOverloaded`, and so on.

**Retries.**  Give a client a :class:`RetryPolicy` and transient typed
failures — :class:`~repro.errors.ServerOverloaded` (shed),
:class:`~repro.errors.ServerRestarting` (supervised recovery in
progress) and :class:`~repro.errors.ConnectionLost` (socket died or
timed out) — are retried with capped, seeded-jittered exponential
backoff.  Reads are always safe to retry.  Writes are retried only
because the client stamps each logical write with a fresh
**idempotency token**: the server remembers acked results by token, so
a retry whose original attempt actually committed collects the
original result (marked ``idempotent: true``) instead of applying
twice.  ``ConnectionLost`` is the ambiguous case retries exist for —
the request may or may not have been applied — and the token is what
resolves the ambiguity.

After a connection loss the :class:`TCPClient` reconnects and opens a
*fresh* session before retrying.  A retried autocommit ``tell``/
``untell`` carries its ops in the request, so it lands cleanly on the
new session.  A retried transactional ``commit`` either finds its
token (the original acked — result returned) or fails with a typed
:class:`~repro.errors.SessionError` (the staging died with the old
session and the commit definitively did not apply) — never silently
half-applies.
"""

from __future__ import annotations

import random
import socket
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.analysis.concurrency.lockdep import make_lock
from repro.errors import (
    ConnectionLost,
    ProtocolError,
    ReproError,
    ServerError,
    ServerOverloaded,
    ServerRestarting,
)
from repro.server.protocol import (
    PROTOCOL_VERSION,
    SESSIONLESS,
    WRITE_OPS,
    decode_frame,
    encode_frame,
    exception_for,
)

#: The transient, typed failures a RetryPolicy may re-submit after.
RETRYABLE = (ServerOverloaded, ServerRestarting, ConnectionLost)


def _result(response: Dict[str, Any]) -> Dict[str, Any]:
    """A response frame's ``result`` dict; a wire error re-raises typed."""
    if response.get("ok"):
        result = response.get("result")
        return result if isinstance(result, dict) else {}
    error = response.get("error")
    raise exception_for(error if isinstance(error, dict) else {})


class RetryPolicy:
    """Capped, seeded-jittered exponential backoff for client retries.

    ``max_attempts`` counts the first try: the default 4 means one
    request plus up to three retries.  Delays grow ``base * 2**n`` up
    to ``cap``, each scaled by a seeded jitter in ``[0.5, 1.0)`` so a
    thundering herd of identical clients decorrelates deterministically
    per seed.
    """

    def __init__(self, max_attempts: int = 4,
                 base: float = 0.02, cap: float = 1.0,
                 seed: int = 0, sleep=time.sleep) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.base = base
        self.cap = cap
        self._rng = random.Random(seed)
        self._sleep = sleep
        #: Observability for tests and benches: total retries issued.
        self.retries = 0

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        raw = min(self.cap, self.base * (2 ** (attempt - 1)))
        return raw * (0.5 + self._rng.random() / 2.0)

    def pause(self, attempt: int) -> None:
        self.retries += 1
        self._sleep(self.delay(attempt))


class _BaseClient:
    """Request numbering, session bookkeeping, typed error raising."""

    #: The params this client's ``hello`` sends.
    HELLO: Dict[str, Any] = {}

    def __init__(self, deadline_ms: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None) -> None:
        #: Default per-request deadline budget (ms); ``None`` = none.
        self.deadline_ms = deadline_ms
        self.retry = retry
        self._req_id = 0
        self._session: Optional[str] = None

    # Transports implement exactly this.
    def _request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError

    def _recover_transport(self) -> None:
        """Re-establish the transport before a retry (reconnect and
        re-handshake for sockets; nothing in process)."""

    @property
    def session(self) -> Optional[str]:
        return self._session

    @staticmethod
    def _new_token() -> str:
        """A fresh idempotency token for one logical write."""
        return uuid.uuid4().hex

    def _call(self, op: str, params: Optional[Dict[str, Any]] = None,
              deadline_ms: Optional[float] = None) -> Dict[str, Any]:
        params = dict(params) if params else {}
        if self.retry is not None and op in WRITE_OPS \
                and "token" not in params:
            # One token per logical write, shared by all its attempts:
            # this is what makes the retry loop below safe for writes.
            params["token"] = self._new_token()
        budget = deadline_ms if deadline_ms is not None else self.deadline_ms
        attempt = 1
        while True:
            try:
                return self._call_once(op, params, budget)
            except RETRYABLE as exc:
                if not self._can_retry(op, params, attempt):
                    raise
                self.retry.pause(attempt)  # type: ignore[union-attr]
                attempt += 1
                if isinstance(exc, ConnectionLost):
                    try:
                        self._recover_transport()
                    except ConnectionLost:
                        # Still unreachable; the next attempt surfaces
                        # it (and burns an attempt, as it should).
                        pass

    def _can_retry(self, op: str, params: Dict[str, Any],
                   attempt: int) -> bool:
        if self.retry is None or attempt >= self.retry.max_attempts:
            return False
        if op == "bye":
            return False  # best-effort farewell; never worth a wait
        if op in WRITE_OPS and "token" not in params:
            return False  # an untokened write retry could double-apply
        return True

    def _payload(self, op: str, params: Dict[str, Any],
                 deadline_ms: Optional[float],
                 session: Optional[str]) -> Dict[str, Any]:
        """The next request frame: numbered, bound to ``session`` unless
        the op is sessionless, carrying ``deadline_ms`` when given."""
        self._req_id += 1
        payload: Dict[str, Any] = {
            "id": self._req_id, "op": op, "params": params,
        }
        if op not in SESSIONLESS:
            if session is None:
                raise ServerError("no session: call hello() first")
            payload["session"] = session
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        return payload

    def _call_once(self, op: str, params: Dict[str, Any],
                   deadline_ms: Optional[float]) -> Dict[str, Any]:
        """One attempt; ``deadline_ms`` is the request's whole budget
        (``None``: no deadline)."""
        payload = self._payload(op, params, deadline_ms, self._session)
        response = self._request(payload)
        if response.get("id") != payload["id"]:
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {payload['id']!r}"
            )
        return _result(response)

    # -- session -----------------------------------------------------------

    def hello(self) -> str:
        return self._opened(self._call("hello", self.HELLO))

    def _opened(self, result: Dict[str, Any]) -> str:
        """Adopt the session a ``hello`` result grants."""
        self._session = str(result.get("session"))
        return self._session

    def ping(self) -> Dict[str, Any]:
        return self._call("ping")

    def bye(self) -> None:
        if self._session is not None:
            try:
                self._call("bye")
            finally:
                self._session = None

    # -- writes ------------------------------------------------------------

    def tell(self, source: str, **kw: Any) -> Dict[str, Any]:
        return self._call("tell", {"source": source}, **kw)

    def untell(self, name: str, **kw: Any) -> Dict[str, Any]:
        return self._call("untell", {"name": name}, **kw)

    # -- reads -------------------------------------------------------------

    def ask(self, assertion: str, **kw: Any) -> bool:
        return bool(self._call("ask", {"assertion": assertion}, **kw)["holds"])

    def ask_all(self, assertion: str, **kw: Any) -> List[Dict[str, str]]:
        return list(
            self._call("ask_all", {"assertion": assertion}, **kw)["witnesses"]
        )

    def query(self, literal: str, **kw: Any) -> List[List[Any]]:
        return list(self._call("query", {"literal": literal}, **kw)["answers"])

    def instances(self, cls: str, **kw: Any) -> List[str]:
        return list(self._call("instances", {"cls": cls}, **kw)["instances"])

    def frame(self, name: str, **kw: Any) -> str:
        return str(self._call("frame", {"name": name}, **kw)["frame"])

    def summary(self, **kw: Any) -> Dict[str, int]:
        return dict(self._call("summary", **kw)["summary"])

    def stats(self, prefix: str = "", **kw: Any) -> Dict[str, Any]:
        return dict(self._call("stats", {"prefix": prefix}, **kw)["metrics"])

    def explain(self, text: str, kind: str = "query",
                **kw: Any) -> Dict[str, Any]:
        return self._call("explain", {"kind": kind, "text": text}, **kw)

    # -- decisions ---------------------------------------------------------

    def decide(self, decision_class: str, *,
               tell: Optional[List[str]] = None,
               untell: Optional[List[str]] = None,
               inputs: Optional[Dict[str, str]] = None,
               kind: str = "other",
               tool: Optional[str] = None,
               parents: Optional[List[str]] = None,
               rationale: str = "",
               obligations: Optional[List[str]] = None,
               **kw: Any) -> Dict[str, Any]:
        """Record one design decision: its tells/untells apply as one
        commit and a durable ledger record rides the same transaction.
        The spec travels as given; the service checks its shape."""
        params: Dict[str, Any] = {
            "decision_class": decision_class,
            "kind": kind,
            "tell": [] if tell is None else tell,
            "untell": [] if untell is None else untell,
            "inputs": {} if inputs is None else inputs,
            "parents": [] if parents is None else parents,
            "rationale": rationale,
            "obligations": [] if obligations is None else obligations,
        }
        if tool is not None:
            params["tool"] = tool
        return self._call("decide", params, **kw)

    def backtrack(self, did: str, **kw: Any) -> Dict[str, Any]:
        """Retract a decision and its transitive consequents."""
        return self._call("backtrack", {"did": did}, **kw)

    def replay(self, did: str, **kw: Any) -> Dict[str, Any]:
        """Re-applicability test of a recorded decision (drift report)."""
        return self._call("replay", {"did": did}, **kw)

    def history(self, include_retracted: bool = True,
                **kw: Any) -> Dict[str, Any]:
        """The decision ledger plus justification-graph edges."""
        return self._call(
            "history", {"include_retracted": include_retracted}, **kw
        )

    def versions(self, **kw: Any) -> Dict[str, Any]:
        """Versions/configurations derived from the decision ledger."""
        return self._call("versions", **kw)

    # -- transactions ------------------------------------------------------

    def begin(self, **kw: Any) -> int:
        return int(self._call("begin", **kw)["read_epoch"])

    def staged(self, **kw: Any) -> Dict[str, Any]:
        return self._call("staged", **kw)

    def commit(self, **kw: Any) -> Dict[str, Any]:
        return self._call("commit", **kw)

    def commit_with_token(self, token: str, **kw: Any) -> Dict[str, Any]:
        """Commit under an explicit idempotency token.

        The recovery tool for a lost ack: if a previous commit carrying
        ``token`` was acknowledged, this returns its recorded result
        (``idempotent: true``) even from a brand-new session; if it
        never applied, this behaves exactly like :meth:`commit` for the
        current transaction."""
        return self._call("commit", {"token": token}, **kw)

    def abort(self, **kw: Any) -> Dict[str, Any]:
        return self._call("abort", **kw)

    @contextmanager
    def transaction(self) -> Iterator["_BaseClient"]:
        """``with client.transaction(): client.tell(...)`` — commits on
        clean exit, aborts on exception.  A refused commit (conflict,
        consistency) propagates; the server has already ended the
        transaction, so a retry just opens a new one."""
        self.begin()
        try:
            yield self
        except BaseException:
            try:
                self.abort()
            except ServerError:
                pass
            raise
        else:
            self.commit()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Best effort: a farewell shed by admission control (or a dead
        socket) must not mask the caller's own exception path."""
        try:
            self.bye()
        except (ReproError, OSError):
            pass

    def __enter__(self) -> "_BaseClient":
        if self._session is None:
            self.hello()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.close()
        return False


class LocalClient(_BaseClient):
    """In-process client: no sockets, same frames, same typed errors."""

    def __init__(self, service: Any,
                 deadline_ms: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None,
                 auto_hello: bool = True) -> None:
        super().__init__(deadline_ms=deadline_ms, retry=retry)
        self._service = service
        if auto_hello:
            self.hello()

    def _request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        # Round-trip through the wire encoding on both legs: the local
        # client must never accept a frame the TCP transport would not.
        request = decode_frame(encode_frame(payload))
        response = self._service.handle(request)
        return decode_frame(encode_frame(response))


class TCPClient(_BaseClient):
    """Socket client for ``python -m repro.server``.

    Every request is bounded: connecting waits at most
    ``connect_timeout`` seconds, and each request waits at most its
    deadline budget (``deadline_ms`` plus grace, when one is set) or
    ``timeout`` seconds for the response — a dead or hung server
    surfaces as a typed :class:`~repro.errors.ConnectionLost`, never an
    unbounded ``recv``.  A timeout poisons the stream (a late response
    would desynchronize request ids), so the socket is closed and the
    next retry reconnects with a fresh session.
    """

    #: Seconds added to deadline_ms for the per-request socket timeout:
    #: the deadline governs server-side admission + execution; the wire
    #: needs a little longer before the client declares the link dead.
    DEADLINE_GRACE = 1.0

    def __init__(self, host: str = "127.0.0.1", port: int = 8731,
                 deadline_ms: Optional[float] = None,
                 timeout: float = 30.0,
                 connect_timeout: float = 5.0,
                 retry: Optional[RetryPolicy] = None,
                 auto_hello: bool = True) -> None:
        super().__init__(deadline_ms=deadline_ms, retry=retry)
        self._host = host
        self._port = port
        self._timeout = timeout
        self._connect_timeout = connect_timeout
        self._sock: Optional[socket.socket] = None
        self._file: Any = None
        self._connect()
        if auto_hello:
            self.hello()

    # -- transport ---------------------------------------------------------

    def _connect(self) -> None:
        try:
            self._sock = socket.create_connection(
                (self._host, self._port), timeout=self._connect_timeout
            )
        except OSError as exc:
            self._sock = None
            raise ConnectionLost(
                f"connect to {self._host}:{self._port} failed: {exc}"
            ) from exc
        self._sock.settimeout(self._timeout)
        self._file = self._sock.makefile("rwb")

    def _drop_connection(self) -> None:
        file, sock = self._file, self._sock
        self._file = None
        self._sock = None
        try:
            if file is not None:
                file.close()
        except OSError:
            pass
        try:
            if sock is not None:
                sock.close()
        except OSError:
            pass

    def _request_timeout(self, payload: Dict[str, Any]) -> float:
        budget = payload.get("deadline_ms")
        if budget is not None:
            return budget / 1000.0 + self.DEADLINE_GRACE
        return self._timeout

    def _request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        if self._sock is None:
            raise ConnectionLost(
                f"not connected to {self._host}:{self._port}"
            )
        self._sock.settimeout(self._request_timeout(payload))
        try:
            self._file.write(encode_frame(payload))
            self._file.flush()
            line = self._file.readline()
        except socket.timeout as exc:
            self._drop_connection()
            raise ConnectionLost(
                f"request {payload.get('op')!r} timed out after "
                f"{self._request_timeout(payload):.1f}s; connection dropped"
            ) from exc
        except OSError as exc:
            self._drop_connection()
            raise ConnectionLost(
                f"connection to {self._host}:{self._port} failed: {exc}"
            ) from exc
        if not line:
            self._drop_connection()
            raise ConnectionLost("server closed the connection")
        return decode_frame(line)

    def _recover_transport(self) -> None:
        """Reconnect and open a fresh session (the old one may be gone
        with the old connection; the retried request re-binds to the
        new one — idempotency tokens, not session identity, carry write
        dedup across the gap)."""
        self._drop_connection()
        self._connect()
        # One attempt, not self.hello(): the retrying _call must not
        # re-enter itself through the recovery path.
        self._opened(self._call_once("hello", dict(self.HELLO), None))

    def close(self) -> None:
        try:
            if self._sock is not None:
                self.bye()
        except (ReproError, OSError):
            pass
        finally:
            self._drop_connection()


class PendingReply:
    """One in-flight pipelined request: a handle to wait on.

    Resolved by the client's reader thread when the response frame with
    the matching ``id`` arrives (possibly out of order), or failed with
    :class:`~repro.errors.ConnectionLost` when the transport dies with
    the request still outstanding."""

    def __init__(self, request_id: Any) -> None:
        self.request_id = request_id
        self._done = threading.Event()
        self._response: Optional[Dict[str, Any]] = None  # guarded-by: external: reader thread, published via _done
        self._error: Optional[Exception] = None  # guarded-by: external: reader thread, published via _done

    def _resolve(self, response: Dict[str, Any]) -> None:
        self._response = response
        self._done.set()

    def _fail(self, exc: Exception) -> None:
        if not self._done.is_set():
            self._error = exc
            self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """The raw response frame; raises typed on transport failure or
        timeout (the request may still execute server-side — exactly
        the ambiguity idempotency tokens exist for)."""
        if not self._done.wait(timeout):
            raise ConnectionLost(
                f"pipelined request {self.request_id!r} timed out"
            )
        if self._error is not None:
            raise self._error
        assert self._response is not None
        return self._response

    def result(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """The unwrapped ``result`` dict; wire errors re-raise typed."""
        return _result(self.wait(timeout))


class PipelinedTCPClient(TCPClient):
    """Protocol v2 client: many requests in flight on one connection.

    :meth:`submit` writes a request and returns a :class:`PendingReply`
    immediately; a background reader thread matches response frames to
    replies by ``id``, so responses may arrive in any order.  The
    blocking :class:`_BaseClient` API (``tell``/``ask``/...) still
    works — each call is submit-then-wait — and is what the retry
    policy wraps, so pipelined and lockstep clients share recovery
    semantics.  All client methods are safe to call from multiple
    threads; one socket multiplexes them all.

    ``hello`` negotiates protocol v2; against an older (v1-only) server
    the grant comes back 1 and :attr:`protocol` records it — the client
    still functions, it just cannot assume out-of-order delivery.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8731,
                 deadline_ms: Optional[float] = None,
                 timeout: float = 30.0,
                 connect_timeout: float = 5.0,
                 retry: Optional[RetryPolicy] = None,
                 auto_hello: bool = True) -> None:
        #: Serializes request-id allocation, the pending map, and frame
        #: writes (so two submitters never interleave bytes).
        self._lock = make_lock("server.client.pipeline")
        self._pending: Dict[Any, PendingReply] = {}  # guarded-by: _lock
        self._broken = False  # guarded-by: _lock
        self._rfile: Any = None
        #: Protocol version the server granted in ``hello`` (1 until
        #: the handshake completes).
        self.protocol = 1
        super().__init__(host=host, port=port, deadline_ms=deadline_ms,
                         timeout=timeout, connect_timeout=connect_timeout,
                         retry=retry, auto_hello=auto_hello)

    # -- transport ---------------------------------------------------------

    def _connect(self) -> None:
        super()._connect()
        # The reader thread owns blocking reads; per-request bounds come
        # from PendingReply.wait, not a socket timeout (which would
        # poison idle pipelined connections).
        assert self._sock is not None
        self._sock.settimeout(None)
        self._rfile = self._sock.makefile("rb")
        with self._lock:
            self._broken = False
        reader = threading.Thread(
            target=self._read_loop, args=(self._rfile,),
            name="gkbms-pipelined-reader", daemon=True,
        )
        reader.start()

    def _drop_connection(self) -> None:
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
            self._broken = True
        # Wake the reader thread (blocked in recv) with EOF.  It owns
        # closing its file object — closing a buffered reader from
        # here would deadlock on the buffer lock the blocked read
        # holds.
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._rfile = None
        super()._drop_connection()
        for reply in pending:
            reply._fail(ConnectionLost(
                "connection dropped with requests in flight"
            ))

    def _read_loop(self, rfile: Any) -> None:
        """Reader thread: match response frames to pending replies."""
        while True:
            try:
                line = rfile.readline()
            except (OSError, ValueError):
                break
            if not line or not line.endswith(b"\n"):
                break
            try:
                response = decode_frame(line)
            except ProtocolError:
                break  # stream desynchronized; poison the connection
            with self._lock:
                reply = self._pending.pop(response.get("id"), None)
            if reply is not None:
                reply._resolve(response)
            # An unmatched id is a reply whose waiter already gave up
            # (timed out) — discard; nothing downstream depends on it.
        try:
            rfile.close()
        except OSError:
            pass
        self._connection_broken(rfile)

    def _connection_broken(self, rfile: Any) -> None:
        with self._lock:
            current = self._rfile is rfile
            pending: List[PendingReply] = []
            if current:
                self._broken = True
                pending = list(self._pending.values())
                self._pending.clear()
        for reply in pending:
            reply._fail(ConnectionLost("server closed the connection"))

    # -- pipelining --------------------------------------------------------

    def submit(self, op: str, params: Optional[Dict[str, Any]] = None,
               deadline_ms: Optional[float] = None,
               session: Optional[str] = None) -> PendingReply:
        """Write one request without waiting; returns its handle.

        ``session`` defaults to the client's own; pass one explicitly
        to multiplex several sessions over this connection."""
        params = dict(params) if params else {}
        sid = session if session is not None else self._session
        budget = deadline_ms if deadline_ms is not None else self.deadline_ms
        with self._lock:
            if self._sock is None or self._broken:
                raise ConnectionLost(
                    f"not connected to {self._host}:{self._port}"
                )
            payload = self._payload(op, params, budget, sid)
            reply = PendingReply(payload["id"])
            self._pending[payload["id"]] = reply
            try:
                self._file.write(encode_frame(payload))
                self._file.flush()
            except OSError as exc:
                self._pending.pop(payload["id"], None)
                raise ConnectionLost(
                    f"connection to {self._host}:{self._port} failed: {exc}"
                ) from exc
        return reply

    def _call_once(self, op: str, params: Dict[str, Any],
                   deadline_ms: Optional[float]) -> Dict[str, Any]:
        # The blocking API is submit-then-wait; id allocation, the
        # response-id match, and the write all happen under the
        # pipeline lock inside submit().
        timeout = (deadline_ms / 1000.0 + self.DEADLINE_GRACE
                   if deadline_ms is not None else self._timeout)
        reply = self.submit(op, params, deadline_ms=deadline_ms)
        try:
            return reply.result(timeout)
        except ConnectionLost:
            with self._lock:
                self._pending.pop(reply.request_id, None)
            raise

    # -- session -----------------------------------------------------------

    HELLO = {"protocol": PROTOCOL_VERSION}

    def _opened(self, result: Dict[str, Any]) -> str:
        self.protocol = int(result.get("protocol", 1))
        return super()._opened(result)


__all__ = [
    "LocalClient",
    "PendingReply",
    "PipelinedTCPClient",
    "RetryPolicy",
    "TCPClient",
    "RETRYABLE",
]
