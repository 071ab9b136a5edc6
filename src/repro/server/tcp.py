"""The TCP transports: threaded lockstep and asyncio pipelined.

Two servers speak the same NDJSON protocol over a socket:

- :class:`GKBMSServer` — the original thread-per-connection transport.
  One thread per client, lockstep framing (read a frame, answer a
  frame).  Simple, and still what ``serve`` gives you by default.
- :class:`AsyncGKBMSServer` — a single asyncio event loop holding
  thousands of idle sessions.  Clients that negotiate protocol v2 in
  ``hello`` may *pipeline*: many requests in flight on one connection,
  responses matched by ``id`` and possibly out of order.  Service
  calls bridge to the existing synchronous
  :class:`~repro.server.service.GKBMSService` through a bounded
  executor sized to the admission controller's in-flight cap — the
  commit pipeline keeps its dedicated writer thread; only the I/O
  plane is event-driven.

**Backpressure.**  The async server never queues unboundedly.  Before
dispatching a frame it takes an admission slot *non-blockingly*
(:meth:`~repro.server.admission.AdmissionController.try_admit`); when
the controller is at capacity — globally, or because this session is
at its per-session cap — the connection's read loop parks instead,
which means the server simply *stops reading that socket* (kernel
buffers fill, TCP pushes back on the client) and resumes when a slot
frees (the controller's resume callback wakes parked readers).  Time
spent parked counts against the request's deadline budget, and parked
requests are bounded by the controller's ``max_waiting`` exactly like
blocked threads are.

**One wire path.**  All knowledge-base semantics live in
``GKBMSService``; both servers only move bytes, framed by one
:class:`~repro.server.protocol.FrameBuffer` and answered through
:class:`_Transport`, which also owns the protocol counters
(``server.protocol_errors``, ``server.truncated_frames``) and the
shutdown verbs.  Malformed lines get typed wire errors and the
connection survives.  A *truncated* final line (EOF with no newline —
a client that died mid-request) is dropped unexecuted.
"""

from __future__ import annotations

import asyncio
import socket
import socketserver
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

from repro.canonical import dumps
from repro.errors import (
    DeadlineExceeded,
    ProtocolError,
    ServerError,
    ServerOverloaded,
)
from repro.server.protocol import (
    FrameBuffer,
    decode_frame,
    encode_frame,
    error_response,
)
from repro.server.service import GKBMSService, Prepared
from repro.server.session import Session

#: Bytes asked of the socket per read.
_READ_SIZE = 65536

_T = TypeVar("_T", bound="_Transport")


class _Transport:
    """What both servers share: the service, its protocol counters, the
    address, response encoding and the shutdown verbs.  It comes first
    in a server's bases and leaves ``shutdown`` (stop serving, block
    until the loop returns) and ``server_close`` (release the listening
    socket) to the server — ``socketserver``'s own, for the threaded
    one."""

    server_address: Tuple[str, int]
    shutdown: Callable[[], None]
    server_close: Callable[[], None]

    def __init__(self, service: GKBMSService) -> None:
        self.service = service
        ns = service.registry.namespace("server")
        self.c_connections = ns.counter("connections")
        self.c_protocol_errors = ns.counter("protocol_errors")
        self.c_truncated = ns.counter("truncated_frames")

    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        return self.server_address[1]

    def _encode(self, response: Dict[str, Any]) -> bytes:
        """The response's wire bytes; a non-serializable result is
        answered with a typed error rather than a torn stream."""
        try:
            return encode_frame(response)
        except (TypeError, ValueError) as exc:
            self.c_protocol_errors.inc()
            return encode_frame(error_response(
                response.get("id"),
                ServerError(f"unserializable response: {exc}"),
            ))

    def close(self) -> None:
        """Stop accepting, close the socket, stop the service."""
        self.shutdown()
        self.server_close()
        self.service.close()

    def drain(self) -> None:
        """Graceful shutdown: stop accepting (the async server lets
        in-flight requests finish, bounded), then let the service flush
        its pipeline behind a final checkpoint and close the WAL
        cleanly — the SIGTERM path, as opposed to dying mid-batch.

        ``shutdown()`` blocks until ``serve_forever`` returns, so it
        must be reached from a different thread than the serving loop
        (the signal handler in ``__main__`` spawns one)."""
        self.shutdown()
        self.server_close()
        self.service.drain()

    def __enter__(self: _T) -> _T:
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.close()
        return False


class _ConnectionHandler(socketserver.BaseRequestHandler):
    """One client connection: read, answer each frame in turn, repeat."""

    server: "GKBMSServer"

    def handle(self) -> None:
        server = self.server
        server.c_connections.inc()
        frames = FrameBuffer()
        while True:
            try:
                data = self.request.recv(_READ_SIZE)
            except OSError:
                return
            if not data:
                if frames.truncated:
                    # EOF mid-line: the client died before finishing
                    # the frame.  Dropped, never decoded — even if the
                    # fragment happens to parse as JSON.
                    server.c_truncated.inc()
                return
            for line in frames.feed(data):
                try:
                    request = decode_frame(line)
                except ProtocolError as exc:
                    server.c_protocol_errors.inc()
                    response = error_response(None, exc)
                else:
                    response = server.service.handle(request)
                try:
                    self.request.sendall(server._encode(response))
                except OSError:
                    return


class GKBMSServer(_Transport, socketserver.ThreadingTCPServer):
    """``python -m repro.server`` — the GKBMS over a socket."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 service: GKBMSService) -> None:
        _Transport.__init__(self, service)
        socketserver.ThreadingTCPServer.__init__(
            self, address, _ConnectionHandler
        )

    def serve_in_thread(self) -> threading.Thread:
        """Serve from a daemon thread; returns it (for tests/tools)."""
        thread = threading.Thread(
            target=self.serve_forever, name="gkbms-tcp-server", daemon=True
        )
        thread.start()
        return thread


# ----------------------------------------------------------------------
# The asyncio transport
# ----------------------------------------------------------------------


class _AsyncConnection:
    """Per-connection pipelining state, confined to the event loop."""

    __slots__ = ("reader", "writer", "wlock", "inflight",
                 "slot_waiters", "pipelined")

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        #: Serializes response writes from concurrent request tasks.
        self.wlock = asyncio.Lock()
        #: id-key -> in-flight request task (protocol v2 correlation).
        self.inflight: Dict[str, "asyncio.Task[None]"] = {}
        #: Futures of a read loop parked on the pipeline-depth cap.
        self.slot_waiters: List["asyncio.Future[None]"] = []
        #: Granted protocol >= 2 (set by the hello response).
        self.pipelined = False

    def notify_slot(self) -> None:
        waiters, self.slot_waiters = self.slot_waiters, []
        _wake(waiters)


class AsyncGKBMSServer(_Transport):
    """The GKBMS over asyncio: one event loop, pipelined protocol v2.

    Mirrors the :class:`GKBMSServer` surface exactly — ``host``/
    ``port``, ``serve_forever``/``shutdown``/``server_close``,
    ``serve_in_thread``, ``close``/``drain``, context manager — so the
    CLI, the drain signal handlers and the chaos harness drive either
    transport unchanged.  The listening socket is bound eagerly in the
    constructor, so the address is known before the loop runs.
    """

    #: Per-connection cap on pipelined requests in flight; past it the
    #: read loop parks until one completes (bounds task memory even
    #: when admission still has global headroom).
    MAX_PIPELINE = 64

    #: Seconds drain/close waits for in-flight request tasks to finish
    #: before cancelling what is left.
    SHUTDOWN_GRACE = 5.0

    def __init__(self, address: Tuple[str, int],
                 service: GKBMSService) -> None:
        super().__init__(service)
        self._sock = socket.create_server(address, backlog=1024)
        self.server_address = self._sock.getsockname()[:2]
        a_ns = service.registry.namespace("server.async")
        # A park on this connection's pipeline depth, or on admission;
        # ``pauses`` counts both.
        self.c_pauses = a_ns.counter("pauses")
        self.c_depth_pauses = a_ns.counter("depth_pauses")
        self.c_admission_pauses = a_ns.counter("admission_pauses")
        self.c_pipelined = a_ns.counter("pipelined_requests")
        self.g_open = a_ns.gauge("open_connections")
        # The service executes on this pool; sizing it to the admission
        # cap means an admitted request never queues behind the pool.
        self._executor = ThreadPoolExecutor(
            max_workers=max(4, service.admission.max_in_flight),
            thread_name_prefix="gkbms-async-exec",
        )
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None  # guarded-by: <atomic>
        # Everything below is event-loop confined.
        self._stop_aio: Optional[asyncio.Event] = None  # guarded-by: external: event loop
        self._resume_waiters: List["asyncio.Future[None]"] = []  # guarded-by: external: event loop
        self._request_tasks: set = set()  # guarded-by: external: event loop
        self._conn_tasks: set = set()  # guarded-by: external: event loop
        self._detach_resume: Optional[Callable[[], None]] = None  # guarded-by: external: event loop

    # -- lifecycle ---------------------------------------------------------

    def serve_forever(self) -> None:
        """Run the event loop in the calling thread until
        :meth:`shutdown` (same contract as the threaded server)."""
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            try:
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
            finally:
                self._loop = None
                loop.close()
                self._started.set()  # never leave a starter waiting
                self._stopped.set()

    def serve_in_thread(self) -> threading.Thread:
        """Serve from a daemon thread; blocks until the loop accepts."""
        thread = threading.Thread(
            target=self.serve_forever, name="gkbms-async-server", daemon=True
        )
        thread.start()
        self._started.wait(10.0)
        return thread

    def shutdown(self) -> None:
        """Stop the loop and block until ``serve_forever`` returns
        (mirrors ``socketserver.BaseServer.shutdown``)."""
        loop = self._loop
        if loop is not None and not self._stopped.is_set():
            try:
                loop.call_soon_threadsafe(self._request_stop)
            except RuntimeError:
                pass  # loop already closed under us
            self._stopped.wait(30.0)

    def _request_stop(self) -> None:
        if self._stop_aio is not None:
            self._stop_aio.set()

    def server_close(self) -> None:
        """Close the listening socket (idempotent; asyncio owns and
        closes it after serving, so this matters pre-serve only)."""
        try:
            self._sock.close()
        except OSError:
            pass
        self._executor.shutdown(wait=False)

    # -- the loop ----------------------------------------------------------

    async def _main(self) -> None:
        self._stop_aio = asyncio.Event()
        self._detach_resume = self.service.admission.add_resume_callback(
            self._resume_from_any_thread
        )
        server = await asyncio.start_server(
            self._on_connection, sock=self._sock,
        )
        self._started.set()
        try:
            await self._stop_aio.wait()
        finally:
            if self._detach_resume is not None:
                self._detach_resume()
            server.close()
            await server.wait_closed()
            await self._settle_connections()

    async def _settle_connections(self) -> None:
        """Drain semantics: give accepted requests a bounded grace to
        answer, then cancel the readers and whatever is left."""
        if self._request_tasks:
            await asyncio.wait(
                list(self._request_tasks), timeout=self.SHUTDOWN_GRACE
            )
        for task in list(self._conn_tasks) + list(self._request_tasks):
            task.cancel()
        remaining = list(self._conn_tasks) + list(self._request_tasks)
        if remaining:
            await asyncio.gather(*remaining, return_exceptions=True)

    def _resume_from_any_thread(self) -> None:
        """Admission released a slot: wake parked readers.  Runs on
        whatever thread released (executor, writer, loop)."""
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(self._notify_resume)
        except RuntimeError:
            pass  # shutting down

    def _notify_resume(self) -> None:
        waiters, self._resume_waiters = self._resume_waiters, []
        _wake(waiters)

    async def _wait_resume(self, timeout: float) -> None:
        loop = asyncio.get_running_loop()
        waiter: "asyncio.Future[None]" = loop.create_future()
        self._resume_waiters.append(waiter)
        try:
            await asyncio.wait_for(waiter, timeout)
        except asyncio.TimeoutError:
            pass
        finally:
            if waiter in self._resume_waiters:
                self._resume_waiters.remove(waiter)

    # -- connections -------------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self.c_connections.inc()
        self.g_open.inc()
        conn = _AsyncConnection(reader, writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._read_loop(conn)
        except asyncio.CancelledError:
            pass
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self.g_open.dec()
            try:
                writer.close()
            except (OSError, RuntimeError):
                pass

    async def _read_loop(self, conn: _AsyncConnection) -> None:
        frames = FrameBuffer()
        while True:
            data = await conn.reader.read(_READ_SIZE)
            if not data:
                if frames.truncated:
                    # EOF mid-line: a dead client, not a request — the
                    # same rule as the threaded transport.
                    self.c_truncated.inc()
                return
            for line in frames.feed(data):
                await self._dispatch_frame(conn, line)

    async def _dispatch_frame(self, conn: _AsyncConnection,
                              line: bytes) -> None:
        try:
            frame = decode_frame(line)
        except ProtocolError as exc:
            self.c_protocol_errors.inc()
            await self._send(conn, error_response(None, exc))
            return
        rid = frame.get("id")
        service = self.service
        try:
            prepared = service.prepare(frame)
        except Exception as exc:  # noqa: BLE001 - typed reject
            await self._send(conn, service.reject(rid, exc))
            return
        key: Optional[str] = None
        if conn.pipelined:
            key = _id_key(rid)
            if key in conn.inflight:
                # Protocol v2: the id is the correlation key; reusing
                # one while it is still in flight would make the two
                # responses indistinguishable.
                self.c_protocol_errors.inc()
                await self._send(conn, error_response(rid, ProtocolError(
                    f"request id {rid!r} is already in flight on this "
                    f"connection"
                )))
                return
            # Pipeline-depth backpressure: stop reading this socket
            # until a slot frees.
            while len(conn.inflight) >= self.MAX_PIPELINE:
                self.c_pauses.inc()
                self.c_depth_pauses.inc()
                loop = asyncio.get_running_loop()
                waiter: "asyncio.Future[None]" = loop.create_future()
                conn.slot_waiters.append(waiter)
                await waiter
        # Admission, non-blockingly: at capacity (global or this
        # session's cap) the read loop parks — the server stops
        # reading this socket — and resumes when a slot frees.
        try:
            await self._admit(prepared.session, prepared.deadline)
        except (ServerOverloaded, DeadlineExceeded) as exc:
            await self._send(conn, service.reject(rid, exc))
            return
        runner = self._run_request(conn, frame, prepared, key)
        if conn.pipelined:
            self.c_pipelined.inc()
            task = asyncio.get_running_loop().create_task(runner)
            if key is not None:
                conn.inflight[key] = task
            self._request_tasks.add(task)
            task.add_done_callback(self._request_tasks.discard)
        else:
            # Protocol v1: lockstep — answer before reading the next
            # frame, exactly like the threaded transport.
            await runner

    async def _admit(self, session: Optional[Session],
                     deadline: Optional[float]) -> None:
        admission = self.service.admission
        if admission.try_admit(session, deadline):
            return
        self.c_pauses.inc()
        self.c_admission_pauses.inc()
        give_up = admission.wait_budget(deadline)
        with admission.parked():
            while True:
                remaining = give_up - admission.clock()
                if remaining <= 0:
                    raise admission.wait_expired(deadline, give_up)
                await self._wait_resume(remaining)
                if admission.try_admit(session, deadline):
                    return

    async def _run_request(self, conn: _AsyncConnection,
                           frame: Dict[str, Any], prepared: Prepared,
                           key: Optional[str]) -> None:
        service = self.service
        try:
            loop = asyncio.get_running_loop()
            try:
                response = await loop.run_in_executor(
                    self._executor,
                    partial(service.handle, frame, prepared=prepared),
                )
            except RuntimeError as exc:
                # Executor already shut down (teardown race): answer
                # typed rather than tearing the stream.
                response = error_response(
                    frame.get("id"), ServerError(f"server stopping: {exc}")
                )
            finally:
                # The slot covers the service call only, as on the
                # threaded transport, so a reply never outruns it.
                service.admission.release(prepared.session)
            if prepared.op == "hello" and response.get("ok"):
                granted = (response.get("result") or {}).get("protocol", 1)
                conn.pipelined = bool(
                    isinstance(granted, int) and granted >= 2
                )
            await self._send(conn, response)
        finally:
            if key is not None:
                conn.inflight.pop(key, None)
                conn.notify_slot()

    async def _send(self, conn: _AsyncConnection,
                    response: Dict[str, Any]) -> None:
        payload = self._encode(response)
        try:
            async with conn.wlock:
                conn.writer.write(payload)
                await conn.writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError,
                RuntimeError):
            pass  # the client is gone; the read loop will see EOF


def _wake(waiters: List["asyncio.Future[None]"]) -> None:
    for waiter in waiters:
        if not waiter.done():
            waiter.set_result(None)


def _id_key(rid: Any) -> str:
    """A canonical, hashable key for a JSON request id (ids are echoed
    verbatim, so any JSON value is legal on the wire)."""
    try:
        return dumps(rid)
    except (TypeError, ValueError):
        return repr(rid)
