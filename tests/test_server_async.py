"""The asyncio transport: pipelined protocol v2 over real sockets.

Covers the tentpole semantics — out-of-order completion matched by id,
duplicate in-flight ids refused typed, backpressure pause/resume
observable through ``server.in_flight`` — plus transport parity with
the threaded server: the framing suite both transports inherit
(``test_server_framing.py``), graceful drain, and the chaos
``client_drop`` kind.
"""

import json
import signal
import socket
import threading
import time

import pytest

from repro.conceptbase import ConceptBase
from repro.errors import ConnectionLost, ServerError
from repro.obs.metrics import MetricsRegistry
from repro.propositions.wal import WalStore
from repro.scenario.chaos import ChaosHarness
from repro.server import protocol
from repro.server import service as service_module
from repro.server import tcp as tcp_module
from repro.server.client import PipelinedTCPClient, TCPClient
from repro.server.protocol import PROTOCOL_VERSION
from repro.server.service import GKBMSService
from repro.server.session import SessionManager
from repro.server.tcp import AsyncGKBMSServer, GKBMSServer
from repro.server.__main__ import _install_drain_handlers, main as server_main
from tests.test_server_framing import FramingSuite


@pytest.fixture
def server():
    service = GKBMSService(batch_window=0.002)
    tcp = AsyncGKBMSServer(("127.0.0.1", 0), service)
    tcp.serve_in_thread()
    yield tcp
    tcp.close()


def _handshake(handle, protocol=PROTOCOL_VERSION):
    """Raw v2 hello on an open socket file; returns (session, granted)."""
    handle.write(json.dumps({
        "id": 0, "op": "hello", "params": {"protocol": protocol},
    }).encode() + b"\n")
    handle.flush()
    response = json.loads(handle.readline())
    assert response["ok"] is True
    return response["result"]["session"], response["result"]["protocol"]


class TestAsyncTransport:
    def test_v1_client_keeps_lockstep(self, server):
        """An unmodified lockstep client works against the async
        server and is granted protocol 1."""
        client = TCPClient(server.host, server.port)
        client.tell("TELL Doc IN SimpleClass END")
        client.tell("TELL D1 IN Doc END")
        assert client.instances("Doc") == ["D1"]
        assert client.ping()["pong"] is True
        client.close()

    def test_hello_without_protocol_grants_v1(self, server):
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            handle = sock.makefile("rwb")
            handle.write(b'{"id": 0, "op": "hello", "params": {}}\n')
            handle.flush()
            response = json.loads(handle.readline())
            assert response["ok"] is True
            assert response["result"]["protocol"] == 1

    def test_pipelined_client_round_trip(self, server):
        client = PipelinedTCPClient(server.host, server.port)
        assert client.protocol == PROTOCOL_VERSION
        client.tell("TELL Doc IN SimpleClass END")
        client.tell("TELL D1 IN Doc END")
        replies = [client.submit("instances", {"cls": "Doc"})
                   for _ in range(8)]
        for reply in replies:
            assert reply.result(10.0)["instances"] == ["D1"]
        client.close()

    def test_two_sessions_share_the_base(self, server):
        a = PipelinedTCPClient(server.host, server.port)
        b = TCPClient(server.host, server.port)
        assert a.session != b.session
        a.tell("TELL Doc IN SimpleClass END")
        a.tell("TELL D1 IN Doc END")
        assert b.instances("Doc") == ["D1"]
        a.close()
        b.close()

    def test_transactions_over_the_wire(self, server):
        client = PipelinedTCPClient(server.host, server.port)
        client.tell("TELL Doc IN SimpleClass END")
        with client.transaction():
            client.tell("TELL D1 IN Doc END")
            client.tell("TELL D2 IN Doc END")
        assert client.instances("Doc") == ["D1", "D2"]
        client.close()


class TestPipeliningSemantics:
    def test_out_of_order_completion_matches_ids(self, server):
        """A slow request must not head-of-line block a fast one: the
        fast response arrives first, each under its own id."""
        service = server.service
        orig = service._dispatch

        def slow_dispatch(op, session, params):
            if params.get("slow"):
                time.sleep(0.15)
            return orig(op, session, params)

        service._dispatch = slow_dispatch
        try:
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as sock:
                handle = sock.makefile("rwb")
                session, granted = _handshake(handle)
                assert granted == PROTOCOL_VERSION
                handle.write(json.dumps({
                    "id": 10, "op": "ping", "session": session,
                    "params": {"slow": 1},
                }).encode() + b"\n")
                handle.write(json.dumps({
                    "id": 11, "op": "ping", "session": session,
                    "params": {},
                }).encode() + b"\n")
                handle.flush()
                first = json.loads(handle.readline())
                second = json.loads(handle.readline())
            assert first["id"] == 11      # the fast one overtook
            assert second["id"] == 10
            assert first["ok"] and second["ok"]
        finally:
            service._dispatch = orig

    def test_duplicate_in_flight_id_is_protocol_error(self, server):
        service = server.service
        orig = service._dispatch

        def slow_dispatch(op, session, params):
            if params.get("slow"):
                time.sleep(0.15)
            return orig(op, session, params)

        service._dispatch = slow_dispatch
        try:
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as sock:
                handle = sock.makefile("rwb")
                session, _ = _handshake(handle)
                for params in ({"slow": 1}, {}):
                    handle.write(json.dumps({
                        "id": 5, "op": "ping", "session": session,
                        "params": params,
                    }).encode() + b"\n")
                handle.flush()
                first = json.loads(handle.readline())
                second = json.loads(handle.readline())
            # The refusal comes back immediately (out of order); the
            # original request still completes under the same id.
            assert first["id"] == 5 and second["id"] == 5
            assert first["ok"] is False
            assert first["error"]["type"] == "ProtocolError"
            assert "in flight" in first["error"]["message"]
            assert second["ok"] is True
        finally:
            service._dispatch = orig

    def test_backpressure_pauses_and_resumes(self):
        """At the admission cap the server stops reading the socket:
        ``server.in_flight`` never exceeds the cap, pauses are counted,
        and every request still completes once slots free."""
        service = GKBMSService(batch_window=0.002, max_in_flight=2,
                               per_session=2)
        tcp = AsyncGKBMSServer(("127.0.0.1", 0), service)
        tcp.serve_in_thread()
        orig = service._dispatch

        def slow_dispatch(op, session, params):
            if params.get("slow"):
                time.sleep(0.05)
            return orig(op, session, params)

        service._dispatch = slow_dispatch
        try:
            client = PipelinedTCPClient(tcp.host, tcp.port)
            replies = [client.submit("ping", {"slow": 1})
                       for _ in range(10)]
            peak = 0
            while not all(reply.done() for reply in replies):
                snapshot = service.registry.snapshot()
                peak = max(peak, snapshot.get("server.in_flight", 0))
                time.sleep(0.002)
            for reply in replies:
                assert reply.result(10.0)["pong"] is True
            snapshot = service.registry.snapshot()
            assert peak <= 2
            assert snapshot.get("server.async.pauses", 0) > 0
            assert snapshot.get("server.async.admission_pauses", 0) > 0
            assert snapshot.get("server.in_flight") == 0
            client.close()
        finally:
            service._dispatch = orig
            tcp.close()

    def test_pipeline_depth_cap_parks_the_connection(self, monkeypatch):
        """Past ``MAX_PIPELINE`` requests in flight on one connection
        the read loop parks, though admission has room for all of them:
        never more than the cap run at once, the park is counted as a
        pause, and every request is still answered."""
        monkeypatch.setattr(AsyncGKBMSServer, "MAX_PIPELINE", 2)
        service = GKBMSService(batch_window=0.002)
        tcp = AsyncGKBMSServer(("127.0.0.1", 0), service)
        tcp.serve_in_thread()
        orig = service._dispatch
        lock = threading.Lock()
        running = [0]
        peak = [0]

        def slow_dispatch(op, session, params):
            if not params.get("slow"):
                return orig(op, session, params)
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            try:
                time.sleep(0.05)
                return orig(op, session, params)
            finally:
                with lock:
                    running[0] -= 1

        service._dispatch = slow_dispatch
        try:
            client = PipelinedTCPClient(tcp.host, tcp.port)
            replies = [client.submit("ping", {"slow": 1})
                       for _ in range(10)]
            for reply in replies:
                assert reply.result(10.0)["pong"] is True
            assert peak[0] <= 2
            snapshot = service.registry.snapshot()
            assert snapshot.get("server.async.pauses", 0) > 0
            assert snapshot.get("server.async.depth_pauses", 0) > 0
            assert snapshot.get("server.async.admission_pauses", 0) == 0
            client.close()
        finally:
            service._dispatch = orig
            tcp.close()

    def test_admission_slot_is_free_before_the_reply_is_written(
            self, server):
        """The admission slot covers the service call only, as on the
        threaded transport: when a lone lockstep request's reply is
        written, nothing is in flight any more."""
        client = TCPClient(server.host, server.port)
        seen = []
        send = server._send

        async def spying_send(conn, response):
            seen.append(
                server.service.registry.snapshot().get("server.in_flight"))
            await send(conn, response)

        server._send = spying_send
        try:
            for _ in range(3):
                assert client.ping()["pong"] is True
        finally:
            del server._send
            client.close()
        assert seen == [0, 0, 0]

    def test_submit_after_drop_raises_typed(self, server):
        client = PipelinedTCPClient(server.host, server.port)
        client._drop_connection()
        with pytest.raises(ConnectionLost):
            client.submit("ping")

    def test_pending_replies_fail_when_server_drains(self):
        service = GKBMSService(batch_window=0.002)
        tcp = AsyncGKBMSServer(("127.0.0.1", 0), service)
        tcp.serve_in_thread()
        client = PipelinedTCPClient(tcp.host, tcp.port)
        tcp.drain()
        with pytest.raises((ConnectionLost, ServerError)):
            client.submit("ping").result(5.0)
        client.close()


class TestRequestPreparation:
    """Each request is validated and its session resolved exactly once,
    on either transport."""

    @pytest.mark.parametrize("server_cls, client_cls", [
        (GKBMSServer, TCPClient),
        (AsyncGKBMSServer, TCPClient),
        (AsyncGKBMSServer, PipelinedTCPClient),
    ], ids=["threaded", "async-v1", "async-v2"])
    def test_one_validation_and_session_lookup_per_request(
            self, monkeypatch, server_cls, client_cls):
        lock = threading.Lock()
        counts = {"validate": 0, "session": 0}

        def count(name):
            with lock:
                counts[name] += 1

        validate = protocol.validate_request

        def counting_validate(frame):
            count("validate")
            return validate(frame)

        # Patch every module that imported the validator by name.
        for module in (protocol, service_module, tcp_module):
            if getattr(module, "validate_request", None) is validate:
                monkeypatch.setattr(module, "validate_request",
                                    counting_validate)
        get = SessionManager.get

        def counting_get(manager, sid):
            count("session")
            return get(manager, sid)

        monkeypatch.setattr(SessionManager, "get", counting_get)
        service = GKBMSService(batch_window=0.002)
        tcp = server_cls(("127.0.0.1", 0), service)
        tcp.serve_in_thread()
        try:
            client = client_cls(tcp.host, tcp.port)
            client.tell("TELL Doc IN SimpleClass END")
            with lock:
                counts.update(validate=0, session=0)
            requests = 8
            for _ in range(requests):
                assert client.instances("Doc") == []
            with lock:
                per_request = {name: value / requests
                               for name, value in counts.items()}
            assert per_request == {"validate": 1.0, "session": 1.0}
            client.close()
        finally:
            tcp.close()


class TestAsyncFraming(FramingSuite):
    """The shared framing contract on the asyncio transport."""


class TestAsyncDrain:
    """SIGTERM drain parity with the threaded server (PR 8 semantics)."""

    def _wal_server(self, tmp_path):
        registry = MetricsRegistry()
        store = WalStore(str(tmp_path / "drain.wal"), fsync="commit",
                         registry=registry)
        service = GKBMSService(ConceptBase(store=store, registry=registry))
        return store, service, AsyncGKBMSServer(("127.0.0.1", 0), service)

    def test_drain_checkpoints_and_closes_cleanly(self, tmp_path):
        store, service, tcp = self._wal_server(tmp_path)
        tcp.serve_in_thread()
        client = PipelinedTCPClient(tcp.host, tcp.port)
        client.tell("TELL Doc IN SimpleClass END")
        client.tell("TELL D1 IN Doc END")
        client.close()
        tcp.drain()
        with pytest.raises((ServerError, OSError, ConnectionLost)):
            TCPClient(tcp.host, tcp.port, connect_timeout=1.0)
        recovered = WalStore(str(tmp_path / "drain.wal"), fsync="commit",
                             registry=MetricsRegistry())
        assert recovered.stats.get("replayed", 0) == 0
        rows = recovered.rows()
        recovered.close()
        assert any("Doc" in row for row in rows)

    def test_signal_handler_drains_without_deadlock(self, tmp_path):
        """The __main__ topology: handler on the main thread, loop on
        another — identical wiring to the threaded server."""
        store, service, tcp = self._wal_server(tmp_path)
        previous_term = signal.getsignal(signal.SIGTERM)
        previous_int = signal.getsignal(signal.SIGINT)
        try:
            draining = _install_drain_handlers(tcp)
            serving = tcp.serve_in_thread()
            client = PipelinedTCPClient(tcp.host, tcp.port)
            client.tell("TELL Doc IN SimpleClass END")
            client.close()
            handler = signal.getsignal(signal.SIGTERM)
            handler(signal.SIGTERM, None)
            assert draining.is_set()
            handler(signal.SIGTERM, None)  # second signal: ignored
            serving.join(timeout=10.0)
            assert not serving.is_alive()
            tcp.server_close()
            service.drain()
        finally:
            signal.signal(signal.SIGTERM, previous_term)
            signal.signal(signal.SIGINT, previous_int)
        recovered = WalStore(str(tmp_path / "drain.wal"), fsync="commit",
                             registry=MetricsRegistry())
        assert recovered.stats.get("replayed", 0) == 0
        recovered.close()


class TestAsyncChaos:
    def test_client_drop_is_exactly_once_on_async_transport(self, tmp_path):
        harness = ChaosHarness(
            str(tmp_path / "chaos.wal"), "client_drop", seed=5,
            threads=2, ops_per_thread=8, transport="async",
        )
        report = harness.run()
        assert report.exactly_once is True
        assert report.rows_equal is True
        assert report.lost_acked == 0


class TestAsyncSmokeCommand:
    def test_smoke_async_gates_clean(self, tmp_path, capsys):
        code = server_main([
            "smoke", "--async", "--threads", "4", "--ops", "12",
            "--json", str(tmp_path / "smoke.json"),
        ])
        assert code == 0
        report = json.loads((tmp_path / "smoke.json").read_text())
        assert report["failures"] == []
        assert report["load"]["unexpected_errors"] == 0
