"""The TCP transport, the shell's client mode and the smoke command —
everything over real sockets on an ephemeral port."""

import json
import signal
import socket
import threading

import pytest

from repro.conceptbase import ConceptBase
from repro.errors import CommitConflict, ConnectionLost, ServerError
from repro.faults import FaultPlan, FaultyIO
from repro.obs.metrics import MetricsRegistry
from repro.propositions.wal import WalStore
from repro.server.client import RetryPolicy, TCPClient
from repro.server.service import GKBMSService
from repro.server.supervisor import ServiceSupervisor
from repro.server.tcp import GKBMSServer
from repro.server.__main__ import _install_drain_handlers, main as server_main
from repro.shell import GKBMSShell
from tests.test_server_framing import FramingSuite


@pytest.fixture
def server():
    service = GKBMSService(batch_window=0.002)
    tcp = GKBMSServer(("127.0.0.1", 0), service)
    tcp.serve_in_thread()
    yield tcp
    tcp.close()


class TestTCPTransport(FramingSuite):
    def test_round_trip_over_socket(self, server):
        client = TCPClient(server.host, server.port)
        client.tell("TELL Doc IN SimpleClass END")
        client.tell("TELL D1 IN Doc END")
        assert client.instances("Doc") == ["D1"]
        assert client.ping()["pong"] is True
        client.close()

    def test_two_connections_share_the_base(self, server):
        a = TCPClient(server.host, server.port)
        b = TCPClient(server.host, server.port)
        assert a.session != b.session
        a.tell("TELL Doc IN SimpleClass END")
        a.tell("TELL D1 IN Doc END")
        assert b.instances("Doc") == ["D1"]
        a.close()
        b.close()

    def test_conflict_travels_the_wire_typed(self, server):
        writer = TCPClient(server.host, server.port)
        racer = TCPClient(server.host, server.port)
        writer.tell("TELL Doc IN SimpleClass END")
        racer.begin()
        racer.tell("TELL Shared IN Doc END")
        writer.tell("TELL Shared IN Doc END")
        with pytest.raises(CommitConflict):
            racer.commit()
        writer.close()
        racer.close()

    def test_transactions_over_the_wire(self, server):
        client = TCPClient(server.host, server.port)
        client.tell("TELL Doc IN SimpleClass END")
        with client.transaction():
            client.tell("TELL D1 IN Doc END")
            client.tell("TELL D2 IN Doc END")
        assert client.instances("Doc") == ["D1", "D2"]
        client.close()

    def test_closed_server_refuses_new_connections(self):
        service = GKBMSService()
        tcp = GKBMSServer(("127.0.0.1", 0), service)
        tcp.serve_in_thread()
        TCPClient(tcp.host, tcp.port).close()
        tcp.close()
        with pytest.raises((ServerError, OSError)):
            TCPClient(tcp.host, tcp.port)


class TestTCPClientResilience:
    """Timeouts, reconnects and retries on the socket client."""

    def test_connect_refused_raises_connection_lost(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        with pytest.raises(ConnectionLost):
            TCPClient("127.0.0.1", port, connect_timeout=1.0)

    def test_request_timeout_drops_the_connection(self):
        """A server that accepts but never answers must surface as a
        typed ConnectionLost within the timeout, not a hung recv."""
        stall = socket.socket()
        stall.bind(("127.0.0.1", 0))
        stall.listen(1)
        try:
            client = TCPClient(
                "127.0.0.1", stall.getsockname()[1],
                timeout=0.2, auto_hello=False,
            )
            with pytest.raises(ConnectionLost):
                client.ping()
            # The stream is poisoned (a late response would answer the
            # wrong request), so the socket must be gone.
            assert client._sock is None
        finally:
            stall.close()

    def test_deadline_budget_bounds_the_socket_wait(self, server):
        client = TCPClient(server.host, server.port, deadline_ms=250.0)
        assert client._request_timeout({"deadline_ms": 250.0}) == \
            pytest.approx(0.25 + TCPClient.DEADLINE_GRACE)
        assert client._request_timeout({}) == pytest.approx(30.0)
        assert client.ping()["pong"] is True  # budget generous enough
        client.close()

    def test_reconnect_on_retry_gets_fresh_session(self, server):
        client = TCPClient(
            server.host, server.port,
            retry=RetryPolicy(seed=3, sleep=lambda _s: None),
        )
        client.tell("TELL Doc IN SimpleClass END")
        old_session = client.session
        client._drop_connection()  # the link dies under us
        assert client.instances("Doc") == []  # retried transparently
        assert client.retry.retries >= 1
        assert client.session is not None
        assert client.session != old_session
        client.close()

    def test_retry_exhaustion_surfaces_connection_lost(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        policy = RetryPolicy(max_attempts=2, seed=0, sleep=lambda _s: None)
        with pytest.raises(ConnectionLost):
            TCPClient("127.0.0.1", port, connect_timeout=0.5, retry=policy)

    def test_dropped_write_retries_idempotently(self, server):
        """The ambiguous case: the tell was applied but its ack died
        with the connection — the tokened retry must not double-apply."""
        client = TCPClient(
            server.host, server.port,
            retry=RetryPolicy(seed=5, sleep=lambda _s: None),
        )
        client.tell("TELL Doc IN SimpleClass END")
        token = "tcp-ambiguous-1"
        client._req_id += 1
        frame = {
            "id": client._req_id, "op": "tell", "session": client.session,
            "params": {"source": "TELL D1 IN Doc END", "token": token},
        }
        from repro.server.protocol import encode_frame
        client._file.write(encode_frame(frame))
        client._file.flush()
        client._drop_connection()  # vanish before reading the ack
        # Wait for the orphaned tell to commit server-side.
        deadline = 50
        while server.service.pipeline.token_result(token) is None \
                and deadline > 0:
            threading.Event().wait(0.02)
            deadline -= 1
        client._recover_transport()
        result = client._call("tell", {
            "source": "TELL D1 IN Doc END", "token": token,
        })
        assert result.get("idempotent") is True
        assert client.instances("Doc") == ["D1"]
        client.close()


class TestSupervisedRecoveryOverTCP:
    """Pipeline poison → supervisor restart, end-to-end over a socket."""

    def test_fsync_fault_recovers_and_client_retries(self, tmp_path):
        plan = FaultPlan(seed=11)
        io = FaultyIO(plan)
        registry = MetricsRegistry()
        store = WalStore(str(tmp_path / "tcp.wal"), fsync="commit",
                         io=io, registry=registry)
        service = GKBMSService(ConceptBase(store=store, registry=registry))
        supervisor = ServiceSupervisor(
            service, backoff_base=0.001, backoff_cap=0.01, seed=11
        )
        with GKBMSServer(("127.0.0.1", 0), service) as tcp:
            tcp.serve_in_thread()
            client = TCPClient(
                tcp.host, tcp.port,
                retry=RetryPolicy(seed=11, base=0.001, cap=0.01),
            )
            client.tell("TELL Doc IN SimpleClass END")
            client.tell("TELL Before IN Doc END")
            # Break every fsync from here: the next commit poisons the
            # pipeline; the supervisor restarts through WAL replay and
            # the client's tokened retry lands on the recovered service.
            plan.fail_fsyncs_from = io.ops + 1
            result = client.tell("TELL After IN Doc END")
            supervisor.join()
            assert result["created"] >= 1
            assert client.retry.retries >= 1
            assert service.status == "serving"
            # A second connection sees both writes, exactly once.
            checker = TCPClient(tcp.host, tcp.port)
            assert checker.instances("Doc") == ["After", "Before"]
            checker.close()
            applied = [
                entry for entry in service.pipeline.commit_log()
                if any("After" in arg for _k, arg in entry[2])
            ]
            assert len(applied) == 1
            snapshot = registry.snapshot("server.supervisor")
            assert snapshot["server.supervisor.recoveries"] >= 1
            assert snapshot["server.supervisor.mttr_ms"]["count"] >= 1
            client.close()


class TestGracefulDrain:
    """SIGTERM/SIGINT → stop accepting, flush, checkpoint, close WAL."""

    def _wal_server(self, tmp_path):
        registry = MetricsRegistry()
        store = WalStore(str(tmp_path / "drain.wal"), fsync="commit",
                         registry=registry)
        service = GKBMSService(ConceptBase(store=store, registry=registry))
        return store, service, GKBMSServer(("127.0.0.1", 0), service)

    def test_drain_checkpoints_and_closes_cleanly(self, tmp_path):
        store, service, tcp = self._wal_server(tmp_path)
        tcp.serve_in_thread()
        client = TCPClient(tcp.host, tcp.port)
        client.tell("TELL Doc IN SimpleClass END")
        client.tell("TELL D1 IN Doc END")
        client.close()
        tcp.drain()
        with pytest.raises((ServerError, OSError)):
            TCPClient(tcp.host, tcp.port, connect_timeout=1.0)
        # The final checkpoint folded the log into the snapshot: a
        # clean reopen replays zero records and sees everything.
        recovered = WalStore(str(tmp_path / "drain.wal"), fsync="commit",
                             registry=MetricsRegistry())
        assert recovered.stats.get("replayed", 0) == 0
        processor_rows = recovered.rows()
        recovered.close()
        assert any("Doc" in row for row in processor_rows)

    def test_signal_handler_drains_without_deadlock(self, tmp_path):
        """The installed handler runs on the main thread while
        serve_forever runs elsewhere — exactly the __main__ topology."""
        store, service, tcp = self._wal_server(tmp_path)
        previous_term = signal.getsignal(signal.SIGTERM)
        previous_int = signal.getsignal(signal.SIGINT)
        try:
            draining = _install_drain_handlers(tcp)
            serving = tcp.serve_in_thread()
            client = TCPClient(tcp.host, tcp.port)
            client.tell("TELL Doc IN SimpleClass END")
            client.close()
            handler = signal.getsignal(signal.SIGTERM)
            handler(signal.SIGTERM, None)
            assert draining.is_set()
            handler(signal.SIGTERM, None)  # second signal: ignored
            serving.join(timeout=10.0)
            assert not serving.is_alive(), "serve_forever did not unblock"
            # __main__'s finally block: the main thread finishes the
            # drain after the loop exits, so exit cannot cut it short.
            tcp.server_close()
            service.drain()
        finally:
            signal.signal(signal.SIGTERM, previous_term)
            signal.signal(signal.SIGINT, previous_int)
        recovered = WalStore(str(tmp_path / "drain.wal"), fsync="commit",
                             registry=MetricsRegistry())
        rows = recovered.rows()
        recovered.close()
        assert any("Doc" in row for row in rows)


class TestShellClientMode:
    def test_connect_tell_ask_disconnect(self, server):
        shell = GKBMSShell()
        out = shell.execute(f"connect {server.host} {server.port}")
        assert "connected" in out and "session" in out
        out = shell.execute('rtell "TELL Doc IN SimpleClass END"')
        assert "committed" in out
        shell.execute('rtell "TELL D1 IN Doc END"')
        assert shell.execute("rinstances Doc") == "D1"
        out = shell.execute("rquery in(?x,Doc)")
        assert "D1" in out
        out = shell.execute("disconnect")
        assert "disconnected" in out

    def test_remote_commands_require_connection(self):
        shell = GKBMSShell()
        out = shell.execute("rinstances Doc")
        assert out.startswith("error:") and "not connected" in out

    def test_remote_errors_are_reported_not_raised(self, server):
        shell = GKBMSShell()
        shell.execute(f"connect {server.host} {server.port}")
        out = shell.execute('rtell "NOT A FRAME"')
        assert out.startswith("error:")
        shell.execute("disconnect")

    def test_quit_disconnects(self, server):
        shell = GKBMSShell()
        shell.execute(f"connect {server.host} {server.port}")
        assert shell.execute("quit") == "bye"
        assert shell.client is None


class TestSmokeCommand:
    def test_smoke_gates_and_reports(self, tmp_path):
        report_path = tmp_path / "smoke.json"
        code = server_main([
            "smoke", "--threads", "4", "--ops", "10",
            "--json", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["failures"] == []
        assert report["protocol_errors"] == 0
        assert report["batch_samples"] > 0
        assert report["load"]["unexpected_errors"] == 0
        # Group commit: strictly fewer fsyncs than commits.
        assert report["wal_fsyncs"] < report["committed"]
