"""One wire path: the framer both transports share, and the framing
contract each transport must keep.

:class:`TestFrameBuffer` unit-tests :class:`~repro.server.protocol.FrameBuffer`
without sockets.  :class:`FramingSuite` is the over-the-socket contract;
it is not collected here but inherited by ``TestTCPTransport``
(``test_server_tcp.py``) and ``TestAsyncFraming``
(``test_server_async.py``), whose modules' ``server`` fixtures run it
against :class:`~repro.server.tcp.GKBMSServer` and
:class:`~repro.server.tcp.AsyncGKBMSServer` respectively.
"""

import json
import socket
import time

import pytest

from repro.errors import ProtocolError
from repro.server.protocol import (
    MAX_FRAME,
    OVERSIZED,
    FrameBuffer,
    decode_frame,
)

PING = b'{"id": 1, "op": "ping", "params": {}}\n'


class TestFrameBuffer:
    def test_frame_fed_one_byte_at_a_time(self):
        frames = FrameBuffer()
        out = []
        for i in range(len(PING)):
            out.extend(frames.feed(PING[i:i + 1]))
            if i < len(PING) - 1:
                assert out == []
                assert frames.truncated
        assert out == [PING]
        assert not frames.truncated

    def test_three_frames_in_one_feed(self):
        lines = [b'{"id": %d}\n' % n for n in range(3)]
        frames = FrameBuffer()
        assert frames.feed(b"".join(lines)) == lines
        assert not frames.truncated

    def test_oversized_line_in_chunks_then_next_frame(self):
        frames = FrameBuffer()
        line = b'{"pad": "' + b"x" * (MAX_FRAME + 64) + b'"}\n'
        size = 64 * 1024
        chunks = [line[i:i + size] for i in range(0, len(line), size)]
        out = []
        for chunk in chunks[:-1]:
            out.extend(frames.feed(chunk))
        assert out == []
        # The last chunk ends the oversized line and carries a frame.
        out.extend(frames.feed(chunks[-1] + PING))
        assert out == [OVERSIZED, PING]
        assert not frames.truncated

    def test_eof_inside_an_oversized_line_is_not_truncated(self):
        frames = FrameBuffer()
        assert frames.feed(b"x" * (MAX_FRAME + 1)) == []
        assert frames.feed(b"y" * 100) == []
        assert not frames.truncated

    def test_eof_after_a_partial_frame_is_truncated(self):
        frames = FrameBuffer()
        assert frames.feed(PING + PING[:-1]) == [PING]
        assert frames.truncated

    def test_bare_newline_is_a_frame_decode_refuses(self):
        frames = FrameBuffer()
        assert frames.feed(b"\n") == [b"\n"]
        assert not frames.truncated
        with pytest.raises(ProtocolError):
            decode_frame(b"\n")

    def test_decode_refuses_oversized_with_the_limit(self):
        with pytest.raises(ProtocolError,
                           match=f"frame exceeds {MAX_FRAME} bytes"):
            decode_frame(OVERSIZED)


def _counter(server, name):
    return server.service.registry.snapshot().get(name, 0)


class FramingSuite:
    """The framing contract, over a real socket, for whichever server
    the inheriting module's ``server`` fixture builds."""

    def test_malformed_line_answers_protocol_error(self, server):
        errors = _counter(server, "server.protocol_errors")
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            handle = sock.makefile("rwb")
            handle.write(b"this is not json\n")
            handle.flush()
            response = json.loads(handle.readline())
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            # The connection survives a bad frame.
            handle.write(b'{"id": 1, "op": "ping", "params": {}}\n')
            handle.flush()
            response = json.loads(handle.readline())
            assert response["ok"] is True
        assert _counter(server, "server.protocol_errors") == errors + 1

    def test_oversized_frame_resynchronizes_the_stream(self, server):
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            handle = sock.makefile("rwb")
            oversized = (
                b'{"id": 1, "op": "ping", "pad": "'
                + b"x" * (MAX_FRAME + 64) + b'"}\n'
            )
            handle.write(oversized)
            handle.flush()
            response = json.loads(handle.readline())
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            # The unread tail of the oversized line was discarded, so
            # the next frame parses cleanly instead of desynchronizing
            # into spurious errors.
            handle.write(b'{"id": 2, "op": "ping", "params": {}}\n')
            handle.flush()
            response = json.loads(handle.readline())
            assert response["ok"] is True
            assert response["id"] == 2

    def test_truncated_final_frame_is_dropped(self, server):
        """Regression: a final *unterminated* line at EOF that fit
        under MAX_FRAME was decoded and executed as a complete frame —
        a request truncated by a dying client must be dropped."""
        truncated = _counter(server, "server.truncated_frames")
        requests = _counter(server, "server.requests")
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            # A frame that would execute if (wrongly) parsed, cut off
            # by the client dying before the newline.
            sock.sendall(b'{"id": 1, "op": "ping", "params": {}}')
            sock.shutdown(socket.SHUT_WR)
            sock.settimeout(10)
            assert sock.recv(4096) == b""  # EOF back, no response
        # The server may close its end before it counts the drop.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and \
                _counter(server, "server.truncated_frames") == truncated:
            time.sleep(0.005)
        assert _counter(server, "server.truncated_frames") == truncated + 1
        # The fragment was never executed.
        assert _counter(server, "server.requests") == requests

    def test_poison_deadline_refused_over_the_wire(self, server):
        """`deadline_ms: true`, NaN and Infinity must be refused by
        validation, not fed to the deadline arithmetic."""
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            handle = sock.makefile("rwb")
            for rid, poison in enumerate((b"true", b"NaN", b"Infinity")):
                handle.write(b'{"id": %d, "op": "ping", "params": {}, '
                             b'"deadline_ms": %s}\n' % (rid, poison))
                handle.flush()
                response = json.loads(handle.readline())
                assert response["ok"] is False
                assert response["error"]["type"] == "ProtocolError"

    def test_unserializable_result_answers_server_error(self, server,
                                                        monkeypatch):
        monkeypatch.setattr(server.service, "_op_ping",
                            lambda params: {"pong": {1, 2}})
        errors = _counter(server, "server.protocol_errors")
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            handle = sock.makefile("rwb")
            handle.write(b'{"id": 7, "op": "ping", "params": {}}\n')
            handle.flush()
            response = json.loads(handle.readline())
            assert response["id"] == 7
            assert response["ok"] is False
            assert response["error"]["type"] == "ServerError"
            # The stream is intact: the connection keeps serving.
            handle.write(b'{"id": 8, "op": "hello", "params": {}}\n')
            handle.flush()
            response = json.loads(handle.readline())
            assert response["id"] == 8 and response["ok"] is True
        assert _counter(server, "server.protocol_errors") == errors + 1

    def test_several_frames_in_one_send_answered_in_order(self, server):
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(b'{"id": 1, "op": "ping", "params": {}}\n'
                         b'{"id": 2, "op": "hello", "params": {}}\n')
            handle = sock.makefile("rb")
            first = json.loads(handle.readline())
            second = json.loads(handle.readline())
        assert (first["id"], first["ok"]) == (1, True)
        assert "pong" in first["result"]
        assert (second["id"], second["ok"]) == (2, True)
        assert "session" in second["result"]
