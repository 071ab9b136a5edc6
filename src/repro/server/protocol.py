"""The newline-delimited-JSON wire protocol.

One request or response per line, each a JSON object, UTF-8, ``\\n``
terminated — trivially streamable, debuggable with ``nc``, and the same
shape whether it crossed a socket or stayed in process (the
:class:`~repro.server.client.LocalClient` passes exactly these dicts).

Request frame::

    {"id": 7, "op": "tell", "session": "s1",
     "params": {"source": "TELL Doc9 IN Doc END"},
     "deadline_ms": 2000}

``id`` is echoed back verbatim; ``session`` is required for everything
except ``hello``/``ping``; ``deadline_ms`` is an optional *relative*
budget for admission + execution (a finite, non-boolean number — JSON
technically admits ``true`` and ``NaN``/``Infinity`` here, but both
would poison the deadline arithmetic, so validation refuses them).

**Versions.**  Protocol v1 is lockstep: one request, one response, in
order.  Protocol v2 makes the ``id`` a first-class correlation key —
a client may *pipeline* many requests on one connection and the server
may answer them out of order; reusing an id while it is still in
flight on the same connection is a typed :class:`ProtocolError`.  The
version is negotiated in ``hello``: the client sends
``params.protocol`` (the highest version it speaks, default 1) and the
server grants ``min(requested, PROTOCOL_VERSION)`` in the response —
so a v1 client that never sends ``params.protocol`` keeps exact
lockstep semantics against every server, old or new.

Write ops (``tell``/``untell``/``commit``) accept an optional
``params.token`` — a client-generated idempotency token.  The server
remembers the result of every *acknowledged* commit by token, so a
client that lost the ack (dropped connection, supervised restart) can
re-submit the same token and collect the original result instead of
applying twice.  Tokens must be unique per logical write; reusing one
returns the first write's result forever after.

Response frame::

    {"id": 7, "ok": true, "result": {...}}
    {"id": 7, "ok": false, "error": {"type": "ServerOverloaded",
                                     "message": "..."}}

``error.type`` is the exception class name from
:mod:`repro.errors`; clients re-raise the matching typed error, so
``except ServerOverloaded`` works identically against a local or remote
server.

Frames are canonical JSON (:mod:`repro.canonical`).  A result that is
already :class:`Encoded` (the decision ledger keeps its ``history`` and
``versions`` answers encoded) is spliced into its frame as it is, and
the frame's bytes are those its decoded form would encode to.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Type, Union

from repro import errors as _errors
from repro.canonical import Encoded, dumps
from repro.errors import ProtocolError, ReproError

#: A response's ``result``: a JSON object, or one already encoded.
Result = Union[Dict[str, Any], Encoded]

#: Highest protocol version this codebase speaks (see module docstring).
PROTOCOL_VERSION = 2

#: Frames above this are refused before parsing (a corrupt length is
#: indistinguishable from a hostile one).
MAX_FRAME = 1 << 20

#: Every operation the service dispatches.
OPS = (
    "hello", "bye", "ping",
    "tell", "untell", "ask", "ask_all", "query", "instances", "frame",
    "begin", "commit", "abort", "staged",
    "decide", "backtrack", "replay", "history", "versions",
    "explain", "stats", "summary",
)

#: Ops that carry no session (and tie no admission state to one).
SESSIONLESS = frozenset({"hello", "ping"})

#: Ops that mutate session state (staged ops, write-set, read epoch).
#: Admission allows several concurrent requests per session, so these
#: run under the session's lock for their *whole* duration — a tell
#: cannot interleave with a commit's snapshot-submit-clear sequence and
#: be silently dropped, and concurrent commit/abort cannot double-end a
#: transaction.  Reads deliberately stay outside the lock (they pin an
#: epoch, not the session).
SESSION_SERIAL = frozenset(
    {"begin", "tell", "untell", "commit", "abort", "staged",
     "decide", "backtrack"}
)

#: Ops that mutate the shared knowledge base: refused in read-only
#: degrade, and retried by a client only under an idempotency token.
WRITE_OPS = frozenset({"tell", "untell", "commit", "decide", "backtrack"})

#: One-line summaries for the README op table; every op MUST have one
#: (``render_op_table`` below regenerates the table, and a test holds
#: the README to its output, so the docs cannot drift from this tuple).
OP_SUMMARIES = {
    "hello": "open a session (negotiates the protocol version)",
    "bye": "close a session",
    "ping": "liveness probe (sessionless)",
    "tell": "assert a frame (autocommit, or staged inside begin)",
    "untell": "retract an object and everything referencing it",
    "ask": "evaluate a closed assertion",
    "ask_all": "witnesses of an exists-quantified assertion",
    "query": "fact-level query through the prover, rules included",
    "instances": "the extent of a class (optionally as-of a time)",
    "frame": "the frame grouped around one object",
    "begin": "open a snapshot-pinned transaction",
    "commit": "submit the staged ops (idempotency token supported)",
    "abort": "discard the staged ops",
    "staged": "inspect the session's staged ops",
    "decide": "record a design decision (tells/untells + ledger entry)",
    "backtrack": "retract a decision and its transitive consequents",
    "replay": "re-applicability test of a decision; reports drift",
    "history": "the decision ledger plus justification-graph edges",
    "versions": "versions/configurations derived from the ledger",
    "explain": "per-query counter attribution",
    "stats": "registry metrics snapshot",
    "summary": "census of the proposition base",
}


def render_op_table() -> str:
    """The README's protocol op table, regenerated from :data:`OPS`.

    >>> len(OPS) == len(OP_SUMMARIES)
    True
    >>> print(render_op_table().splitlines()[2])
    | `hello` | open a session (negotiates the protocol version) |
    """
    lines = ["| op | summary |", "| --- | --- |"]
    for op in OPS:
        lines.append(f"| `{op}` | {OP_SUMMARIES[op]} |")
    return "\n".join(lines)


#: What :meth:`FrameBuffer.feed` yields in place of a line longer than
#: :data:`MAX_FRAME`; :func:`decode_frame` refuses it typed.
OVERSIZED = object()


class FrameBuffer:
    """Splits one connection's byte stream into frames; no I/O of its own.

    Both transports :meth:`feed` it whatever the socket returns.  The
    rest of an oversized line is discarded up to its newline, so its
    tail is never parsed as spurious frames and the connection stays
    usable.  At EOF, :attr:`truncated` tells whether a partial frame was
    cut off — a client that died mid-request, whose fragment must be
    dropped, never decoded and half-executed.
    """

    __slots__ = ("_buf", "_skipping")

    def __init__(self) -> None:
        self._buf = bytearray()  # the incomplete line; holds no newline
        self._skipping = False   # inside an oversized line

    def feed(self, data: bytes) -> List[Any]:
        """The lines ``data`` completes, newline included and in order,
        with :data:`OVERSIZED` in place of a line over :data:`MAX_FRAME`."""
        buf = self._buf
        scan = len(buf)  # the old bytes hold no newline
        buf += data
        lines: List[Any] = []
        start = 0
        nl = buf.find(b"\n", scan)
        while nl >= 0:
            if self._skipping or nl - start > MAX_FRAME:
                lines.append(OVERSIZED)
                self._skipping = False
            else:
                lines.append(bytes(buf[start:nl + 1]))
            start = nl + 1
            nl = buf.find(b"\n", start)
        del buf[:start]
        if self._skipping or len(buf) > MAX_FRAME:
            buf.clear()
            self._skipping = True
        return lines

    @property
    def truncated(self) -> bool:
        """Does a partial frame remain?  The discarded tail of an
        oversized line does not count (it is never buffered)."""
        return bool(self._buf)


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One wire frame: canonical JSON + newline.  An :class:`Encoded`
    ``result`` goes in as it is, after the frame's other keys, which all
    sort before it (``id``, ``ok``)."""
    result = payload.get("result")
    if isinstance(result, Encoded):
        head = dumps({key: value for key, value in payload.items()
                      if key != "result"})
        return f'{head[:-1]},"result":{result}}}\n'.encode("utf-8")
    return dumps(payload).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one frame; typed errors for every malformation."""
    if line is OVERSIZED:
        raise ProtocolError(f"frame exceeds {MAX_FRAME} bytes")
    if len(line) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(line)} bytes exceeds {MAX_FRAME}")
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def validate_request(frame: Dict[str, Any]) -> Dict[str, Any]:
    """Shape-check a request frame (op known, params an object)."""
    op = frame.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request needs a string 'op'")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}")
    params = frame.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be a JSON object")
    deadline = frame.get("deadline_ms")
    if deadline is not None:
        # bool is an int subclass, so `deadline_ms: true` would slip
        # through an isinstance check and compute a 1ms budget; and
        # Python's json module happily parses NaN/Infinity, either of
        # which poisons every deadline comparison downstream.
        if isinstance(deadline, bool) \
                or not isinstance(deadline, (int, float)):
            raise ProtocolError("'deadline_ms' must be a number")
        if not math.isfinite(deadline):
            raise ProtocolError("'deadline_ms' must be finite")
    return frame


def negotiate_protocol(params: Dict[str, Any]) -> int:
    """The protocol version granted to a ``hello`` carrying ``params``.

    Clients request the highest version they speak via
    ``params.protocol`` (absent = 1, the lockstep original); the grant
    is ``min(requested, PROTOCOL_VERSION)``, so both sides always agree
    on a version both implement."""
    requested = params.get("protocol", 1)
    if isinstance(requested, bool) or not isinstance(requested, int):
        raise ProtocolError("'protocol' must be an integer version")
    if requested < 1:
        raise ProtocolError(f"unsupported protocol version {requested}")
    return min(requested, PROTOCOL_VERSION)


def ok_response(request_id: Any, result: Result) -> Dict[str, Any]:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: Any, exc: BaseException) -> Dict[str, Any]:
    """Map an exception onto the wire error shape."""
    name = type(exc).__name__ if isinstance(exc, ReproError) else "InternalError"
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": name, "message": str(exc)},
    }


def exception_for(error: Dict[str, Any]) -> ReproError:
    """Rebuild the typed exception a wire error describes (client side).

    Unknown types degrade to :class:`~repro.errors.ServerError` so a
    newer server never crashes an older client with an unmappable name.
    """
    name = str(error.get("type", "ServerError"))
    message = str(error.get("message", ""))
    candidate: Optional[Type[BaseException]] = getattr(_errors, name, None)
    if (
        candidate is None
        or not isinstance(candidate, type)
        or not issubclass(candidate, ReproError)
    ):
        return _errors.ServerError(f"{name}: {message}")
    try:
        return candidate(message)
    except Exception:
        # Errors with structured constructors (diagnostics lists, ...)
        # degrade to the base type rather than failing to deserialize.
        return _errors.ServerError(f"{name}: {message}")
