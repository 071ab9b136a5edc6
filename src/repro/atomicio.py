"""Atomic, checksummed file IO for every durable representation.

The GKBMS is "ex post a documentation service" — a role that collapses
if the documentation can be half-written.  This module centralises the
two disciplines every durable artefact in the repo follows:

- **Atomic replace**: data is fully serialised in memory, written to a
  sibling ``*.tmp`` file, fsynced, and only then ``os.replace``d over
  the destination.  A crash at any point leaves either the old file or
  the new file, never a torn mixture (:func:`atomic_write_bytes`).
- **Versioned, checksummed envelopes**: JSON payloads are wrapped in
  ``{"format", "kind", "checksum", "payload"}`` where the checksum is a
  CRC-32 over the canonical (sorted-key, compact) payload encoding.
  :func:`read_checked_json` validates all three and raises a typed
  :class:`~repro.errors.PersistenceError` instead of surfacing raw
  ``JSONDecodeError``/``KeyError`` (:func:`atomic_write_json`).

All filesystem access goes through an :class:`FileIO` object so the
fault-injection harness (:mod:`repro.faults`) can substitute an IO that
tears writes, lies about fsync, or kills the process mid-operation —
the recovery paths are tested against exactly the same code that runs
in production.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Optional, Tuple

from repro.canonical import dumps
from repro.errors import PersistenceError

ENVELOPE_VERSION = 1


def canonical_json(payload: Any) -> bytes:
    """The canonical encoding checksums are computed over: sorted keys,
    compact separators, UTF-8."""
    return dumps(payload).encode("utf-8")


def checksum(data: bytes) -> int:
    """CRC-32 of ``data`` (cheap, catches torn and bit-flipped tails)."""
    return zlib.crc32(data) & 0xFFFFFFFF


class FileIO:
    """Direct filesystem operations — the production IO.

    Every durable-layer component (WAL, snapshots, dump files) calls
    the filesystem only through this interface, so
    :class:`repro.faults.FaultyIO` can wrap it and inject torn writes,
    lying fsyncs and crashes deterministically.
    """

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def size(self, path: str) -> int:
        return os.path.getsize(path)

    def read_bytes(self, path: str) -> bytes:
        with open(path, "rb") as handle:
            return handle.read()

    def open_append(self, path: str):
        return open(path, "ab")

    def open_truncate(self, path: str):
        return open(path, "wb")

    def write(self, handle, data: bytes) -> None:
        handle.write(data)
        handle.flush()

    def fsync(self, handle) -> None:
        os.fsync(handle.fileno())

    def close(self, handle) -> None:
        handle.close()

    def write_bytes(self, path: str, data: bytes) -> None:
        """Write a whole file and fsync it before returning."""
        with open(path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def remove(self, path: str) -> None:
        os.remove(path)

    def truncate(self, path: str, size: int) -> None:
        os.truncate(path, size)


REAL_IO = FileIO()


def atomic_write_bytes(path: str, data: bytes,
                       io: Optional[FileIO] = None) -> None:
    """Write ``data`` to ``path`` via tmp + fsync + ``os.replace``.

    An interruption at any point leaves either the previous file or the
    complete new one — never a truncated mixture.
    """
    io = io if io is not None else REAL_IO
    tmp = path + ".tmp"
    io.write_bytes(tmp, data)
    io.replace(tmp, path)


def encode_envelope(kind: str, payload: Any,
                    version: int = ENVELOPE_VERSION) -> bytes:
    """Serialise ``payload`` inside a versioned, checksummed envelope."""
    envelope = {
        "format": version,
        "kind": kind,
        "checksum": checksum(canonical_json(payload)),
        "payload": payload,
    }
    return json.dumps(envelope, sort_keys=True, indent=1).encode("utf-8")


def atomic_write_json(path: str, kind: str, payload: Any,
                      io: Optional[FileIO] = None) -> None:
    """Atomically write ``payload`` as a checksummed JSON envelope.

    Serialisation happens entirely in memory before any file is
    touched, so an unserialisable payload cannot corrupt an existing
    file (it raises before the tmp file is even created).
    """
    atomic_write_bytes(path, encode_envelope(kind, payload), io=io)


def decode_envelope(data: bytes, kind: str,
                    versions: Tuple[int, ...] = (ENVELOPE_VERSION,),
                    allow_legacy: bool = False) -> Any:
    """Validate and unwrap an envelope produced by :func:`encode_envelope`.

    ``allow_legacy=True`` passes through JSON documents that predate
    the envelope (no ``kind``/``checksum`` keys) unchanged, so readers
    can keep loading files written before the durability layer.
    """
    try:
        document = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"malformed JSON document: {exc}") from None
    if not isinstance(document, dict):
        raise PersistenceError(
            f"expected a JSON object, got {type(document).__name__}"
        )
    if "checksum" not in document or "kind" not in document:
        if allow_legacy:
            return document
        raise PersistenceError(
            "document is not a checksummed envelope (missing kind/checksum)"
        )
    if document["kind"] != kind:
        raise PersistenceError(
            f"wrong document kind {document['kind']!r}, expected {kind!r}"
        )
    if document.get("format") not in versions:
        raise PersistenceError(
            f"unknown format version {document.get('format')!r} "
            f"for {kind!r} (supported: {sorted(versions)})"
        )
    if "payload" not in document:
        raise PersistenceError(f"envelope for {kind!r} is missing its payload")
    payload = document["payload"]
    if document["checksum"] != checksum(canonical_json(payload)):
        raise PersistenceError(
            f"checksum mismatch in {kind!r} envelope (corrupt payload)"
        )
    return payload


def read_checked_json(path: str, kind: str,
                      io: Optional[FileIO] = None,
                      versions: Tuple[int, ...] = (ENVELOPE_VERSION,),
                      allow_legacy: bool = False) -> Any:
    """Read and validate an envelope file; typed errors throughout."""
    io = io if io is not None else REAL_IO
    try:
        data = io.read_bytes(path)
    except OSError as exc:
        raise PersistenceError(f"cannot read {path!r}: {exc}") from None
    return decode_envelope(data, kind, versions=versions,
                           allow_legacy=allow_legacy)
