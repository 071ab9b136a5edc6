"""A durable physical representation: write-ahead logged propositions.

Section 3.1 gives the proposition base "several physical
representations (e.g. Prolog workspaces, external databases)"; §1 (4)
makes the GKBMS a long-lived *documentation service*.  The in-memory
stores satisfy the first requirement, :class:`WalStore` the second: a
store whose every mutation is appended to an on-disk write-ahead log
*before* success is reported, so the proposition base survives process
death, torn writes and corrupted journal tails.

**Log format.**  A WAL is a sequence of length-prefixed, checksummed
records: 4-byte big-endian payload length, 4-byte CRC-32 of the
payload, then the payload (canonical JSON).  Payloads are one of::

    {"op": "header", "gen": G, "version": 1}   # first record of a log
    {"op": "create", "prop": {...}}            # serialized proposition
    {"op": "delete", "pid": "..."}
    {"op": "clip",   "prop": {...}}            # replace (validity clip)
    {"op": "txn",    "kind": "begin|commit|abort|save|release|rollback"}
    {"op": "decision", "record": {...}}        # ledger entry (see below)
    {"op": "decision_retract", "did": "...", "tick": T}

The two ``decision`` payloads carry the decision-history subsystem
(:mod:`repro.decisions`): a ledger record is appended *inside* the
transaction that applied its proposition delta, so recovery's
transaction buffering makes record-plus-delta atomic — a decision is
either durable together with its consequences or discarded with them.
A decide is a top-level transaction (a nested one is refused), so the
record omits its ``delta``: replay rebuilds it from the ``create``/
``delete``/``clip`` records the same transaction applied before it, so
each change is logged once.  A record that carries ``delta`` (older
logs, nested decides from before the refusal) is still read as it is;
snapshots keep whole records.  Recovered records wait in the store only
until a :class:`~repro.decisions.DecisionHistory` binds it
(:meth:`WalStore.bind_ledger`); its ledger is the one in-memory copy.

**Recovery.**  Opening a store loads the newest *valid* snapshot (the
current one, else the previous — both checksummed envelopes written
atomically), then replays the log on top.  Replay buffers records
between transaction markers so an uncommitted tail — a telling cut off
by a crash — is discarded wholesale, and it *stops* (rather than
raising) at the first torn or checksum-failed record; the log is then
physically truncated back to the last durable boundary so new appends
extend a clean prefix.  A log whose header generation does not match
the snapshot (a crash inside :meth:`checkpoint`) is discarded as stale.
Recovery outcomes land in the store's ``wal.*`` metrics namespace
(``replayed``, ``truncated_tail``, ``checksum_failures``,
``discarded_uncommitted``, ``snapshot_fallbacks``, ``stale_logs``,
``fsyncs``, ...), surfaced dict-style on :attr:`stats`; the owning
:class:`~repro.propositions.processor.PropositionProcessor` shows the
same counters *read-only* on its own ``stats`` view (it used to adopt
the dict by reference, which double-counted closures whenever two
processors shared one store).  Recovery, checkpoint, append and fsync
also run under :mod:`repro.obs.tracing` spans.

**Fsync policy.**  ``"always"`` forces every record, ``"commit"`` (the
default) forces transaction commit/abort boundaries, ``"never"`` leaves
durability to the OS (checkpoint still forces).  Policies only change
*when* the data is forced, never what is written — the Perf-7 benchmark
sweeps the throughput/durability trade-off.

All file access goes through :class:`~repro.atomicio.FileIO`, so the
fault-injection harness (:mod:`repro.faults`) can tear writes and kill
the "process" at any operation while exercising exactly this code.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.atomicio import (
    FileIO,
    REAL_IO,
    atomic_write_json,
    canonical_json,
    checksum,
    read_checked_json,
)
from repro.errors import PersistenceError, PropositionError
from repro.obs.metrics import MetricsRegistry, StatsView
from repro.obs.tracing import get_tracer
from repro.propositions.proposition import Pattern, Proposition
from repro.propositions.store import MemoryStore, PropositionStore

_RECORD_HEADER = struct.Struct(">II")  # payload length, CRC-32
_MAX_RECORD = 1 << 26  # 64 MiB: anything larger is a corrupt length field

WAL_VERSION = 1
SNAPSHOT_KIND = "wal-snapshot"

FSYNC_POLICIES = ("always", "commit", "never")


def encode_record(payload: Dict[str, Any]) -> bytes:
    """One length-prefixed, checksummed log record."""
    body = canonical_json(payload)
    return _RECORD_HEADER.pack(len(body), checksum(body)) + body


def scan_records(data: bytes) -> Tuple[List[Tuple[int, Dict[str, Any]]], int, str]:
    """Decode a log image into ``(end_offset, payload)`` pairs.

    Stops at the first torn or checksum-failed record and reports how:
    returns ``(records, valid_offset, corruption)`` where ``corruption``
    is ``""`` (clean end), ``"torn"`` (short header/body or absurd
    length) or ``"checksum"`` (CRC mismatch).
    """
    records: List[Tuple[int, Dict[str, Any]]] = []
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _RECORD_HEADER.size > total:
            return records, offset, "torn"
        length, crc = _RECORD_HEADER.unpack_from(data, offset)
        if length > _MAX_RECORD:
            return records, offset, "torn"
        body_start = offset + _RECORD_HEADER.size
        body_end = body_start + length
        if body_end > total:
            return records, offset, "torn"
        body = data[body_start:body_end]
        if checksum(body) != crc:
            return records, offset, "checksum"
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return records, offset, "checksum"
        records.append((body_end, payload))
        offset = body_end
    return records, offset, ""


class _WalBatch:
    """Context manager for :meth:`WalStore.batch` (group commit)."""

    __slots__ = ("_store",)

    def __init__(self, store: "WalStore") -> None:
        self._store = store

    def __enter__(self) -> "_WalBatch":
        self._store._batch_enter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._store._batch_exit()
        return False


class WalStore(PropositionStore):
    """Write-ahead logged proposition store with crash recovery.

    State lives in an internal :class:`MemoryStore` (reads are as fast
    as the default store); every mutation is mirrored into the log.  A
    clean write failure (``OSError``) rolls the in-memory change back
    and raises :class:`~repro.errors.PersistenceError`, so memory and
    disk never diverge on a survivable error.
    """

    #: Durability / recovery counter names (the ``wal.*`` namespace).
    COUNTERS = (
        "replayed", "truncated_tail", "checksum_failures",
        "discarded_uncommitted", "replay_errors", "snapshot_fallbacks",
        "stale_logs", "fsyncs", "wal_records", "checkpoints",
        "group_batches", "deferred_fsyncs",
    )

    def __init__(self, path: str, fsync: str = "commit",
                 io: Optional[FileIO] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        if fsync not in FSYNC_POLICIES:
            raise PersistenceError(
                f"unknown fsync policy {fsync!r} (choose from {FSYNC_POLICIES})"
            )
        self._path = str(path)
        self._fsync_policy = fsync
        self._io = io if io is not None else REAL_IO
        self.registry = registry if registry is not None else MetricsRegistry()
        # The WAL itself is single-writer: in the service every mutation
        # arrives on the commit pipeline's writer thread (reads of the
        # in-memory state go through the serving rwlock above it), so
        # mutable log state is writer-confined rather than locked.
        self._state = MemoryStore(registry=self.registry)  # guarded-by: external: GKBMSService._rwlock
        self._generation = 0            # guarded-by: <writer>
        self._txn_depth = 0             # guarded-by: <writer>
        self._log_offset = 0            # guarded-by: <writer>
        self._handle = None             # guarded-by: <writer>
        self._records_at_checkpoint = 0  # guarded-by: <writer>
        self._batch_depth = 0           # guarded-by: <writer>
        self._force_pending = False     # guarded-by: <writer>
        # Recovery and durability counters live in this store's own
        # registry namespace.  The owning processor surfaces them
        # *read-only* on its ``stats`` view — it no longer adopts the
        # dict itself, so reopening a processor (or opening two) never
        # mixes closure counters into durability counters again.
        self._metrics = self.registry.namespace("wal")
        self._c = {name: self._metrics.counter(name) for name in self.COUNTERS}
        #: Dict-compatible view over the ``wal.*`` counters.
        self.stats: StatsView = StatsView(self._metrics)
        #: Decision records recovered from snapshot and log, did ->
        #: record in append order; held only until :meth:`bind_ledger`.
        self._recovered: Dict[str, Dict[str, Any]] = {}  # guarded-by: <writer>
        self._ledger_source = None  # guarded-by: <writer>
        self._recover()

    def reset_stats(self) -> None:
        """Zero the durability counters (benchmarks should snapshot via
        ``stats.snapshot()`` instead of mutating live counters)."""
        self.stats.reset()

    # ------------------------------------------------------------------
    # Paths and low-level log IO
    # ------------------------------------------------------------------

    @property
    def path(self) -> str:
        return self._path

    @property
    def snapshot_path(self) -> str:
        return self._path + ".snapshot"

    @property
    def previous_snapshot_path(self) -> str:
        return self._path + ".snapshot.prev"

    @property
    def log_offset(self) -> int:
        """Bytes successfully appended to the log so far."""
        return self._log_offset  # unguarded: advisory progress read

    @property
    def generation(self) -> int:
        """Checkpoint generation (bumped by every :meth:`checkpoint`)."""
        return self._generation  # unguarded: advisory progress read

    @property
    def fsync_policy(self) -> str:
        return self._fsync_policy

    def _append(self, payload: Dict[str, Any],  # runs-on: writer
                force: bool = False) -> None:
        data = encode_record(payload)
        with get_tracer().span("wal.append", op=payload.get("op"),
                               bytes=len(data)):
            try:
                self._io.write(self._handle, data)
            except OSError as exc:
                raise PersistenceError(
                    f"WAL append failed on {self._path!r}: {exc}"
                ) from exc
            self._log_offset += len(data)
            self._c["wal_records"].inc()
            if self._fsync_policy == "always":
                # "always" is a per-record promise; group batching never
                # weakens it.
                self._force()
            elif force:
                if self._batch_depth:
                    self._force_pending = True
                    self._c["deferred_fsyncs"].inc()
                else:
                    self._force()

    def batch(self) -> "_WalBatch":
        """Group-commit scope: ``with store.batch(): ...``.

        Inside the scope, forces that the ``commit`` policy would issue
        at transaction boundaries are *deferred*; leaving the scope
        issues at most one fsync covering every record appended inside
        it.  This is how the service layer's commit pipeline turns N
        session commits into one fsync.  The ``always`` policy is
        unaffected (its per-record promise stands), and ``never`` still
        never forces.  Nesting is allowed; only the outermost exit
        forces.
        """
        return _WalBatch(self)

    def _batch_enter(self) -> None:  # runs-on: writer
        self._batch_depth += 1

    def _batch_exit(self) -> None:  # runs-on: writer
        self._batch_depth -= 1
        if self._batch_depth == 0:
            if self._force_pending:
                self._force_pending = False
                self._force()
            self._c["group_batches"].inc()

    def _force(self) -> None:  # runs-on: writer
        with get_tracer().span("wal.fsync"):
            try:
                self._io.fsync(self._handle)
            except OSError as exc:
                raise PersistenceError(
                    f"WAL fsync failed on {self._path!r}: {exc}"
                ) from exc
            self._c["fsyncs"].inc()

    def _start_log(self, generation: int) -> None:  # runs-on: writer
        """Truncate the log and write a fresh header for ``generation``."""
        if self._handle is not None:
            self._io.close(self._handle)
        self._handle = self._io.open_truncate(self._path)
        self._log_offset = 0
        self._append(
            {"op": "header", "gen": generation, "version": WAL_VERSION},
            force=self._fsync_policy != "never",
        )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _load_snapshot(self) -> int:  # runs-on: writer
        """Load the newest valid snapshot into state; return its
        generation (0 when starting empty)."""
        for fallback, path in enumerate(
            (self.snapshot_path, self.previous_snapshot_path)
        ):
            if not self._io.exists(path):
                continue
            try:
                payload = read_checked_json(path, SNAPSHOT_KIND, io=self._io)
            except PersistenceError:
                self._c["checksum_failures"].inc()
                continue
            from repro.propositions.serialization import proposition_from_json

            try:
                generation = int(payload["generation"])
                props = [proposition_from_json(item)
                         for item in payload["propositions"]]
                # Older snapshots predate the decision ledger.
                decisions = {item["did"]: dict(item)
                             for item in payload.get("decisions") or []}
            except (KeyError, TypeError, ValueError, PropositionError):
                self._c["checksum_failures"].inc()
                continue
            if fallback:
                self._c["snapshot_fallbacks"].inc()
            for prop in props:
                self._state.create(prop)
            # Replay's index: a logged retraction may name one of these.
            self._recovered = decisions
            return generation
        return 0

    def _apply(self, record: Dict[str, Any],  # runs-on: writer
               delta: List[List[Any]]) -> None:
        """Apply one replayed record; ``delta`` gathers its committed
        transaction's changes for a ``decision`` logged without one."""
        from repro.propositions.serialization import (
            proposition_from_json, proposition_to_json)

        op = record.get("op")
        if op == "create":
            self._state.create(proposition_from_json(record["prop"]))
            delta.append(["create", record["prop"]])
        elif op == "delete":
            old = self._state.delete(record["pid"])
            delta.append(["delete", proposition_to_json(old)])
        elif op == "clip":
            prop = proposition_from_json(record["prop"])
            old = self._state.delete(prop.pid)
            self._state.create(prop)
            delta.append(["clip", proposition_to_json(old), record["prop"]])
        elif op == "decision":
            item = dict(record["record"])
            item.setdefault("delta", list(delta))
            self._recovered[item["did"]] = item
        elif op == "decision_retract":
            item = self._recovered[record["did"]]
            item["status"] = "retracted"
            item["retracted_tick"] = record.get("tick")
        else:
            raise PropositionError(f"unknown WAL op {op!r}")

    def _replay(self, records: List[Tuple[int, Dict[str, Any]]],
                header_end: int) -> int:
        """Apply records with transaction buffering; returns the offset
        of the last durable boundary (end of the last record applied or
        discarded at top level)."""
        stack: List[List[Dict[str, Any]]] = []
        applied_offset = header_end
        for end_offset, record in records:
            op = record.get("op")
            if op == "header":
                applied_offset = end_offset
                continue
            if op == "txn":
                kind = record.get("kind")
                if kind in ("begin", "save"):
                    stack.append([])
                elif kind in ("commit", "release"):
                    if stack:
                        buffered = stack.pop()
                        if stack:
                            stack[-1].extend(buffered)
                        else:
                            delta: List[List[Any]] = []
                            for item in buffered:
                                self._apply_counted(item, delta)
                    if not stack:
                        applied_offset = end_offset
                elif kind in ("abort", "rollback"):
                    if stack:
                        stack.pop()
                    if not stack:
                        applied_offset = end_offset
                continue
            if stack:
                stack[-1].append(record)
            else:
                self._apply_counted(record, [])
                applied_offset = end_offset
        self._c["discarded_uncommitted"].inc(sum(len(b) for b in stack))
        return applied_offset

    def _apply_counted(self, record: Dict[str, Any],
                       delta: List[List[Any]]) -> None:
        try:
            self._apply(record, delta)
        except (PropositionError, KeyError, TypeError):
            self._c["replay_errors"].inc()
        else:
            self._c["replayed"].inc()

    # ------------------------------------------------------------------
    # The decision ledger (repro.decisions rides the same log)
    # ------------------------------------------------------------------

    def bind_ledger(  # runs-on: writer
            self, source: Callable[[], List[Dict[str, Any]]]
    ) -> List[Dict[str, Any]]:
        """Hand the recovered decision records to the one in-memory
        ledger, once; :meth:`checkpoint` reads it back via ``source``.
        A second ledger would start empty and lose the first's."""
        if self._ledger_source is not None:
            raise PersistenceError(
                f"WAL {self._path!r} already has a decision ledger bound"
            )
        self._ledger_source = source
        recovered, self._recovered = list(self._recovered.values()), {}
        return recovered

    def append_decision(self, record: Dict[str, Any]) -> None:  # runs-on: writer
        """Log one decision-ledger record (JSON-serializable dict).

        Called *inside* the transaction that applied the decision's
        proposition delta, so the txn buffering in :meth:`_replay` makes
        the pair atomic across a crash.  A decide runs only top-level
        (nested ones are refused), where the delta is exactly the
        transaction's own physical records, so it is not logged again."""
        if self._txn_depth == 1:
            record = {k: v for k, v in record.items() if k != "delta"}
        self._append({"op": "decision", "record": record})

    def append_decision_retract(self, did: str, tick: Any) -> None:  # runs-on: writer
        """Log a decision retraction (selective backtracking)."""
        self._append({"op": "decision_retract", "did": did, "tick": tick})

    def _recover(self) -> None:  # runs-on: writer
        with get_tracer().span("wal.recover", path=self._path) as span:
            self._do_recover()
            span.set(replayed=self._c["replayed"].value,
                     truncated_tail=self._c["truncated_tail"].value,
                     generation=self._generation)

    def _do_recover(self) -> None:  # runs-on: writer
        self._generation = self._load_snapshot()
        if not self._io.exists(self._path):
            self._start_log(self._generation)
            return
        data = self._io.read_bytes(self._path)
        records, valid_offset, corruption = scan_records(data)
        if corruption == "torn":
            self._c["truncated_tail"].inc()
        elif corruption == "checksum":
            self._c["truncated_tail"].inc()
            self._c["checksum_failures"].inc()
        if not records:
            # Empty or unreadable-from-the-start log: restart it.
            self._start_log(self._generation)
            return
        first = records[0][1]
        has_header = first.get("op") == "header"
        log_generation = first.get("gen", 0) if has_header else 0
        if log_generation != self._generation:
            # A crash inside checkpoint(): the snapshot already contains
            # everything this stale log described.  Discard it.
            self._c["stale_logs"].inc()
            self._start_log(self._generation)
            return
        applied_offset = self._replay(records, records[0][0] if has_header else 0)
        if applied_offset < len(data):
            # Drop the torn/uncommitted tail physically so future
            # appends extend a clean, fully-durable prefix.
            self._io.truncate(self._path, applied_offset)
        self._handle = self._io.open_append(self._path)
        self._log_offset = applied_offset

    # ------------------------------------------------------------------
    # Checkpoint / compaction
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:  # runs-on: writer
        """Fold the log into an atomic snapshot; returns records dropped.

        Ordering is crash-safe at every step: the previous snapshot is
        rotated aside first, the new one is written atomically, and only
        then is the log reset under a new generation.  A crash between
        snapshot and log reset leaves a *stale* log (older generation)
        that recovery discards, because the snapshot already covers it.
        """
        dropped = self._c["wal_records"].value - self._records_at_checkpoint
        new_generation = self._generation + 1
        source = self._ledger_source
        with get_tracer().span("wal.checkpoint", generation=new_generation,
                               dropped=dropped):
            payload = {
                "generation": new_generation,
                "propositions": [
                    json.loads(row) for row in self.rows()
                ],
                "decisions": (source() if source is not None
                              else list(self._recovered.values())),
            }
            try:
                if self._io.exists(self.snapshot_path):
                    self._io.replace(self.snapshot_path,
                                     self.previous_snapshot_path)
                atomic_write_json(self.snapshot_path, SNAPSHOT_KIND, payload,
                                  io=self._io)
            except OSError as exc:
                raise PersistenceError(f"checkpoint failed: {exc}") from exc
            self._generation = new_generation
            self._start_log(new_generation)
            self._c["checkpoints"].inc()
            self._records_at_checkpoint = self._c["wal_records"].value
        return dropped

    def close(self) -> None:  # runs-on: writer
        """Force and release the log handle."""
        if self._handle is not None:
            if self._fsync_policy != "never":
                self._force()
            self._io.close(self._handle)
            self._handle = None

    # ------------------------------------------------------------------
    # Transaction markers (driven by the proposition processor)
    # ------------------------------------------------------------------

    def txn(self, kind: str) -> None:  # runs-on: writer
        """Record a transaction boundary.

        ``begin``/``save`` open a (nested) unit, ``commit``/``release``
        close one, ``abort``/``rollback`` discard one.  Under the
        ``commit`` fsync policy the outermost commit/abort forces the
        log, making the whole telling durable at once.
        """
        if kind in ("begin", "save"):
            self._append({"op": "txn", "kind": kind})
            self._txn_depth += 1
            return
        if kind not in ("commit", "release", "abort", "rollback"):
            raise PropositionError(f"unknown transaction marker {kind!r}")
        self._txn_depth = max(0, self._txn_depth - 1)
        force = (
            self._txn_depth == 0
            and kind in ("commit", "abort")
            and self._fsync_policy == "commit"
        )
        self._append({"op": "txn", "kind": kind}, force=force)

    # ------------------------------------------------------------------
    # Store interface
    # ------------------------------------------------------------------

    @property
    def visibility_epoch(self) -> int:
        return 0

    def create(self, prop: Proposition) -> None:
        """Store and log; a clean log failure undoes the memory change."""
        from repro.propositions.serialization import proposition_to_json

        self._state.create(prop)
        try:
            self._append({"op": "create", "prop": proposition_to_json(prop)})
        except PersistenceError:
            self._state.delete(prop.pid)
            raise

    def delete(self, pid: str) -> Proposition:
        """Remove and log; a clean log failure undoes the memory change."""
        prop = self._state.delete(pid)
        try:
            self._append({"op": "delete", "pid": pid})
        except PersistenceError:
            self._state.create(prop)
            raise
        return prop

    def replace(self, prop: Proposition) -> Proposition:
        """Swap in place, logged as a single ``clip`` record."""
        from repro.propositions.serialization import proposition_to_json

        old = self._state.delete(prop.pid)
        self._state.create(prop)
        try:
            self._append({"op": "clip", "prop": proposition_to_json(prop)})
        except PersistenceError:
            self._state.delete(prop.pid)
            self._state.create(old)
            raise
        return old

    def get(self, pid: str) -> Proposition:
        return self._state.get(pid)

    def retrieve(self, pattern: Pattern) -> Iterator[Proposition]:
        return self._state.retrieve(pattern)

    def __len__(self) -> int:
        return len(self._state)

    def __iter__(self) -> Iterator[Proposition]:
        return iter(self._state)
