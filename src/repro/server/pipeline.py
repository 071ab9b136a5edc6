"""The single-writer commit pipeline with group commit.

All mutations of the shared knowledge base funnel through one writer
thread.  Sessions submit their staged operations as a
:class:`PendingCommit` into a bounded queue and block; the writer
drains up to ``max_batch`` commits at a time (waiting up to
``batch_window`` seconds for stragglers), applies each one through the
service's apply callback, and — when the store is a
:class:`~repro.propositions.wal.WalStore` under the ``commit`` fsync
policy — wraps the whole batch in :meth:`WalStore.batch`, so *one*
fsync makes the entire group durable.  Submitters are woken only after
that fsync: a positive acknowledgement always means durable.

Before a commit is applied, its declared write-set keys are validated
first-committer-wins: if any key was committed by another session after
this transaction's pinned ``read_epoch``, the commit is refused with
:class:`~repro.errors.CommitConflict` *without touching the knowledge
base* — a rejected commit consumes no proposition identifiers, so a
single-threaded replay of the accepted commit log reproduces the live
store exactly.

**Acked vs applied.**  A commit is *applied* when its operations have
mutated the in-memory base and been appended to the WAL; it is *acked*
only once the batch's durability scope (the group fsync) has succeeded
and the submitter has been woken with a result.  The pipeline tracks
both: :meth:`commit_log` is the applied log (the oracle the stress
tests replay), :attr:`acked_seq` is the sequence number of the last
commit whose durability was confirmed, and :attr:`durable_offset` is
the WAL byte offset covered by the last successful fsync — the exact
boundary a supervised restart truncates back to, so a commit that was
applied but never acknowledged can never resurrect after recovery.

**Idempotency tokens.**  A submit may carry a client-generated token.
Tokens of acked commits are remembered with their results: re-submitting
the same token returns the recorded result without re-applying, which is
what makes client-side retries of writes safe across connection loss and
supervised restarts.  Tokens are validated against the accepted commit
log, so only commits that actually acked dedupe — a token whose commit
died unacknowledged in a faulted batch is forgotten by recovery (its
effects were truncated away with it) and the retry applies exactly once.

If the durability scope itself fails (an fsync fault raising
:class:`~repro.errors.PersistenceError` on batch exit), the "ack means
durable" promise cannot be kept for anything in that batch: every
submitter in the batch is failed with a typed error and the pipeline is
*poisoned* — all queued and future submits fail fast instead of
building on state that may not survive a restart.  When a supervisor is
attached (:attr:`recoverable`), those errors are the retryable
:class:`~repro.errors.ServerRestarting`; without one they remain plain
:class:`~repro.errors.ServerError` ("restart the server").  Submitters
are always woken, fault or not; nothing ever hangs on a dead writer
thread.
"""

from __future__ import annotations

import queue
import threading
import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.analysis.concurrency.lockdep import make_lock
from repro.errors import (
    CommitConflict,
    ServerError,
    ServerOverloaded,
    ServerRestarting,
)
from repro.obs.metrics import Namespace
from repro.obs.tracing import get_tracer
from repro.propositions.wal import WalStore
from repro.server.session import StagedOp

#: Applies one commit to the knowledge base (held by the service; runs
#: on the writer thread, under the write lock, inside a
#: rollback-on-error transaction).  Receives the whole
#: :class:`PendingCommit` and returns the result dict sent back to the
#: client.
ApplyFn = Callable[["PendingCommit"], Dict[str, Any]]

_STOP = object()

#: Acked idempotency-token results kept before the oldest are evicted
#: (a retry arriving more than this many commits late re-applies; with
#: client retry windows of seconds and eviction by commit count, that
#: would take a pathological client).
MAX_TOKEN_RESULTS = 4096


class PendingCommit:
    """One session's commit, in flight through the pipeline."""

    __slots__ = ("ops", "keys", "read_epoch", "session_id", "token",
                 "enqueued", "done", "result", "error", "seq")

    def __init__(self, ops: List[StagedOp], keys: List[str],
                 read_epoch: Optional[int], session_id: str,
                 token: Optional[str] = None) -> None:
        self.ops = ops
        self.keys = keys
        #: Commit sequence number the transaction read from; ``None``
        #: means an autocommit op reading the live head — those cannot
        #: conflict (there is nothing stale to protect).
        self.read_epoch = read_epoch
        self.session_id = session_id
        #: Client-generated idempotency token (``None`` = not retried).
        self.token = token
        self.enqueued = time.monotonic()
        self.done = threading.Event()
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[BaseException] = None
        self.seq: Optional[int] = None


class CommitPipeline:
    """Bounded queue in, one writer thread out, fsync per batch."""

    def __init__(self, apply: ApplyFn, metrics: Namespace,
                 wal: Optional[WalStore] = None,
                 max_batch: int = 8,
                 batch_window: float = 0.0,
                 max_queue: int = 128,
                 state: Optional[Dict[str, Any]] = None) -> None:
        self._apply = apply
        self._wal = wal
        self._max_batch = max(1, max_batch)
        self._batch_window = max(0.0, batch_window)
        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=max_queue)
        self._log_lock = make_lock("server.pipeline.log_lock")
        #: Applied commits, in apply order: (seq, session_id, ops).
        #: Replaying these into a fresh ConceptBase reproduces the live
        #: knowledge base — the oracle the stress tests check against.
        self._commit_log: List[Tuple[int, str, List[StagedOp]]] = []  # guarded-by: _log_lock
        #: token -> result of the *acked* commit it named.  Retried
        #: submits return this instead of re-applying.
        self._token_results: Dict[str, Dict[str, Any]] = {}  # guarded-by: _log_lock
        #: Sequence number of the last commit whose batch fsync
        #: succeeded (everything at or below is durable and acked).
        self._acked_seq = 0  # guarded-by: _log_lock
        #: Tokens of the commits applied in the current batch and not yet
        #: acked — the writer's double-apply guard until the batch's ack
        #: binds their results.
        self._applied_tokens: Set[str] = set()  # guarded-by: <writer>
        #: key -> commit seq that last wrote it (writer thread only).
        self._last_write: Dict[str, int] = {}  # guarded-by: <writer>
        self._commit_seq = 0  # guarded-by: <writer>
        #: WAL byte offset covered by the last successful group fsync —
        #: a supervised restart truncates the log back to exactly here.
        self._durable_offset: Optional[int] = (
            getattr(wal, "log_offset", None)
        )  # guarded-by: <atomic>
        if state:
            self._commit_seq = int(state.get("commit_seq", 0))
            self._acked_seq = int(state.get("acked_seq", self._commit_seq))
            self._last_write = dict(state.get("last_write", {}))
            self._commit_log = list(state.get("commit_log", []))
            self._token_results = dict(state.get("token_results", {}))
        self._c_committed = metrics.counter("committed")
        self._c_conflicts = metrics.counter("conflicts")
        self._c_errors = metrics.counter("errors")
        self._c_shed = metrics.counter("shed")
        self._c_idempotent = metrics.counter("idempotent_hits")
        self._g_queue = metrics.gauge("queue_depth")
        self._h_batch = metrics.histogram("batch_size")
        self._h_latency = metrics.histogram("latency_ms")
        #: True once a supervisor owns this pipeline's failure mode:
        #: poison errors become the retryable ServerRestarting.
        self.recoverable = False  # guarded-by: <atomic>
        #: Called once, from the writer thread, when a durability fault
        #: poisons the pipeline (the supervisor's wake-up call).
        self._fault_listener: Optional[Callable[[BaseException], None]] = None
        #: Guards the closed-check-and-enqueue in :meth:`submit` against
        #: :meth:`close`, so no commit can ever be queued *behind* the
        #: stop sentinel (it would never be processed).
        self._submit_lock = make_lock("server.pipeline.submit_lock")
        self._closed = False  # guarded-by: _submit_lock
        #: The durability fault that poisoned the pipeline, if any.
        #: Written once by the writer, read racily by submitters — a
        #: late read just means one more commit reaches the queue before
        #: the final sweep fails it.
        self._fault: Optional[BaseException] = None  # guarded-by: <atomic>
        #: Set (before the final queue sweep) when the writer exits, so
        #: a submitter racing the sweep can fail its own commit instead
        #: of waiting on a writer that will never run it.
        self._writer_exited = False  # guarded-by: <atomic>
        self._writer = threading.Thread(
            target=self._run, name="gkbms-commit-writer", daemon=True
        )
        self._writer.start()

    # -- submitter side ----------------------------------------------------

    @property
    def commit_seq(self) -> int:
        """Sequence number of the latest applied commit (0 = none)."""
        return self._commit_seq  # unguarded: racy int read of the head is advisory

    @property
    def acked_seq(self) -> int:
        """Sequence number of the latest durably acknowledged commit."""
        with self._log_lock:
            return self._acked_seq

    @property
    def durable_offset(self) -> Optional[int]:
        """WAL offset of the last confirmed fsync (``None`` = no WAL)."""
        return self._durable_offset  # unguarded: advisory watermark read

    def mark_durable(self, offset: Optional[int]) -> None:
        """Reset the durable watermark after an out-of-band durability
        event — a checkpoint rewrites the log under a new generation, so
        byte offsets restart and the old watermark would point into a
        log that no longer exists."""
        self._durable_offset = offset

    @property
    def fault(self) -> Optional[BaseException]:
        """The durability fault that poisoned the pipeline, if any."""
        return self._fault  # unguarded: written once before poisoning

    @property
    def poisoned(self) -> bool:
        return self._fault is not None

    def set_fault_listener(
        self, listener: Optional[Callable[[BaseException], None]]
    ) -> None:
        """Register the supervisor's poison callback (also marks the
        pipeline recoverable, switching poison errors to the retryable
        :class:`~repro.errors.ServerRestarting`)."""
        self._fault_listener = listener
        self.recoverable = listener is not None

    def commit_log(self) -> List[Tuple[int, str, List[StagedOp]]]:
        """Snapshot of the applied commit log, in apply order."""
        with self._log_lock:
            return list(self._commit_log)

    def acked_log(self) -> List[Tuple[int, str, List[StagedOp]]]:
        """The durably acknowledged prefix of the commit log."""
        with self._log_lock:
            return [
                entry for entry in self._commit_log
                if entry[0] <= self._acked_seq
            ]

    def token_result(self, token: Optional[str]) -> Optional[Dict[str, Any]]:
        """The recorded result of the acked commit named by ``token``,
        or ``None`` — the server-side idempotency check."""
        if token is None:
            return None
        with self._log_lock:
            result = self._token_results.get(token)
            return dict(result) if result is not None else None

    def export_state(self) -> Dict[str, Any]:
        """Everything a successor pipeline needs to continue this one's
        era after a supervised restart: the monotonic sequence head, the
        conflict watermarks, and the *acked* commit log with its token
        results.  Applied-but-unacked commits are deliberately absent —
        the restart truncates their WAL records, so their tokens must
        re-apply."""
        with self._log_lock:
            return {
                # the two writer-confined maps are safe here: export runs
                # only after close() has joined the writer thread
                "commit_seq": self._commit_seq,  # unguarded: writer joined
                "acked_seq": self._acked_seq,
                "last_write": dict(self._last_write),  # unguarded: writer joined
                "commit_log": [
                    entry for entry in self._commit_log
                    if entry[0] <= self._acked_seq
                ],
                "token_results": {
                    token: dict(result)
                    for token, result in self._token_results.items()
                },
            }

    def _poison_error(self, prefix: str) -> ServerError:
        if self.recoverable:
            return ServerRestarting(
                f"{prefix}: {self._fault}; the supervisor is restarting "
                f"the service — retry (idempotency tokens apply exactly "
                f"once)"
            )
        return ServerError(f"{prefix}: {self._fault}; restart the server")

    def submit(self, ops: List[StagedOp], keys: List[str],
               read_epoch: Optional[int], session_id: str,
               token: Optional[str] = None) -> Dict[str, Any]:
        """Enqueue one commit and block until it is durable (or refused).

        A full queue sheds immediately with
        :class:`~repro.errors.ServerOverloaded`; once enqueued, the
        commit always runs to an answer (the bounded queue bounds the
        wait), so an acknowledged submit is never ambiguous.  A token
        that already acked returns its recorded result without touching
        the queue."""
        cached = self.token_result(token)
        if cached is not None:
            self._c_idempotent.inc()
            cached["idempotent"] = True
            return cached
        pending = PendingCommit(ops, keys, read_epoch, session_id, token)
        with self._submit_lock:
            if self._closed:
                raise ServerError("commit pipeline is closed")
            if self._fault is not None:
                raise self._poison_error("commit pipeline failed")
            try:
                self._queue.put_nowait(pending)
            except queue.Full:
                self._c_shed.inc()
                raise ServerOverloaded(
                    f"commit queue full ({self._queue.maxsize} pending)"
                ) from None
        self._g_queue.set(self._queue.qsize())
        if self._writer_exited:
            # We enqueued while the writer was exiting: its final sweep
            # may already have run, so sweep again ourselves — this
            # fails (and wakes) our own commit if it was stranded.
            self._fail_queued(
                ServerError("commit pipeline writer has stopped")
            )
        # Defence in depth: never block forever on an acknowledgement.
        # The writer wakes every submitter even on a durability fault,
        # but if it dies anyway, fail loudly instead of hanging.
        while not pending.done.wait(1.0):
            if not self._writer.is_alive() and not pending.done.wait(1.0):
                raise ServerError(
                    "commit pipeline writer died before acknowledging; "
                    "commit outcome unknown"
                )
        if pending.error is not None:
            raise pending.error
        assert pending.result is not None
        return pending.result

    def close(self, timeout: float = 5.0) -> None:
        """Drain outstanding commits and stop the writer thread."""
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._queue.put(_STOP, timeout=timeout)
        except queue.Full:
            # A dead writer with a full queue: nothing will ever drain
            # it; the sweep below fails the stranded commits instead.
            pass
        self._writer.join(timeout)
        self._fail_queued(ServerError("commit pipeline is closed"))

    # -- writer side -------------------------------------------------------

    def _run(self) -> None:  # runs-on: writer
        try:
            stopping = False
            while not stopping and self._fault is None:
                head = self._queue.get()
                if head is _STOP:
                    break
                batch: List[PendingCommit] = [head]
                stopping = self._fill_batch(batch)
                self._g_queue.set(self._queue.qsize())
                self._process(batch)
        finally:
            # However the writer exits — clean stop, durability fault,
            # or an unexpected error — never strand a submitter: fail
            # whatever is still queued so every done.wait() returns.
            # The flag goes up *before* the sweep: a submitter that
            # enqueues after the sweep will see it and re-sweep itself.
            self._writer_exited = True
            reason: ServerError
            if self._fault is None:
                reason = ServerError(
                    "commit pipeline stopped before this commit ran"
                )
            else:
                reason = self._poison_error("commit pipeline failed")
            self._fail_queued(reason)

    def _fail_queued(self, error: ServerError) -> None:
        """Fail-and-wake every commit still sitting in the queue."""
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is _STOP:
                continue
            item.error = error
            item.done.set()

    def _fill_batch(self, batch: List[PendingCommit]) -> bool:  # runs-on: writer
        """Collect up to ``max_batch`` commits, waiting ``batch_window``
        seconds for stragglers; returns True if the stop sentinel was
        seen while collecting."""
        give_up = time.monotonic() + self._batch_window
        while len(batch) < self._max_batch:
            try:
                if self._batch_window:
                    remaining = give_up - time.monotonic()
                    if remaining <= 0:
                        break
                    item = self._queue.get(timeout=remaining)
                else:
                    item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                return True
            batch.append(item)
        return False

    def _process(self, batch: List[PendingCommit]) -> None:  # runs-on: writer
        fault: Optional[BaseException] = None
        try:
            with get_tracer().span("server.commit", batch=str(len(batch))):
                durability = self._wal.batch() if self._wal is not None \
                    else nullcontext()
                with durability:
                    for pending in batch:
                        self._process_one(pending)
                # The batch scope has forced the WAL: everything below
                # is durable.  Only now may submitters be acknowledged
                # positively.
            self._ack_batch(batch)
        except BaseException as exc:  # noqa: BLE001 - durability fault
            # The batch's durability scope failed (e.g. an injected
            # fsync fault): commits applied in this batch are visible in
            # memory but NOT durable, so none of them may be positively
            # acknowledged.  Fail the whole batch and poison the
            # pipeline — "ack means durable" stays true at the price of
            # refusing all further writes until a restart re-establishes
            # a known-durable state (the supervisor's job when one is
            # attached; it truncates the WAL back to durable_offset, so
            # these commits cannot resurrect half-acked).
            self._fault = exc
            fault = exc
            self._c_errors.inc()
            for pending in batch:
                if pending.error is None:
                    pending.result = None
                    if self.recoverable:
                        pending.error = ServerRestarting(
                            f"commit durability failed: {exc}; the commit "
                            f"was rolled back by the supervised restart — "
                            f"retry with the same idempotency token"
                        )
                    else:
                        pending.error = ServerError(
                            f"commit durability failed: {exc}; this commit "
                            f"may not survive a restart and the pipeline is "
                            f"stopped"
                        )
        finally:
            now = time.monotonic()
            self._h_batch.observe(len(batch))
            for pending in batch:
                self._h_latency.observe((now - pending.enqueued) * 1000.0)
                pending.done.set()
            if fault is not None and self._fault_listener is not None:
                self._fault_listener(fault)

    def _ack_batch(self, batch: List[PendingCommit]) -> None:  # runs-on: writer
        """Advance the acked/durable watermarks and bind tokens — only
        ever called after the batch's durability scope succeeded."""
        if self._wal is not None:
            self._durable_offset = getattr(self._wal, "log_offset", None)
        accepted = [p for p in batch if p.seq is not None]
        if not accepted:
            return
        with self._log_lock:
            self._acked_seq = max(self._acked_seq,
                                  max(p.seq for p in accepted))
            for pending in accepted:
                if pending.token is not None and pending.result is not None:
                    self._token_results[pending.token] = dict(pending.result)
                    self._applied_tokens.discard(pending.token)
            while len(self._token_results) > MAX_TOKEN_RESULTS:
                # dicts iterate in insertion order: drop the oldest ack.
                self._token_results.pop(next(iter(self._token_results)))

    def _process_one(self, pending: PendingCommit) -> None:  # runs-on: writer
        if pending.token is not None:
            # A retry queued before its original acked collects the
            # recorded result; one whose original applied earlier in
            # this batch, and so has not acked, must not apply twice.
            cached = self.token_result(pending.token)
            if cached is not None:
                cached["idempotent"] = True
                self._c_idempotent.inc()
                pending.result = cached
                return
            if pending.token in self._applied_tokens:
                pending.error = ServerError(
                    f"idempotency token {pending.token!r} is already in "
                    f"flight; its outcome is not yet durable — retry"
                )
                return
        try:
            self._validate(pending)
            result = self._apply(pending)
        except Exception as exc:  # noqa: BLE001 - relayed to submitter
            # Clean failures (conflict, consistency, a rolled-back IO
            # error) are this commit's problem alone.  BaseException —
            # a simulated process death mid-apply — deliberately falls
            # through to _process: the in-memory base can no longer be
            # trusted, so the whole pipeline must poison, not just this
            # submitter.
            if isinstance(exc, CommitConflict):
                self._c_conflicts.inc()
            else:
                self._c_errors.inc()
            pending.error = exc
            return
        self._commit_seq += 1
        pending.seq = self._commit_seq
        for key in pending.keys:
            self._last_write[key] = pending.seq
        if pending.token is not None:
            self._applied_tokens.add(pending.token)
        with self._log_lock:
            self._commit_log.append(
                (pending.seq, pending.session_id, list(pending.ops))
            )
        self._c_committed.inc()
        result.setdefault("commit_seq", pending.seq)
        pending.result = result

    def stale_keys(self, keys: List[str],  # runs-on: writer
                   read_epoch: Optional[int]) -> List[str]:
        """The subset of ``keys`` committed after ``read_epoch`` (the
        conflict witness).  Only meaningful on the writer thread, where
        the last-write map cannot move underfoot."""
        if read_epoch is None:
            return []
        return sorted(
            key for key in keys
            if self._last_write.get(key, 0) > read_epoch
        )

    def _validate(self, pending: PendingCommit) -> None:  # runs-on: writer
        """First-committer-wins: refuse the commit if any declared key
        was written after the transaction's pinned read epoch."""
        stale = self.stale_keys(pending.keys, pending.read_epoch)
        if stale:
            raise CommitConflict(
                f"write-set keys {', '.join(stale)} were committed after "
                f"read epoch {pending.read_epoch} "
                f"(head is {self._commit_seq}); retry the transaction"
            )
