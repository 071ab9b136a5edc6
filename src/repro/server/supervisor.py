"""Supervised recovery: restart the service tier after a durability fault.

A durability fault — an fsync that raises, a disk that lied, a torn
batch — poisons the :class:`~repro.server.pipeline.CommitPipeline`:
"ack means durable" cannot be promised on top of state that may not
survive, so the pipeline refuses all further writes.  Without help that
is terminal.  :class:`ServiceSupervisor` is the help: it listens for
the poison, then runs the same recovery a process reboot would, in
place, while readers keep their typed errors instead of hung sockets:

1. **Quiesce** — the service flips to ``restarting`` (every request but
   ``ping`` fails fast with the retryable
   :class:`~repro.errors.ServerRestarting`), open transactions lose
   their staging (their pinned epochs cannot survive the rebuild), and
   the poisoned pipeline is closed, failing anything still queued.
2. **Re-establish durability** — the WAL file is truncated back to the
   pipeline's *durable watermark*: the byte offset covered by the last
   honest group fsync.  Everything at or below it was acknowledged;
   everything above it was applied-but-unacked (its submitters got a
   typed failure), so cutting it off is what makes "no unacked commit
   survives" true rather than aspirational.
3. **Rebuild** — a fresh :class:`~repro.propositions.wal.WalStore` is
   opened over clean IO (recovery replay, snapshot fallback and tail
   truncation all run here), a fresh
   :class:`~repro.conceptbase.ConceptBase` is built over it, and a
   successor pipeline is seeded with the predecessor's exported state:
   the monotonic commit sequence, the conflict watermarks, and the
   acked commit log with its idempotency-token results — so a client
   retrying a commit whose ack was lost in the fault gets exactly-once.
   A memory-backed service has no log to reopen: the service rebuilds
   its fresh base by replaying the acked commit log, decisions
   included.
4. **Resume** — the service swaps the pair in under the write lock and
   serves again.  Mean time to recovery lands in
   ``server.supervisor.mttr_ms``.

Restarts are budgeted: a sliding window caps how many the supervisor
will attempt (each after a seeded, jittered exponential backoff); a
crash loop that exhausts the budget degrades the service to
*read-only* — reads serve the last recovered state, writes get the
typed :class:`~repro.errors.ServerReadOnly` — instead of flapping.

The supervisor deliberately catches ``BaseException`` around the old
store's teardown and the rebuild: a simulated process death
(:class:`~repro.faults.CrashPoint`) must not kill the supervisor
thread, because the supervisor *is* the reboot — it is the one piece of
the system modelled as living outside the crashed process.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Optional

from repro.atomicio import REAL_IO
from repro.conceptbase import ConceptBase
from repro.propositions.wal import WalStore


class ServiceSupervisor:
    """Watches one :class:`~repro.server.service.GKBMSService`, restarts
    it through WAL recovery when its pipeline poisons, and degrades to
    read-only when restarts themselves keep failing."""

    #: status gauge values (``server.supervisor.state``)
    _STATE = {"serving": 0, "restarting": 1, "read_only": 2}

    def __init__(self, service: "Any", *,
                 max_restarts: int = 5,
                 window: float = 60.0,
                 backoff_base: float = 0.02,
                 backoff_cap: float = 1.0,
                 seed: int = 0,
                 clock=time.monotonic,
                 sleep=time.sleep) -> None:
        self.service = service
        self.max_restarts = max_restarts
        self.window = window
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._rng = random.Random(seed)
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        #: monotonic timestamps of recent restart attempts
        self._attempts: Deque[float] = deque()  # guarded-by: _lock
        self._recovering = False  # guarded-by: _lock
        self._thread: Optional[threading.Thread] = None  # guarded-by: _lock
        ns = service.registry.namespace("server").namespace("supervisor")
        self._c_faults = ns.counter("faults")
        self._c_restarts = ns.counter("restarts")
        self._c_recovered = ns.counter("recoveries")
        self._c_failed = ns.counter("failed_recoveries")
        self._c_degraded = ns.counter("read_only_degrades")
        self._h_mttr = ns.histogram("mttr_ms")
        self._g_state = ns.gauge("state")
        self._g_state.set(0)
        service.set_fault_listener(self._on_fault)

    # ------------------------------------------------------------------

    def _on_fault(self, fault: BaseException) -> None:
        """Pipeline poison callback (runs on the dying writer thread):
        hand off to a dedicated recovery thread and return — the writer
        still has submitters to wake."""
        self._c_faults.inc()
        with self._lock:
            if self._recovering:
                return
            self._recovering = True
            self._thread = threading.Thread(
                target=self._recover, args=(fault,),
                name="gkbms-supervisor", daemon=True,
            )
            self._thread.start()

    def join(self, timeout: float = 30.0) -> None:
        """Wait for an in-progress recovery to finish (tests/benches)."""
        with self._lock:
            thread = self._thread
        if thread is not None:
            thread.join(timeout)

    # ------------------------------------------------------------------

    def _budget_exhausted(self, now: float) -> bool:  # holds: _lock
        while self._attempts and now - self._attempts[0] > self.window:
            self._attempts.popleft()
        return len(self._attempts) >= self.max_restarts

    def _backoff(self, attempt_no: int) -> float:
        """Seeded jittered-exponential delay before restart ``n``."""
        raw = min(self._backoff_cap, self._backoff_base * (2 ** attempt_no))
        return raw * (0.5 + self._rng.random() / 2.0)

    def _recover(self, fault: BaseException) -> None:
        started = self._clock()
        service = self.service
        service.begin_restart()
        self._g_state.set(self._STATE["restarting"])
        attempt_no = 0
        while True:
            now = self._clock()
            with self._lock:
                if self._budget_exhausted(now):
                    break
                self._attempts.append(now)
            self._c_restarts.inc()
            self._sleep(self._backoff(attempt_no))
            attempt_no += 1
            try:
                self._restart_once()
            except BaseException:  # noqa: BLE001 - see module docstring
                # The rebuild itself died (possibly a CrashPoint from a
                # still-faulty IO, possibly corrupt state).  The
                # supervisor survives the simulated death and consults
                # its budget for another attempt.
                self._c_failed.inc()
                continue
            self._c_recovered.inc()
            self._h_mttr.observe((self._clock() - started) * 1000.0)
            self._g_state.set(self._STATE["serving"])
            with self._lock:
                self._recovering = False
            return
        # Budget exhausted: crash loop.  Stop flapping; keep serving
        # reads from whatever state the last (partial) recovery left.
        self._c_degraded.inc()
        service.degrade_read_only()
        self._g_state.set(self._STATE["read_only"])
        with self._lock:
            self._recovering = False

    def _restart_once(self) -> None:
        """One full quiesce→truncate→replay→rebuild→resume cycle."""
        service = self.service
        old_pipeline = service.pipeline
        try:
            old_pipeline.close(timeout=5.0)
        except BaseException:  # noqa: BLE001 - dying writer may re-raise
            pass
        state: Dict[str, Any] = old_pipeline.export_state()
        durable = old_pipeline.durable_offset
        old_store = service.cb.propositions.store
        if not isinstance(old_store, WalStore):
            # Memory-backed service: nothing on disk to recover; the
            # service rebuilds the fresh base from the acked commit log.
            cb = ConceptBase(store=None, registry=service.registry)
            service.complete_restart(cb, state)
            return
        path = old_store.path
        policy = old_store.fsync_policy
        try:
            # The old handle belongs to the "crashed process"; its IO
            # may be a FaultyIO that raises CrashPoint on any touch.
            old_store.close()
        except BaseException:  # noqa: BLE001 - simulated dead process
            pass
        if durable is not None and REAL_IO.exists(path) \
                and REAL_IO.size(path) > durable:
            # Cut the log back to the last honest fsync: applied but
            # unacknowledged commits must not resurrect.
            REAL_IO.truncate(path, durable)
        store = WalStore(
            path, fsync=policy, io=REAL_IO, registry=service.registry,
        )
        cb = ConceptBase(store=store, registry=service.registry)
        service.complete_restart(cb, state)


__all__ = ["ServiceSupervisor"]
