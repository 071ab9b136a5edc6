"""Server-level chaos: seeded faults under live load, with an oracle.

PR 3 proved the *storage* layer crash-safe by sweeping
:class:`~repro.faults.FaultPlan` kill points over single-threaded
workloads.  This module drives the same fault machinery into a live
:class:`~repro.server.service.GKBMSService` while a
:class:`~repro.scenario.workload.ConcurrentLoadGenerator` hammers it,
then holds the recovered store against the **accepted-commit-log
oracle**: replaying the durably *acknowledged* commits into a fresh
base must reproduce the recovered ``rows()`` exactly — every acked
commit survives, no unacked commit is visible.

**The fault matrix** (:data:`FAULT_KINDS`):

- ``writer_kill`` — the process dies mid-batch on the commit writer
  (a torn write on the WAL tail included);
- ``checkpoint_crash`` — the process dies inside
  :meth:`~repro.propositions.wal.WalStore.checkpoint` while load runs;
- ``fsync_fault`` — an fsync raises cleanly (EIO-style), poisoning the
  pipeline without killing the process;
- ``torn_tail`` — like ``writer_kill``, but the power cut leaves a
  torn fragment of the in-flight record on the log for recovery's
  tail-truncation path to chew through;
- ``client_drop`` — a TCP client vanishes mid-commit without reading
  its ack, then retries the same idempotency token from a fresh
  connection (the exactly-once check);
- ``lying_fsync`` — the disk starts acknowledging fsyncs it never
  performs; acked durability is *physically impossible* from that
  point, so the oracle weakens to prefix consistency: the recovered
  state must equal a replay of ``acked[:k]`` for some ``k``, and the
  report quantifies the loss instead of pretending there is none.

**The power-cut model.**  In-process, "crash" cannot lose the OS page
cache the way pulled power does — bytes written but never fsynced are
still in the file.  :class:`PowerCutIO` therefore tracks, per log
file, the written length and the *durable* length (advanced only by
honest fsyncs); :meth:`PowerCutIO.powercut` then truncates the log to
the durable watermark at "reboot".  Because the pipeline acknowledges
strictly after the batch fsync, durable == acked exactly, which is
what makes the strict oracle achievable rather than aspirational.  The
``torn_tail`` kind keeps a sub-header-sized fragment of the unsynced
tail (< 8 bytes, so it can never parse as a whole record) to force the
recovery path that physically truncates garbage.

**Determinism.**  Fault *choice* (kind, trigger commit count, op
offsets, torn lengths) is fully seeded; the exact interleaving with
live worker threads is not bit-reproducible — so verification is
invariant-based (the oracle above), never golden-output-based, and any
seed must pass.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from random import Random
from typing import Any, Dict, List, Optional, Tuple

from repro.atomicio import REAL_IO
from repro.conceptbase import ConceptBase
from repro.decisions import DecisionHistory
from repro.faults import FaultPlan, FaultyIO
from repro.obs.metrics import MetricsRegistry
from repro.propositions.wal import WalStore
from repro.scenario.workload import ConcurrentLoadGenerator, LoadStats
from repro.server.client import (
    LocalClient,
    PipelinedTCPClient,
    RetryPolicy,
    TCPClient,
)
from repro.server.protocol import encode_frame
from repro.server.service import GKBMSService, apply_ops
from repro.server.supervisor import ServiceSupervisor
from repro.server.tcp import AsyncGKBMSServer, GKBMSServer

#: The server-level fault matrix (≥5 kinds; CI shards sweep seeds).
FAULT_KINDS = (
    "writer_kill",
    "checkpoint_crash",
    "fsync_fault",
    "torn_tail",
    "client_drop",
    "lying_fsync",
)

#: Kinds whose oracle is strict equality with the full acked log
#: (``lying_fsync`` is the documented exception — see module docstring).
STRICT_KINDS = tuple(k for k in FAULT_KINDS if k != "lying_fsync")


class PowerCutIO(FaultyIO):
    """A :class:`~repro.faults.FaultyIO` that can also lose power.

    Tracks written vs durable byte counts for every file opened through
    the append/truncate paths (the WAL log); :meth:`powercut` then
    rewinds each file to what an actual power cut would have preserved:
    the last honestly-fsynced prefix.
    """

    def __init__(self, plan: FaultPlan) -> None:
        super().__init__(plan=plan)
        self._paths: Dict[int, str] = {}
        self._written: Dict[str, int] = {}
        self._durable: Dict[str, int] = {}

    # -- handle/offset tracking --------------------------------------------

    def open_append(self, path: str):
        handle = super().open_append(path)
        size = self.real.size(path) if self.real.exists(path) else 0
        self._paths[id(handle)] = path
        self._written.setdefault(path, size)
        self._durable.setdefault(path, size)
        return handle

    def open_truncate(self, path: str):
        handle = super().open_truncate(path)
        self._paths[id(handle)] = path
        self._written[path] = 0
        self._durable[path] = 0
        return handle

    def write(self, handle, data: bytes) -> None:
        path = self._paths.get(id(handle))
        super().write(handle, data)  # may tear and raise CrashPoint
        if path is not None:
            self._written[path] = self._written.get(path, 0) + len(data)

    def fsync(self, handle) -> None:
        op_after = self.ops + 1  # the index _tick() will assign
        super().fsync(handle)  # may crash, fail, or silently lie
        path = self._paths.get(id(handle))
        if path is not None and not self.plan.lies_at(op_after):
            self._durable[path] = self._written.get(path, 0)

    # -- the reboot --------------------------------------------------------

    def durable_len(self, path: str) -> int:
        return self._durable.get(path, 0)

    def powercut(self, keep_torn_tail: bool = False) -> Dict[str, int]:
        """Truncate every tracked log to its durable watermark; returns
        bytes lost per path.  ``keep_torn_tail`` leaves a seeded, sub-
        header-sized fragment of the unsynced tail behind — guaranteed
        unparseable, so recovery must truncate it physically."""
        rng = Random(self.plan.seed ^ 0x5C4A05)
        lost: Dict[str, int] = {}
        for path, durable in self._durable.items():
            if not self.real.exists(path):
                continue
            size = self.real.size(path)
            keep = durable
            if keep_torn_tail and size > durable:
                keep = durable + min(size - durable, rng.randrange(1, 8))
            if size > keep:
                self.real.truncate(path, keep)
            lost[path] = max(0, size - durable)
        return lost


# ----------------------------------------------------------------------
# The accepted-commit-log oracle
# ----------------------------------------------------------------------


def replay_commit_log(
    commit_log: List[Tuple[int, str, List[Tuple[str, str]]]]
) -> ConceptBase:
    """Replay accepted commits, in order, into a fresh in-memory base.

    Single-threaded replay of the accepted log is the service tier's
    correctness oracle: the pipeline refuses conflicting commits
    *before* apply, so the log is exactly the history that executed.
    Commits replay through the service's own apply path, so decision
    ids and ticks — functions of the op sequence — come out identical."""
    cb = ConceptBase()
    decisions = DecisionHistory(cb)
    for _seq, _sid, ops in commit_log:
        if ops and ops[0][0] == "checkpoint":
            continue  # durability housekeeping; no logical effect
        apply_ops(cb, decisions, ops)
    return cb


def oracle_prefix(
    rows: Tuple[str, ...],
    acked_log: List[Tuple[int, str, List[Tuple[str, str]]]],
) -> Optional[int]:
    """The largest ``k`` with ``rows == replay(acked_log[:k]).rows()``,
    or ``None`` if no prefix matches (true corruption).

    A fully-recovered store yields ``k == len(acked_log)``; a lying
    disk yields some smaller ``k`` (quantified loss); ``None`` means
    the recovered state is not any accepted history at all."""
    cb = ConceptBase()
    decisions = DecisionHistory(cb)
    match: Optional[int] = None
    if rows == cb.propositions.store.rows():
        match = 0
    for index, (_seq, _sid, ops) in enumerate(acked_log):
        if ops and ops[0][0] == "checkpoint":
            if match == index:
                match = index + 1
            continue
        apply_ops(cb, decisions, ops)
        if rows == cb.propositions.store.rows():
            match = index + 1
    return match


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------


@dataclass
class ChaosReport:
    """What one chaos run did and whether recovery kept its promises."""

    kind: str
    seed: int
    supervised: bool
    #: accepted (acked) commits at the moment of verification
    acked_commits: int = 0
    #: commits applied in memory (>= acked; the gap died with the fault)
    applied_commits: int = 0
    #: the acked prefix the recovered state equals (None = corrupt)
    oracle_prefix: Optional[int] = None
    #: acked commits the recovery lost (0 for every honest-fsync kind)
    lost_acked: int = 0
    #: strict oracle verdict: recovered rows == replay(full acked log)
    rows_equal: bool = False
    #: the idempotent-retry exactly-once check (client_drop kind)
    exactly_once: Optional[bool] = None
    load: Optional[LoadStats] = None
    #: wal.* recovery counters from the reopened store
    recovery: Dict[str, Any] = field(default_factory=dict)
    #: supervisor metrics (supervised runs)
    supervisor: Dict[str, Any] = field(default_factory=dict)
    unsynced_bytes_lost: int = 0

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": self.kind,
            "seed": self.seed,
            "supervised": self.supervised,
            "acked_commits": self.acked_commits,
            "applied_commits": self.applied_commits,
            "oracle_prefix": self.oracle_prefix,
            "lost_acked": self.lost_acked,
            "rows_equal": self.rows_equal,
            "exactly_once": self.exactly_once,
            "unsynced_bytes_lost": self.unsynced_bytes_lost,
            "recovery": dict(self.recovery),
            "supervisor": dict(self.supervisor),
        }
        if self.load is not None:
            out["load"] = self.load.to_json()
        return out


class ChaosHarness:
    """One seeded chaos scenario: load, fault, recovery, verification.

    Unsupervised runs model a hard reboot: the harness *is* the
    operator — it pulls the power (:meth:`PowerCutIO.powercut`),
    reopens the store over clean IO, and compares against the oracle.
    Supervised runs leave recovery to the
    :class:`~repro.server.supervisor.ServiceSupervisor` and verify the
    *live* service afterwards instead.
    """

    def __init__(self, wal_path: str, kind: str, seed: int, *,
                 threads: int = 4,
                 ops_per_thread: int = 12,
                 supervised: bool = False,
                 trigger_after: Optional[int] = None,
                 fsync: str = "commit",
                 transport: str = "threaded",
                 decision_ratio: float = 0.25) -> None:
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; "
                             f"choose from {FAULT_KINDS}")
        if transport not in ("threaded", "async"):
            raise ValueError(f"unknown transport {transport!r}; "
                             f"choose 'threaded' or 'async'")
        self.wal_path = wal_path
        self.kind = kind
        self.seed = seed
        self.threads = threads
        self.ops_per_thread = ops_per_thread
        self.supervised = supervised
        self.fsync = fsync
        #: fraction of load ops that drive the decision ledger, so every
        #: fault lands under decide/backtrack traffic too and the oracle
        #: proves no acked decision is ever lost
        self.decision_ratio = decision_ratio
        #: TCP transport for the ``client_drop`` kind: ``"threaded"``
        #: (thread per connection) or ``"async"`` (the asyncio
        #: pipelined plane, driven by protocol-v2 clients).
        self.transport = transport
        # str hash() is salted per process; index() keeps seeds stable
        self._rng = Random(seed * 7919 + FAULT_KINDS.index(kind))
        #: inject once this many commits have been accepted
        self.trigger_after = (
            trigger_after if trigger_after is not None
            else 3 + self._rng.randrange(5)
        )

    # ------------------------------------------------------------------

    def run(self) -> ChaosReport:
        if self.kind == "client_drop":
            return self._run_client_drop()
        return self._run_io_fault()

    # -- IO-level kinds (writer_kill, checkpoint_crash, fsync_fault,
    #    torn_tail, lying_fsync) -------------------------------------------

    def _run_io_fault(self) -> ChaosReport:
        report = ChaosReport(kind=self.kind, seed=self.seed,
                             supervised=self.supervised)
        plan = FaultPlan(seed=self.seed)
        io = PowerCutIO(plan)
        registry = MetricsRegistry()
        store = WalStore(self.wal_path, fsync=self.fsync, io=io,
                         registry=registry)
        cb = ConceptBase(store=store, registry=registry)
        service = GKBMSService(cb, batch_window=0.002)
        supervisor: Optional[ServiceSupervisor] = None
        if self.supervised:
            supervisor = ServiceSupervisor(
                service, backoff_base=0.005, backoff_cap=0.05,
                seed=self.seed,
            )
        generator = ConcurrentLoadGenerator(
            client_factory=lambda: LocalClient(
                service, retry=RetryPolicy(seed=self.seed, base=0.005,
                                           cap=0.05),
            ),
            threads=self.threads, ops_per_thread=self.ops_per_thread,
            seed=self.seed, tolerant=True,
            decision_ratio=self.decision_ratio,
        )
        load_box: Dict[str, LoadStats] = {}
        loader = threading.Thread(
            target=lambda: load_box.update(done=generator.run()),
            name="chaos-load", daemon=True,
        )
        loader.start()
        self._await_commits(service, loader)
        self._inject(plan, io, service)
        loader.join(timeout=60.0)
        report.load = load_box.get("done")
        if self.supervised:
            return self._verify_supervised(report, service, supervisor)
        return self._verify_reboot(report, service, io)

    def _await_commits(self, service: GKBMSService,
                       loader: threading.Thread) -> None:
        deadline = time.monotonic() + 30.0
        while (service.pipeline.commit_seq < self.trigger_after
               and loader.is_alive() and time.monotonic() < deadline):
            time.sleep(0.001)

    def _inject(self, plan: FaultPlan, io: PowerCutIO,
                service: GKBMSService) -> None:
        """Arm the seeded fault relative to the live op counter."""
        offset = 1 + self._rng.randrange(4)
        if self.kind in ("writer_kill", "torn_tail"):
            plan.crash_at = io.ops + offset
        elif self.kind == "fsync_fault":
            plan.fail_fsyncs_from = io.ops + offset
        elif self.kind == "lying_fsync":
            plan.lying_fsyncs_from = io.ops + offset
            # a lying disk is only *observable* at the reboot: schedule
            # the kill a little later so lied-about batches get acked
            plan.crash_at = io.ops + offset + 8 + self._rng.randrange(8)
        elif self.kind == "checkpoint_crash":
            plan.crash_at = io.ops + offset
            try:
                # rides the pipeline: the crash lands inside the
                # checkpoint's snapshot/log-reset IO under live load
                service.checkpoint()
            except BaseException:  # noqa: BLE001 - incl. CrashPoint relayed
                pass

    # -- verification ------------------------------------------------------

    def _verify_reboot(self, report: ChaosReport, service: GKBMSService,
                       io: PowerCutIO) -> ChaosReport:
        acked = service.pipeline.acked_log()
        report.acked_commits = len(acked)
        report.applied_commits = len(service.pipeline.commit_log())
        try:
            service.close()
        except BaseException:  # noqa: BLE001 - crashed IO dies loudly
            pass
        lost = io.powercut(keep_torn_tail=(self.kind == "torn_tail"))
        report.unsynced_bytes_lost = sum(lost.values())
        recovered = WalStore(self.wal_path, fsync=self.fsync, io=REAL_IO,
                             registry=MetricsRegistry())
        report.recovery = dict(recovered.stats)
        rows = recovered.rows()
        recovered.close()
        report.oracle_prefix = oracle_prefix(rows, acked)
        report.rows_equal = report.oracle_prefix == len(acked)
        if report.oracle_prefix is not None:
            report.lost_acked = len(acked) - report.oracle_prefix
        return report

    def _verify_supervised(self, report: ChaosReport,
                           service: GKBMSService,
                           supervisor: Optional[ServiceSupervisor]
                           ) -> ChaosReport:
        if supervisor is not None:
            supervisor.join(timeout=30.0)
        deadline = time.monotonic() + 10.0
        while service.status == "restarting" and time.monotonic() < deadline:
            time.sleep(0.005)
        # The successor pipeline's log is the acked pre-fault history
        # plus everything committed after recovery: the live base must
        # equal its replay, same oracle as the reboot path.
        log = service.pipeline.commit_log()
        report.acked_commits = len(service.pipeline.acked_log())
        report.applied_commits = len(log)
        rows = service.cb.propositions.store.rows()
        oracle = replay_commit_log(log)
        report.rows_equal = rows == oracle.propositions.store.rows()
        report.oracle_prefix = len(log) if report.rows_equal else None
        report.supervisor = {
            key: value
            for key, value in service.registry.snapshot("server").items()
            if key.startswith("server.supervisor.")
        }
        report.supervisor["status"] = service.status
        try:
            service.close()
        except BaseException:  # noqa: BLE001 - crashed IO dies loudly
            pass
        return report

    # -- client_drop (TCP) -------------------------------------------------

    def _run_client_drop(self) -> ChaosReport:
        """Drop a TCP client mid-commit, retry its token, prove
        exactly-once, then drain and verify the reopened store."""
        report = ChaosReport(kind=self.kind, seed=self.seed,
                             supervised=self.supervised)
        registry = MetricsRegistry()
        store = WalStore(self.wal_path, fsync=self.fsync, io=REAL_IO,
                         registry=registry)
        cb = ConceptBase(store=store, registry=registry)
        service = GKBMSService(cb, batch_window=0.002)
        server_cls = (AsyncGKBMSServer if self.transport == "async"
                      else GKBMSServer)
        load_cls = (PipelinedTCPClient if self.transport == "async"
                    else TCPClient)
        with server_cls(("127.0.0.1", 0), service) as server:
            server.serve_in_thread()
            host, port = server.host, server.port
            generator = ConcurrentLoadGenerator(
                client_factory=lambda: load_cls(
                    host, port,
                    retry=RetryPolicy(seed=self.seed, base=0.005, cap=0.05),
                ),
                threads=self.threads, ops_per_thread=self.ops_per_thread,
                seed=self.seed, tolerant=True,
                decision_ratio=self.decision_ratio,
            )
            load_box: Dict[str, LoadStats] = {}
            loader = threading.Thread(
                target=lambda: load_box.update(done=generator.run()),
                name="chaos-load", daemon=True,
            )
            loader.start()
            self._await_commits(service, loader)
            report.exactly_once = self._drop_and_retry(service, host, port)
            loader.join(timeout=60.0)
            report.load = load_box.get("done")
            acked = service.pipeline.acked_log()
            report.acked_commits = len(acked)
            report.applied_commits = len(service.pipeline.commit_log())
            service.drain()
        recovered = WalStore(self.wal_path, fsync=self.fsync, io=REAL_IO,
                             registry=MetricsRegistry())
        report.recovery = dict(recovered.stats)
        rows = recovered.rows()
        recovered.close()
        report.oracle_prefix = oracle_prefix(rows, acked)
        report.rows_equal = report.oracle_prefix == len(acked)
        if report.oracle_prefix is not None:
            report.lost_acked = len(acked) - report.oracle_prefix
        return report

    def _drop_and_retry(self, service: GKBMSService,
                        host: str, port: int) -> bool:
        """The mid-commit vanish: stage a commit, send it, close the
        socket without reading the ack, then retry the same token from
        a fresh connection and check it applied exactly once."""
        token = f"chaos-drop-{self.seed}"
        marker = f"ChaosDrop{self.seed}"
        dropper = TCPClient(host, port)
        dropper.begin()
        dropper.tell(f"TELL {marker} IN SimpleClass END")
        # Send the commit frame raw and hang up before the response:
        # the server processes it; the ack dies with the connection.
        dropper._req_id += 1
        frame = {
            "id": dropper._req_id, "op": "commit",
            "session": dropper.session, "params": {"token": token},
        }
        dropper._file.write(encode_frame(frame))
        dropper._file.flush()
        dropper._drop_connection()
        # Wait until the dropped commit is acked server-side (it races
        # the batch window), then retry from a brand-new client.
        deadline = time.monotonic() + 10.0
        while (service.pipeline.token_result(token) is None
               and time.monotonic() < deadline):
            time.sleep(0.002)
        retrier = TCPClient(host, port,
                            retry=RetryPolicy(seed=self.seed))
        try:
            result = retrier.commit_with_token(token)
        finally:
            retrier.close()
        applied = [
            entry for entry in service.pipeline.commit_log()
            if any(arg.find(marker) >= 0 for _kind, arg in entry[2])
        ]
        return bool(result.get("idempotent")) and len(applied) == 1


__all__ = [
    "FAULT_KINDS",
    "STRICT_KINDS",
    "ChaosHarness",
    "ChaosReport",
    "PowerCutIO",
    "oracle_prefix",
    "replay_commit_log",
]
