"""Unit tests for the service layer: protocol, locks, sessions,
admission, pipeline, group commit, and the service dispatch itself."""

import gc
import threading
import time
import tracemalloc

import pytest

from repro.conceptbase import ConceptBase
from repro.errors import (
    CommitConflict,
    DeadlineExceeded,
    PersistenceError,
    ProtocolError,
    ReproError,
    ServerError,
    ServerOverloaded,
    SessionError,
)
from repro.faults import FaultPlan, FaultyIO, WriteFault
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer, disable, enable, get_tracer, set_tracer
from repro.propositions.processor import PropositionProcessor
from repro.propositions.proposition import individual
from repro.propositions.store import WorkspaceStore
from repro.propositions.wal import WalStore
from repro.server import protocol
from repro.server.admission import AdmissionController
from repro.server.client import LocalClient, PipelinedTCPClient, TCPClient
from repro.server.locks import ReadWriteLock
from repro.server.pipeline import CommitPipeline
from repro.server.service import GKBMSService
from repro.server.session import SessionManager
from repro.server.tcp import AsyncGKBMSServer, GKBMSServer


def _ns(prefix="server"):
    return MetricsRegistry().namespace(prefix)


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def test_frame_round_trip(self):
        payload = {"id": 3, "op": "tell", "params": {"source": "TELL X END"}}
        line = protocol.encode_frame(payload)
        assert line.endswith(b"\n")
        assert protocol.decode_frame(line) == payload

    def test_oversized_frame_refused(self):
        with pytest.raises(ProtocolError):
            protocol.decode_frame(b"x" * (protocol.MAX_FRAME + 1))

    def test_non_json_refused(self):
        with pytest.raises(ProtocolError):
            protocol.decode_frame(b"not json at all\n")

    def test_non_object_refused(self):
        with pytest.raises(ProtocolError):
            protocol.decode_frame(b"[1, 2]\n")

    def test_unknown_op_refused(self):
        with pytest.raises(ProtocolError):
            protocol.validate_request({"op": "drop_all_tables"})

    def test_params_must_be_object(self):
        with pytest.raises(ProtocolError):
            protocol.validate_request({"op": "ask", "params": [1]})

    def test_deadline_must_be_numeric(self):
        with pytest.raises(ProtocolError):
            protocol.validate_request({"op": "ping", "deadline_ms": "soon"})

    def test_deadline_bool_refused(self):
        # Regression: bool is an int subclass, so `deadline_ms: true`
        # slipped through the numeric check and computed a 1ms budget.
        with pytest.raises(ProtocolError):
            protocol.validate_request({"op": "ping", "deadline_ms": True})

    def test_deadline_non_finite_refused(self):
        # Regression: Python's json parses NaN/Infinity, either of
        # which poisons every deadline comparison downstream.
        for poison in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ProtocolError):
                protocol.validate_request(
                    {"op": "ping", "deadline_ms": poison}
                )

    def test_poison_deadlines_refused_in_process(self):
        # The LocalClient transport round-trips the wire encoding, so
        # this covers the same frames a socket would deliver.
        service = GKBMSService()
        try:
            for poison in (True, float("nan"), float("inf")):
                response = service.handle(
                    {"id": 1, "op": "ping", "params": {},
                     "deadline_ms": poison}
                )
                assert response["ok"] is False
                assert response["error"]["type"] == "ProtocolError"
        finally:
            service.close()

    def test_negotiate_protocol_grants_min(self):
        assert protocol.negotiate_protocol({}) == 1
        assert protocol.negotiate_protocol({"protocol": 1}) == 1
        assert protocol.negotiate_protocol({"protocol": 2}) == 2
        # A future client never gets more than we speak.
        assert (protocol.negotiate_protocol({"protocol": 99})
                == protocol.PROTOCOL_VERSION)

    def test_negotiate_protocol_refuses_junk(self):
        for junk in ({"protocol": 0}, {"protocol": -1},
                     {"protocol": "2"}, {"protocol": True},
                     {"protocol": 2.0}):
            with pytest.raises(ProtocolError):
                protocol.negotiate_protocol(junk)

    def test_error_response_keeps_typed_name(self):
        response = protocol.error_response(9, CommitConflict("stale"))
        assert response["error"]["type"] == "CommitConflict"
        assert response["ok"] is False

    def test_error_response_hides_internal_errors(self):
        response = protocol.error_response(9, ValueError("boom"))
        assert response["error"]["type"] == "InternalError"

    def test_exception_round_trip(self):
        for exc in (CommitConflict("a"), ServerOverloaded("b"),
                    DeadlineExceeded("c"), SessionError("d")):
            error = protocol.error_response(1, exc)["error"]
            rebuilt = protocol.exception_for(error)
            assert type(rebuilt) is type(exc)
            assert str(exc) in str(rebuilt)

    def test_unknown_error_type_degrades_to_server_error(self):
        rebuilt = protocol.exception_for(
            {"type": "NoSuchError", "message": "x"}
        )
        assert isinstance(rebuilt, ServerError)
        assert "NoSuchError" in str(rebuilt)


# ----------------------------------------------------------------------
# Reader/writer lock
# ----------------------------------------------------------------------


class TestReadWriteLock:
    def test_readers_are_concurrent(self):
        lock = ReadWriteLock()
        both_in = threading.Barrier(2, timeout=5)

        def reader():
            with lock.read_locked():
                both_in.wait()

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        order = []
        lock.acquire_write()

        def reader():
            with lock.read_locked():
                order.append("read")

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.05)
        order.append("write-release")
        lock.release_write()
        t.join(timeout=5)
        assert order == ["write-release", "read"]

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        got_write = threading.Event()
        late_read = threading.Event()

        def writer():
            lock.acquire_write()
            got_write.set()
            lock.release_write()

        def late_reader():
            lock.acquire_read()
            late_read.set()
            lock.release_read()

        w = threading.Thread(target=writer)
        w.start()
        time.sleep(0.05)  # writer is now queued
        r = threading.Thread(target=late_reader)
        r.start()
        time.sleep(0.05)
        # The late reader must queue behind the waiting writer.
        assert not late_read.is_set()
        lock.release_read()
        w.join(timeout=5)
        r.join(timeout=5)
        assert got_write.is_set() and late_read.is_set()


# ----------------------------------------------------------------------
# Sessions and overlays
# ----------------------------------------------------------------------


class TestSessions:
    def test_open_get_close(self):
        manager = SessionManager(_ns(), max_sessions=2)
        session = manager.open(read_epoch=0)
        assert manager.get(session.sid) is session
        manager.close(session.sid)
        with pytest.raises(SessionError):
            manager.get(session.sid)

    def test_session_cap(self):
        manager = SessionManager(_ns(), max_sessions=1)
        manager.open(read_epoch=0)
        with pytest.raises(SessionError):
            manager.open(read_epoch=0)

    def test_missing_session_id(self):
        manager = SessionManager(_ns())
        with pytest.raises(SessionError):
            manager.get(None)

    def test_staging_records_write_set(self):
        manager = SessionManager(_ns())
        session = manager.open(read_epoch=7)
        session.begin(read_epoch=7)
        session.stage("tell", "TELL A END", ["A"])
        session.stage("untell", "B", ["B"])
        session.stage("tell", "TELL A END", ["A"])  # key dedup
        assert session.staged_keys() == ["A", "B"]
        assert [op[0] for op in session.staged_ops()] == [
            "tell", "untell", "tell"
        ]
        dropped = session.end_transaction()
        assert dropped == 2
        assert session.staged_keys() == []

    def test_nested_begin_refused(self):
        session = SessionManager(_ns()).open(read_epoch=0)
        session.begin(0)
        with pytest.raises(SessionError):
            session.begin(0)

    def test_stage_without_begin_refused(self):
        session = SessionManager(_ns()).open(read_epoch=0)
        with pytest.raises(SessionError):
            session.stage("tell", "TELL A END", ["A"])

    def test_close_discards_open_transaction(self):
        manager = SessionManager(_ns())
        session = manager.open(read_epoch=0)
        session.begin(0)
        session.stage("tell", "TELL A END", ["A"])
        manager.close(session.sid)
        assert not session.in_transaction

    def test_aborted_transactions_retain_no_memory(self):
        """Regression: every ``begin`` built a private store whose four
        ``store.txnN`` counters were never freed — about 1 KiB kept per
        transaction, for the life of the session."""
        service = GKBMSService()
        try:
            client = LocalClient(service)
            client.tell("TELL Doc IN SimpleClass END")

            def cycles(count):
                for _ in range(count):
                    client.begin()
                    client.tell("TELL D IN Doc END")
                    client.abort()

            cycles(200)  # fill the request histogram's reservoir first
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                cycles(1000)
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert retained < 200 * 1024, f"{retained} bytes retained"
        finally:
            service.close()


class TestOverlayDiscard:
    """Satellite: discarding a session overlay must not leak epoch bumps
    into the shared store's closure caches."""

    def test_remove_inactive_workspace_keeps_visibility(self):
        store = WorkspaceStore()
        before = store.visibility_epoch
        store.add_workspace("scratch", active=False)
        store.set_current("scratch")
        store.create(individual("Draft"))
        store.set_current(WorkspaceStore.DEFAULT)
        dropped = store.remove_workspace("scratch")
        assert dropped == 1
        # Never-visible content: dropping it changes nothing any reader
        # could have seen, so the global visibility epoch must not move.
        assert store.visibility_epoch == before

    def test_remove_active_workspace_bumps_visibility(self):
        store = WorkspaceStore()
        store.add_workspace("live", active=True)
        store.set_current("live")
        store.create(individual("Draft"))
        store.set_current(WorkspaceStore.DEFAULT)
        before = store.visibility_epoch
        store.remove_workspace("live")
        # Visible content disappeared: readers must revalidate.
        assert store.visibility_epoch > before

    def test_remove_kernel_refused(self):
        store = WorkspaceStore()
        with pytest.raises(ReproError):
            store.remove_workspace(WorkspaceStore.DEFAULT)

    def test_aborted_session_overlay_keeps_closure_caches_warm(self):
        service = GKBMSService()
        try:
            client = LocalClient(service)
            client.tell("TELL Doc IN SimpleClass END")
            client.tell("TELL D1 IN Doc END")
            client.instances("Doc")  # warm the closure caches
            hits_before = service.registry.snapshot()[
                "proposition.closure_hits"
            ]
            misses_before = service.registry.snapshot()[
                "proposition.closure_misses"
            ]
            client.begin()
            client.tell("TELL D2 IN Doc END")
            client.abort()
            assert client.instances("Doc") == ["D1"]
            after = service.registry.snapshot()
            # The abort only touched the session's private overlay: the
            # warm read must be servable from cache, not recomputed.
            assert after["proposition.closure_hits"] > hits_before
            assert after["proposition.closure_misses"] == misses_before
        finally:
            service.close()

    def test_commit_apply_delta_maintains_closure_caches(self):
        """A committed tell reaches the shared base through the delta
        hooks: the classification caches other sessions warmed are
        patched in place (answers move, invalidations do not)."""
        service = GKBMSService()
        try:
            client = LocalClient(service)
            client.tell("TELL Doc IN SimpleClass END")
            client.tell("TELL D1 IN Doc END")
            client.instances("Doc")  # warm the closure caches
            before = service.registry.snapshot()
            client.begin()
            client.tell("TELL D2 IN Doc END")
            client.commit()
            assert client.instances("Doc") == ["D1", "D2"]
            after = service.registry.snapshot()
            assert (after["proposition.closure_invalidations"]
                    == before["proposition.closure_invalidations"])
            assert (after["proposition.closure_delta_applied"]
                    > before["proposition.closure_delta_applied"])
        finally:
            service.close()


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


class TestAdmission:
    def test_sheds_when_queue_full(self):
        admission = AdmissionController(
            _ns(), max_in_flight=1, max_waiting=0
        )
        release = threading.Event()
        occupied = threading.Event()

        def occupant():
            with admission.admit():
                occupied.set()
                release.wait(5)

        t = threading.Thread(target=occupant)
        t.start()
        assert occupied.wait(5)
        with pytest.raises(ServerOverloaded):
            with admission.admit():
                pass
        release.set()
        t.join(timeout=5)

    def test_expired_deadline_refused_immediately(self):
        admission = AdmissionController(_ns())
        deadline = admission.deadline_from(0)
        time.sleep(0.001)
        with pytest.raises(DeadlineExceeded):
            with admission.admit(deadline=deadline):
                pass

    def test_deadline_while_queued(self):
        admission = AdmissionController(
            _ns(), max_in_flight=1, max_waiting=4, max_wait=5.0
        )
        release = threading.Event()
        occupied = threading.Event()

        def occupant():
            with admission.admit():
                occupied.set()
                release.wait(5)

        t = threading.Thread(target=occupant)
        t.start()
        assert occupied.wait(5)
        with pytest.raises(DeadlineExceeded):
            with admission.admit(deadline=admission.deadline_from(30)):
                pass
        release.set()
        t.join(timeout=5)

    def test_deadline_rechecked_on_wakeup(self):
        """Regression: a queued waiter whose deadline expired just
        before a slot freed was admitted anyway (the wait loop exited
        on admissibility without re-checking the clock) and burned
        worker time on an answer nobody was waiting for."""
        now = [0.0]
        registry = MetricsRegistry()
        admission = AdmissionController(
            registry.namespace("server"), max_in_flight=1, max_waiting=4,
            max_wait=60.0, clock=lambda: now[0],
        )
        deadline = admission.deadline_from(10_000)  # expires at t=10
        occupied = threading.Event()
        proceed = threading.Event()

        def occupant():
            with admission.admit():
                occupied.set()
                proceed.wait(5)
                # Expire the waiter's deadline *before* releasing the
                # slot: the release is the only wakeup, so the waiter
                # observes an open slot and a dead budget at once.
                now[0] = 20.0

        t = threading.Thread(target=occupant)
        t.start()
        assert occupied.wait(5)

        outcome = {}

        def waiter():
            try:
                with admission.admit(deadline=deadline):
                    outcome["admitted"] = True
            except DeadlineExceeded:
                outcome["refused"] = True

        w = threading.Thread(target=waiter)
        w.start()
        give_up = 100
        while admission._waiting == 0 and give_up > 0:
            time.sleep(0.005)
            give_up -= 1
        assert admission._waiting == 1
        proceed.set()
        t.join(timeout=5)
        w.join(timeout=5)
        assert outcome == {"refused": True}
        snapshot = registry.snapshot()
        assert snapshot["server.deadline_exceeded"] == 1

    def test_bounded_wait_sheds_without_deadline(self):
        admission = AdmissionController(
            _ns(), max_in_flight=1, max_waiting=4, max_wait=0.05
        )
        release = threading.Event()
        occupied = threading.Event()

        def occupant():
            with admission.admit():
                occupied.set()
                release.wait(5)

        t = threading.Thread(target=occupant)
        t.start()
        assert occupied.wait(5)
        with pytest.raises(ServerOverloaded):
            with admission.admit():
                pass
        release.set()
        t.join(timeout=5)

    def test_per_session_cap(self):
        ns = _ns()
        admission = AdmissionController(
            ns, max_in_flight=8, max_waiting=0, per_session=1
        )
        session = SessionManager(ns).open(read_epoch=0)
        release = threading.Event()
        occupied = threading.Event()

        def occupant():
            with admission.admit(session):
                occupied.set()
                release.wait(5)

        t = threading.Thread(target=occupant)
        t.start()
        assert occupied.wait(5)
        with pytest.raises(ServerOverloaded):
            with admission.admit(session):
                pass
        # A different session still gets in.
        with admission.admit():
            pass
        release.set()
        t.join(timeout=5)

    def test_slot_released_after_exit(self):
        registry = MetricsRegistry()
        admission = AdmissionController(
            registry.namespace("server"), max_in_flight=1
        )
        with admission.admit():
            pass
        with admission.admit():
            pass
        snapshot = registry.snapshot()
        assert snapshot["server.admitted"] == 2
        assert snapshot["server.in_flight"] == 0
        assert snapshot["server.queue_depth"] == 0


# ----------------------------------------------------------------------
# Commit pipeline
# ----------------------------------------------------------------------


class TestPipeline:
    def _pipeline(self, apply, **kw):
        registry = MetricsRegistry()
        pipeline = CommitPipeline(
            apply, registry.namespace("server.commit"), **kw
        )
        return pipeline, registry

    def test_commit_order_and_log(self):
        applied = []

        def apply(pending):
            applied.append(pending.ops)
            return {"n": len(applied)}

        pipeline, _ = self._pipeline(apply)
        try:
            r1 = pipeline.submit([("tell", "a")], ["A"], None, "s1")
            r2 = pipeline.submit([("tell", "b")], ["B"], None, "s1")
            assert (r1["commit_seq"], r2["commit_seq"]) == (1, 2)
            log = pipeline.commit_log()
            assert [entry[0] for entry in log] == [1, 2]
            assert log[0][2] == [("tell", "a")]
        finally:
            pipeline.close()

    def test_first_committer_wins(self):
        pipeline, registry = self._pipeline(lambda pending: {})
        try:
            pipeline.submit([("tell", "a")], ["K"], None, "s1")
            with pytest.raises(CommitConflict):
                pipeline.submit([("tell", "b")], ["K"], 0, "s2")
            # Same keys, but pinned at the current head: accepted.
            pipeline.submit(
                [("tell", "c")], ["K"], pipeline.commit_seq, "s2"
            )
        finally:
            pipeline.close()
        snapshot = registry.snapshot()
        assert snapshot["server.commit.conflicts"] == 1
        assert snapshot["server.commit.committed"] == 2

    def test_autocommit_never_conflicts(self):
        pipeline, _ = self._pipeline(lambda pending: {})
        try:
            for _ in range(3):
                pipeline.submit([("tell", "x")], ["K"], None, "s1")
            assert pipeline.commit_seq == 3
        finally:
            pipeline.close()

    def test_apply_errors_reach_the_submitter(self):
        def apply(pending):
            raise ServerError("apply exploded")

        pipeline, registry = self._pipeline(apply)
        try:
            with pytest.raises(ServerError):
                pipeline.submit([("tell", "a")], [], None, "s1")
        finally:
            pipeline.close()
        assert registry.snapshot()["server.commit.errors"] == 1
        assert pipeline.commit_seq == 0

    def test_group_commit_batches(self):
        gate = threading.Event()

        def apply(pending):
            gate.wait(5)
            return {}

        pipeline, registry = self._pipeline(
            apply, max_batch=8, batch_window=0.2
        )
        try:
            threads = [
                threading.Thread(
                    target=pipeline.submit,
                    args=([("tell", "x")], [], None, f"s{i}"),
                )
                for i in range(4)
            ]
            for t in threads:
                t.start()
            time.sleep(0.05)  # let all four land in the queue
            gate.set()
            for t in threads:
                t.join(timeout=5)
        finally:
            pipeline.close()
        batch = registry.snapshot()["server.commit.batch_size"]
        assert batch["count"] >= 1
        assert batch["max"] >= 2  # at least one multi-commit fsync group

    def test_full_queue_sheds(self):
        started = threading.Event()
        gate = threading.Event()

        def apply(pending):
            started.set()
            gate.wait(5)
            return {}

        pipeline, _ = self._pipeline(apply, max_queue=1, batch_window=0.0)
        try:
            first = threading.Thread(
                target=pipeline.submit, args=([("tell", "a")], [], None, "s"),
            )
            first.start()
            assert started.wait(5)  # writer busy with the first commit
            second = threading.Thread(
                target=pipeline.submit, args=([("tell", "b")], [], None, "s"),
            )
            second.start()
            time.sleep(0.05)  # second now occupies the single queue slot
            with pytest.raises(ServerOverloaded):
                pipeline.submit([("tell", "c")], [], None, "s")
            gate.set()
            first.join(timeout=5)
            second.join(timeout=5)
        finally:
            pipeline.close()

    def test_submit_after_close_raises_typed(self):
        pipeline, _ = self._pipeline(lambda pending: {})
        pipeline.close()
        with pytest.raises(ServerError):
            pipeline.submit([("tell", "x")], [], None, "s1")


class _ExplodingBatchWal:
    """Duck-typed WAL whose batch scope fails on exit — the injected
    fsync fault the review's durability scenario describes."""

    def batch(self):
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        raise PersistenceError("injected fsync failure")


class TestPipelineDurabilityFaults:
    def _pipeline(self, apply, **kw):
        registry = MetricsRegistry()
        pipeline = CommitPipeline(
            apply, registry.namespace("server.commit"), **kw
        )
        return pipeline, registry

    def test_fault_fails_the_submitter_and_poisons_the_pipeline(self):
        pipeline, registry = self._pipeline(
            lambda pending: {}, wal=_ExplodingBatchWal()
        )
        try:
            # The batch-exit fault must surface as a typed error, not a
            # hang: the commit applied in memory but was never forced.
            with pytest.raises(ServerError, match="durability"):
                pipeline.submit([("tell", "a")], [], None, "s1")
            # Poisoned: later submits fail fast instead of building on
            # state that may not survive a restart.
            with pytest.raises(ServerError, match="failed"):
                pipeline.submit([("tell", "b")], [], None, "s1")
        finally:
            pipeline.close()
        assert registry.snapshot()["server.commit.errors"] == 1

    def test_fault_never_strands_any_submitter(self):
        gate = threading.Event()

        def apply(pending):
            gate.wait(5)
            return {}

        # max_batch=1: the first commit's batch faults and kills the
        # writer while three more sit in the queue — all four must be
        # woken with a typed error (none may hang on done.wait()).
        pipeline, _ = self._pipeline(
            apply, wal=_ExplodingBatchWal(), max_batch=1
        )
        errors = []
        errors_lock = threading.Lock()

        def submit(i):
            try:
                pipeline.submit([("tell", "x")], [], None, f"s{i}")
            except ServerError as exc:
                with errors_lock:
                    errors.append(str(exc))

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(4)
        ]
        try:
            for t in threads:
                t.start()
            time.sleep(0.05)  # let all four land in the queue
            gate.set()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(errors) == 4
        finally:
            pipeline.close()


class TestWalGroupCommit:
    def test_batch_defers_fsyncs(self, tmp_path):
        store = WalStore(str(tmp_path / "kb.wal"), fsync="commit")
        proc = PropositionProcessor(store=store)
        baseline = store.stats.snapshot()["fsyncs"]
        with store.batch():
            for name in ("A", "B", "C"):
                with proc.telling():
                    proc.tell_individual(name)
        stats = store.stats.snapshot()
        # One force for the whole batch instead of one per commit.
        assert stats["fsyncs"] == baseline + 1
        assert stats["deferred_fsyncs"] >= 2
        assert stats["group_batches"] == 1

    def test_batched_commits_survive_reopen(self, tmp_path):
        path = str(tmp_path / "kb.wal")
        store = WalStore(path, fsync="commit")
        proc = PropositionProcessor(store=store)
        with store.batch():
            for name in ("A", "B"):
                with proc.telling():
                    proc.tell_individual(name)
        rows = store.rows()
        reopened = WalStore(path)
        assert reopened.rows() == rows

    def test_always_policy_unaffected_by_batch(self, tmp_path):
        store = WalStore(str(tmp_path / "kb.wal"), fsync="always")
        proc = PropositionProcessor(store=store)
        baseline = store.stats.snapshot()["fsyncs"]
        with store.batch():
            with proc.telling():
                proc.tell_individual("A")
        stats = store.stats.snapshot()
        assert stats["fsyncs"] > baseline
        assert stats["deferred_fsyncs"] == 0

    def test_real_fsync_fault_is_typed_end_to_end(self, tmp_path):
        class _FsyncFaultIO(FaultyIO):
            fail_fsyncs = False

            def fsync(self, handle):
                if self.fail_fsyncs:
                    raise WriteFault("injected fsync failure")
                super().fsync(handle)

        io = _FsyncFaultIO(FaultPlan())
        store = WalStore(str(tmp_path / "kb.wal"), fsync="commit", io=io)
        service = GKBMSService(ConceptBase(store=store))
        client = LocalClient(service)
        client.tell("TELL Doc IN SimpleClass END")
        io.fail_fsyncs = True
        # The group-commit fsync fails on batch exit: a typed error,
        # never a hung writer thread nor an ambiguous acknowledgement.
        with pytest.raises(ServerError, match="durability"):
            client.tell("TELL D1 IN Doc END")
        with pytest.raises(ServerError):
            client.tell("TELL D2 IN Doc END")
        service.close()


# ----------------------------------------------------------------------
# Commit validators and pinned reads (processor substrate)
# ----------------------------------------------------------------------


class TestProcessorHooks:
    def test_commit_validator_refusal_rolls_back(self):
        cb = ConceptBase()

        def refuse(created):
            raise CommitConflict("refused by validator")

        cb.propositions.add_commit_validator(refuse)
        with pytest.raises(CommitConflict):
            with cb.transaction():
                cb.propositions.tell_individual("Doomed")
        assert not cb.propositions.exists("Doomed")

    def test_validator_runs_before_listeners(self):
        cb = ConceptBase()
        calls = []
        cb.propositions.add_commit_validator(
            lambda created: calls.append("validator")
        )
        cb.propositions.on_commit(lambda created: calls.append("listener"))
        with cb.transaction():
            cb.propositions.tell_individual("Ok")
        assert calls == ["validator", "listener"]

    def test_pinned_read_consistent_when_quiet(self):
        cb = ConceptBase()
        with cb.propositions.read_transaction() as pin:
            cb.propositions.exists("System")
        assert pin.consistent is True

    def test_pinned_read_detects_mutation(self):
        cb = ConceptBase()
        with cb.propositions.read_transaction() as pin:
            cb.propositions.tell_individual("Intruder")
        assert pin.consistent is False


# ----------------------------------------------------------------------
# The service, end to end through LocalClient
# ----------------------------------------------------------------------


@pytest.fixture
def service():
    svc = GKBMSService(batch_window=0.0)
    yield svc
    svc.close()


class TestServiceOps:
    def test_tell_ask_query_roundtrip(self, service):
        client = LocalClient(service)
        client.tell("TELL Doc IN SimpleClass END")
        result = client.tell("TELL D1 IN Doc END")
        assert result["created"] > 0 and result["commit_seq"] == 2
        assert client.instances("Doc") == ["D1"]
        assert "D1" in client.frame("D1")
        assert client.summary()["individuals"] > 0

    def test_transaction_commit_applies_atomically(self, service):
        client = LocalClient(service)
        client.tell("TELL Doc IN SimpleClass END")
        with client.transaction():
            client.tell("TELL D1 IN Doc END")
            client.tell("TELL D2 IN Doc END")
            # Staged, not visible yet.
            assert client.staged()["keys"] == ["D1", "D2"]
        assert client.instances("Doc") == ["D1", "D2"]

    def test_transaction_abort_discards(self, service):
        client = LocalClient(service)
        client.tell("TELL Doc IN SimpleClass END")
        client.begin()
        client.tell("TELL D1 IN Doc END")
        client.abort()
        assert client.instances("Doc") == []

    def test_empty_commit_is_a_noop(self, service):
        client = LocalClient(service)
        client.begin()
        result = client.commit()
        assert result.get("empty") is True
        assert service.pipeline.commit_seq == 0

    def test_stale_commit_rejected_conflict(self, service):
        writer = LocalClient(service)
        racer = LocalClient(service)
        writer.tell("TELL Doc IN SimpleClass END")
        racer.begin()
        racer.tell("TELL Shared IN Doc END")
        writer.tell("TELL Shared IN Doc END")  # first committer wins
        with pytest.raises(CommitConflict):
            racer.commit()
        # The refused transaction is gone; a retry at the new head works.
        racer.begin()
        racer.tell("TELL Shared IN Doc END")
        racer.commit()

    def test_conflict_consumes_no_pids(self, service):
        writer = LocalClient(service)
        racer = LocalClient(service)
        writer.tell("TELL Doc IN SimpleClass END")
        racer.begin()
        racer.tell("TELL Shared IN Doc END")
        writer.tell("TELL Shared IN Doc END")
        rows_before = service.cb.propositions.store.rows()
        with pytest.raises(CommitConflict):
            racer.commit()
        # A refused commit must leave the store bit-identical.
        assert service.cb.propositions.store.rows() == rows_before

    def test_unknown_session_typed_error(self, service):
        response = service.handle(
            {"id": 1, "op": "ask", "session": "s999",
             "params": {"assertion": "x"}}
        )
        assert response["ok"] is False
        assert response["error"]["type"] == "SessionError"

    def test_parse_error_is_typed_not_internal(self, service):
        client = LocalClient(service)
        with pytest.raises(ReproError) as info:
            client.tell("THIS IS NOT A FRAME")
        assert not isinstance(info.value, ServerError)

    def test_expired_deadline_rejected(self, service):
        client = LocalClient(service)
        with pytest.raises(DeadlineExceeded):
            client.instances("SimpleClass", deadline_ms=0)

    def test_bye_closes_session(self, service):
        client = LocalClient(service)
        sid = client.session
        client.close()
        response = service.handle(
            {"id": 1, "op": "summary", "session": sid, "params": {}}
        )
        assert response["error"]["type"] == "SessionError"

    def test_explain_reports_attribution(self, service):
        client = LocalClient(service)
        client.tell("TELL Doc IN SimpleClass END")
        client.tell("TELL D1 IN Doc END")
        report = client.explain("in(?x, Doc)", kind="query")
        assert report["label"].startswith("query:")
        assert "headline" in report and "render" in report
        # a cold query computes its closures, and the report shows them
        assert report["subsystems"]["proposition"] >= 1
        assert report["headline"]["closure_spans"] >= 1

    def test_stats_exposes_server_metrics(self, service):
        client = LocalClient(service)
        client.tell("TELL Doc IN SimpleClass END")
        stats = client.stats("server")
        assert stats["server.requests"] > 0
        assert stats["server.commit.committed"] == 1
        assert stats["server.sessions"] == 1

    def test_responses_are_wire_serializable(self, service):
        # LocalClient round-trips every frame through the JSON encoder,
        # so exercising each read op proves serializability.
        client = LocalClient(service)
        client.tell("TELL Doc IN SimpleClass END")
        client.ask_all("exists d/Doc (Known(d))")
        client.query("in(?x, Doc)")
        client.ping()
        client.summary()


# ----------------------------------------------------------------------
# Thread-safety of the obs substrate (satellite)
# ----------------------------------------------------------------------


class TestSessionSerialization:
    @staticmethod
    def _frame(op, sid=None, **params):
        frame = {"id": 1, "op": op, "params": params}
        if sid is not None:
            frame["session"] = sid
        return frame

    def test_shutdown_signals_propagate_out_of_handle(self, service):
        def interrupt(params):
            raise KeyboardInterrupt()

        service._op_ping = interrupt
        with pytest.raises(KeyboardInterrupt):
            service.handle(self._frame("ping"))

    def test_concurrent_tell_never_lost_around_commit(self, service):
        """A ``tell`` racing another request's commit on the *same*
        session must land somewhere — staged into the open transaction
        (and committed with it) or autocommitted — never silently
        dropped between the commit's snapshot and its clearing
        ``end_transaction``."""
        response = service.handle(self._frame("hello"))
        sid = response["result"]["session"]
        service.handle(self._frame(
            "tell", sid, source="TELL Doc IN SimpleClass END"
        ))
        rounds = 25
        barrier = threading.Barrier(2)
        failures = []
        failures_lock = threading.Lock()

        def run(op_source):
            for i in range(rounds):
                barrier.wait()
                for frame in op_source(i):
                    response = service.handle(frame)
                    if not response["ok"]:
                        with failures_lock:
                            failures.append(response["error"])

        def committer(i):
            yield self._frame("begin", sid)
            yield self._frame("tell", sid,
                              source=f"TELL A{i} IN Doc END")
            yield self._frame("commit", sid)

        def teller(i):
            yield self._frame("tell", sid,
                              source=f"TELL B{i} IN Doc END")

        threads = [threading.Thread(target=run, args=(committer,)),
                   threading.Thread(target=run, args=(teller,))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        instances = set(service.cb.instances("Doc"))
        expected = {f"A{i}" for i in range(rounds)} \
            | {f"B{i}" for i in range(rounds)}
        assert expected <= instances


class TestObsThreadSafety:
    def _hammer(self, fn, threads=8, iterations=500):
        workers = [
            threading.Thread(target=lambda: [fn() for _ in range(iterations)])
            for _ in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        return threads * iterations

    def test_counter_increments_are_not_lost(self):
        counter = MetricsRegistry().counter("c")
        expected = self._hammer(counter.inc)
        assert counter.value == expected

    def test_histogram_observations_are_not_lost(self):
        histogram = MetricsRegistry().histogram("h")
        expected = self._hammer(lambda: histogram.observe(1.0))
        summary = histogram.summary()
        assert summary["count"] == expected
        assert summary["sum"] == pytest.approx(float(expected))
        assert summary["mean"] == pytest.approx(1.0)

    def test_tracer_span_ids_unique_across_threads(self):
        tracer = Tracer(enabled=True)

        def one_span():
            with tracer.span("server.test"):
                pass

        expected = self._hammer(one_span, threads=8, iterations=200)
        ids = [span.span_id for span in tracer.spans]
        assert len(ids) == expected
        assert len(set(ids)) == expected


# ----------------------------------------------------------------------
# Which tracer a served span lands on
# ----------------------------------------------------------------------


@pytest.fixture
def restore_tracer():
    """Puts back the process-default tracer a test swaps."""
    previous = get_tracer()
    yield
    set_tracer(previous)


def _tell_and_decide(service):
    client = LocalClient(service)
    client.tell("TELL K IN SimpleClass END")
    client.decide("Map", kind="mapping", tell=["TELL R IN K END"])


class TestTracerScope:
    """A served span opens on the process default at the moment it
    opens: a running service follows ``enable``/``disable``, and a
    served ``explain`` leaves the choice as it found it."""

    def test_service_built_before_enable_is_traced(self, restore_tracer):
        service = GKBMSService(batch_window=0.0)
        try:
            tracer = enable()
            _tell_and_decide(service)
        finally:
            service.close()
        names = {span.name for span in tracer.spans}
        assert {"server.execute", "server.commit",
                "decisions.decide"} <= names

    def test_service_built_after_enable_stops_at_disable(
            self, restore_tracer):
        tracer = enable()
        service = GKBMSService(batch_window=0.0)
        try:
            built = len(tracer.spans)
            disable()
            _tell_and_decide(service)
        finally:
            service.close()
        assert len(tracer.spans) == built

    def test_served_explain_leaves_tracing_switchable(self, restore_tracer):
        service = GKBMSService(batch_window=0.0)
        try:
            client = LocalClient(service)
            client.tell("TELL Doc IN SimpleClass END")
            client.explain("in(?x, Doc)", kind="query")
            tracer = enable()
            client.tell("TELL D1 IN Doc END")
        finally:
            service.close()
        assert any(span.name == "proposition.tell" for span in tracer.spans)

    @pytest.mark.parametrize("server_cls, client_cls", [
        (GKBMSServer, TCPClient),
        (AsyncGKBMSServer, PipelinedTCPClient),
    ], ids=["threaded", "async"])
    def test_served_explain_lists_cold_query_spans(self, server_cls,
                                                   client_cls):
        tcp = server_cls(("127.0.0.1", 0), GKBMSService(batch_window=0.0))
        tcp.serve_in_thread()
        try:
            client = client_cls(tcp.host, tcp.port)
            client.tell("TELL Doc IN SimpleClass END")
            client.tell("TELL D1 IN Doc END")
            report = client.explain("in(?x, Doc)", kind="query")
            client.close()
        finally:
            tcp.close()
        assert report["result"] == [["D1", "Doc"]]
        assert report["subsystems"]["proposition"] >= 1
        assert report["headline"]["closure_spans"] >= 1
        assert "proposition.closure" in report["render"]
