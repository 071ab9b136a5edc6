"""Server-level chaos matrix, supervised recovery, idempotent retries.

PR 3 proved the *storage* layer crash-safe; these tests prove the
*service* tier is.  A :class:`~repro.scenario.chaos.ChaosHarness` runs
live concurrent load against a WAL-backed
:class:`~repro.server.service.GKBMSService`, injects one seeded fault
from the matrix (writer killed mid-batch, crash inside a checkpoint,
fsync raising, torn WAL tail, TCP client dropped mid-commit, a disk
that lies about fsync), then holds the recovered store against the
accepted-commit-log oracle: replaying the durably *acked* commits must
reproduce the recovered ``rows()`` exactly — every acked commit
survives, no unacked commit is visible.  ``lying_fsync`` is the
documented exception: acked durability is physically impossible on a
lying disk, so its oracle weakens to prefix consistency with the loss
quantified.

Supervised variants leave recovery to the
:class:`~repro.server.supervisor.ServiceSupervisor` and verify the
*live* service instead: it must return to ``serving``, count its
restart in ``server.supervisor.*``, and the surviving base must equal
a replay of the successor pipeline's commit log.

Seeded via ``FAULT_SEED`` (CI shards a small seed matrix, mirroring
``test_wal_recovery``).  When ``CHAOS_REPORT`` names a file, the
per-scenario reports are dumped there as the non-gating CI artifact.
"""

import json
import os
import threading
import time

import pytest

from repro.conceptbase import ConceptBase
from repro.errors import (
    ServerError,
    ServerOverloaded,
    ServerReadOnly,
    ServerRestarting,
)
from repro.faults import FaultPlan, FaultyIO
from repro.obs.metrics import MetricsRegistry
from repro.propositions.wal import WalStore
from repro.scenario.chaos import (
    STRICT_KINDS,
    ChaosHarness,
    PowerCutIO,
    oracle_prefix,
    replay_commit_log,
)
from repro.server.client import LocalClient, RetryPolicy
from repro.server.service import GKBMSService
from repro.server.supervisor import ServiceSupervisor

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))
SEEDS = tuple(FAULT_SEED * 100 + n for n in range(3))

#: kind -> seed -> report JSON, dumped by the module fixture for CI.
CHAOS_REPORTS = {}


@pytest.fixture(scope="module", autouse=True)
def chaos_report():
    yield
    target = os.environ.get("CHAOS_REPORT")
    if target:
        with open(target, "w") as handle:
            json.dump({"base_seed": FAULT_SEED, "runs": CHAOS_REPORTS},
                      handle, indent=1, sort_keys=True)


def _run(tmp_path, kind, seed, **kw):
    harness = ChaosHarness(str(tmp_path / "chaos.wal"), kind, seed, **kw)
    report = harness.run()
    CHAOS_REPORTS.setdefault(kind, {})[str(seed)] = report.to_json()
    return report


class TestPowerCutIO:
    """The power-cut model under the fault matrix's feet."""

    def test_durable_advances_only_on_honest_fsync(self, tmp_path):
        path = str(tmp_path / "log")
        io = PowerCutIO(FaultPlan())
        handle = io.open_truncate(path)
        io.write(handle, b"abcd")
        assert io.durable_len(path) == 0
        io.fsync(handle)
        assert io.durable_len(path) == 4
        io.write(handle, b"efgh")
        io.close(handle)
        assert io.durable_len(path) == 4

    def test_lied_fsync_does_not_advance_durable(self, tmp_path):
        path = str(tmp_path / "log")
        io = PowerCutIO(FaultPlan(lying_fsyncs=True))
        handle = io.open_truncate(path)
        io.write(handle, b"abcd")
        io.fsync(handle)
        io.close(handle)
        assert io.durable_len(path) == 0

    def test_powercut_truncates_to_durable(self, tmp_path):
        path = str(tmp_path / "log")
        io = PowerCutIO(FaultPlan())
        handle = io.open_truncate(path)
        io.write(handle, b"abcd")
        io.fsync(handle)
        io.write(handle, b"efgh")
        io.close(handle)
        lost = io.powercut()
        assert io.real.read_bytes(path) == b"abcd"
        assert lost[path] == 4

    def test_torn_tail_fragment_is_sub_header(self, tmp_path):
        path = str(tmp_path / "log")
        io = PowerCutIO(FaultPlan(seed=FAULT_SEED))
        handle = io.open_truncate(path)
        io.write(handle, b"abcd")
        io.fsync(handle)
        io.write(handle, b"X" * 64)
        io.close(handle)
        io.powercut(keep_torn_tail=True)
        size = io.real.size(path)
        # WAL record headers are 8 bytes: the surviving fragment must
        # never be able to parse as a complete record.
        assert 4 < size < 4 + 8

    def test_reopen_after_cut_tracks_existing_size(self, tmp_path):
        path = str(tmp_path / "log")
        io = PowerCutIO(FaultPlan())
        handle = io.open_truncate(path)
        io.write(handle, b"abcd")
        io.fsync(handle)
        io.close(handle)
        again = io.open_append(path)
        io.write(again, b"ef")
        io.fsync(again)
        io.close(again)
        assert io.durable_len(path) == 6


class TestOracle:
    """replay_commit_log / oracle_prefix on hand-built logs."""

    LOG = [
        (1, "s1", [("tell", "TELL A END")]),
        (2, "s1", [("checkpoint", "")]),
        (3, "s2", [("tell", "TELL B END")]),
    ]

    def test_replay_skips_checkpoints(self):
        cb = replay_commit_log(self.LOG)
        assert cb.ask("In(A, Proposition)")
        assert cb.ask("In(B, Proposition)")
        # the existence check can fail: a name never told is not in
        assert not cb.ask("In(Never, Proposition)")

    def test_full_prefix_matches(self):
        rows = replay_commit_log(self.LOG).propositions.store.rows()
        assert oracle_prefix(rows, self.LOG) == len(self.LOG)

    def test_partial_prefix_found(self):
        rows = replay_commit_log(self.LOG[:1]).propositions.store.rows()
        # entry 2 is a checkpoint (no logical effect), so the state
        # after entry 1 is also the state after entry 2.
        assert oracle_prefix(rows, self.LOG) == 2

    def test_empty_store_is_prefix_zero(self):
        rows = ConceptBase().propositions.store.rows()
        assert oracle_prefix(rows, self.LOG) == 0

    def test_foreign_state_is_no_prefix(self):
        cb = ConceptBase()
        with cb.transaction():
            cb.tell("TELL Z END")
        rows = cb.propositions.store.rows()
        assert oracle_prefix(rows, self.LOG) is None


class TestChaosMatrix:
    """The acceptance sweep: every kind, several seeds, zero loss."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", STRICT_KINDS)
    def test_strict_kinds_lose_nothing(self, tmp_path, kind, seed):
        report = _run(tmp_path, kind, seed)
        assert report.load is not None
        assert report.load.unexpected_errors == 0
        assert report.oracle_prefix is not None, "recovered state is corrupt"
        assert report.rows_equal, (
            f"{kind}/{seed}: recovered rows match acked prefix "
            f"{report.oracle_prefix}/{report.acked_commits}"
        )
        assert report.lost_acked == 0
        if kind == "client_drop":
            assert report.exactly_once is True

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lying_fsync_loss_is_prefix_and_quantified(self, tmp_path, seed):
        report = _run(tmp_path, "lying_fsync", seed)
        assert report.load is not None
        assert report.load.unexpected_errors == 0
        # A lying disk may lose acked commits — but the survivors must
        # still be an exact prefix of the acked history (no holes, no
        # unacked resurrections), and the loss must be measured.
        assert report.oracle_prefix is not None, "recovered state is corrupt"
        assert report.lost_acked == \
            report.acked_commits - report.oracle_prefix

    def test_unknown_kind_is_refused(self, tmp_path):
        with pytest.raises(ValueError):
            ChaosHarness(str(tmp_path / "w"), "meteor_strike", 0)


class TestSupervisedRecovery:
    """The supervisor restarts through WAL replay and serves again."""

    @pytest.mark.parametrize("kind",
                             ["writer_kill", "fsync_fault", "torn_tail"])
    def test_supervised_chaos_recovers_live(self, tmp_path, kind):
        report = _run(tmp_path, kind, FAULT_SEED, supervised=True)
        assert report.supervisor["status"] == "serving"
        assert report.supervisor["server.supervisor.faults"] >= 1
        assert report.supervisor["server.supervisor.recoveries"] >= 1
        assert report.supervisor["server.supervisor.mttr_ms"]["count"] >= 1
        assert report.rows_equal, "live base diverged from its commit log"
        assert report.load is not None
        assert report.load.unexpected_errors == 0

    def test_restart_preserves_acked_and_drops_unacked(self, tmp_path):
        """Deterministic single-client variant: commits before the
        fault survive the supervised restart; the faulted one is
        retried by policy and applies exactly once."""
        plan = FaultPlan(seed=FAULT_SEED)
        io = FaultyIO(plan)
        registry = MetricsRegistry()
        store = WalStore(str(tmp_path / "sup.wal"), fsync="commit",
                         io=io, registry=registry)
        service = GKBMSService(ConceptBase(store=store, registry=registry))
        supervisor = ServiceSupervisor(
            service, backoff_base=0.001, backoff_cap=0.01, seed=FAULT_SEED
        )

        def until_serving(_delay):
            # A restart (rebuild plus the supervisor's own backoff) can
            # outlast the policy's few-ms backoff on a loaded host: wait
            # for the recovered service instead, bounded.
            give_up = time.monotonic() + 10.0
            while time.monotonic() < give_up and (
                    service.status != "serving"
                    or service.pipeline.poisoned):
                time.sleep(0.001)

        client = LocalClient(
            service, retry=RetryPolicy(seed=FAULT_SEED, base=0.001, cap=0.01,
                                       sleep=until_serving)
        )
        client.tell("TELL SimpleClass IN Class END")
        client.tell("TELL Before IN SimpleClass END")
        # Every fsync from here on fails: the next commit's batch
        # cannot ack, the pipeline poisons, the supervisor restarts —
        # and the client's tokened retry lands on the recovered service.
        plan.fail_fsyncs_from = io.ops + 1
        result = client.tell("TELL After IN SimpleClass END")
        supervisor.join()
        assert service.status == "serving"
        assert result["created"] >= 1
        assert client.retry.retries >= 1
        assert client.ask("In(Before, Proposition)")
        assert client.ask("In(After, Proposition)")
        applied = [
            entry for entry in service.pipeline.commit_log()
            if any("After" in arg for _kind, arg in entry[2])
        ]
        assert len(applied) == 1, "retried commit must apply exactly once"
        snapshot = registry.snapshot("server.supervisor")
        assert snapshot["server.supervisor.recoveries"] == 1
        service.drain()

    def test_crash_loop_degrades_to_read_only(self):
        """An exhausted restart budget stops the flapping: reads keep
        serving the recovered state, writes get the typed refusal."""
        service = GKBMSService(ConceptBase())
        supervisor = ServiceSupervisor(
            service, max_restarts=0, backoff_base=0.0, seed=FAULT_SEED
        )
        client = LocalClient(service)
        client.tell("TELL Probe END")
        supervisor._on_fault(ServerError("synthetic durability fault"))
        supervisor.join()
        assert service.status == "read_only"
        snapshot = service.registry.snapshot("server.supervisor")
        assert snapshot["server.supervisor.read_only_degrades"] == 1
        assert snapshot["server.supervisor.state"] == 2
        assert client.ask("In(Probe, Proposition)")  # reads still serve
        with pytest.raises(ServerReadOnly):
            client.tell("TELL Refused IN SimpleClass END")
        service.close()

    def test_memory_backed_restart_replays_acked_log(self):
        """No WAL: the successor base is rebuilt from the exported
        acked commit log alone — decisions and backtracks included."""
        service = GKBMSService(ConceptBase())
        supervisor = ServiceSupervisor(
            service, backoff_base=0.0, seed=FAULT_SEED
        )
        client = LocalClient(service)
        client.tell("TELL Kept END")
        client.tell("TELL K IN SimpleClass END")
        client.decide("Map", kind="mapping", tell=["TELL A IN K END"])
        normalize = client.decide("Norm", kind="refinement",
                                  inputs={"rel": "A"},
                                  tell=["TELL B IN K END"])
        client.decide("Key", kind="choice", inputs={"rel": "B"},
                      tell=["TELL C IN K END"])
        client.decide("Map", kind="mapping", tell=["TELL D IN K END"])
        client.backtrack(normalize["did"])  # takes C down with B
        client.tell("TELL After IN K END")
        names = ("Kept", "A", "B", "C", "D", "After")
        objects = {name: client.ask(f"In({name}, Proposition)")
                   for name in names}
        assert objects == {"Kept": True, "A": True, "B": False,
                           "C": False, "D": True, "After": True}
        history = client.history()
        rows = service.cb.propositions.store.rows()
        supervisor._on_fault(ServerError("synthetic durability fault"))
        supervisor.join()
        assert service.status == "serving"
        assert {name: client.ask(f"In({name}, Proposition)")
                for name in names} == objects
        assert client.history() == history
        assert service.cb.propositions.store.rows() == rows
        service.close()

    def test_restarting_status_rejects_with_typed_error(self):
        service = GKBMSService(ConceptBase())
        client = LocalClient(service)
        service.begin_restart()
        assert service.status == "restarting"
        with pytest.raises(ServerRestarting):
            client.ask("Known(Anything)")
        client.ping()  # ping stays alive for liveness probes
        service.complete_restart(ConceptBase(registry=service.registry),
                                 service.pipeline.export_state())
        assert service.status == "serving"
        service.close()

    def test_begin_restart_fails_open_transactions(self):
        service = GKBMSService(ConceptBase())
        client = LocalClient(service)
        client.begin()
        client.tell("TELL Staged END")
        service.begin_restart()
        service.complete_restart(ConceptBase(registry=service.registry),
                                 service.pipeline.export_state())
        # The staging died with the quiesce: commit finds no open
        # transaction (typed), and the client can cleanly start over.
        from repro.errors import SessionError
        with pytest.raises(SessionError):
            client.commit()
        service.close()


class TestIdempotencyTokens:
    """Exactly-once at the pipeline and service level."""

    def test_same_token_applies_once(self):
        service = GKBMSService(ConceptBase())
        client = LocalClient(service)
        first = service.handle({
            "id": 1, "op": "tell", "session": client.session,
            "params": {"source": "TELL OnlyOnce END", "token": "tok-1"},
        })
        again = service.handle({
            "id": 2, "op": "tell", "session": client.session,
            "params": {"source": "TELL OnlyOnce END", "token": "tok-1"},
        })
        assert first["ok"] and again["ok"]
        assert again["result"]["idempotent"] is True
        assert again["result"]["commit_seq"] == \
            first["result"]["commit_seq"]
        log = service.pipeline.commit_log()
        assert sum(1 for entry in log
                   if any("OnlyOnce" in arg for _k, arg in entry[2])) == 1
        snapshot = service.registry.snapshot("server.commit")
        assert snapshot["server.commit.idempotent_hits"] >= 1
        service.close()

    def test_commit_token_survives_session_change(self):
        """The lost-ack scenario: the retry arrives on a brand-new
        session (reconnect) and still collects the original result."""
        service = GKBMSService(ConceptBase())
        first = LocalClient(service)
        first.begin()
        first.tell("TELL Committed END")
        result = first.commit_with_token("tok-reconnect")
        second = LocalClient(service)
        replay = second.commit_with_token("tok-reconnect")
        assert replay["idempotent"] is True
        assert replay["commit_seq"] == result["commit_seq"]
        service.close()

    def test_unacked_token_is_not_replayable(self):
        """A token only dedupes once its commit *acked*: before that
        there is nothing safe to return."""
        service = GKBMSService(ConceptBase())
        assert service.pipeline.token_result("never-seen") is None
        service.close()

    def test_token_results_are_bounded(self, monkeypatch):
        """Past ``MAX_TOKEN_RESULTS`` later acks a token's result is
        evicted, and a retry that late applies again; the applied-token
        guard holds nothing once every batch has acked."""
        from repro.server import pipeline as pipeline_module
        monkeypatch.setattr(pipeline_module, "MAX_TOKEN_RESULTS", 2)
        service = GKBMSService(ConceptBase())
        pipeline = service.pipeline
        client = LocalClient(service)

        def tell(n, token):
            return service.handle({
                "id": n, "op": "tell", "session": client.session,
                "params": {"source": f"TELL Bound{n} END", "token": token},
            })

        first = tell(0, "tok-0")
        for n in range(1, 4):
            assert tell(n, f"tok-{n}")["ok"]
        with pipeline._log_lock:
            assert list(pipeline._token_results) == ["tok-2", "tok-3"]
        late = tell(0, "tok-0")
        assert late["ok"], late
        assert "idempotent" not in late["result"]
        assert late["result"]["commit_seq"] > first["result"]["commit_seq"]
        with pipeline._log_lock:
            assert len(pipeline._token_results) == 2
        service.close()
        assert pipeline._applied_tokens == set()

    def test_same_batch_duplicate_token_applies_once(self):
        """Two submits of one token in one batch: the first applies,
        the second is refused as in flight (nothing has acked yet)."""
        from repro.server.pipeline import CommitPipeline
        started, gate = threading.Event(), threading.Event()
        applied = []

        def apply(pending):
            if pending.session_id == "blocker":
                started.set()
                gate.wait(5)
            applied.append(pending.session_id)
            return {}

        pipeline = CommitPipeline(
            apply, MetricsRegistry().namespace("server.commit"), max_batch=8
        )
        outcomes = {}

        def submit(session_id, token):
            try:
                outcomes[session_id] = pipeline.submit(
                    [("tell", session_id)], [], None, session_id, token=token
                )
            except ServerError as exc:
                outcomes[session_id] = exc

        threads = [threading.Thread(target=submit, args=("blocker", None))]
        threads[0].start()
        try:
            assert started.wait(5)
            for session_id in ("first", "second"):
                thread = threading.Thread(target=submit,
                                          args=(session_id, "tok-dup"))
                thread.start()
                threads.append(thread)
                # queue the two in order, behind the blocked batch
                deadline = time.monotonic() + 5
                while pipeline._queue.qsize() < len(threads) - 1 \
                        and time.monotonic() < deadline:
                    time.sleep(0.001)
            assert pipeline._queue.qsize() == 2
            gate.set()
            for thread in threads:
                thread.join(5)
                assert not thread.is_alive()
        finally:
            gate.set()
            pipeline.close()
        assert applied == ["blocker", "first"]
        assert isinstance(outcomes["first"], dict)
        refused = outcomes["second"]
        assert isinstance(refused, ServerError)
        assert "already in flight" in str(refused)
        assert pipeline.token_result("tok-dup") == outcomes["first"]

    def test_export_state_drops_unacked_commits(self):
        service = GKBMSService(ConceptBase())
        client = LocalClient(service)
        client.tell("TELL SimpleClass IN Class END")
        state = service.pipeline.export_state()
        assert state["commit_seq"] == state["acked_seq"]
        assert all(seq <= state["acked_seq"]
                   for seq, _sid, _ops in state["commit_log"])
        service.close()


class TestRetryPolicy:
    def test_backoff_is_seeded_and_capped(self):
        a = RetryPolicy(seed=7, base=0.01, cap=0.05, sleep=lambda _s: None)
        b = RetryPolicy(seed=7, base=0.01, cap=0.05, sleep=lambda _s: None)
        delays_a = [a.delay(n) for n in range(1, 8)]
        delays_b = [b.delay(n) for n in range(1, 8)]
        assert delays_a == delays_b
        assert all(0 < d <= 0.05 for d in delays_a)

    def test_min_attempts_validated(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_overloaded_write_is_retried_with_token(self):
        """A shed tell retries under one token and lands exactly once."""
        service = GKBMSService(ConceptBase())
        client = LocalClient(
            service, retry=RetryPolicy(seed=1, sleep=lambda _s: None)
        )
        real_submit = service.pipeline.submit
        fails = {"left": 2}

        def flaky_submit(*args, **kwargs):
            if fails["left"] > 0:
                fails["left"] -= 1
                raise ServerOverloaded("synthetic shed")
            return real_submit(*args, **kwargs)

        service.pipeline.submit = flaky_submit
        result = client.tell("TELL Retried END")
        assert result["created"] >= 1
        assert client.retry.retries == 2
        log = service.pipeline.commit_log()
        assert sum(1 for entry in log
                   if any("Retried" in arg for _k, arg in entry[2])) == 1
        service.close()

    def test_untokened_write_never_retries(self):
        """Without a policy there is no token — a transient failure
        surfaces immediately rather than risking a double apply."""
        service = GKBMSService(ConceptBase())
        client = LocalClient(service)  # no retry policy

        def always_shed(*args, **kwargs):
            raise ServerOverloaded("synthetic shed")

        service.pipeline.submit = always_shed
        with pytest.raises(ServerOverloaded):
            client.tell("TELL Nope END")
        service.close()

    def test_reads_retry_without_tokens(self):
        service = GKBMSService(ConceptBase())
        client = LocalClient(
            service, retry=RetryPolicy(seed=1, sleep=lambda _s: None)
        )
        client.tell("TELL Probe END")
        real_handle = service.handle
        fails = {"left": 1}

        def flaky_handle(frame):
            if frame.get("op") == "ask" and fails["left"] > 0:
                fails["left"] -= 1
                from repro.server.protocol import error_response
                return error_response(
                    frame.get("id"), ServerRestarting("synthetic restart")
                )
            return real_handle(frame)

        service.handle = flaky_handle
        client._service = service
        assert client.ask("Known(Probe)")
        assert client.retry.retries == 1
        service.close()
