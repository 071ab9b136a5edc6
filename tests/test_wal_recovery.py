"""Crash-recovery property tests for the write-ahead logged store.

The central claim of the durability layer: **whatever the crash, a
reopened store shows exactly the last committed telling** — bit-identical
``rows()``, never a partial telling.  These tests prove it by brute
force.  A seeded history of tellings (creates, links, isa, clips,
retracts, nested savepoints, deliberate rollbacks) runs twice: once
fault-free, recording ``(log_offset, rows)`` at every commit boundary —
the *oracle* — and then once per kill point under a
:class:`~repro.faults.FaultyIO` that tears the write and kills the
process at the Nth IO op.  Because record bytes depend only on the
seeded op sequence, the oracle entry with the largest offset that still
fits in the surviving file *is* the expected recovered state, exactly.

The same sweep drives decision traffic (decides that tell and untell,
backtracks, aborted decides) through a
:class:`~repro.decisions.DecisionHistory`, whose oracle adds the ledger
JSON: a decision's delta is logged once, in its transaction's physical
records, and recovery must rebuild it exactly.

Seeded via ``FAULT_SEED`` (CI runs a small seed matrix).  When
``RECOVERY_COUNTERS`` names a file, aggregated recovery counters are
dumped there for the non-gating CI artifact.
"""

import json
import os
import random

import pytest

from repro.conceptbase import ConceptBase
from repro.core.gkbms import GKBMS
from repro.decisions import DecisionHistory
from repro.errors import DecisionError, PersistenceError, ReproError
from repro.obs.metrics import MetricError
from repro.faults import CrashPoint, FaultPlan, FaultyIO, WriteFault
from repro.propositions import PropositionProcessor, WalStore
from repro.propositions.proposition import individual
from repro.propositions.serialization import proposition_to_json
from repro.propositions.wal import encode_record, scan_records
from repro.scenario.workload import DesignEvolutionWorkload
from repro.timecalc import Interval

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))
KILL_POINTS = 55  # acceptance floor is 50 randomized kill points
DECISION_KILL_POINTS = 40

#: Aggregated across tests, dumped by the module fixture for CI.
RECOVERY_COUNTERS = {
    "seed": FAULT_SEED, "kill_points": 0, "replayed": 0,
    "truncated_tail": 0, "checksum_failures": 0,
    "discarded_uncommitted": 0, "snapshot_fallbacks": 0, "stale_logs": 0,
}


@pytest.fixture(scope="module", autouse=True)
def recovery_report():
    yield
    target = os.environ.get("RECOVERY_COUNTERS")
    if target:
        with open(target, "w") as handle:
            json.dump(RECOVERY_COUNTERS, handle, indent=1)


def _absorb(stats):
    for key in RECOVERY_COUNTERS:
        if key in stats:
            RECOVERY_COUNTERS[key] += stats[key]


class _Abort(Exception):
    """A deliberate, caught rollback in the generated history."""


def _history_step(proc, rng, names, classes, clipped, step):
    """One telling body; returns names created at *this* level."""
    added = []
    for i in range(rng.randint(1, 4)):
        choice = rng.random()
        if choice < 0.35 or len(names) < 2:
            name = f"n{step}_{i}"
            in_class = rng.choice(classes) if rng.random() < 0.5 else None
            proc.tell_individual(name, in_class=in_class)
            added.append(name)
        elif choice < 0.55:
            a, b = rng.sample(names, 2)
            proc.tell_link(a, f"ref{step}_{i}", b)
        elif choice < 0.7:
            victim = rng.choice(names)
            names.remove(victim)
            if proc.exists(victim):
                proc.retract(victim)
        elif choice < 0.85:
            target = rng.choice(names)
            if target not in clipped and proc.exists(target):
                clipped.add(target)
                proc.clip_validity(target, step * 100 + i)
        else:
            name = f"sp{step}_{i}"
            abort = rng.random() < 0.5
            try:
                with proc.telling():  # nested savepoint
                    proc.tell_individual(name)
                    if abort:
                        raise _Abort()
            except _Abort:
                pass
            else:
                added.append(name)
    return added


def run_history(io=None, path=None, seed=FAULT_SEED, tellings=28):
    """Drive a seeded telling history over a WalStore.

    Returns ``(store, commits)`` where ``commits`` is the oracle: the
    ``(log_offset, rows)`` pair after processor bootstrap and after
    every outermost commit/abort boundary.
    """
    store = WalStore(path, fsync="commit", io=io)
    proc = PropositionProcessor(store=store)
    rng = random.Random(seed)
    names, classes, clipped = [], [], set()
    with proc.telling():
        for c in range(3):
            proc.define_class(f"Cls{c}")
            classes.append(f"Cls{c}")
        proc.tell_isa("Cls1", "Cls0")
    commits = [(store.log_offset, store.rows())]
    for step in range(tellings):
        abort = rng.random() < 0.25
        try:
            with proc.telling():
                added = _history_step(proc, rng, names, classes, clipped, step)
                if abort:
                    raise _Abort()
        except _Abort:
            pass
        else:
            names.extend(added)
        commits.append((store.log_offset, store.rows()))
    return store, commits


def _ledger_json(history):
    return json.dumps([record.to_json() for record in history.ledger],
                      sort_keys=True)


def run_decision_history(io=None, path=None, seed=FAULT_SEED, steps=24):
    """Drive a seeded decision history through a DecisionHistory over a
    WalStore.

    Four decides and a checkpoint come first, so later backtracks can
    retract decisions the snapshot holds.  Each step then backtracks an
    active decision or decides: it tells an artifact linked FROM a live
    one plus 0-2 notes, may untell a note, and now and then untells a
    missing object, so its transaction aborts.  Returns ``(store,
    history, oracle)``; the oracle is ``(log_offset, rows, ledger
    JSON)`` after the checkpoint and after every step.
    """
    store = WalStore(path, fsync="commit", io=io)
    cb = ConceptBase(store=store)
    history = DecisionHistory(cb)
    with cb.transaction():
        cb.tell("TELL Artifact IN SimpleClass WITH\n"
                "  attribute from : Artifact\nEND")
        cb.tell("TELL Note IN SimpleClass END")
        cb.tell("TELL Root IN Artifact END")
    rng = random.Random(seed)
    artifacts, notes = ["Root"], []

    def decide(step):
        live = [name for name in artifacts if cb.propositions.exists(name)]
        source = live[-1 - rng.randrange(min(len(live), 5))]
        name = f"Art{step}"
        told = [f"{name}n{j}" for j in range(step % 3)]
        untell = [note for note in notes if cb.propositions.exists(note)]
        untell = untell[:1] if rng.random() < 0.4 else []
        if rng.random() < 0.1:
            untell.append("Ghost")
        spec = {"decision_class": "Dec", "inputs": {"source": source},
                "tell": [f"TELL {name} IN Artifact WITH\n"
                         f"  from from : {source}\nEND"]
                + [f"TELL {note} IN Note END" for note in told],
                "untell": untell}
        try:
            history.apply_decide(json.dumps(spec, sort_keys=True))
        except ReproError:
            return  # the missing object: the decide aborted
        artifacts.append(name)
        notes.extend(told)

    for step in range(4):
        decide(step)
    store.checkpoint()
    oracle = [(store.log_offset, store.rows(), _ledger_json(history))]
    for step in range(4, 4 + steps):
        active = history.ledger.active()
        if active and rng.random() < 0.25:
            target = rng.choice(active).did
            history.apply_backtrack(json.dumps({"did": target}))
        else:
            decide(step)
        oracle.append((store.log_offset, store.rows(), _ledger_json(history)))
    return store, history, oracle


class TestCrashRecoveryProperty:
    def test_randomized_kill_points_recover_last_commit(self, tmp_path):
        # Fault-free reference run: the oracle, plus the IO-op range.
        probe = FaultyIO(FaultPlan(lying_fsyncs=True))
        ref = str(tmp_path / "ref.wal")
        store, commits = run_history(io=probe, path=ref)
        store.close()
        total_ops = probe.ops
        # Ops consumed before the first oracle entry (store open + kernel
        # bootstrap + the class-defining telling).
        boot = FaultyIO(FaultPlan(lying_fsyncs=True))
        boot_store = WalStore(str(tmp_path / "boot.wal"), fsync="commit",
                              io=boot)
        proc = PropositionProcessor(store=boot_store)
        with proc.telling():
            for c in range(3):
                proc.define_class(f"Cls{c}")
            proc.tell_isa("Cls1", "Cls0")
        boot_ops = boot.ops
        boot_store.close()

        candidates = range(boot_ops + 1, total_ops + 1)
        assert len(candidates) > KILL_POINTS, "history too short to sweep"
        rng = random.Random(FAULT_SEED + 999)
        kills = sorted(rng.sample(candidates, KILL_POINTS))

        for n in kills:
            path = str(tmp_path / f"kill{n}.wal")
            plan = FaultPlan(crash_at=n, torn_writes=True, lying_fsyncs=True,
                             seed=FAULT_SEED * 1000 + n)
            with pytest.raises(CrashPoint):
                crashed_store, _ = run_history(io=FaultyIO(plan), path=path)
                crashed_store.close()
            durable = os.path.getsize(path)
            expected = None
            for offset, rows in commits:
                if offset <= durable:
                    expected = rows
            assert expected is not None, f"kill {n} lost the bootstrap"
            recovered = WalStore(path)  # clean IO: the restarted process
            assert recovered.rows() == expected, (
                f"kill point {n}: recovered state is not the last commit"
            )
            _absorb(recovered.stats)
            recovered.close()
        RECOVERY_COUNTERS["kill_points"] += len(kills)

    def test_randomized_kill_points_recover_the_decision_ledger(
            self, tmp_path):
        probe = FaultyIO(FaultPlan(lying_fsyncs=True))
        store, _history, oracle = run_decision_history(
            io=probe, path=str(tmp_path / "ref.wal"))
        store.close()
        total_ops = probe.ops
        boot = FaultyIO(FaultPlan(lying_fsyncs=True))
        boot_store, _, _ = run_decision_history(
            io=boot, path=str(tmp_path / "boot.wal"), steps=0)
        boot_ops = boot.ops
        boot_store.close()

        candidates = range(boot_ops + 1, total_ops + 1)
        assert len(candidates) > DECISION_KILL_POINTS
        rng = random.Random(FAULT_SEED + 777)
        kills = sorted(rng.sample(candidates, DECISION_KILL_POINTS))
        backtracked = {}  # oracle index -> (did, rows, ledger JSON)
        for n in kills:
            path = str(tmp_path / f"kill{n}.wal")
            plan = FaultPlan(crash_at=n, torn_writes=True, lying_fsyncs=True,
                             seed=FAULT_SEED * 1000 + n)
            with pytest.raises(CrashPoint):
                run_decision_history(io=FaultyIO(plan), path=path)
            durable = os.path.getsize(path)
            last = max(index for index, (offset, _rows, _ledger)
                       in enumerate(oracle) if offset <= durable)
            _offset, rows, ledger = oracle[last]
            recovered = WalStore(path)  # clean IO: the restarted process
            history = DecisionHistory(ConceptBase(store=recovered))
            assert recovered.rows() == rows, (
                f"kill point {n}: recovered state is not the last commit")
            assert _ledger_json(history) == ledger, (
                f"kill point {n}: recovered ledger (deltas included) is "
                f"not the last durable one")
            # The rebuilt deltas still undo exactly: backtracking the
            # oldest active decision matches a live history stopped at
            # the same op doing the same.
            active = history.ledger.active()
            if active:
                did = active[0].did
                if last not in backtracked:
                    ref_store, ref, _ = run_decision_history(
                        path=str(tmp_path / f"ref{last}.wal"), steps=last)
                    ref.apply_backtrack(json.dumps({"did": did}))
                    backtracked[last] = (ref_store.rows(), _ledger_json(ref))
                    ref_store.close()
                history.apply_backtrack(json.dumps({"did": did}))
                assert (recovered.rows(), _ledger_json(history)) == \
                    backtracked[last], (
                        f"kill point {n}: backtracking {did} after "
                        f"recovery diverged from the live history")
            _absorb(recovered.stats)
            recovered.close()
        RECOVERY_COUNTERS["kill_points"] += len(kills)

    def test_corrupted_tail_truncates_instead_of_raising(self, tmp_path):
        path = str(tmp_path / "tail.wal")
        store, commits = run_history(path=path, tellings=6)
        store.close()
        with open(path, "ab") as handle:  # garbage after the last record
            handle.write(b"\xde\xad\xbe\xef" * 5)
        recovered = WalStore(path)
        assert recovered.stats["truncated_tail"] > 0
        assert recovered.rows() == commits[-1][1]
        _absorb(recovered.stats)
        recovered.close()
        # ... and the truncation is physical: a second reopen is clean.
        again = WalStore(path)
        assert again.stats["truncated_tail"] == 0
        assert again.rows() == commits[-1][1]
        again.close()

    def test_checksum_flip_discards_the_damaged_suffix(self, tmp_path):
        path = str(tmp_path / "flip.wal")
        store = WalStore(path, fsync="commit")
        proc = PropositionProcessor(store=store)
        with proc.telling():
            proc.tell_individual("a")
            proc.tell_individual("b")
        rows_first = store.rows()
        with proc.telling():
            proc.tell_individual("c")
        store.close()
        data = open(path, "rb").read()
        records, _, corruption = scan_records(data)
        assert corruption == ""
        # Flip one byte inside the final record (t2's commit marker):
        # the whole second telling must disappear on recovery.
        last_start = records[-2][0]
        mutated = bytearray(data)
        mutated[last_start + 9] ^= 0xFF
        open(path, "wb").write(bytes(mutated))
        recovered = WalStore(path)
        assert recovered.stats["checksum_failures"] >= 1
        assert recovered.stats["truncated_tail"] >= 1
        assert recovered.rows() == rows_first
        _absorb(recovered.stats)
        recovered.close()

    def test_uncommitted_tail_is_discarded(self, tmp_path):
        path = str(tmp_path / "open.wal")
        store = WalStore(path, fsync="commit")
        before = store.rows()
        store.txn("begin")
        store.create(individual("ghost"))
        store.close()  # crash with an open transaction on disk
        recovered = WalStore(path)
        assert recovered.stats["discarded_uncommitted"] >= 1
        assert recovered.rows() == before
        assert "ghost" not in recovered
        _absorb(recovered.stats)
        recovered.close()


class TestCheckpointRecovery:
    def _build(self, io, path, tellings=4):
        store, commits = run_history(io=io, path=path, seed=7,
                                     tellings=tellings)
        return store, commits

    def test_recovery_after_checkpoint_replays_only_the_suffix(self, tmp_path):
        path = str(tmp_path / "ckpt.wal")
        store, _ = self._build(None, path)
        replayed_full = store.stats["wal_records"]
        dropped = store.checkpoint()
        assert dropped > 0
        proc = PropositionProcessor(store=store)
        with proc.telling():
            proc.tell_individual("after_ckpt")
        rows = store.rows()
        store.close()
        recovered = WalStore(path)
        assert recovered.rows() == rows
        assert recovered.generation == 1
        # Only the post-checkpoint suffix is replayed, not the history.
        assert 0 < recovered.stats["replayed"] < replayed_full
        recovered.close()

    def test_crash_anywhere_inside_checkpoint_loses_nothing(self, tmp_path):
        # Probe: ops before checkpoint, and ops checkpoint itself takes.
        probe = FaultyIO(FaultPlan(lying_fsyncs=True))
        path0 = str(tmp_path / "probe.wal")
        store, _ = self._build(probe, path0)
        base_ops = probe.ops
        rows_before = store.rows()
        store.checkpoint()
        ckpt_ops = probe.ops - base_ops
        store.close()
        assert ckpt_ops >= 3  # snapshot write, replace, new log header...

        for k in range(1, ckpt_ops + 1):
            subdir = tmp_path / f"ck{k}"
            subdir.mkdir()
            path = str(subdir / "ckpt.wal")
            plan = FaultPlan(crash_at=base_ops + k, torn_writes=True,
                             lying_fsyncs=True, seed=k)
            io = FaultyIO(plan)
            with pytest.raises(CrashPoint):
                crashed, _ = self._build(io, path)
                crashed.checkpoint()
                crashed.close()
            recovered = WalStore(path)  # clean IO
            assert recovered.rows() == rows_before, (
                f"crash at checkpoint op {k} changed the logical state"
            )
            _absorb(recovered.stats)
            recovered.close()
        RECOVERY_COUNTERS["kill_points"] += ckpt_ops

    def test_corrupt_snapshot_falls_back_to_previous(self, tmp_path):
        path = str(tmp_path / "fb.wal")
        store, _ = self._build(None, path)
        proc = PropositionProcessor(store=store)
        store.checkpoint()  # generation 1: .snapshot
        rows_gen1 = store.rows()
        with proc.telling():
            proc.tell_individual("second_era")
        store.checkpoint()  # generation 2: rotates gen-1 to .prev
        with proc.telling():
            proc.tell_individual("third_era")
        store.close()
        # Corrupt the current snapshot's payload bytes.
        data = bytearray(open(store.snapshot_path, "rb").read())
        mid = len(data) // 2
        data[mid:mid + 4] = b"ruin"
        open(store.snapshot_path, "wb").write(bytes(data))
        recovered = WalStore(path)
        # Gen-1 snapshot + a gen-2 log: the log is stale relative to the
        # snapshot we could load, so recovery degrades to generation 1.
        assert recovered.stats["snapshot_fallbacks"] == 1
        assert recovered.stats["checksum_failures"] >= 1
        assert recovered.stats["stale_logs"] == 1
        assert recovered.rows() == rows_gen1
        assert "third_era" not in recovered
        _absorb(recovered.stats)
        recovered.close()


class TestDecisionLog:
    def test_replay_rebuilds_create_delete_and_clip_deltas(self, tmp_path):
        path = str(tmp_path / "delta.wal")
        store = WalStore(path)
        proc = PropositionProcessor(store=store)
        with proc.telling():
            proc.tell_individual("Old", time=Interval.since(0))
            proc.tell_individual("Gone")
        with proc.telling() as telling:
            proc.tell_individual("New")
            proc.retract("Gone")
            proc.clip_validity("Old", 100)
            delta = [[op[0]] + [proposition_to_json(p) for p in op[1:]]
                     for op in telling.ops]
            store.append_decision({"did": "d1", "tick": 1,
                                   "decision_class": "Dec", "delta": delta})
        store.close()
        assert [op[0] for op in delta] == ["create", "delete", "clip"]
        records, _offset, _corruption = scan_records(open(path, "rb").read())
        [logged] = [payload["record"] for _end, payload in records
                    if payload["op"] == "decision"]
        assert "delta" not in logged
        recovered = WalStore(path)
        [record] = recovered.bind_ledger(lambda: [])
        assert record["delta"] == delta
        recovered.close()

    def test_log_with_deltas_in_decision_records_recovers_unchanged(
            self, tmp_path):
        """Logs written before a decision's delta was logged once carry
        it in every ``decision`` record; they are read as they are."""
        path = str(tmp_path / "new.wal")
        store, history, oracle = run_decision_history(path=path)
        deltas = {record.did: record.to_json()["delta"]
                  for record in history.ledger}
        store.close()
        old = str(tmp_path / "old.wal")
        records, _offset, corruption = scan_records(open(path, "rb").read())
        assert corruption == ""
        with open(old, "wb") as handle:
            for _end, payload in records:
                if payload["op"] == "decision":
                    record = payload["record"]
                    assert "delta" not in record
                    record["delta"] = deltas[record["did"]]
                handle.write(encode_record(payload))
        for suffix in (".snapshot", ".snapshot.prev"):
            if os.path.exists(path + suffix):
                os.replace(path + suffix, old + suffix)
        _offset, rows, ledger = oracle[-1]
        recovered = WalStore(old)
        assert recovered.rows() == rows
        assert _ledger_json(DecisionHistory(ConceptBase(store=recovered))) \
            == ledger
        recovered.close()

    def test_decide_nested_in_a_transaction_is_refused(self, tmp_path):
        """A decide is its own top-level transaction, so its log records
        are exactly its delta; one nested in a caller's transaction is
        refused and changes neither rows, ledger nor log."""
        path = str(tmp_path / "nested.wal")
        store = WalStore(path)
        cb = ConceptBase(store=store)
        history = DecisionHistory(cb)
        with cb.transaction():
            cb.tell("TELL K IN SimpleClass END")
        rows, ledger = store.rows(), _ledger_json(history)
        offset = store.log_offset
        with pytest.raises(DecisionError):
            with cb.transaction():
                cb.tell("TELL B IN K END")
                history.apply_decide(json.dumps({
                    "decision_class": "Dec", "tell": ["TELL A IN K END"]}))
        assert store.rows() == rows
        assert _ledger_json(history) == ledger
        store.close()
        with open(path, "rb") as log:
            log.seek(offset)
            assert b'"op":"decision"' not in log.read()
        recovered = WalStore(path)
        assert recovered.rows() == rows
        assert _ledger_json(DecisionHistory(ConceptBase(store=recovered))) \
            == ledger
        recovered.close()

    def test_second_ledger_binding_is_refused(self, tmp_path):
        store = WalStore(str(tmp_path / "bind.wal"))
        cb = ConceptBase(store=store)
        DecisionHistory(cb)
        with pytest.raises(PersistenceError):
            DecisionHistory(cb)
        store.close()


class TestCleanFailures:
    def test_failed_append_keeps_memory_and_disk_agreeing(self, tmp_path):
        path = str(tmp_path / "fail.wal")
        probe = FaultyIO(FaultPlan(lying_fsyncs=True))
        store = WalStore(str(tmp_path / "probe.wal"), fsync="commit", io=probe)
        PropositionProcessor(store=store)
        setup_ops = probe.ops

        io = FaultyIO(FaultPlan(fail_write_at=setup_ops + 1,
                                lying_fsyncs=True))
        store = WalStore(path, fsync="commit", io=io)
        proc = PropositionProcessor(store=store)
        with pytest.raises(PersistenceError):
            proc.tell_individual("lost")
        assert not proc.exists("lost")  # memory change was undone
        prop = proc.tell_individual("kept")  # store is still usable
        assert prop.pid == "kept"
        store.close()
        recovered = WalStore(path)
        assert recovered.rows() == store.rows()
        assert "kept" in recovered and "lost" not in recovered
        recovered.close()

    def test_write_fault_is_an_oserror(self):
        assert issubclass(WriteFault, OSError)
        assert not issubclass(CrashPoint, Exception)

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(PersistenceError):
            WalStore(str(tmp_path / "x.wal"), fsync="sometimes")


class TestProcessorIntegration:
    def test_processor_surfaces_store_stats_read_only(self, tmp_path):
        store = WalStore(str(tmp_path / "s.wal"))
        proc = PropositionProcessor(store=store)
        # The durability counters are visible through the processor's
        # stats view, but NOT by dict aliasing: the view is a distinct
        # object and the durable keys are read-only on it.
        assert proc.stats is not store.stats
        assert "replayed" in proc.stats and "closure_hits" in proc.stats
        assert proc.stats["wal_records"] == store.stats["wal_records"]
        with pytest.raises(MetricError):
            proc.stats["replayed"] = 99

    def test_two_processors_one_store_count_independently(self, tmp_path):
        """Regression for the PR 3 aliasing bug: two processors opened on
        the same WalStore shared one stats dict and double-counted
        closure work.  Each must now own its counters."""
        store = WalStore(str(tmp_path / "shared.wal"))
        first = PropositionProcessor(store=store)
        first.define_class("A")
        first.define_class("B", isa=["A"])
        first.specializations("A")
        assert first.stats["isa_expansions"] > 0
        second = PropositionProcessor(store=store, bootstrap=False)
        assert second.stats["isa_expansions"] == 0
        assert second.stats["closure_misses"] == 0
        before = first.stats["isa_expansions"]
        second.specializations("A")
        assert second.stats["isa_expansions"] > 0
        assert first.stats["isa_expansions"] == before  # no cross-count

    def test_reopened_processor_starts_with_fresh_closure_counters(
            self, tmp_path):
        """Regression: a processor reopened after recovery used to
        inherit the previous processor's closure numbers through the
        store's surviving stats dict."""
        path = str(tmp_path / "reopen.wal")
        store = WalStore(path)
        proc = PropositionProcessor(store=store)
        proc.define_class("Thing")
        proc.classes_of("Thing")
        assert proc.stats["closure_misses"] > 0
        store.close()
        recovered_store = WalStore(path)
        reopened = PropositionProcessor(store=recovered_store,
                                        bootstrap=False)
        assert reopened.stats["closure_misses"] == 0
        assert reopened.stats["closure_hits"] == 0
        assert reopened.stats["isa_expansions"] == 0
        # ... while the recovery counters of the *new* store are live.
        assert reopened.stats["replayed"] > 0
        recovered_store.close()

    def test_s28_workload_survives_reopen(self, tmp_path):
        path = str(tmp_path / "s28.wal")
        store = WalStore(path, fsync="never")
        gkbms = GKBMS(processor=PropositionProcessor(store=store))
        gkbms.register_standard_library()
        DesignEvolutionWorkload(seed=FAULT_SEED, steps=8).run(gkbms)
        rows = store.rows()
        assert len(rows) > 50  # the workload actually built something
        store.close()
        recovered = WalStore(path)
        assert recovered.rows() == rows
        recovered.close()
