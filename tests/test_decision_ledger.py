"""The decision ledger: records, justification graph, WAL durability.

Unit-level coverage for :mod:`repro.decisions` — the typed ledger and
its serialization round-trip, the consequence-edge rules, the engine's
validation and atomicity guarantees, and the whole durability story:
a decide/backtrack history must be reconstructible from the WAL alone,
across plain reopens, checkpoints, and aborted transactions.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.conceptbase import ConceptBase
from repro.decisions import (
    DecisionHistory,
    DecisionLedger,
    JustificationGraph,
    KINDS,
    LedgerRecord,
    decide_keys,
)
from repro.errors import BacktrackError, ConsistencyError, DecisionError
from repro.obs.metrics import MetricsRegistry
from repro.propositions.wal import WalStore


def decide(history, decision_class="Dec", **spec):
    spec["decision_class"] = decision_class
    return history.apply_decide(json.dumps(spec, sort_keys=True))


def backtrack(history, did):
    return history.apply_backtrack(json.dumps({"did": did}))


@pytest.fixture
def history():
    cb = ConceptBase()
    with cb.transaction():
        cb.tell("TELL K IN SimpleClass END")
    return DecisionHistory(cb)


# ---------------------------------------------------------------------------
# LedgerRecord / DecisionLedger
# ---------------------------------------------------------------------------


class TestLedger:
    def test_record_json_roundtrip_is_lossless(self, history):
        record = LedgerRecord(
            did="d1", tick=3, decision_class="DecNormalize",
            kind="refinement", tool="Normalizer",
            inputs={"rel": "R"}, outputs=["R2"], parents=["d0"],
            rationale="why", obligations=["ob1"],
            told=["p1"], untold=["p2"], clipped=["p3"],
            delta=[["create", {"pid": "p1", "source": "R2",
                               "label": "R2", "destination": "R2"}]],
            status="retracted", retracted_tick=9,
            output_roles={"relations": ["R2"]},
            params={"key": ("date", "author"), "only": ["R"]},
            actor="rose", assumptions=["OnlyInvitations"],
        )
        wire = json.loads(json.dumps(record.to_json()))
        assert LedgerRecord.from_json(wire) == record
        # a decision log written before the in-process provenance keys
        # existed recovers to the identical history
        decide(history, tell=["TELL A IN K END"])
        decide(history, kind="mapping", inputs={"x": "A"},
               tell=["TELL B IN K END"], rationale="r", obligations=["ob"])
        backtrack(history, "d2")
        before = json.loads(history.history())
        old_log = [
            {key: value for key, value in record.to_json().items()
             if key not in ("output_roles", "params", "actor", "assumptions")}
            for record in history.ledger.records
        ]
        history.ledger = DecisionLedger.from_wire_log(old_log)
        assert json.loads(history.history()) == before

    def test_from_json_refuses_garbage(self):
        with pytest.raises(DecisionError):
            LedgerRecord.from_json({"no": "did"})

    def test_dids_and_ticks_are_deterministic(self):
        ledger = DecisionLedger()
        assert ledger.next_did() == "d1"
        ledger.append(LedgerRecord(did="d1", tick=ledger.next_tick(),
                                   decision_class="A"))
        assert ledger.next_did() == "d2"
        assert ledger.next_tick() == 2

    def test_duplicate_did_refused(self):
        ledger = DecisionLedger()
        ledger.append(LedgerRecord(did="d1", tick=1, decision_class="A"))
        with pytest.raises(DecisionError):
            ledger.append(LedgerRecord(did="d1", tick=2, decision_class="B"))

    def test_unknown_did_refused(self):
        with pytest.raises(DecisionError):
            DecisionLedger().get("d7")

    def test_mark_retracted_updates_active_view(self):
        ledger = DecisionLedger()
        ledger.append(LedgerRecord(did="d1", tick=1, decision_class="A"))
        ledger.append(LedgerRecord(did="d2", tick=2, decision_class="B"))
        ledger.mark_retracted("d1", ledger.next_tick())
        assert [r.did for r in ledger.active()] == ["d2"]
        assert ledger.get("d1").retracted_tick == 3

    def test_from_wire_log_resumes_tick_counter(self):
        ledger = DecisionLedger.from_wire_log([
            {"did": "d1", "tick": 1, "decision_class": "A",
             "status": "retracted", "retracted_tick": 4},
            {"did": "d2", "tick": 2, "decision_class": "B"},
        ])
        # the next event must come after every recorded tick
        assert ledger.next_tick() == 5

    def test_created_and_referenced_ids(self):
        record = LedgerRecord(
            did="d1", tick=1, decision_class="A",
            inputs={"src": "X"}, outputs=["Y"], told=["Y", "p4"],
            untold=["p2"], clipped=["p3"],
            delta=[["create", {"pid": "p4", "source": "Y",
                               "label": "instanceof", "destination": "K"}]],
        )
        assert record.created_ids() == ["Y", "p4"]
        refs = record.referenced_ids()
        assert "X" in refs and "p2" in refs and "p3" in refs
        # link endpoints count, the created pid itself does not
        assert "K" in refs and "Y" in refs and "p4" not in refs

    def test_decide_keys_parses_tell_and_untell_names(self):
        keys = decide_keys({
            "tell": ["TELL A IN K END", "TELL B IN K END\nTELL A IN K END",
                     "TELL TELLTALE IN K END"],
            "untell": ["C"],
        })
        assert keys == ["A", "B", "TELLTALE", "C"]


# ---------------------------------------------------------------------------
# JustificationGraph
# ---------------------------------------------------------------------------


def _rec(did, tick, **kw):
    return LedgerRecord(did=did, tick=tick, decision_class="Dec", **kw)


class TestJustificationGraph:
    def test_edge_reasons(self):
        records = [
            _rec("d1", 1, outputs=["A"], told=["A"]),
            _rec("d2", 2, inputs={"src": "A"}, outputs=["B"], told=["B"]),
            _rec("d3", 3, parents=["d2"]),
            _rec("d4", 4, untold=["A"]),
        ]
        graph = JustificationGraph(records)
        assert graph.edges["d1"]["d2"] == "from-to"
        assert graph.edges["d2"]["d3"] == "by"
        assert graph.edges["d1"]["d4"] == "write-set"

    def test_consequents_are_transitive(self):
        records = [
            _rec("d1", 1, outputs=["A"], told=["A"]),
            _rec("d2", 2, inputs={"x": "A"}, outputs=["B"], told=["B"]),
            _rec("d3", 3, inputs={"x": "B"}),
            _rec("d4", 4),  # unrelated
        ]
        graph = JustificationGraph(records)
        assert graph.consequents("d1") == {"d2", "d3"}
        assert graph.consequents("d4") == set()

    def test_retracted_decisions_do_not_transmit(self):
        records = [
            _rec("d1", 1, outputs=["A"], told=["A"]),
            _rec("d2", 2, inputs={"x": "A"}, outputs=["B"], told=["B"],
                 status="retracted", retracted_tick=4),
            _rec("d3", 3, inputs={"x": "B"}),
        ]
        graph = JustificationGraph(records)
        # d2 is already gone: it neither falls again nor drags d3 down
        assert graph.consequents("d1") == set()
        assert graph.consequents("d1", active_only=False) == {"d2", "d3"}

    def test_justification_of(self):
        records = [
            _rec("d1", 1, outputs=["A"], told=["A"]),
            _rec("d2", 2, inputs={"x": "A"}),
        ]
        graph = JustificationGraph(records)
        assert graph.justification_of("d2") == [("d1", "from-to")]

    def test_edge_list_is_stable_wire_form(self):
        records = [
            _rec("d1", 1, outputs=["A"], told=["A"]),
            _rec("d2", 2, inputs={"x": "A"}),
        ]
        assert JustificationGraph(records).edge_list() == [
            {"from": "d1", "to": "d2", "reason": "from-to"},
        ]

    def test_out_of_order_append_is_refused_unchanged(self):
        ledger = DecisionLedger()
        ledger.append(_rec("d1", 5, outputs=["A"], told=["A"]))
        with pytest.raises(DecisionError):
            ledger.append(_rec("d2", 4, inputs={"x": "A"}, outputs=["B"],
                               told=["B"]))
        assert [r.did for r in ledger.records] == ["d1"]
        assert "d2" not in ledger.by_did
        assert ledger.next_did() == "d2"
        assert ledger.graph.node_count == 1
        assert ledger.graph.edge_list() == []
        # the refused record left nothing in the lookup indexes: a
        # later consumer of its output links to nobody
        ledger.append(_rec("d2", 5, inputs={"x": "A"}))  # equal tick: in order
        ledger.append(_rec("d3", 6, inputs={"x": "B"}))
        assert ledger.graph.edge_list() == [
            {"from": "d1", "to": "d2", "reason": "from-to"},
        ]
        assert ledger.graph.justification_of("d3") == []

    def test_producer_lookup_lists_a_record_once(self):
        """A record naming one object under two output roles produced
        it once."""
        ledger = DecisionLedger()
        first = _rec("d1", 1, outputs=["A", "A"],
                     output_roles={"relation": ["A"], "key": ["A"]})
        second = _rec("d2", 2, outputs=["A"])
        ledger.append(first)
        ledger.append(second)
        assert ledger.graph.producers_of("A") == ["d1", "d2"]
        assert ledger.producers_of("A") == [first, second]
        assert ledger.producers_of("B") == []

    def test_version_entries_group_outputs_under_their_base(self):
        ledger = DecisionLedger()
        first = _rec("d1", 1, outputs=["R"])
        second = _rec("d2", 2, outputs=["R~2", "S"])
        ledger.append(first)
        ledger.append(second)
        assert ledger.version_entries() == {
            "R": [("R", first), ("R~2", second)],
            "S": [("S", second)],
        }


class AllPairsGraph:
    """The reference justification graph: every earlier/later pair of
    the tick-sorted records, tested directly (O(records^2))."""

    def __init__(self, records):
        self.records = sorted(records, key=lambda r: r.tick)
        self.edges = {record.did: {} for record in self.records}
        for i, earlier in enumerate(self.records):
            created = set(earlier.created_ids())
            outputs = set(earlier.outputs)
            for later in self.records[i + 1:]:
                if earlier.did in later.parents:
                    self.edges[earlier.did][later.did] = "by"
                elif set(later.inputs.values()) & outputs:
                    self.edges[earlier.did][later.did] = "from-to"
                elif set(later.referenced_ids()) & created:
                    self.edges[earlier.did][later.did] = "write-set"

    def edge_list(self):
        return [{"from": source, "to": target,
                 "reason": self.edges[source][target]}
                for source in sorted(self.edges)
                for target in sorted(self.edges[source])]

    def consequents(self, did, active_only=True):
        active = {r.did for r in self.records
                  if r.is_active or not active_only}
        seen = set()
        frontier = [did]
        while frontier:
            for target in self.edges.get(frontier.pop(), ()):
                if target in active and target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return seen

    def justification_of(self, did):
        return sorted((source, targets[did])
                      for source, targets in self.edges.items()
                      if did in targets)


#: Small id pools, so names, pids and link endpoints collide often.
_NAMES = ["A", "B", "C", "K"]
_PIDS = ["p1", "p2", "p3"]
_IDS = _NAMES + _PIDS


@st.composite
def record_sequences(draw):
    """Tick-ordered records (equal ticks allowed) with parents that are
    earlier, later, self or unknown, names several records output,
    untold/clipped ids and created-link endpoints."""
    count = draw(st.integers(0, 12))
    dids = [f"d{n}" for n in range(1, count + 1)]
    records = []
    tick = 0
    for did in dids:
        tick += draw(st.integers(0, 2))
        links = draw(st.lists(st.tuples(st.sampled_from(_PIDS),
                                        st.sampled_from(_IDS),
                                        st.sampled_from(_IDS)), max_size=2))
        delta = [["create", {"pid": pid, "source": source, "label": "l",
                             "destination": destination}]
                 for pid, source, destination in links]
        inputs = draw(st.lists(st.sampled_from(_IDS), max_size=2))
        records.append(_rec(
            did, tick,
            inputs={f"r{i}": name for i, name in enumerate(inputs)},
            outputs=draw(st.lists(st.sampled_from(_NAMES), max_size=2,
                                  unique=True)),
            parents=draw(st.lists(st.sampled_from(dids + ["d99"]),
                                  max_size=2)),
            told=[op[1]["pid"] for op in delta],
            untold=draw(st.lists(st.sampled_from(_IDS), max_size=2)),
            clipped=draw(st.lists(st.sampled_from(_IDS), max_size=1)),
            delta=delta,
        ))
    retract = draw(st.lists(st.sampled_from(dids), unique=True)) \
        if dids else []
    return records, retract


def _assert_same_graph(graph, reference, dids):
    assert [(source, list(targets.items()))
            for source, targets in graph.edges.items()] == \
        [(source, list(targets.items()))
         for source, targets in reference.edges.items()]
    assert graph.edge_list() == reference.edge_list()
    assert graph.edge_count == len(reference.edge_list())
    assert graph.node_count == len(reference.records)
    for did in dids + ["d99"]:
        assert graph.justification_of(did) == \
            reference.justification_of(did)
        for active_only in (True, False):
            assert graph.consequents(did, active_only) == \
                reference.consequents(did, active_only)


@settings(max_examples=200, deadline=None)
@given(record_sequences())
def test_maintained_graph_equals_all_pairs_reference(case):
    """The graph the ledger links on append is the graph the all-pairs
    definition gives — edges, target order, justifiers and consequents,
    before and after random retractions."""
    records, retract = case
    ledger = DecisionLedger()
    for record in records:
        ledger.append(record)
    reference = AllPairsGraph(records)
    dids = [record.did for record in records]
    _assert_same_graph(ledger.graph, reference, dids)
    # constructing from an unsorted snapshot sorts it by tick first
    _assert_same_graph(JustificationGraph(records[::-1]),
                       AllPairsGraph(records[::-1]), dids)
    for tick, did in enumerate(retract, start=len(records) + 1):
        ledger.mark_retracted(did, tick)
    _assert_same_graph(ledger.graph, reference, dids)


# ---------------------------------------------------------------------------
# DecisionHistory: validation, atomicity, replay, versions
# ---------------------------------------------------------------------------


class TestDecisionHistory:
    def test_decide_records_exact_pids(self, history):
        result = decide(history, tell=["TELL A IN K END"])
        record = history.ledger.get(result["did"])
        assert record.outputs == ["A"]
        assert "A" in record.told and len(record.told) == 2  # + instanceof
        assert record.delta[0][0] == "create"

    def test_validation_errors(self, history):
        # shape errors (empty class, unknown kind) are refused at the
        # wire: tests/test_server_decisions.py
        with pytest.raises(DecisionError):
            decide(history, inputs={"src": "Ghost"})
        with pytest.raises(DecisionError):
            decide(history, parents=["d99"])
        assert len(history.ledger) == 0

    def test_kinds_constant_matches_validation(self, history):
        for kind in KINDS:
            decide(history, tell=[], kind=kind)
        assert len(history.ledger) == len(KINDS)

    def test_failed_decide_leaves_no_record_and_no_props(self, history):
        before = history.store.rows()
        with pytest.raises(Exception):
            decide(history, tell=["TELL A IN K END"], untell=["Ghost"])
        assert history.store.rows() == before
        assert len(history.ledger) == 0
        assert history.ledger.next_did() == "d1"

    def test_backtrack_unknown_and_double(self, history):
        with pytest.raises(DecisionError):
            backtrack(history, "d9")
        result = decide(history, tell=["TELL A IN K END"])
        backtrack(history, result["did"])
        with pytest.raises(BacktrackError):
            backtrack(history, result["did"])

    def test_backtrack_restores_untold_propositions(self, history):
        decide(history, tell=["TELL A IN K END"])
        before = history.store.rows()
        result = decide(history, untell=["A"])
        assert not history.proc.exists("A")
        backtrack(history, result["did"])
        assert history.store.rows() == before

    def test_replay_reports_input_drift(self, history):
        with history.cb.transaction():
            history.cb.tell("TELL Src IN K END")
        result = decide(history, inputs={"s": "Src"},
                        tell=["TELL A IN K END"])
        with history.cb.transaction():
            history.cb.untell("Src")
        outcome = history.replay(result["did"])
        assert outcome["applicable"] is False
        assert {"kind": "missing_input", "role": "s",
                "name": "Src"} in outcome["drift"]

    def test_replay_clean_after_backtrack(self, history):
        result = decide(history, tell=["TELL A IN K END"])
        backtrack(history, result["did"])
        outcome = history.replay(result["did"])
        assert outcome["applicable"] is True
        assert outcome["drift"] == []
        assert outcome["status"] == "retracted"

    def test_versions_derivation(self, history):
        decide(history, decision_class="Map", kind="mapping",
               tell=["TELL R IN K END"])
        decide(history, decision_class="Norm", kind="refinement",
               inputs={"rel": "R"}, tell=["TELL R2 IN K END"])
        decide(history, decision_class="Key", kind="choice",
               inputs={"rel": "R2"}, tell=["TELL R2~alt IN K END"])
        derived = json.loads(history.versions())
        assert [v["name"] for v in derived["versions"]["R2"]] == \
            ["R2", "R2~alt"]
        assert derived["vertical"][0]["to"] == ["R"]
        assert derived["horizontal"][0]["from"] == ["R"]
        assert derived["alternatives"][0]["from"] == ["R2"]

    def test_history_excludes_retracted_on_request(self, history):
        first = decide(history, tell=["TELL A IN K END"])
        decide(history, inputs={"x": "A"}, tell=["TELL B IN K END"])
        decide(history, tell=["TELL C IN K END"])
        backtrack(history, first["did"])
        full = json.loads(history.history())
        assert [d["did"] for d in full["decisions"]] == ["d1", "d2", "d3"]
        assert full["recorded"] == 3 and full["active"] == 1
        assert full["edges"] == [
            {"from": "d1", "to": "d2", "reason": "from-to"},
        ]
        active = json.loads(history.history(include_retracted=False))
        assert [d["did"] for d in active["decisions"]] == ["d3"]
        # no edge may name a decision the history left out
        assert active["edges"] == []

    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        cb = ConceptBase(registry=registry)
        with cb.transaction():
            cb.tell("TELL K IN SimpleClass END")
        history = DecisionHistory(cb)
        first = decide(history, tell=["TELL A IN K END"])
        decide(history, inputs={"x": "A"}, tell=["TELL B IN K END"])
        backtrack(history, first["did"])
        snap = registry.snapshot()
        assert snap["decisions.recorded"] == 2
        assert snap["decisions.backtracked"] == 2  # cascade counted both
        assert snap["decisions.graph_nodes"] == 2
        assert snap["decisions.graph_edges"] == 1


class TestNestingRefused:
    """A decide or backtrack is its own transaction in process too, as
    on the wire.  Nested in a transaction that later aborted, it used to
    leave a phantom ledger record behind rolled-back propositions."""

    def test_decide_nested_in_a_transaction_is_refused(self, history):
        before = history.store.rows()
        with pytest.raises(DecisionError):
            with history.cb.transaction():
                decide(history, tell=["TELL A IN K END"])
        assert history.store.rows() == before
        assert len(history.ledger) == 0
        assert history.ledger.next_did() == "d1"

    def test_backtrack_nested_in_a_transaction_is_refused(self, history):
        did = decide(history, tell=["TELL A IN K END"])["did"]
        before = history.store.rows()
        with pytest.raises(DecisionError):
            with history.cb.transaction():
                backtrack(history, did)
        assert history.store.rows() == before
        assert history.ledger.get(did).is_active


# ---------------------------------------------------------------------------
# Refused ops use up no tick: replaying the accepted ops reproduces ids
# ---------------------------------------------------------------------------


def guarded_history():
    """A base whose commit check refuses an Invitation without a
    sender; ``inv0`` predates the constraint, so re-creating it (by
    backtracking its removal) is refused at commit too."""
    cb = ConceptBase()
    cb.define_metaclass("TDL_EntityClass")
    with cb.transaction():
        cb.tell("TELL Person IN TDL_EntityClass END")
        cb.tell("TELL Invitation IN TDL_EntityClass WITH\n"
                "  attribute sender : Person\nEND")
        cb.tell("TELL bob IN Person END")
        cb.tell("TELL inv0 IN Invitation END")
    cb.add_constraint("Invitation", "HasSender", "Known(self.sender)")
    cb.enforce_on_commit()
    return DecisionHistory(cb)


def invitation(name):
    return f"TELL {name} IN Invitation WITH\n  sender sender : bob\nEND"


class TestRefusedOpsUseNoTick:
    def _replay(self, specs):
        oracle = guarded_history()
        for spec in specs:
            decide(oracle, **spec)
        return oracle

    def test_refused_decide(self):
        live = guarded_history()
        accepted = [{"tell": [invitation("inv1")]},
                    {"tell": [invitation("inv3")]}]
        decide(live, **accepted[0])
        with pytest.raises(ConsistencyError):
            decide(live, tell=["TELL inv2 IN Invitation END"])
        decide(live, **accepted[1])
        oracle = self._replay(accepted)
        assert [r.tick for r in live.ledger.records] == [1, 2]
        assert [r.summary() for r in live.ledger.records] == \
            [r.summary() for r in oracle.ledger.records]

    def test_backtrack_refused_at_commit(self):
        live = guarded_history()
        accepted = [{"tell": [invitation("inv1")]}, {"untell": ["inv0"]},
                    {"tell": [invitation("inv3")]}]
        decide(live, **accepted[0])
        removal = decide(live, **accepted[1])
        with pytest.raises(ConsistencyError):
            backtrack(live, removal["did"])
        assert live.ledger.get(removal["did"]).is_active
        decide(live, **accepted[2])
        oracle = self._replay(accepted)
        assert [r.tick for r in live.ledger.records] == [1, 2, 3]
        assert [r.summary() for r in live.ledger.records] == \
            [r.summary() for r in oracle.ledger.records]


# ---------------------------------------------------------------------------
# WAL durability: the ledger survives anything short of data loss
# ---------------------------------------------------------------------------


class TestWalDurability:
    def _open(self, path):
        store = WalStore(str(path), registry=MetricsRegistry())
        cb = ConceptBase(store=store)
        history = DecisionHistory(cb)
        return store, cb, history

    def _seed(self, history):
        with history.cb.transaction():
            history.cb.tell("TELL K IN SimpleClass END")

    def test_ledger_replays_from_wal_alone(self, tmp_path):
        path = tmp_path / "dec.wal"
        store, _cb, history = self._open(path)
        self._seed(history)
        decide(history, tell=["TELL A IN K END"])
        second = decide(history, inputs={"x": "A"},
                        tell=["TELL B IN K END"])
        backtrack(history, second["did"])
        rows = store.rows()
        edges = history.ledger.graph.edge_list()
        store.close()

        store2, _cb2, recovered = self._open(path)
        assert store2.rows() == rows
        assert [(r.did, r.status) for r in recovered.ledger.records] == \
            [("d1", "done"), ("d2", "retracted")]
        assert edges and recovered.ledger.graph.edge_list() == edges
        # the recovered ledger keeps numbering where it left off
        assert recovered.ledger.next_did() == "d3"
        # ... and its delta is still invertible: backtrack d1 post-crash
        backtrack(recovered, "d1")
        assert not recovered.proc.exists("A")
        store2.close()

    def test_checkpoint_compacts_ledger_into_snapshot(self, tmp_path):
        path = tmp_path / "dec.wal"
        store, _cb, history = self._open(path)
        self._seed(history)
        first = decide(history, tell=["TELL A IN K END"])
        backtrack(history, first["did"])
        store.checkpoint()
        decide(history, tell=["TELL C IN K END"])
        rows = store.rows()
        store.close()

        store2, _cb2, recovered = self._open(path)
        assert store2.rows() == rows
        assert [(r.did, r.status) for r in recovered.ledger.records] == \
            [("d1", "retracted"), ("d2", "done")]
        store2.close()

    def test_aborted_decide_is_invisible_after_reopen(self, tmp_path):
        path = tmp_path / "dec.wal"
        store, _cb, history = self._open(path)
        self._seed(history)
        decide(history, tell=["TELL A IN K END"])
        with pytest.raises(Exception):
            decide(history, tell=["TELL B IN K END"], untell=["Ghost"])
        # in-memory ledger already re-aligned
        assert [r.did for r in history.ledger.records] == ["d1"]
        store.close()

        store2, _cb2, recovered = self._open(path)
        assert [r.did for r in recovered.ledger.records] == ["d1"]
        assert not recovered.proc.exists("B")
        store2.close()

    def test_old_snapshots_without_decisions_still_load(self, tmp_path):
        path = tmp_path / "plain.wal"
        store = WalStore(str(path), registry=MetricsRegistry())
        cb = ConceptBase(store=store)
        with cb.transaction():
            cb.tell("TELL K IN SimpleClass END")
        store.checkpoint()
        store.close()
        store2, _cb2, history = self._open(path)
        assert history.ledger.records == []
        decide(history, tell=["TELL A IN K END"])
        store2.close()
