"""Tests for the reason maintenance systems and their GKBMS integration."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.conceptbase import ConceptBase
from repro.errors import RMSError
from repro.core.rms import ATMS, JTMS, DecisionRMS, PartitionedDecisionRMS
from repro.decisions import DecisionHistory, JustificationGraph
from repro.scenario import MeetingScenario


class TestJTMS:
    def test_premises_are_in(self):
        tms = JTMS()
        tms.add_premise("p")
        assert tms.is_in("p")

    def test_justification_propagates(self):
        tms = JTMS()
        tms.add_premise("a")
        tms.justify("b", in_list=["a"])
        tms.justify("c", in_list=["b"])
        assert tms.is_in("c")

    def test_assumption_retraction_propagates(self):
        tms = JTMS()
        tms.add_assumption("dec")
        tms.add_premise("input")
        tms.justify("out1", in_list=["dec", "input"])
        tms.justify("out2", in_list=["out1"])
        assert tms.is_in("out2")
        tms.retract("dec")
        assert not tms.is_in("out1")
        assert not tms.is_in("out2")
        assert tms.is_in("input")

    def test_reinstate(self):
        tms = JTMS()
        tms.add_assumption("a")
        tms.justify("b", in_list=["a"])
        tms.retract("a")
        tms.reinstate("a")
        assert tms.is_in("b")

    def test_retract_non_assumption_rejected(self):
        tms = JTMS()
        tms.add_premise("p")
        tms.justify("q", in_list=["p"])
        with pytest.raises(RMSError):
            tms.retract("q")

    def test_out_list(self):
        tms = JTMS()
        tms.add_assumption("blocker")
        tms.add_premise("base")
        tms.justify("default", in_list=["base"], out_list=["blocker"])
        assert not tms.is_in("default")
        tms.retract("blocker")
        assert tms.is_in("default")

    def test_multiple_justifications(self):
        tms = JTMS()
        tms.add_assumption("a1")
        tms.add_assumption("a2")
        tms.justify("goal", in_list=["a1"])
        tms.justify("goal", in_list=["a2"])
        tms.retract("a1")
        assert tms.is_in("goal")  # second justification still supports
        tms.retract("a2")
        assert not tms.is_in("goal")

    def test_supporting_assumptions(self):
        tms = JTMS()
        tms.add_assumption("a")
        tms.add_premise("p")
        tms.justify("b", in_list=["a", "p"])
        tms.justify("c", in_list=["b"])
        assert tms.supporting_assumptions("c") == {"a"}
        assert tms.supporting_assumptions("missing") == set()

    def test_contradiction_diagnosis(self):
        tms = JTMS()
        tms.add_assumption("keysub")
        tms.add_premise("minutes_mapped")
        tms.justify("conflict", in_list=["keysub", "minutes_mapped"])
        tms.mark_contradiction("conflict")
        assert tms.active_contradictions() == ["conflict"]
        assert tms.diagnose() == [{"keysub"}]
        tms.retract("keysub")
        assert tms.active_contradictions() == []


class TestATMS:
    def test_assumption_label(self):
        atms = ATMS()
        atms.add_assumption("a")
        assert atms.label("a") == {frozenset({"a"})}

    def test_premise_holds_everywhere(self):
        atms = ATMS()
        atms.add_premise("p")
        assert atms.holds_in("p", [])

    def test_label_propagation(self):
        atms = ATMS()
        atms.add_assumption("a")
        atms.add_assumption("b")
        atms.justify("c", ["a", "b"])
        assert atms.label("c") == {frozenset({"a", "b"})}
        assert atms.holds_in("c", ["a", "b"])
        assert not atms.holds_in("c", ["a"])

    def test_minimality(self):
        atms = ATMS()
        atms.add_assumption("a")
        atms.add_assumption("b")
        atms.justify("c", ["a"])
        atms.justify("c", ["a", "b"])  # subsumed
        assert atms.label("c") == {frozenset({"a"})}

    def test_disjunctive_labels(self):
        atms = ATMS()
        atms.add_assumption("a")
        atms.add_assumption("b")
        atms.justify("c", ["a"])
        atms.justify("c", ["b"])
        assert atms.label("c") == {frozenset({"a"}), frozenset({"b"})}

    def test_nogood_prunes(self):
        atms = ATMS()
        atms.add_assumption("a")
        atms.add_assumption("b")
        atms.justify("c", ["a", "b"])
        atms.declare_nogood(["a", "b"])
        assert atms.label("c") == set()
        assert not atms.holds_in("c", ["a", "b"])

    def test_consistent_environments(self):
        atms = ATMS()
        for name in ("a", "b"):
            atms.add_assumption(name)
        atms.justify("x", ["a"])
        atms.justify("y", ["b"])
        envs = atms.consistent_environments(["x", "y"])
        assert envs == {frozenset({"a", "b"})}
        atms.declare_nogood(["a", "b"])
        assert atms.consistent_environments(["x", "y"]) == set()

    def test_chained_justifications(self):
        atms = ATMS()
        atms.add_assumption("a")
        atms.justify("b", ["a"])
        atms.justify("c", ["b"])
        assert atms.label("c") == {frozenset({"a"})}


class TestDecisionRMS:
    def test_scenario_propagation(self):
        scenario = MeetingScenario().run_to_fig_2_3()
        rms = DecisionRMS()
        rms.load(scenario.gkbms.ledger.records)
        keys_did = scenario.records["keys"].did
        assert rms.is_current("InvitationRel2")
        fell_out = rms.retract_decision(keys_did)
        # the key revision objects fall out; the rest stand
        assert any("~" in name for name in fell_out)
        assert rms.is_current("InvitationRel2")
        assert rms.is_current("InvitationRel")

    def test_cascading_retraction(self):
        scenario = MeetingScenario().run_to_fig_2_3()
        rms = DecisionRMS()
        rms.load(scenario.gkbms.ledger.records)
        norm_did = scenario.records["normalize"].did
        fell_out = rms.retract_decision(norm_did)
        assert "InvitationRel2" in fell_out
        # everything derived from the normalisation fell with it
        assert not rms.is_current("InvReceivRel")

    def test_retracted_records_loaded_out(self):
        scenario = MeetingScenario().run_all()
        rms = DecisionRMS()
        rms.load(scenario.gkbms.ledger.records)
        keys_outputs = scenario.records["keys"].outputs
        assert all(not rms.is_current(name) for name in keys_outputs)


class TestPartitionedRMS:
    def _load(self, scope_of=None):
        scenario = MeetingScenario().run_to_fig_2_3()
        rms = PartitionedDecisionRMS(scope_of)
        rms.load(scenario.gkbms.ledger.records)
        return scenario, rms

    def test_agrees_with_flat_rms(self):
        scenario, partitioned = self._load()
        flat = DecisionRMS()
        flat.load(scenario.gkbms.ledger.records)
        assert partitioned.believed_objects() == flat.believed_objects()

    def test_retraction_agrees_with_flat(self):
        scenario, partitioned = self._load()
        flat = DecisionRMS()
        flat.load(scenario.gkbms.ledger.records)
        did = scenario.records["normalize"].did
        out_partitioned = partitioned.retract_decision(did)
        out_flat = flat.retract_decision(did)
        # the same design objects fall out (modulo decision nodes)
        assert out_partitioned == out_flat

    def test_partitions_are_smaller_than_whole(self):
        _scenario, partitioned = self._load()
        sizes = partitioned.partition_sizes()
        assert len(sizes) >= 2
        total = sum(sizes.values())
        assert max(sizes.values()) < total

    def test_unknown_decision(self):
        _scenario, partitioned = self._load()
        with pytest.raises(RMSError):
            partitioned.retract_decision("dec999")

    def test_custom_scope_function(self):
        scenario, partitioned = self._load(
            scope_of=lambda record: "single"
        )
        assert list(partitioned.partition_sizes()) == ["single"]


@pytest.mark.parametrize("rms_class", [DecisionRMS, PartitionedDecisionRMS])
def test_rms_over_served_ledger_follows_justification_graph(rms_class):
    """A ledger built by served ``decide`` traffic loads like an
    in-process one: retracting d1 makes OUT exactly the outputs of d1
    and of its consequents in the justification graph."""
    cb = ConceptBase()
    with cb.transaction():
        cb.tell("TELL K IN SimpleClass END")
    history = DecisionHistory(cb)
    chain = [("Map", None, "A"), ("Norm", "A", "B"), ("Key", "B", "C"),
             ("Map", None, "D"), ("Norm", "D", "E")]
    for decision_class, source, name in chain:
        spec = {"decision_class": decision_class,
                "tell": [f"TELL {name} IN K END"]}
        if source is not None:
            spec["inputs"] = {"src": source}
        history.apply_decide(json.dumps(spec, sort_keys=True))
    records = history.ledger.records
    rms = rms_class()
    rms.load(records)
    condemned = JustificationGraph(records).consequents("d1") | {"d1"}
    assert condemned == {"d1", "d2", "d3"}
    expected = {name for record in records if record.did in condemned
                for name in record.outputs}
    assert rms.retract_decision("d1") == expected
    assert rms.believed_objects() == {"D", "E"}


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=16
    )
)
def test_jtms_monotone_under_premises(edges):
    """Property: with only premises and positive justifications, every
    node reachable from a premise is IN."""
    tms = JTMS()
    tms.add_premise("n0")
    for src, dst in edges:
        tms.justify(f"n{dst}", in_list=[f"n{src}"])
    reachable = {"n0"}
    changed = True
    while changed:
        changed = False
        for src, dst in edges:
            if f"n{src}" in reachable and f"n{dst}" not in reachable:
                reachable.add(f"n{dst}")
                changed = True
    for node in reachable:
        assert tms.is_in(node)


class TestDependencyDirectedBacktracking:
    """Doyle-style advice: which decision to retract to resolve a
    conflict (the fig 2-4 diagnosis, automated)."""

    def _scenario(self):
        from repro.scenario import MeetingScenario

        scenario = MeetingScenario().run_to_fig_2_3()
        scenario.add_minutes()
        return scenario

    def test_key_decision_recommended_first(self):
        from repro.core.rms import suggest_retractions

        scenario = self._scenario()
        culprits = suggest_retractions(
            scenario.gkbms.ledger.records,
            ["InvitationRel2~3"],  # the associative-key version
        )
        # least-damage-first: the key decision leads its ancestors
        assert culprits[0] == scenario.records["keys"].did
        assert set(culprits) >= {
            scenario.records["map"].did,
            scenario.records["normalize"].did,
            scenario.records["keys"].did,
        }

    def test_retracting_recommendation_resolves(self):
        from repro.core.rms import DecisionRMS, suggest_retractions

        scenario = self._scenario()
        records = list(scenario.gkbms.ledger.records)
        recommended = suggest_retractions(records, ["InvitationRel2~3"])[0]
        rms = DecisionRMS()
        rms.load(records)
        rms.jtms.justify("conflict!", in_list=["InvitationRel2~3"])
        rms.jtms.mark_contradiction("conflict!")
        assert rms.jtms.active_contradictions() == ["conflict!"]
        rms.retract_decision(recommended)
        assert rms.jtms.active_contradictions() == []

    def test_no_conflict_no_culprits(self):
        from repro.core.rms import suggest_retractions

        scenario = self._scenario()
        assert suggest_retractions(
            scenario.gkbms.ledger.records, ["NeverProduced"]
        ) == []
