"""Tests for dependency graphs, selective backtracking and replay."""

import pytest

from repro.core.decisions import DecisionClass
from repro.core.tools import ToolSpec
from repro.decisions import JustificationGraph
from repro.errors import BacktrackError
from repro.scenario import MeetingScenario


@pytest.fixture
def fig_2_3():
    """Scenario advanced to the state after key substitution."""
    return MeetingScenario().run_to_fig_2_3()


class TestDependencyGraph:
    def test_fig_2_2_structure(self):
        scenario = MeetingScenario().run_to_fig_2_2()
        graph = scenario.gkbms.dependency_graph()
        record = scenario.records["map"]
        assert ("Papers", "hierarchy", record.did) in graph.edges
        assert (record.did, "relations", "InvitationRel") in graph.edges
        assert (record.did, "by", "MoveDownMapper") in graph.edges

    def test_downstream_upstream(self, fig_2_3):
        graph = fig_2_3.gkbms.dependency_graph()
        down = graph.downstream("Papers")
        assert "InvitationRel" in down
        assert "InvitationRel2" in down
        up = graph.upstream("InvitationRel2")
        assert "Papers" in up

    def test_zoom_radius(self, fig_2_3):
        graph = fig_2_3.gkbms.dependency_graph()
        record = fig_2_3.records["normalize"]
        zoomed = graph.zoom(record.did, radius=1)
        assert "InvitationRel2" in zoomed.nodes()
        assert "Papers" not in zoomed.nodes()  # two hops away

    def test_retracted_excluded_by_default(self, fig_2_3):
        gkbms = fig_2_3.gkbms
        did = fig_2_3.records["keys"].did
        gkbms.backtracker.retract(did)
        assert did not in gkbms.dependency_graph().nodes()
        assert did in gkbms.dependency_graph(include_retracted=True).nodes()

    def test_ascii_and_dot(self, fig_2_3):
        graph = fig_2_3.gkbms.dependency_graph()
        assert "hierarchy" in graph.to_ascii()
        assert graph.to_dot().startswith("digraph")


class TestSelectiveBacktracking:
    def test_consequent_closure(self, fig_2_3):
        gkbms = fig_2_3.gkbms
        map_did = fig_2_3.records["map"].did
        norm_did = fig_2_3.records["normalize"].did
        keys_did = fig_2_3.records["keys"].did
        graph = JustificationGraph(gkbms.ledger.records)
        assert graph.consequents(map_did) == {norm_did, keys_did}
        assert graph.consequents(keys_did) == set()

    def test_retract_keys_only_removes_keys(self, fig_2_3):
        """The fig 2-4 situation: retract the key decision without
        redoing the rest of the design."""
        gkbms = fig_2_3.gkbms
        keys_did = fig_2_3.records["keys"].did
        report = gkbms.backtracker.retract(keys_did)
        assert report.retracted_decisions == [keys_did]
        # the earlier decisions stand
        assert fig_2_3.records["map"].status == "done"
        assert fig_2_3.records["normalize"].status == "done"
        # the module is back to surrogate keys
        rel = gkbms.module.relations["InvitationRel2"]
        assert rel.key == ("paperkey",)

    def test_retract_normalize_cascades_to_keys(self, fig_2_3):
        gkbms = fig_2_3.gkbms
        norm_did = fig_2_3.records["normalize"].did
        keys_did = fig_2_3.records["keys"].did
        report = gkbms.backtracker.retract(norm_did)
        assert report.retracted_decisions == [norm_did, keys_did]
        # the unnormalised relation is back
        assert "InvitationRel" in gkbms.module.relations
        assert "InvitationRel2" not in gkbms.module.relations

    def test_retracted_objects_gone_from_kb(self, fig_2_3):
        gkbms = fig_2_3.gkbms
        norm_did = fig_2_3.records["normalize"].did
        gkbms.backtracker.retract(norm_did)
        assert not gkbms.processor.exists("InvitationRel2")
        assert not gkbms.processor.exists("InvReceivRel")
        assert gkbms.processor.exists("InvitationRel")  # was only retired

    def test_decision_record_survives_marked(self, fig_2_3):
        gkbms = fig_2_3.gkbms
        keys_did = fig_2_3.records["keys"].did
        gkbms.backtracker.retract(keys_did)
        record = gkbms.ledger.get(keys_did)
        assert not record.is_active
        assert record.retracted_tick is not None
        assert gkbms.processor.is_instance_of(keys_did, "RetractedDecision")

    def test_double_retract_rejected(self, fig_2_3):
        gkbms = fig_2_3.gkbms
        keys_did = fig_2_3.records["keys"].did
        gkbms.backtracker.retract(keys_did)
        with pytest.raises(BacktrackError):
            gkbms.backtracker.retract(keys_did)

    def test_unknown_decision(self, fig_2_3):
        with pytest.raises(BacktrackError):
            fig_2_3.gkbms.backtracker.retract("dec999")

    def test_retract_for_assumption(self):
        scenario = MeetingScenario().run_to_fig_2_3()
        scenario.add_minutes()
        assert scenario.gkbms.violated_assumptions() == [
            "OnlyInvitationsArePapers"
        ]
        reports = scenario.backtrack_keys()
        assert len(reports) == 1
        assert reports[0].target == scenario.records["keys"].did
        # after backtracking, the stale assumption no longer taints
        assert scenario.gkbms.violated_assumptions() == []

    def test_retract_for_unused_assumption(self, fig_2_3):
        fig_2_3.gkbms.assume("FreeFloating")
        with pytest.raises(BacktrackError):
            fig_2_3.gkbms.backtracker.retract_for_assumption("FreeFloating")

    def test_full_scenario_module_state(self):
        scenario = MeetingScenario().run_all()
        module = scenario.gkbms.module
        assert module.relations["InvitationRel2"].key == ("paperkey",)
        assert "MinutesRel" in module.relations
        # generated implementation actually runs
        db = scenario.gkbms.build_database()
        with db.transaction():
            db.relation("InvitationRel2").insert(
                {"paperkey": "k1", "date": "d", "author": "a", "sender": "s"}
            )
            db.relation("InvReceivRel").insert(
                {"paperkey": "k1", "receiver": "r"}
            )
            db.relation("MinutesRel").insert(
                {"paperkey": "m1", "date": "d", "author": "a", "recorder": "s"}
            )
        assert len(db.rows("ConsInvitation")) == 1


class TestNestedBacktrack:
    def test_retract_nested_in_a_telling_is_refused(self, fig_2_3):
        """A backtrack is its own transaction: nested in a telling that
        then rolled back, its retraction marks used to outlive it."""
        gkbms = fig_2_3.gkbms
        did = fig_2_3.records["keys"].did
        rows = gkbms.processor.store.rows()
        relations = set(gkbms.module.relations)
        with pytest.raises(BacktrackError):
            with gkbms.processor.telling():
                gkbms.backtracker.retract(did)
        assert gkbms.processor.store.rows() == rows
        assert set(gkbms.module.relations) == relations
        assert all(record.is_active for record in gkbms.ledger)


class TestAtomicUndo:
    """Undoing one decision is a transaction (regression: the undo used
    to run outside any telling, so a tool undo that mutated halfway and
    then raised left a half-backtracked base behind a record still
    marked ``done``)."""

    @pytest.fixture
    def flaky(self, fig_2_3):
        gkbms = fig_2_3.gkbms

        def flaky_apply(g, inputs, params):
            g.processor.tell_individual("FlakyRel", in_class="DBPL_Rel")
            return {"result": ["FlakyRel"]}

        def flaky_undo(g, record):
            # partial damage before dying: a knowledge-base retraction
            # and an artefact-store removal, both of which must roll
            # back with the failure
            g.processor.retract("InvitationRel")
            g.module.remove("InvReceivRel")
            raise RuntimeError("tool undo crashed halfway")

        gkbms.tools.register(ToolSpec(
            name="FlakyTool", automation="automatic",
            apply=flaky_apply, undo=flaky_undo,
        ))
        gkbms.decisions.register(DecisionClass(
            name="FlakyDec",
            inputs=(("source", "DBPL_Rel"),),
            outputs=(("result", "DBPL_Rel"),),
            tools=("FlakyTool",),
        ))
        record = gkbms.execute(
            "FlakyDec", {"source": "InvitationRel2"}, tool="FlakyTool",
        )
        return fig_2_3, record

    def test_failing_undo_leaves_no_trace(self, flaky):
        scenario, record = flaky
        gkbms = scenario.gkbms
        before_rows = gkbms.processor.store.rows()
        before_relations = set(gkbms.module.relations)
        with pytest.raises(RuntimeError):
            gkbms.backtracker.retract(record.did)
        # bit-identical knowledge base, untouched artefact store
        assert gkbms.processor.store.rows() == before_rows
        assert set(gkbms.module.relations) == before_relations
        assert gkbms.processor.exists("FlakyRel")
        # ... and the record still says what is true: not retracted
        assert record.status == "done"
        assert record.retracted_tick is None

    def test_failing_undo_keeps_decision_retractable(self, flaky):
        """After the failure nothing is half-done, so a later retract
        attempt fails identically instead of tripping over debris."""
        scenario, record = flaky
        gkbms = scenario.gkbms
        with pytest.raises(RuntimeError):
            gkbms.backtracker.retract(record.did)
        with pytest.raises(RuntimeError):
            gkbms.backtracker.retract(record.did)
        assert record.status == "done"

    def test_failing_undo_rolls_back_the_whole_condemned_set(self, flaky):
        """Regression: each victim used to be undone in its own
        transaction, so when the target's undo raised, its consequent
        stayed retracted with its output gone from the base."""
        scenario, record = flaky
        gkbms = scenario.gkbms
        gkbms.decisions.register(DecisionClass(
            name="FollowDec",
            inputs=(("source", "DBPL_Rel"),),
            outputs=(("result", "DBPL_Rel"),),
        ))
        gkbms.processor.tell_individual("FollowRel", in_class="DBPL_Rel")
        follow = gkbms.execute("FollowDec", {"source": "FlakyRel"},
                               outputs={"result": ["FollowRel"]})
        before_rows = gkbms.processor.store.rows()
        with pytest.raises(RuntimeError):
            gkbms.backtracker.retract(record.did)
        assert gkbms.processor.store.rows() == before_rows
        assert gkbms.processor.exists("FollowRel")
        assert follow.status == "done"
        assert record.status == "done"

    def test_successful_undo_still_reports_objects(self, fig_2_3):
        """The local-collection refactor must not change what a normal
        retract reports."""
        gkbms = fig_2_3.gkbms
        keys_did = fig_2_3.records["keys"].did
        report = gkbms.backtracker.retract(keys_did)
        assert report.retracted_decisions == [keys_did]
        assert report.retracted_objects  # pids actually removed


class TestReplay:
    def test_replay_after_upstream_change(self, fig_2_3):
        """Retract normalisation (and keys with it), then replay the
        normalisation — revision support."""
        gkbms = fig_2_3.gkbms
        norm_record = fig_2_3.records["normalize"]
        gkbms.backtracker.retract(norm_record.did)
        outcome = gkbms.replayer.replay(norm_record)
        assert outcome.status == "replayed"
        assert gkbms.module.relations["InvitationRel2"].key == ("paperkey",)

    def test_reapplicability_check(self, fig_2_3):
        gkbms = fig_2_3.gkbms
        keys_record = fig_2_3.records["keys"]
        # applicability is a KB-level test: both inputs still exist as
        # design objects of the right classes
        assert gkbms.replayer.is_reapplicable(fig_2_3.records["normalize"])
        assert gkbms.replayer.is_reapplicable(keys_record)
        gkbms.backtracker.retract(fig_2_3.records["normalize"].did)
        # now InvitationRel2 is gone from the KB entirely
        assert not gkbms.replayer.is_reapplicable(keys_record)

    def test_replay_not_applicable(self, fig_2_3):
        gkbms = fig_2_3.gkbms
        norm_record = fig_2_3.records["normalize"]
        gkbms.backtracker.retract(norm_record.did)
        # after retraction InvitationRel2 is gone from the KB, so the
        # keys decision is no longer applicable
        outcome = gkbms.replayer.replay(fig_2_3.records["keys"])
        assert outcome.status == "not_applicable"

    def test_replay_all_ordered(self, fig_2_3):
        gkbms = fig_2_3.gkbms
        norm_record = fig_2_3.records["normalize"]
        keys_record = fig_2_3.records["keys"]
        gkbms.backtracker.retract(norm_record.did)
        report = gkbms.replayer.replay_all([norm_record, keys_record])
        assert [o.status for o in report.outcomes] == ["replayed", "replayed"]
        assert gkbms.module.relations["InvitationRel2"].key == (
            "date", "author",
        )

    def test_replay_retracted(self, fig_2_3):
        gkbms = fig_2_3.gkbms
        gkbms.backtracker.retract(fig_2_3.records["normalize"].did)
        report = gkbms.replayer.replay_retracted()
        statuses = {o.original: o.status for o in report.outcomes}
        assert statuses[fig_2_3.records["normalize"].did] == "replayed"

    def test_manual_decision_not_replayable(self, fig_2_3):
        gkbms = fig_2_3.gkbms
        gkbms.processor.tell_individual("HandRel", in_class="DBPL_Rel")
        record = gkbms.execute(
            "DBPL_MappingDec", {"source": "Papers"},
            outputs={"result": ["HandRel"]},
        )
        outcome = gkbms.replayer.replay(record)
        assert outcome.status == "not_applicable"
