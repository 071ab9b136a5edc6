"""Coverage for GKBMS facade odds and ends and the error hierarchy."""

import pytest

import repro.errors as errors
from repro.core import GKBMS
from repro.errors import GKBMSError
from repro.scenario import MeetingScenario


@pytest.fixture
def gkbms():
    g = GKBMS()
    g.register_standard_library()
    g.import_design(
        """
        entity class Things with
          owner : Things
        end
        entity class Gadgets isa Things with
          battery : Things
        end
        """
    )
    return g


class TestArtifactManagement:
    def test_restore_without_retired_version(self, gkbms):
        with pytest.raises(GKBMSError):
            gkbms.restore_artifact("Nothing")

    def test_unrevise_without_earlier_version(self, gkbms):
        with pytest.raises(GKBMSError):
            gkbms.unrevise_artifact("Nothing")

    def test_drop_unknown_artifact_is_noop(self, gkbms):
        gkbms.drop_artifact("Nothing")  # must not raise

    def test_artifact_kb_class(self, gkbms):
        gkbms.execute("DecMoveDown", {"hierarchy": "Things"},
                      tool="MoveDownMapper")
        assert gkbms.artifact_kb_class("GadgetRel") == "DBPL_Rel"
        assert gkbms.artifact_kb_class("Nothing") is None

    def test_register_source_unknown_object(self, gkbms):
        with pytest.raises(GKBMSError):
            gkbms.register_source("Ghost", "file.dbpl")

    def test_register_source_token_reused(self, gkbms):
        gkbms.execute("DecMoveDown", {"hierarchy": "Things"},
                      tool="MoveDownMapper")
        token1 = gkbms.register_source("GadgetRel", "x.dbpl")
        token2 = gkbms.register_source("ConsThings", "x.dbpl")
        assert token1 == token2  # same external source, one token

    def test_snapshot_restore_roundtrip(self, gkbms):
        gkbms.execute("DecMoveDown", {"hierarchy": "Things"},
                      tool="MoveDownMapper")
        snapshot = gkbms.snapshot_artifacts()
        gkbms.drop_artifact("GadgetRel")
        assert "GadgetRel" not in gkbms.module.relations
        gkbms.restore_artifacts(snapshot)
        assert "GadgetRel" in gkbms.module.relations


class TestAssumptions:
    def test_unchecked_assumption_never_violated(self, gkbms):
        gkbms.assume("JustAVibe")
        assert gkbms.violated_assumptions() == []

    def test_global_assumption_checked_without_decisions(self, gkbms):
        gkbms.assume("NoGadgets",
                     "not (exists g/TDL_EntityClass (g = Gadgets))")
        assert gkbms.violated_assumptions() == ["NoGadgets"]


class TestNavigationMisc:
    def test_menu_action_executes_decision(self, gkbms):
        nav = gkbms.navigator()
        items = nav.menu_for("Things")
        move_down = next(i for i in items if i.title == "DecMoveDown")
        tool_item = next(s for s in move_down.submenu
                         if s.title == "MoveDownMapper")
        record = tool_item.action()
        assert record.decision_class == "DecMoveDown"

    def test_levels_listing(self, gkbms):
        nav = gkbms.navigator()
        assert nav.levels() == ["design", "implementation", "requirements"]

    def test_justification_of_underived(self, gkbms):
        nav = gkbms.navigator()
        assert nav.justification_of("Things") is None

    def test_level_of_via_navigator(self, gkbms):
        assert gkbms.navigator().level_of("Things") == "design"


class TestExplanationMisc:
    def test_trace_of_underived_object(self, gkbms):
        text = gkbms.explainer().trace("Things")
        assert text.strip() == "Things"

    def test_explain_directly_told_object(self, gkbms):
        text = gkbms.explainer().explain_object("Things")
        assert "told directly" in text

    def test_explain_unknown_decision(self, gkbms):
        with pytest.raises(GKBMSError):
            gkbms.explainer().explain_decision("dec999")
        with pytest.raises(GKBMSError):
            gkbms.explainer().why_retracted("dec999")

    def test_explain_manual_decision(self, gkbms):
        gkbms.processor.tell_individual("HandMade", in_class="DBPL_Rel")
        gkbms.execute(
            "DBPL_MappingDec", {"source": "Things"},
            outputs={"result": ["HandMade"]}, actor="rose",
        )
        text = gkbms.explainer().explain_object("HandMade")
        assert "executed manually by rose" in text


class TestScenarioMisc:
    def test_unknown_strategy_rejected(self):
        scenario = MeetingScenario().setup()
        with pytest.raises(ValueError):
            scenario.map_hierarchy("teleport")

    def test_distribute_path(self):
        scenario = MeetingScenario().setup()
        record = scenario.map_hierarchy("distribute")
        assert record.decision_class == "DecDistribute"

    def test_world_model_time_network(self):
        scenario = MeetingScenario().setup()
        from repro.timecalc import AllenRelation

        relations = scenario.gkbms.world_time.network.relations(
            "invite", "meet"
        )
        assert relations == frozenset({AllenRelation.BEFORE})


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not errors.ReproError:
                    assert issubclass(obj, errors.ReproError), name

    def test_consistency_error_carries_violations(self):
        err = errors.ConsistencyError("C1", ["v1", "v2"])
        assert err.constraint == "C1"
        assert err.violations == ["v1", "v2"]

    def test_axiom_violation_carries_axiom(self):
        err = errors.AxiomViolation("reference", "dangling")
        assert err.axiom == "reference"
        assert "reference" in str(err)

    def test_assertion_syntax_error_position(self):
        err = errors.AssertionSyntaxError("bad token", position=7)
        assert "offset 7" in str(err)
