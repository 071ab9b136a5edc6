"""Tests for the GKBMS metamodel, tool registry and decision engine."""

import pytest

from repro.errors import (
    DecisionError,
    NotApplicableError,
    ObligationError,
)
from repro.core import GKBMS, DecisionClass, ToolSpec
from repro.core.metamodel import LINK_METACLASSES

DESIGN = """
entity class Papers with
  date : Date
  author : Persons
end
entity class Invitations isa Papers with
  sender : Persons
  receiver : set of Persons
end
entity class Persons
end
"""


@pytest.fixture
def gkbms():
    g = GKBMS()
    g.register_standard_library()
    g.import_design(DESIGN)
    return g


class TestMetamodel:
    def test_metaclasses_installed(self, gkbms):
        for name in ("DesignObject", "DesignDecision", "DesignTool"):
            assert gkbms.processor.exists(name)

    def test_link_metaclasses(self, gkbms):
        for pid in LINK_METACLASSES:
            assert gkbms.processor.exists(pid)
        from_link = gkbms.processor.get("FROM")
        assert from_link.source == "DesignDecision"
        assert from_link.destination == "DesignObject"

    def test_language_classes_are_design_objects(self, gkbms):
        proc = gkbms.processor
        assert proc.is_instance_of("TDL_EntityClass", "DesignObject")
        assert proc.is_instance_of("DBPL_Rel", "DesignObject")
        assert "DBPL_Rel" in proc.generalizations("NormalizedDBPL_Rel")

    def test_levels(self, gkbms):
        assert gkbms.level_of("Invitations") == "design"
        gkbms.processor.tell_individual("X", in_class="DBPL_Rel")
        assert gkbms.level_of("X") == "implementation"
        assert gkbms.level_of("DesignObject") == "unknown"

    def test_idempotent_install(self, gkbms):
        from repro.core.metamodel import install_gkbms_metamodel

        assert install_gkbms_metamodel(gkbms.processor) == []


class TestToolRegistry:
    def test_tools_registered_in_kb(self, gkbms):
        assert gkbms.processor.is_instance_of("MoveDownMapper", "DesignTool")

    def test_duplicate_tool_rejected(self, gkbms):
        with pytest.raises(DecisionError):
            gkbms.tools.register(ToolSpec(name="MoveDownMapper"))

    def test_unknown_tool(self, gkbms):
        with pytest.raises(DecisionError):
            gkbms.tools.get("Hammer")

    def test_bad_automation_level(self):
        with pytest.raises(DecisionError):
            ToolSpec(name="X", automation="psychic")

    def test_guarantees(self, gkbms):
        tool = gkbms.tools.get("Normalizer")
        assert tool.guarantees_obligation("RelationsNormalized")
        assert not tool.guarantees_obligation("KeysCorrect")


class TestDecisionRegistration:
    def test_standard_classes_in_kb(self, gkbms):
        proc = gkbms.processor
        assert proc.is_instance_of("DecMoveDown", "DesignDecision")
        assert "TDL_MappingDec" in proc.generalizations("DecMoveDown")

    def test_from_to_links_typed(self, gkbms):
        proc = gkbms.processor
        assert "FROM" in proc.classification_of_link("DecMoveDown.hierarchy")
        assert "TO" in proc.classification_of_link("DecMoveDown.relations")

    def test_by_links(self, gkbms):
        proc = gkbms.processor
        assert "BY" in proc.classification_of_link(
            "DecMoveDown.by.MoveDownMapper"
        )

    def test_duplicate_decision_class(self, gkbms):
        with pytest.raises(DecisionError):
            gkbms.decisions.register(DecisionClass(name="DecMoveDown"))

    def test_unknown_tool_in_class(self, gkbms):
        with pytest.raises(DecisionError):
            gkbms.decisions.register(
                DecisionClass(name="DecX", tools=("Hammer",))
            )

    def test_unknown_parent(self, gkbms):
        with pytest.raises(DecisionError):
            gkbms.decisions.register(DecisionClass(name="DecY", isa=("DecZ",)))


class TestApplicability:
    def test_menu_most_specific_first(self, gkbms):
        matches = gkbms.decisions.applicable_decisions("Invitations")
        names = [dc.name for dc, _roles, _tools in matches]
        assert names.index("DecMoveDown") < names.index("TDL_MappingDec")
        assert names.index("TDL_MappingDec") < names.index("DBPL_MappingDec")

    def test_tools_listed(self, gkbms):
        matches = dict(
            (dc.name, tools)
            for dc, _roles, tools in gkbms.decisions.applicable_decisions(
                "Invitations"
            )
        )
        assert "MoveDownMapper" in matches["DecMoveDown"]

    def test_missing_role(self, gkbms):
        dc = gkbms.decisions.get("DecMoveDown")
        with pytest.raises(NotApplicableError):
            gkbms.decisions.check_applicability(dc, {})

    def test_wrong_class(self, gkbms):
        dc = gkbms.decisions.get("DecNormalize")
        with pytest.raises(NotApplicableError):
            gkbms.decisions.check_applicability(dc, {"relation": "Papers"})

    def test_precondition(self, gkbms):
        gkbms.decisions.register(
            DecisionClass(
                name="DecPicky",
                inputs=(("hierarchy", "TDL_EntityClass"),),
                outputs=(),
                precondition="Isa(hierarchy, Papers)",
            )
        )
        dc = gkbms.decisions.get("DecPicky")
        gkbms.decisions.check_applicability(dc, {"hierarchy": "Invitations"})
        with pytest.raises(NotApplicableError):
            gkbms.decisions.check_applicability(dc, {"hierarchy": "Persons"})


class TestExecution:
    def test_tool_execution_documents_instance(self, gkbms):
        record = gkbms.execute(
            "DecMoveDown", {"hierarchy": "Papers"}, tool="MoveDownMapper"
        )
        proc = gkbms.processor
        assert proc.is_instance_of(record.did, "DecMoveDown")
        # metaclass membership is not transitive: the *class* is the
        # instance of DesignDecision, the record instantiates the class
        assert proc.is_instance_of("DecMoveDown", "DesignDecision")
        # small-letter from/to/by links instantiate the capitals
        hierarchy_links = proc.attributes_of(record.did, label="hierarchy")
        assert any(p.destination == "Papers" for p in hierarchy_links)
        by_links = proc.attributes_of(record.did, label="by")
        assert len(by_links) == 1
        assert proc.is_instance_of(by_links[0].destination, "MoveDownMapper")

    def test_outputs_justified(self, gkbms):
        record = gkbms.execute(
            "DecMoveDown", {"hierarchy": "Papers"}, tool="MoveDownMapper"
        )
        proc = gkbms.processor
        for name in record.outputs:
            links = proc.attributes_of(name, label="justification")
            assert [p.destination for p in links] == [record.did]

    def test_manual_execution_requires_outputs(self, gkbms):
        with pytest.raises(DecisionError):
            gkbms.execute("DBPL_MappingDec", {"source": "Papers"})

    def test_manual_execution_with_outputs(self, gkbms):
        gkbms.processor.tell_individual("HandRel", in_class="DBPL_Rel")
        record = gkbms.execute(
            "DBPL_MappingDec", {"source": "Papers"},
            outputs={"result": ["HandRel"]}, actor="rose",
        )
        assert record.tool is None
        assert record.actor == "rose"

    def test_manual_output_must_exist_in_kb(self, gkbms):
        with pytest.raises(DecisionError):
            gkbms.execute(
                "DBPL_MappingDec", {"source": "Papers"},
                outputs={"result": ["Ghost"]},
            )

    def test_tool_not_associated(self, gkbms):
        with pytest.raises(DecisionError):
            gkbms.execute(
                "DecMoveDown", {"hierarchy": "Papers"}, tool="Normalizer"
            )

    def test_clock_advances(self, gkbms):
        before = gkbms.clock
        gkbms.execute("DecMoveDown", {"hierarchy": "Papers"},
                      tool="MoveDownMapper")
        assert gkbms.clock == before + 1

    def test_failed_decision_leaves_clock(self, gkbms):
        """A postcondition failure rolls the tick back with the rest of
        the decision: the next decision takes the same tick."""
        gkbms.decisions.register(DecisionClass(
            name="DecNeverRight",
            inputs=(("hierarchy", "TDL_EntityClass"),),
            outputs=(("relations", "DBPL_Rel"),),
            postcondition="hierarchy = SomethingElse",
            tools=("MoveDownMapper",),
        ))
        before = gkbms.clock
        with pytest.raises(DecisionError):
            gkbms.execute("DecNeverRight", {"hierarchy": "Papers"},
                          tool="MoveDownMapper")
        assert gkbms.clock == before
        record = gkbms.execute("DecMoveDown", {"hierarchy": "Papers"},
                               tool="MoveDownMapper")
        assert record.tick == before + 1

    def test_execute_nested_in_a_telling_is_refused(self, gkbms):
        """A decision is its own transaction.  Nested in a telling that
        then rolled back, it used to stay ``done`` in the ledger and in
        the DBPL module while its outputs left the knowledge base."""
        rows = gkbms.processor.store.rows()
        module = gkbms.module.names()
        clock = gkbms.clock
        with pytest.raises(DecisionError):
            with gkbms.processor.telling():
                gkbms.execute("DecMoveDown", {"hierarchy": "Papers"},
                              tool="MoveDownMapper")
        assert gkbms.processor.store.rows() == rows
        assert gkbms.module.names() == module
        assert list(gkbms.ledger) == []
        assert gkbms.clock == clock

    def test_seeded_histories_use_every_tick(self):
        """Every tick up to the clock is some record's tick or
        retraction tick, over 40 seeded evolution histories whose
        failed decisions used to leave gaps."""
        from repro.scenario.workload import DesignEvolutionWorkload

        for hierarchies, steps in ((3, 12), (5, 30)):
            for seed in range(20):
                g = DesignEvolutionWorkload(
                    seed=seed, hierarchies=hierarchies, steps=steps
                ).run()
                used = {r.tick for r in g.ledger.records}
                used |= {r.retracted_tick for r in g.ledger.records
                         if r.retracted_tick is not None}
                assert used == set(range(1, g.clock + 1)), (
                    hierarchies, steps, seed)

    def test_producers_consumers(self, gkbms):
        record = gkbms.execute(
            "DecMoveDown", {"hierarchy": "Papers"}, tool="MoveDownMapper"
        )
        rel = record.output_roles["relations"][0]
        assert gkbms.ledger.producers_of(rel) == [record]
        assert gkbms.ledger.consumers_of("Papers") == [record]


def _open_obligations(gkbms, record):
    return [o for o in gkbms.decisions.obligations_of(record.did)
            if not o.discharged]


class TestObligations:
    def _record(self, gkbms):
        gkbms.execute("DecMoveDown", {"hierarchy": "Papers"},
                      tool="MoveDownMapper")
        return gkbms.execute(
            "DecNormalize", {"relation": "InvitationRel"}, tool="Normalizer"
        )

    def test_guaranteed_by_tool(self, gkbms):
        record = self._record(gkbms)
        by_name = {o.name: o
                   for o in gkbms.decisions.obligations_of(record.did)}
        assert by_name["RelationsNormalized"].status == "guaranteed"
        assert by_name["KeysCorrect"].status == "open"

    def test_open_obligation_in_kb(self, gkbms):
        record = self._record(gkbms)
        open_obl = _open_obligations(gkbms, record)[0]
        assert gkbms.processor.is_instance_of(open_obl.oid, "ProofObligation")

    def test_sign(self, gkbms):
        record = self._record(gkbms)
        obligation = _open_obligations(gkbms, record)[0]
        gkbms.decisions.sign(obligation.oid, "jarke")
        assert obligation.status == "signed"
        assert obligation.signer == "jarke"
        assert gkbms.decisions.open_obligations() == []

    def test_double_discharge_rejected(self, gkbms):
        record = self._record(gkbms)
        obligation = _open_obligations(gkbms, record)[0]
        gkbms.decisions.sign(obligation.oid, "jarke")
        with pytest.raises(ObligationError):
            gkbms.decisions.sign(obligation.oid, "rose")

    def test_prove_requires_assertion(self, gkbms):
        record = self._record(gkbms)
        obligation = _open_obligations(gkbms, record)[0]
        with pytest.raises(ObligationError):
            gkbms.decisions.prove(obligation.oid)

    def test_prove_with_assertion(self, gkbms):
        gkbms.decisions.register(
            DecisionClass(
                name="DecChecked",
                inputs=(("hierarchy", "TDL_EntityClass"),),
                outputs=(("relations", "DBPL_Rel"),),
                obligations=(("SourceStillThere", "In(hierarchy, TDL_EntityClass)"),),
                tools=("MoveDownMapper",),
            )
        )
        record = gkbms.execute(
            "DecChecked", {"hierarchy": "Papers"}, tool="MoveDownMapper",
            params={"only": ["Invitations"]},
        )
        obligation = _open_obligations(gkbms, record)[0]
        gkbms.decisions.prove(obligation.oid)
        assert obligation.status == "proved"

    def test_unknown_obligation(self, gkbms):
        with pytest.raises(ObligationError):
            gkbms.decisions.sign("obl999", "nobody")
