"""Tests for the transaction-mapping assistant and decision atomicity
(failure injection)."""

import pytest

from repro.errors import DecisionError, NotApplicableError
from repro.core import DecisionClass, ToolSpec
from repro.scenario import MeetingScenario


@pytest.fixture
def mapped():
    scenario = MeetingScenario().run_to_fig_2_2()
    scenario.normalize()
    return scenario


class TestTransactionMapping:
    def test_generates_skeleton_for_all_implementing_relations(self, mapped):
        gkbms = mapped.gkbms
        record = gkbms.execute(
            "DecMapTransaction", {"transaction": "SendInvitation"},
            tool="TransactionMapper",
        )
        assert record.output_roles == {"program": ["TSendInvitation"]}
        txn = gkbms.module.transactions["TSendInvitation"]
        assert txn.parameters == [("inv", "Invitations")]
        # normalisation split: both halves get an insert
        assert sorted(txn.touched_relations()) == [
            "InvReceivRel", "InvitationRel2",
        ]

    def test_requires_mapped_hierarchy(self):
        scenario = MeetingScenario().setup()
        with pytest.raises(DecisionError):
            scenario.gkbms.execute(
                "DecMapTransaction", {"transaction": "SendInvitation"},
                tool="TransactionMapper",
            )

    def test_unknown_transaction_class(self, mapped):
        with pytest.raises(NotApplicableError):
            mapped.gkbms.execute(
                "DecMapTransaction", {"transaction": "Nothing"},
                tool="TransactionMapper",
            )

    def test_program_documented_as_design_object(self, mapped):
        gkbms = mapped.gkbms
        gkbms.execute(
            "DecMapTransaction", {"transaction": "SendInvitation"},
            tool="TransactionMapper",
        )
        proc = gkbms.processor
        assert proc.is_instance_of("TSendInvitation", "DBPL_Transaction")
        assert gkbms.mapped_from("TSendInvitation") == "SendInvitation"

    def test_key_substitution_adapts_transactions(self, mapped):
        gkbms = mapped.gkbms
        gkbms.execute(
            "DecMapTransaction", {"transaction": "SendInvitation"},
            tool="TransactionMapper",
        )
        mapped.substitute_key()
        txn = gkbms.module.transactions["TSendInvitation"]
        details = [op.detail for op in txn.operations]
        assert all("paperkey" not in d for d in details)
        assert any("date, author" in d for d in details)

    def test_backtracking_removes_program(self, mapped):
        gkbms = mapped.gkbms
        record = gkbms.execute(
            "DecMapTransaction", {"transaction": "SendInvitation"},
            tool="TransactionMapper",
        )
        gkbms.backtracker.retract(record.did)
        assert "TSendInvitation" not in gkbms.module.transactions
        assert not gkbms.processor.exists("TSendInvitation")


class TestDecisionAtomicity:
    """A failing decision must leave no trace — knowledge base and
    artefact stores roll back together."""

    def _register_exploding_tool(self, gkbms, explode_after_artifacts=True):
        def apply(g, inputs, params):
            if explode_after_artifacts:
                from repro.languages.dbpl.ast import Field, RelationDecl

                g.add_artifact(
                    RelationDecl("HalfDoneRel", [Field("k")], key=("k",)),
                    kb_class="DBPL_Rel",
                )
            raise RuntimeError("tool crashed mid-way")

        gkbms.tools.register(ToolSpec(name="Exploder", apply=apply))
        gkbms.decisions.register(DecisionClass(
            name="DecExplode",
            inputs=(("hierarchy", "TDL_EntityClass"),),
            outputs=(("relations", "DBPL_Rel"),),
            tools=("Exploder",),
        ))

    def test_kb_rolled_back_on_tool_failure(self, mapped):
        gkbms = mapped.gkbms
        self._register_exploding_tool(gkbms)
        kb_size = len(gkbms.processor)
        with pytest.raises(RuntimeError):
            gkbms.execute("DecExplode", {"hierarchy": "Papers"},
                          tool="Exploder")
        assert len(gkbms.processor) == kb_size
        assert not gkbms.processor.exists("HalfDoneRel")

    def test_module_rolled_back_on_tool_failure(self, mapped):
        gkbms = mapped.gkbms
        self._register_exploding_tool(gkbms)
        module_names = sorted(gkbms.module.names())
        with pytest.raises(RuntimeError):
            gkbms.execute("DecExplode", {"hierarchy": "Papers"},
                          tool="Exploder")
        assert sorted(gkbms.module.names()) == module_names

    def test_no_decision_recorded_on_failure(self, mapped):
        gkbms = mapped.gkbms
        self._register_exploding_tool(gkbms)
        history = list(gkbms.ledger.records)
        with pytest.raises(RuntimeError):
            gkbms.execute("DecExplode", {"hierarchy": "Papers"},
                          tool="Exploder")
        assert gkbms.ledger.records == history

    def test_postcondition_failure_rolls_back(self, mapped):
        gkbms = mapped.gkbms
        gkbms.decisions.register(DecisionClass(
            name="DecNeverRight",
            inputs=(("hierarchy", "TDL_EntityClass"),),
            outputs=(("relations", "DBPL_Rel"),),
            postcondition="hierarchy = SomethingElse",
            tools=("MoveDownMapper",),
        ))
        kb_size = len(gkbms.processor)
        module_names = sorted(gkbms.module.names())
        with pytest.raises(DecisionError):
            gkbms.execute(
                "DecNeverRight", {"hierarchy": "Persons"},
                tool="MoveDownMapper",
                params={"names": {"Persons": "PersonsRel"}},
            )
        assert len(gkbms.processor) == kb_size
        assert sorted(gkbms.module.names()) == module_names

    def test_successful_decision_after_failure(self, mapped):
        """The system remains fully usable after a rolled-back failure."""
        gkbms = mapped.gkbms
        self._register_exploding_tool(gkbms)
        with pytest.raises(RuntimeError):
            gkbms.execute("DecExplode", {"hierarchy": "Papers"},
                          tool="Exploder")
        record = gkbms.execute(
            "DecMapTransaction", {"transaction": "SendInvitation"},
            tool="TransactionMapper",
        )
        assert record.output_roles["program"] == ["TSendInvitation"]
