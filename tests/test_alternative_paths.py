"""Integration tests for paths the main scenario does not take:
the distribute strategy end-to-end, and the GKBMS running over a
workspace-partitioned (model-configured) proposition base."""

import pytest

from repro.core import GKBMS
from repro.errors import IntegrityError
from repro.models import ModelBase
from repro.scenario import DOCUMENT_DESIGN, MeetingScenario


class TestDistributeEndToEnd:
    """The scenario replayed with the distribute strategy: one relation
    per class, isa selectors, then normalisation of the set-valued
    receiver — exercising the assistants' interplay on the other branch
    of fig 2-1's menu."""

    @pytest.fixture
    def gkbms(self):
        scenario = MeetingScenario().setup()
        scenario.map_hierarchy("distribute")
        self.scenario = scenario
        return scenario.gkbms

    def test_one_relation_per_class(self, gkbms):
        module = gkbms.module
        assert {"PaperRel", "InvitationRel"} <= set(module.relations)
        # distribute keeps only own attributes per relation
        assert gkbms.module.relations["InvitationRel"].field_names() == [
            "paperkey", "sender", "receiver",
        ]
        assert module.relations["PaperRel"].field_names() == [
            "paperkey", "date", "author",
        ]

    def test_isa_selector_enforced_live(self, gkbms):
        db = gkbms.build_database()
        with db.transaction():
            db.relation("PaperRel").insert(
                {"paperkey": "k1", "date": "d", "author": "a"}
            )
            db.relation("InvitationRel").insert(
                {"paperkey": "k1", "sender": "s", "receiver": "r"}
            )
        with pytest.raises(IntegrityError):
            with db.transaction():
                db.relation("InvitationRel").insert(
                    {"paperkey": "orphan", "sender": "s", "receiver": "r"}
                )

    def test_full_constructor_joins_chain(self, gkbms):
        db = gkbms.build_database()
        with db.transaction():
            db.relation("PaperRel").insert(
                {"paperkey": "k1", "date": "d", "author": "a"}
            )
            db.relation("InvitationRel").insert(
                {"paperkey": "k1", "sender": "s", "receiver": "r"}
            )
        rows = db.rows("FullInvitations")
        assert rows == [
            {"paperkey": "k1", "date": "d", "author": "a",
             "sender": "s", "receiver": "r"}
        ]

    def test_normalize_after_distribute(self, gkbms):
        record = gkbms.execute(
            "DecNormalize", {"relation": "InvitationRel"}, tool="Normalizer",
        )
        module = gkbms.module
        base, detail = record.output_roles["relations"]
        assert "receiver" not in module.relations[base].field_names()
        # the isa selector followed the split
        isa_selector = module.selectors["InvitationRelIsAPapers"]
        assert isa_selector.relation == base
        db = gkbms.build_database()
        assert base in db.relations

    def test_backtrack_distribute_mapping(self, gkbms):
        did = self.scenario.records["map"].did
        report = gkbms.backtracker.retract(did)
        assert gkbms.module.relations == {}
        assert gkbms.module.selectors == {}
        assert did in report.retracted_decisions


class TestGKBMSOverModelLattice:
    """The GKBMS's knowledge distributed over model-lattice workspaces:
    'configuring a model means the activation of the corresponding
    nodes', combined with decision documentation."""

    @pytest.fixture
    def composed(self):
        base = ModelBase()
        # the kernel + metamodel + library live in the default workspace;
        # the project's knowledge is split per life-cycle level
        base.define_model("design_level")
        base.define_model("impl_level", submodels=["design_level"])
        gkbms = GKBMS(processor=base.processor)
        gkbms.register_standard_library()
        with base.in_model("design_level"):
            gkbms.import_design(DOCUMENT_DESIGN)
        with base.in_model("impl_level"):
            gkbms.execute(
                "DecMoveDown", {"hierarchy": "Papers"},
                tool="MoveDownMapper",
                params={"only": ["Invitations"],
                        "names": {"Invitations": "InvitationRel"}},
            )
        return base, gkbms

    def test_objects_partitioned_by_model(self, composed):
        base, gkbms = composed
        assert "Papers" in base.objects_of("design_level")
        assert "InvitationRel" in base.objects_of("impl_level")
        assert "InvitationRel" not in base.objects_of(
            "design_level", transitive=False
        )

    def test_configuration_controls_visibility(self, composed):
        base, gkbms = composed
        base.configure(["design_level"])
        assert gkbms.processor.exists("Papers")
        assert not gkbms.processor.exists("InvitationRel")
        base.configure(["impl_level"])  # pulls design in transitively
        assert gkbms.processor.exists("InvitationRel")
        assert gkbms.processor.exists("Papers")

    def test_navigation_respects_configuration(self, composed):
        base, gkbms = composed
        nav = gkbms.navigator()
        base.configure(["design_level"])
        assert nav.status_view("implementation") == []
        base.configure(["impl_level"])
        assert "InvitationRel" in nav.status_view("implementation")
