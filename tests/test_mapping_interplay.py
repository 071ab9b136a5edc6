"""Tests for interactions between mapping assistants (found by the
stress workload, pinned here as regressions)."""

import pytest

from repro.core import GKBMS
from repro.errors import DecisionError
from repro.languages.dbpl.ast import ForeignKey

DESIGN = """
entity class Root with
  owner : Root
end
entity class Branch isa Root with
  members : set of Root
end
entity class Twig isa Branch with
  colour : Root
end
"""


@pytest.fixture
def gkbms():
    g = GKBMS()
    g.register_standard_library()
    g.import_design(DESIGN)
    return g


class TestNormalizeOverDistribute:
    def test_isa_selectors_follow_the_split(self, gkbms):
        """Distribute creates isa selectors; normalising the relation
        they reference must re-point them, keeping the module loadable."""
        gkbms.execute("DecDistribute", {"hierarchy": "Root"},
                      tool="DistributeMapper")
        gkbms.execute(
            "DecNormalize", {"relation": "BranchRel"}, tool="Normalizer",
        )
        # the selector guarding BranchRel (as source) moved to the base
        module = gkbms.module
        isa_selector = module.selectors["BranchRelIsARoot"]
        assert isa_selector.relation == "BranchRel2"
        # the selector targeting BranchRel (Twig's isa) re-targets
        twig_selector = module.selectors["TwigRelIsABranch"]
        assert isinstance(twig_selector.constraint, ForeignKey)
        assert twig_selector.constraint.target == "BranchRel2"
        # and the whole module still loads into the engine
        db = gkbms.build_database()
        assert "BranchRel2" in db.relations

    def test_undo_restores_selectors(self, gkbms):
        gkbms.execute("DecDistribute", {"hierarchy": "Root"},
                      tool="DistributeMapper")
        record = gkbms.execute(
            "DecNormalize", {"relation": "BranchRel"}, tool="Normalizer",
        )
        gkbms.backtracker.retract(record.did)
        module = gkbms.module
        assert module.selectors["BranchRelIsARoot"].relation == "BranchRel"
        assert module.selectors["TwigRelIsABranch"].constraint.target == (
            "BranchRel"
        )
        gkbms.build_database()

    def test_normalized_module_executes_end_to_end(self, gkbms):
        gkbms.execute("DecDistribute", {"hierarchy": "Root"},
                      tool="DistributeMapper")
        gkbms.execute("DecNormalize", {"relation": "BranchRel"},
                      tool="Normalizer")
        db = gkbms.build_database()
        with db.transaction():
            db.relation("RootRel").insert({"paperkey": "k1", "owner": "o"})
            db.relation("BranchRel2").insert({"paperkey": "k1"})
        # referential integrity still guards the split relation
        from repro.errors import IntegrityError

        with pytest.raises(IntegrityError):
            with db.transaction():
                db.relation("BranchRel2").insert({"paperkey": "dangling"})


class TestKeySubstitutionEdgeCases:
    def test_composite_surrogate_requires_drop(self, gkbms):
        from repro.core.mapping.keys import key_substitution_apply

        gkbms.execute("DecMoveDown", {"hierarchy": "Root"},
                      tool="MoveDownMapper")
        gkbms.execute("DecNormalize", {"relation": "TwigRel"},
                      tool="Normalizer")
        # the normalisation detail relation has a composite key, so the
        # field to drop cannot be inferred and must be passed explicitly
        detail = [
            name for name, decl in gkbms.module.relations.items()
            if len(decl.key) > 1
        ][0]
        with pytest.raises(DecisionError):
            key_substitution_apply(
                gkbms, {"relation": detail}, {"key": ("owner",)}
            )

    def test_key_must_exist_as_field(self, gkbms):
        from repro.core.mapping.keys import key_substitution_apply

        gkbms.execute("DecMoveDown", {"hierarchy": "Root"},
                      tool="MoveDownMapper")
        with pytest.raises(DecisionError):
            key_substitution_apply(
                gkbms, {"relation": "TwigRel"}, {"key": ("nonexistent",)}
            )

    def test_unknown_relation(self, gkbms):
        from repro.core.mapping.keys import key_substitution_apply

        with pytest.raises(DecisionError):
            key_substitution_apply(
                gkbms, {"relation": "Ghost"}, {"key": ("owner",)}
            )


class TestNormalizeEdgeCases:
    def test_no_set_valued_field(self, gkbms):
        from repro.core.mapping.normalize import normalize_apply

        gkbms.execute("DecDistribute", {"hierarchy": "Root"},
                      tool="DistributeMapper")
        with pytest.raises(DecisionError):
            normalize_apply(gkbms, {"relation": "RootRel"}, {})

    def test_multiple_set_fields_need_choice(self, gkbms):
        from repro.core.mapping.normalize import normalize_apply
        from repro.languages.dbpl.ast import Field, RelationDecl

        gkbms.add_artifact(
            RelationDecl("Multi", [
                Field("k", "Surrogate"),
                Field("a", "SET OF X"),
                Field("b", "SET OF Y"),
            ], key=("k",)),
            kb_class="DBPL_Rel",
        )
        with pytest.raises(DecisionError):
            normalize_apply(gkbms, {"relation": "Multi"}, {})
        result = normalize_apply(gkbms, {"relation": "Multi"}, {"field": "b"})
        base = gkbms.module.relations[result["relations"][0]]
        assert "a" in base.field_names()
        assert "b" not in base.field_names()

    def test_unknown_relation(self, gkbms):
        from repro.core.mapping.normalize import normalize_apply

        with pytest.raises(DecisionError):
            normalize_apply(gkbms, {"relation": "Ghost"}, {})
