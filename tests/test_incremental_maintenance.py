"""Delta maintenance of the materialised fixpoint (PR 7 tentpole).

Unit behaviour of :class:`MaterializedFixpoint` — counting maintenance
for acyclic strata, DRed for recursive ones, the negation fallback —
plus the :class:`RuleEngine` wiring that keeps the IDB warm across
knowledge-base epochs.  Every maintained database is compared against
the from-scratch :func:`evaluate` oracle on identical inputs.
"""

from repro.deduction import parse_rule
from repro.deduction.kb import RuleEngine
from repro.deduction.seminaive import Database, MaterializedFixpoint, evaluate
from repro.propositions import PropositionProcessor


def make_fixpoint(rule_texts, facts):
    rules = [parse_rule(text) for text in rule_texts]
    edb = Database({pred: set(rows) for pred, rows in facts.items()})
    return MaterializedFixpoint(rules, edb)


def oracle_db(rule_texts, facts):
    rules = [parse_rule(text) for text in rule_texts]
    edb = Database({pred: set(rows) for pred, rows in facts.items()})
    return evaluate(rules, edb)


def assert_identical(maintained, oracle):
    predicates = set(maintained.predicates()) | set(oracle.predicates())
    for pred in predicates:
        assert maintained.rows(pred) == oracle.rows(pred), pred


def apply_and_check(fixpoint, rule_texts, facts, added=None, removed=None):
    """Apply the delta to both the fixpoint and the plain fact dict,
    then compare against a from-scratch rebuild."""
    added = added or {}
    removed = removed or {}
    for pred, rows in removed.items():
        facts[pred] = set(facts.get(pred, set())) - set(rows)
    for pred, rows in added.items():
        facts[pred] = set(facts.get(pred, set())) | set(rows)
    net_added, net_removed = fixpoint.apply_delta(added, removed)
    assert_identical(fixpoint.database(), oracle_db(rule_texts, facts))
    return net_added, net_removed


TC_RULES = [
    "path(?x, ?y) :- edge(?x, ?y).",
    "path(?x, ?z) :- edge(?x, ?y), path(?y, ?z).",
]


class TestBuild:
    def test_initial_build_matches_evaluate(self):
        facts = {"edge": {("a", "b"), ("b", "c"), ("c", "d")}}
        fixpoint = make_fixpoint(TC_RULES, facts)
        assert_identical(fixpoint.database(), oracle_db(TC_RULES, facts))
        assert fixpoint.database().contains("path", ("a", "d"))

    def test_acyclic_stratum_is_counting_maintained(self):
        rules = ["p(?x) :- a(?x).", "p(?x) :- b(?x).", "q(?x) :- p(?x)."]
        facts = {"a": {("1",)}, "b": set()}
        fixpoint = make_fixpoint(rules, facts)
        apply_and_check(fixpoint, rules, facts, added={"b": {("1",)}})
        # the counting path moved, the DRed path did not
        assert fixpoint.stats["count_increments"] > 0
        assert fixpoint.stats["overdeletions"] == 0

    def test_recursive_stratum_is_dred_maintained(self):
        facts = {"edge": {("a", "b"), ("b", "c")}}
        fixpoint = make_fixpoint(TC_RULES, facts)
        apply_and_check(fixpoint, TC_RULES, facts,
                        removed={"edge": {("b", "c")}})
        assert fixpoint.stats["overdeletions"] > 0
        assert fixpoint.stats["count_increments"] == 0


class TestCountingMaintenance:
    RULES = ["p(?x) :- a(?x).", "p(?x) :- b(?x)."]

    def test_shared_support_survives_single_removal(self):
        facts = {"a": {("x",)}, "b": {("x",)}}
        fixpoint = make_fixpoint(self.RULES, facts)
        apply_and_check(fixpoint, self.RULES, facts, removed={"a": {("x",)}})
        # still derived through b
        assert fixpoint.database().contains("p", ("x",))
        apply_and_check(fixpoint, self.RULES, facts, removed={"b": {("x",)}})
        assert not fixpoint.database().contains("p", ("x",))
        assert fixpoint.stats["count_decrements"] >= 2

    def test_join_rule_delta(self):
        rules = ["grand(?x, ?z) :- parent(?x, ?y), parent(?y, ?z)."]
        facts = {"parent": {("a", "b"), ("b", "c")}}
        fixpoint = make_fixpoint(rules, facts)
        assert fixpoint.database().contains("grand", ("a", "c"))
        apply_and_check(fixpoint, rules, facts,
                        added={"parent": {("c", "d")}},
                        removed={"parent": {("a", "b")}})
        db = fixpoint.database()
        assert db.contains("grand", ("b", "d"))
        assert not db.contains("grand", ("a", "c"))

    def test_edb_row_also_derived_keeps_presence(self):
        rules = ["p(?x) :- a(?x)."]
        facts = {"a": {("x",)}, "p": {("x",)}}
        fixpoint = make_fixpoint(rules, facts)
        # retract the EDB assertion: the derivation keeps the fact alive
        apply_and_check(fixpoint, rules, facts, removed={"p": {("x",)}})
        assert fixpoint.database().contains("p", ("x",))
        # retract the support: now it disappears
        apply_and_check(fixpoint, rules, facts, removed={"a": {("x",)}})
        assert not fixpoint.database().contains("p", ("x",))


class TestDRedMaintenance:
    def test_alternate_path_rederives(self):
        facts = {"edge": {("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")}}
        fixpoint = make_fixpoint(TC_RULES, facts)
        apply_and_check(fixpoint, TC_RULES, facts,
                        removed={"edge": {("a", "b")}})
        # (a, d) was overdeleted but rederived through c
        assert fixpoint.database().contains("path", ("a", "d"))
        assert fixpoint.stats["rederivations"] > 0

    def test_doom_wave_removes_downstream(self):
        chain = {("n%d" % i, "n%d" % (i + 1)) for i in range(6)}
        facts = {"edge": set(chain)}
        fixpoint = make_fixpoint(TC_RULES, facts)
        apply_and_check(fixpoint, TC_RULES, facts,
                        removed={"edge": {("n2", "n3")}})
        db = fixpoint.database()
        assert not db.contains("path", ("n0", "n5"))
        assert db.contains("path", ("n0", "n2"))
        assert db.contains("path", ("n3", "n5"))

    def test_insertion_propagates_semi_naive(self):
        facts = {"edge": {("a", "b"), ("c", "d")}}
        fixpoint = make_fixpoint(TC_RULES, facts)
        apply_and_check(fixpoint, TC_RULES, facts,
                        added={"edge": {("b", "c")}})
        assert fixpoint.database().contains("path", ("a", "d"))

    def test_edb_asserted_path_survives_overdeletion(self):
        # path(a,c) is both EDB-asserted and derived; dropping the edges
        # must not remove the asserted row, nor propagate a doom wave
        # through it.
        facts = {"edge": {("a", "b"), ("b", "c")},
                 "path": {("a", "c")}}
        fixpoint = make_fixpoint(TC_RULES, facts)
        apply_and_check(fixpoint, TC_RULES, facts,
                        removed={"edge": {("a", "b")}})
        assert fixpoint.database().contains("path", ("a", "c"))
        assert not fixpoint.database().contains("path", ("a", "b"))


class TestNegationFallback:
    RULES = [
        "linked(?x) :- edge(?x, ?y).",
        "isolated(?x) :- node(?x), not linked(?x).",
    ]

    def test_delta_on_negated_pred_falls_back(self):
        facts = {"node": {("a",), ("b",)}, "edge": {("a", "b")}}
        fixpoint = make_fixpoint(self.RULES, facts)
        assert fixpoint.database().contains("isolated", ("b",))
        before = fixpoint.stats["delta_fallbacks"]
        apply_and_check(fixpoint, self.RULES, facts,
                        added={"edge": {("b", "a")}})
        assert not fixpoint.database().contains("isolated", ("b",))
        assert fixpoint.stats["delta_fallbacks"] > before

    def test_delta_below_negation_still_incremental(self):
        facts = {"node": {("a",), ("b",)}, "edge": {("a", "b")}}
        fixpoint = make_fixpoint(self.RULES, facts)
        before = fixpoint.stats["delta_fallbacks"]
        # node is never negated: adding one maintains incrementally
        apply_and_check(fixpoint, self.RULES, facts,
                        added={"node": {("c",)}})
        assert fixpoint.database().contains("isolated", ("c",))
        assert fixpoint.stats["delta_fallbacks"] == before


class TestNetDelta:
    def test_returns_exact_difference(self):
        facts = {"edge": {("a", "b")}}
        fixpoint = make_fixpoint(TC_RULES, facts)
        before = {p: fixpoint.database().rows(p)
                  for p in fixpoint.database().predicates()}
        added, removed = fixpoint.apply_delta({"edge": {("b", "c")}}, {})
        after_db = fixpoint.database()
        after = {p: after_db.rows(p) for p in after_db.predicates()}
        for pred in set(before) | set(after):
            gained = after.get(pred, frozenset()) - before.get(pred, frozenset())
            lost = before.get(pred, frozenset()) - after.get(pred, frozenset())
            assert added.get(pred, set()) == gained
            assert removed.get(pred, set()) == lost

    def test_same_batch_flip_cancels(self):
        facts = {"edge": {("a", "b")}}
        fixpoint = make_fixpoint(TC_RULES, facts)
        added, removed = fixpoint.apply_delta(
            {"edge": {("a", "b")}}, {"edge": {("a", "b")}}
        )
        assert not any(added.values())
        assert not any(removed.values())
        assert fixpoint.database().contains("path", ("a", "b"))


class TestRuleEngineWiring:
    def make_engine(self, incremental=True):
        proc = PropositionProcessor()
        proc.define_class("Person")
        engine = RuleEngine(proc, incremental=incremental)
        engine.add_rule(
            "attr(?x, colleague, ?y) :- attr(?x, works_with, ?y)."
        )
        return proc, engine

    def test_materialise_then_refresh_not_rebuild(self):
        proc, engine = self.make_engine()
        proc.tell_individual("ann", in_class="Person")
        proc.tell_individual("bob", in_class="Person")
        engine.materialise()
        assert engine.stats["materialisations"] == 1
        proc.tell_link("ann", "works_with", "bob")
        idb = engine.materialise()
        assert idb.contains("attr", ("ann", "colleague", "bob"))
        assert engine.stats["materialisations"] == 1  # no rebuild
        assert engine.stats["idb_refreshes"] == 1
        assert engine.stats["delta_applies"] >= 1

    def test_materialise_maintains_tell_and_retract(self):
        proc, engine = self.make_engine()
        proc.tell_individual("ann", in_class="Person")
        proc.tell_individual("bob", in_class="Person")
        engine.materialise()
        link = proc.tell_link("ann", "works_with", "bob")
        idb = engine.materialise()
        assert idb.contains("attr", ("ann", "colleague", "bob"))
        proc.retract(link.pid)
        idb = engine.materialise()
        assert not idb.contains("attr", ("ann", "colleague", "bob"))
        assert engine.stats["materialisations"] == 1  # refreshed, never rebuilt

    def test_incremental_matches_rebuild_engine(self):
        proc_a, engine_a = self.make_engine(incremental=True)
        proc_b, engine_b = self.make_engine(incremental=False)
        for proc in (proc_a, proc_b):
            proc.tell_individual("ann", in_class="Person")
            proc.tell_individual("bob", in_class="Person")
            proc.tell_individual("eve", in_class="Person")
        for engine in (engine_a, engine_b):
            engine.materialise()
        for proc in (proc_a, proc_b):
            proc.tell_link("ann", "works_with", "bob")
            proc.tell_link("bob", "works_with", "eve")
        for proc, engine in ((proc_a, engine_a), (proc_b, engine_b)):
            engine.materialise()
        db_a, db_b = engine_a.materialise(), engine_b.materialise()
        for pred in set(db_a.predicates()) | set(db_b.predicates()):
            assert db_a.rows(pred) == db_b.rows(pred), pred

    def test_rule_change_forces_rebuild(self):
        proc, engine = self.make_engine()
        proc.tell_individual("ann", in_class="Person")
        engine.materialise()
        engine.add_rule("attr(?x, peer, ?y) :- attr(?x, colleague, ?y).",
                        name="peers")
        engine.materialise()
        assert engine.stats["materialisations"] == 2
