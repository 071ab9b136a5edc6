"""Tests for the rule parser, semi-naive evaluation and the prover."""

import pytest

from repro.errors import DeductionError
from repro.deduction import (
    Database,
    Prover,
    evaluate,
    parse_literal,
    parse_program,
    parse_rule,
    stratify,
)
from repro.propositions import Pattern, PropositionProcessor
from repro.deduction import RuleEngine


class TestParser:
    def test_fact(self):
        rule = parse_rule("edge(a, b).")
        assert rule.is_fact
        assert rule.head.predicate == "edge"

    def test_rule_with_variables(self):
        rule = parse_rule("path(?x, ?z) :- edge(?x, ?y), path(?y, ?z).")
        assert len(rule.body) == 2
        assert rule.head.variables()[0].name == "x"

    def test_negation(self):
        rule = parse_rule("orphan(?x) :- node(?x), not parent(?x, ?x).")
        assert rule.body[1].negated

    def test_quoted_constants(self):
        rule = parse_rule("attr(?x, 'Invitation.sender', ?y) :- link(?x, ?y).")
        assert rule.head.args[1].value == "Invitation.sender"

    def test_numbers(self):
        rule = parse_rule("weight(a, 3).")
        assert rule.head.args[1].value == 3

    def test_comments_and_program(self):
        rules = parse_program(
            """
            % transitive closure
            path(?x, ?y) :- edge(?x, ?y).
            path(?x, ?z) :- edge(?x, ?y), path(?y, ?z).
            """
        )
        assert len(rules) == 2

    def test_syntax_errors(self):
        with pytest.raises(DeductionError):
            parse_rule("path(?x ?y).")
        with pytest.raises(DeductionError):
            parse_rule("path(?x, ?y)")  # missing period
        with pytest.raises(DeductionError):
            parse_literal("p(a). q(b).")


class TestSeminaive:
    def _tc(self):
        return parse_program(
            """
            path(?x, ?y) :- edge(?x, ?y).
            path(?x, ?z) :- edge(?x, ?y), path(?y, ?z).
            """
        )

    def test_transitive_closure(self):
        edb = Database({"edge": {("a", "b"), ("b", "c"), ("c", "d")}})
        idb = evaluate(self._tc(), edb)
        assert ("a", "d") in idb.rows("path")
        assert len(idb.rows("path")) == 6

    def test_cycle_terminates(self):
        edb = Database({"edge": {("a", "b"), ("b", "a")}})
        idb = evaluate(self._tc(), edb)
        assert ("a", "a") in idb.rows("path")

    def test_stratified_negation(self):
        rules = parse_program(
            """
            path(?x, ?y) :- edge(?x, ?y).
            path(?x, ?z) :- edge(?x, ?y), path(?y, ?z).
            unreach(?x, ?y) :- node(?x), node(?y), not path(?x, ?y).
            """
        )
        edb = Database(
            {"edge": {("a", "b")}, "node": {("a",), ("b",)}}
        )
        idb = evaluate(rules, edb)
        assert ("b", "a") in idb.rows("unreach")
        assert ("a", "b") not in idb.rows("unreach")

    def test_unstratifiable_rejected(self):
        rules = parse_program(
            """
            p(?x) :- q(?x), not p(?x).
            """
        )
        with pytest.raises(DeductionError):
            stratify(rules)

    def test_strata_ordering(self):
        rules = parse_program(
            """
            a(?x) :- base(?x).
            b(?x) :- base(?x), not a(?x).
            c(?x) :- base(?x), not b(?x).
            """
        )
        layers = stratify(rules)
        assert len(layers) == 3

    def test_facts_in_program(self):
        rules = parse_program(
            """
            edge(a, b).
            edge(b, c).
            path(?x, ?y) :- edge(?x, ?y).
            path(?x, ?z) :- edge(?x, ?y), path(?y, ?z).
            """
        )
        idb = evaluate(rules, Database())
        assert ("a", "c") in idb.rows("path")


class TestProver:
    def _prover(self, lemmas=True):
        facts = {
            "edge": [("a", "b"), ("b", "c"), ("c", "d")],
        }
        rules = parse_program(
            """
            path(?x, ?y) :- edge(?x, ?y).
            path(?x, ?z) :- edge(?x, ?y), path(?y, ?z).
            """
        )
        return Prover(rules, fact_source=lambda p, bound: facts.get(p, ()),
                      lemmas=lemmas)

    def test_ask(self):
        prover = self._prover()
        assert prover.ask(parse_literal("path(a, d)"))
        assert not prover.ask(parse_literal("path(d, a)"))

    def test_answers(self):
        prover = self._prover()
        answers = prover.answers(parse_literal("path(a, ?y)"))
        assert {row[1] for row in answers} == {"b", "c", "d"}

    def test_negation_as_failure(self):
        prover = self._prover()
        assert prover.ask(parse_literal("not path(d, a)"))
        assert not prover.ask(parse_literal("not path(a, b)"))

    def test_negation_requires_ground_goal(self):
        prover = self._prover()
        with pytest.raises(DeductionError):
            prover.ask(parse_literal("not path(?x, a)"))

    def test_lemma_cache_hits(self):
        prover = self._prover(lemmas=True)
        goal = parse_literal("path(a, ?y)")
        first = prover.answers(goal)
        hits_before = prover.stats["lemma_hits"]
        second = prover.answers(goal)
        assert first == second
        assert prover.stats["lemma_hits"] > hits_before

    def test_lemmas_disabled(self):
        prover = self._prover(lemmas=False)
        goal = parse_literal("path(a, ?y)")
        prover.answers(goal)
        prover.answers(goal)
        assert prover.stats["lemma_hits"] == 0

    def test_depth_limit(self):
        rules = [parse_rule("p(?x) :- p(?x).")]
        prover = Prover(rules, fact_source=lambda p, bound: (), max_depth=10)
        with pytest.raises(DeductionError):
            prover.ask(parse_literal("p(a)"))


class TestRuleEngine:
    @pytest.fixture
    def proc(self):
        p = PropositionProcessor()
        p.define_class("Person")
        for name in ("tom", "bob", "ann"):
            p.tell_individual(name, in_class="Person")
        p.tell_link("tom", "parent", "bob")
        p.tell_link("bob", "parent", "ann")
        return p

    def test_rule_documented_in_kb(self, proc):
        engine = RuleEngine(proc)
        engine.add_rule(
            "attr(?x, grandparent, ?z) :- attr(?x, parent, ?y), attr(?y, parent, ?z).",
            name="gp",
        )
        assert proc.exists("Assertion_gp")
        rule_links = proc.attributes_of("Proposition", label="rule")
        assert any(p.destination == "Assertion_gp" for p in rule_links)

    def test_deduced_propositions_via_hook(self, proc):
        engine = RuleEngine(proc)
        engine.add_rule(
            "attr(?x, grandparent, ?z) :- attr(?x, parent, ?y), attr(?y, parent, ?z).",
            name="gp",
        )
        engine.install_hook()
        found = list(proc.retrieve_proposition(Pattern(label="grandparent")))
        assert len(found) == 1
        assert (found[0].source, found[0].destination) == ("tom", "ann")

    def test_deduced_updates_with_kb(self, proc):
        engine = RuleEngine(proc)
        engine.add_rule(
            "attr(?x, grandparent, ?z) :- attr(?x, parent, ?y), attr(?y, parent, ?z).",
            name="gp",
        )
        engine.install_hook()
        proc.tell_individual("sue", in_class="Person")
        proc.tell_link("ann", "parent", "sue")
        found = list(proc.retrieve_proposition(Pattern(label="grandparent")))
        assert {(p.source, p.destination) for p in found} == {
            ("tom", "ann"),
            ("bob", "sue"),
        }

    def test_prover_over_kb(self, proc):
        engine = RuleEngine(proc)
        prover = engine.prover()
        answers = prover.answers(parse_literal("in(?x, Person)"))
        assert {row[0] for row in answers} == {"tom", "bob", "ann"}

    def test_duplicate_rule_name_rejected(self, proc):
        engine = RuleEngine(proc)
        engine.add_rule("attr(?x, a, ?y) :- attr(?x, parent, ?y).", name="r")
        with pytest.raises(DeductionError):
            engine.add_rule("attr(?x, b, ?y) :- attr(?x, parent, ?y).", name="r")

    def test_remove_rule(self, proc):
        engine = RuleEngine(proc)
        engine.add_rule(
            "attr(?x, grandparent, ?z) :- attr(?x, parent, ?y), attr(?y, parent, ?z).",
            name="gp", document=False,
        )
        engine.remove_rule("gp")
        assert engine.deduced_propositions() == []
        with pytest.raises(DeductionError):
            engine.remove_rule("gp")
