"""Indexed deduction reads against full-scan oracles.

``KnowledgeView.facts(predicate, bound)`` answers bound calls from the
store's indexes, ``cb.query`` passes each goal's bound arguments down
to it, and the rule engine's retrieval hook skips materialising while
no rule concludes ``attr``.  Every one of those reads has a slower twin
that looks at everything, and these tests hold them equal over seeded random knowledge bases built from tells,
untells, rolled-back tellings and workspace toggles:

- ``facts(p, bound)`` equals the whole list filtered by ``bound``, row
  for row, for every bound mask over present and absent names;
- ``cb.query`` answers equal those of a reference :class:`Prover` whose
  fact source ignores ``bound``, under four rule sets;
- the hook's output equals ``deduced_propositions()`` filtered by the
  pattern, also across a rule swap that leaves the epoch alone.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.conceptbase import ConceptBase
from repro.deduction import Prover, parse_literal, parse_rule
from repro.deduction.kb import INDEXED_ARITY, KnowledgeView
from repro.errors import ReproError
from repro.propositions import WorkspaceStore
from repro.propositions.proposition import Pattern

#: Individuals; ``instanceof`` and ``isa`` are legal names whose
#: self-referential propositions carry a reserved label.  All but
#: ``e`` exist from the start.
NAMES = ("a", "b", "c", "d", "e", "instanceof", "isa")
CLASSES = ("C0", "C1", "C2")
LABELS = ("sender", "l", "parent")
#: Never told: bound lookups on them must come back empty.
ABSENT = "zz"

RULE_SETS = {
    "none": (),
    "non-attr": ("linked(?x) :- attr(?x, l, ?y).",),
    "informed": ("attr(?x, informed, ?y) :- attr(?x, sender, ?y).",),
    "perf1": (
        "attr(?x, anc, ?y) :- attr(?x, parent, ?y).",
        "attr(?x, anc, ?z) :- attr(?x, parent, ?y), attr(?y, anc, ?z).",
    ),
    "naf": ("attr(?x, unclassified, ?y) :- attr(?x, l, ?y), not in(?x, C1).",),
}

GOALS = (
    "attr(?x, ?l, ?y)", "attr(a, ?l, ?y)", "attr(?x, sender, ?y)",
    "attr(?x, ?l, b)", "attr(a, l, b)", "attr(zz, ?l, ?y)",
    "attr(?x, informed, ?y)", "attr(a, anc, ?y)", "attr(?x, anc, d)",
    "attr(?x, unclassified, ?y)", "attr(?x, ?l, ?x)",
    "in(?x, ?c)", "in(?x, C0)", "in(a, ?c)", "in(a, C1)", "in(?x, zz)",
    "in(?x, instanceof)", "in(instanceof, ?c)",
    "isa(?x, ?y)", "isa(?x, C0)", "isa(C1, ?y)", "isa(isa, ?y)",
    "prop(?p, ?x, ?l, ?y)", "prop(?p, a, ?l, ?y)",
    "prop(?p, ?x, instanceof, C0)", "prop(?p, ?x, ?l, zz)",
    "linked(?x)", "linked(a)",
    # wrong arities match nothing
    "attr(a, ?y)", "in(?x, C0, ?z)",
)


class _Rollback(Exception):
    """Raised inside a telling to roll it back."""


# -- random knowledge bases ---------------------------------------------

_name = st.sampled_from(NAMES)
_class = st.sampled_from(CLASSES + NAMES)
_tell = st.one_of(
    st.tuples(st.just("links"), st.lists(
        st.tuples(_name, st.sampled_from(LABELS), _name), min_size=1, max_size=4)),
    st.one_of(
        st.tuples(st.just("individual"), _name,
                  st.none() | st.sampled_from(CLASSES)),
        st.tuples(st.just("isa"), _class, _class),
        st.tuples(st.just("instanceof"), _name, _class),
        st.tuples(st.just("untell"), st.integers(0, 50)),
    ),
)
_op = st.one_of(
    _tell,
    st.one_of(
        st.tuples(st.just("rolled_back"), st.lists(_tell, max_size=4)),
        st.tuples(st.just("current"),
                  st.sampled_from(("w", WorkspaceStore.DEFAULT))),
        st.tuples(st.just("toggle")),
        st.tuples(st.just("check")),
    ),
)
_ops = st.lists(_op, min_size=10, max_size=40)


def _knowledge_base(rule_set):
    """Three classes, ``a``, ``b``, ``instanceof`` and ``isa`` in the
    kernel workspace, ``c`` and ``d`` in workspace ``w``, and the rule
    set."""
    store = WorkspaceStore()
    store.add_workspace("w")
    cb = ConceptBase(store=store)
    proc = cb.propositions
    for cls in CLASSES:
        proc.define_class(cls)
    proc.tell_individual("a", in_class="C0")
    proc.tell_individual("b", in_class="C1")
    proc.tell_individual("instanceof")
    proc.tell_individual("isa", in_class="C2")
    store.set_current("w")
    proc.tell_individual("c", in_class="C0")
    proc.tell_individual("d")
    store.set_current(WorkspaceStore.DEFAULT)
    for index, rule in enumerate(RULE_SETS[rule_set]):
        cb.rules.add_rule(rule, name=f"r{index}", document=False)
    return cb


def _told_links(cb):
    """Visible links told by the ops (kernel links have other pids),
    in a fixed order."""
    return sorted(p.pid for p in cb.propositions.store
                  if p.is_link and p.pid.startswith("p"))


def _apply(cb, op, on_check):
    proc, store = cb.propositions, cb.propositions.store
    kind = op[0]
    try:
        if kind == "individual":
            proc.tell_individual(op[1], in_class=op[2])
        elif kind == "links":
            for source, label, destination in op[1]:
                if label == "parent":
                    # SLD over the recursive ancestor rules needs a DAG.
                    if source == destination:
                        continue
                    source, destination = sorted((source, destination))
                _apply(cb, ("link", source, label, destination), on_check)
        elif kind == "link":
            proc.tell_link(*op[1:])
        elif kind == "isa":
            proc.tell_isa(op[1], op[2])
        elif kind == "instanceof":
            proc.tell_instanceof(op[1], op[2])
        elif kind == "untell":
            candidates = _told_links(cb)
            if candidates:
                proc.retract(candidates[op[1] % len(candidates)])
        elif kind == "rolled_back":
            try:
                with proc.telling():
                    for inner in op[1]:
                        _apply(cb, inner, on_check)
                    raise _Rollback
            except _Rollback:
                pass
        elif kind == "current":
            store.set_current(op[1])
        elif kind == "toggle":
            if store.is_active("w"):
                store.deactivate("w")
            else:
                store.activate("w")
        else:
            on_check(cb)
    except ReproError:
        pass  # an axiom refused the tell: the base is unchanged


def _run(rule_set, ops, check):
    cb = _knowledge_base(rule_set)
    for op in ops:
        _apply(cb, op, check)
    check(cb)


# -- oracles ------------------------------------------------------------


def _candidates(cb, full, arity):
    """Argument tuples to bind from: the predicate's own rows, and the
    components of every visible proposition, which bind present names
    to rows the predicate filters out (an isa link as an ``attr`` row,
    an individual as a classification)."""
    yield from full
    for p in cb.propositions.store:
        quadruple = (p.pid, p.source, p.label, p.destination)
        yield quadruple if arity == 4 else quadruple[4 - arity:]
        if arity == 2:
            yield (p.pid, p.destination)


def check_facts(cb):
    """Every bound mask, over present names and over an absent name in
    each bound position."""
    view = cb.rules.view
    oracle = KnowledgeView(cb.propositions)
    for predicate, arity in INDEXED_ARITY.items():
        full = oracle.facts(predicate)
        # the cached whole list is never stale
        assert sorted(view.facts(predicate)) == sorted(full), predicate
        for mask in itertools.product((False, True), repeat=arity):
            expected = {}
            for row in full:
                bound = tuple(v if keep else None for v, keep in zip(row, mask))
                expected.setdefault(bound, []).append(row)
            bounds = {tuple(v if keep else None for v, keep in zip(row, mask))
                      for row in _candidates(cb, full, arity)}
            some = min(bounds, key=repr)
            for i, keep in enumerate(mask):
                if keep:
                    bounds.add(some[:i] + (ABSENT,) + some[i + 1:])
            for bound in bounds:
                assert sorted(view.facts(predicate, bound)) == sorted(
                    expected.get(bound, [])), (predicate, bound)


def check_queries(cb):
    oracle = KnowledgeView(cb.propositions)
    reference = Prover(
        cb.rules.rules().values(),
        fact_source=lambda predicate, bound: oracle.facts(predicate),
        lemmas=False,
    )
    for goal in GOALS:
        expected = sorted(reference.answers(parse_literal(goal)))
        assert sorted(cb.query(goal)) == expected, goal


def _patterns(deduced):
    for source, label, destination in itertools.product(
        (None, "a", "b", ABSENT),
        (None, "informed", "anc", "unclassified", "sender", ABSENT),
        (None, "b", "d", ABSENT),
    ):
        yield Pattern(source=source, label=label, destination=destination)
    for prop in deduced[:3]:
        yield Pattern(pid=prop.pid)


def check_hook(cb):
    deduced = cb.rules.deduced_propositions()
    for pattern in _patterns(deduced):
        expected = [p for p in deduced if pattern.matches(p)]
        assert cb.rules.deduced_matching(pattern) == expected, pattern


@settings(max_examples=25, deadline=None, derandomize=True)
@given(ops=_ops)
def test_bound_facts_equal_filtered_scan(ops):
    _run("none", ops, check_facts)


@pytest.mark.parametrize("rule_set", ["none", "informed", "perf1", "naf"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(ops=_ops)
def test_query_answers_equal_bound_ignoring_prover(rule_set, ops):
    _run(rule_set, ops, check_queries)


@pytest.mark.parametrize("rule_set", sorted(RULE_SETS))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(ops=_ops)
def test_hook_equals_filtered_deduced_propositions(rule_set, ops):
    _run(rule_set, ops, check_hook)


def test_fact_source_sees_bindings_of_earlier_body_literals():
    calls = []
    edges = [("a", "b"), ("b", "c"), ("c", "d")]

    def fact_source(predicate, bound):
        calls.append((predicate, bound))
        return edges if predicate == "edge" else []

    prover = Prover(
        [parse_rule("hop2(?x, ?z) :- edge(?x, ?y), edge(?y, ?z).")],
        fact_source=fact_source,
    )
    assert prover.answers(parse_literal("hop2(a, ?z)")) == [("a", "c")]
    assert ("edge", ("a", None)) in calls
    assert ("edge", ("b", None)) in calls


# -- the deduced-propositions hook ----------------------------------------


def _senders():
    cb = _knowledge_base("none")
    cb.propositions.tell_link("a", "sender", "b")
    cb.propositions.tell_link("b", "sender", "c")
    return cb


def test_hook_without_attr_rules_never_materialises():
    cb = _senders()
    cb.rules.add_rule("linked(?x) :- attr(?x, sender, ?y).", name="r",
                      document=False)
    assert cb.ask("forall x/C0 (Known(x.sender) or x = c)")
    assert cb.rules.deduced_matching(Pattern(source="a")) == []
    assert cb.rules.stats["materialisations"] == 0


def test_rule_swap_inside_one_epoch():
    """``add_rule(document=False)`` and ``remove_rule`` leave the
    processor epoch alone; the hook must still pick up the new rule's
    conclusions and drop the old one's."""
    cb = _senders()
    rules = cb.rules
    rules.add_rule("attr(?x, informed, ?y) :- attr(?x, sender, ?y).",
                   name="informed", document=False)
    assert cb.ask("exists x/C0 (Known(x.informed))")
    epoch = cb.propositions.epoch
    rules.add_rule("attr(?x, told, ?y) :- attr(?x, sender, ?y).",
                   name="told", document=False)
    assert cb.ask("exists x/C0 (Known(x.told))")
    check_hook(cb)
    rules.remove_rule("informed")
    assert not cb.ask("exists x/C0 (Known(x.informed))")
    check_hook(cb)
    assert cb.propositions.epoch == epoch
    assert [(p.source, p.destination) for p in rules.deduced_matching(
        Pattern(label="told"))] == [("a", "b"), ("b", "c")]


def test_hook_follows_workspace_toggle():
    cb = _senders()
    store = cb.propositions.store
    cb.rules.add_rule("attr(?x, informed, ?y) :- attr(?x, sender, ?y).",
                      name="r", document=False)
    store.set_current("w")
    cb.propositions.tell_link("c", "sender", "a")
    store.set_current(WorkspaceStore.DEFAULT)
    pattern = Pattern(source="c", label="informed")
    assert len(cb.rules.deduced_matching(pattern)) == 1
    store.deactivate("w")
    assert cb.rules.deduced_matching(pattern) == []
    check_hook(cb)
    store.activate("w")
    assert len(cb.rules.deduced_matching(pattern)) == 1
    check_hook(cb)


# -- caches stamped with the store's visibility epoch ---------------------


class TestWorkspaceToggle:
    """Activating or deactivating a workspace changes the visible facts
    without moving the processor epoch; every deduction cache must
    notice."""

    @pytest.fixture
    def cb(self):
        store = WorkspaceStore()
        store.add_workspace("w")
        cb = ConceptBase(store=store)
        cb.add_rule("attr(?x, informed, ?y) :- attr(?x, s, ?y).")
        cb.tell("TELL Person IN SimpleClass END")
        cb.tell("TELL Ann IN Person END")
        cb.tell("TELL Doc IN SimpleClass WITH\n  attribute sender : Person\nEND")
        store.set_current("w")
        cb.tell("TELL D1 IN Doc WITH\n  sender s : Ann\nEND")
        store.set_current(WorkspaceStore.DEFAULT)
        return cb

    @staticmethod
    def _d1_rows(cb):
        return {row for row in cb.query("attr(?x, ?l, ?y)") if row[0] == "D1"}

    def test_activation_after_a_read_shows_the_workspace(self, cb):
        store = cb.propositions.store
        store.deactivate("w")
        assert not cb.ask("exists d/Doc (Known(d.informed))")
        store.activate("w")
        assert cb.instances("Doc") == ["D1"]
        assert cb.query("in(?x, Doc)") == [("D1", "Doc")]
        assert ("D1", "Doc") in cb.query("in(?x, ?c)")
        assert cb.ask("exists d/Doc (Known(d.informed))")
        assert self._d1_rows(cb) == {("D1", "s", "Ann"),
                                     ("D1", "informed", "Ann")}

    def test_deactivation_after_a_read_hides_the_workspace(self, cb):
        store = cb.propositions.store
        assert self._d1_rows(cb)
        assert cb.ask("exists d/Doc (Known(d.informed))")
        store.deactivate("w")
        assert cb.instances("Doc") == []
        assert cb.query("in(?x, Doc)") == []
        assert ("D1", "Doc") not in cb.query("in(?x, ?c)")
        assert not cb.ask("exists d/Doc (Known(d.informed))")
        assert self._d1_rows(cb) == set()

    def test_held_prover_drops_lemmas_on_toggle(self, cb):
        prover = cb.rules.prover(lemmas=True)
        goal = parse_literal("attr(?x, informed, ?y)")
        assert prover.answers(goal) == [("D1", "informed", "Ann")]
        cb.propositions.store.deactivate("w")
        assert prover.answers(goal) == []
