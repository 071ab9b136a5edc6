"""Randomized oracle equivalence for delta-maintained state (PR 7).

Seeded interleavings of tell / untell (retract) / savepoint-rollback,
where the delta-maintained artefacts — the proposition processor's
closure caches and the rule engine's materialised IDB — are compared
against a **from-scratch oracle rebuild after every step**.  Any drift
between maintenance and rebuild is a correctness bug, not a perf bug;
these tests are the safety net under the Perf-9 ratios.
"""

import random

import pytest

from repro.deduction import parse_rule
from repro.deduction.kb import KnowledgeView, RuleEngine
from repro.deduction.seminaive import Database, MaterializedFixpoint, evaluate
from repro.errors import AxiomViolation, PropositionError
from repro.propositions import PropositionProcessor


# ---------------------------------------------------------------------------
# Fixpoint level: random fact batches vs evaluate()
# ---------------------------------------------------------------------------


FIXPOINT_RULES = [
    "path(?x, ?y) :- edge(?x, ?y).",
    "path(?x, ?z) :- edge(?x, ?y), path(?y, ?z).",
    "linked(?x) :- edge(?x, ?y).",
    "linked(?y) :- edge(?x, ?y).",
    "lonely(?x) :- node(?x), not linked(?x).",
]


def rebuild(rule_texts, facts):
    rules = [parse_rule(text) for text in rule_texts]
    edb = Database({pred: set(rows) for pred, rows in facts.items()})
    return evaluate(rules, edb)


def assert_identical(maintained, oracle, context=""):
    for pred in set(maintained.predicates()) | set(oracle.predicates()):
        assert maintained.rows(pred) == oracle.rows(pred), (pred, context)


@pytest.mark.parametrize("seed", [5, 17, 41])
def test_randomized_fixpoint_delta_oracle(seed):
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(7)]
    facts = {"node": {(n,) for n in nodes},
             "edge": {("n0", "n1"), ("n1", "n2")}}
    fixpoint = MaterializedFixpoint(
        [parse_rule(text) for text in FIXPOINT_RULES],
        Database({pred: set(rows) for pred, rows in facts.items()}),
    )
    for step in range(60):
        added, removed = {}, {}
        for _ in range(rng.randrange(1, 4)):
            edge = (rng.choice(nodes), rng.choice(nodes))
            if edge in facts["edge"] and edge not in added.get("edge", set()):
                removed.setdefault("edge", set()).add(edge)
            else:
                added.setdefault("edge", set()).add(edge)
        if rng.random() < 0.2:
            # EDB-assert a derivable fact, or retract the assertion again
            row = (rng.choice(nodes), rng.choice(nodes))
            target = removed if row in facts.get("path", set()) else added
            target.setdefault("path", set()).add(row)
        for pred, rows in removed.items():
            facts[pred] = facts.get(pred, set()) - rows
        for pred, rows in added.items():
            facts[pred] = facts.get(pred, set()) | rows
        fixpoint.apply_delta(added, removed)
        assert_identical(fixpoint.database(),
                         rebuild(FIXPOINT_RULES, facts),
                         context=f"seed={seed} step={step}")
    # the run exercised both maintenance algorithms
    assert fixpoint.stats["delta_applies"] == 60


# ---------------------------------------------------------------------------
# Processor level: closure caches vs a replayed-from-scratch processor
# ---------------------------------------------------------------------------


def closure_surface(proc, names):
    """The full closure-query answer set over ``names``."""
    surface = {}
    for name in names:
        surface[name] = (
            proc.generalizations(name),
            proc.specializations(name),
            proc.classes_of(name),
            proc.is_class(name),
            proc.instances_of(name),
            proc.instances_of(name, direct=True),
            tuple((p.source, p.label, p.destination)
                  for p in proc.attribute_classes(name)),
        )
    return surface


def rollback_interleaving(seed, oracle_every_step=True):
    """The seeded tell / untell / savepoint-rollback interleaving of the
    rollback oracle, on an incremental processor it returns.

    After every step the live processor answers the closure surface of
    its ten newest names, which keeps its caches warm for the next
    change to patch.  A fresh non-incremental processor replaying the
    committed log from scratch is the oracle: it is compared after every
    step with ``oracle_every_step``, and always over every name after
    the last one."""
    rng = random.Random(seed)
    proc = PropositionProcessor()          # incremental by default
    committed = []                         # op log for the oracle rebuild
    classes, individuals, links = [], [], []

    def run(target, op):
        """Apply one op; report whether it took effect."""
        try:
            op(target)
            return True
        except (AxiomViolation, PropositionError):
            return False

    def random_op(step):
        roll = rng.random()
        if roll < 0.22 or not classes:
            name = f"C{step}"
            sups = rng.sample(classes, k=min(len(classes), rng.randrange(3)))
            return ("class", name, tuple(sups)), lambda p: p.define_class(
                name, isa=list(sups))
        if roll < 0.42:
            name, cls = f"i{step}", rng.choice(classes)
            return ("ind", name, cls), lambda p: p.tell_individual(
                name, in_class=cls)
        if roll < 0.57 and len(classes) >= 2:
            sub, sup = rng.sample(classes, 2)
            return ("isa", sub, sup), lambda p: p.tell_isa(sub, sup)
        if roll < 0.70 and individuals and classes:
            ind, cls = rng.choice(individuals), rng.choice(classes)
            return ("inst", ind, cls), lambda p: p.tell_instanceof(ind, cls)
        if roll < 0.84 and len(individuals) >= 2:
            source, destination = rng.sample(individuals, 2)
            pid = f"l{step}"
            label = rng.choice(["likes", "knows"])
            return ("link", pid, source, destination), lambda p: p.tell_link(
                source, label, destination, pid=pid)
        if links:
            victim = rng.choice(links)
            return ("retract", victim), lambda p: (
                p.retract(victim) if victim in p.store else None)
        return None, None

    def check(names):
        # oracle: a fresh non-incremental processor replaying the
        # committed log from scratch — rolled-back savepoints absent
        oracle = PropositionProcessor(optimise=False)
        for op in committed:
            run(oracle, op)
        # rolled-back savepoints burn auto-pid counter values in the
        # live processor, so compare structure, not identifiers
        def shape(processor):
            return sorted(
                (p.source, p.label, p.destination, p.is_link)
                for p in processor.store
            )
        assert shape(proc) == shape(oracle), f"seed={seed}"
        assert (closure_surface(proc, names)
                == closure_surface(oracle, names)), f"seed={seed}"

    for step in range(45):
        if rng.random() < 0.2 and classes:
            # savepoint: tell a few things, then roll the whole unit back
            try:
                with proc.telling():
                    for sub in range(1 + rng.randrange(2)):
                        _, op = random_op(1000 * step + sub)
                        if op is not None:
                            run(proc, op)
                    raise KeyboardInterrupt("roll back the savepoint")
            except KeyboardInterrupt:
                pass
        else:
            key, op = random_op(step)
            if op is None:
                continue
            if run(proc, op):
                committed.append(op)
                kind = key[0]
                if kind == "class":
                    classes.append(key[1])
                elif kind == "ind":
                    individuals.append(key[1])
                elif kind == "link":
                    links.append(key[1])
                elif kind == "retract" and key[1] in links:
                    links.remove(key[1])

        names = [n for n in classes + individuals if proc.exists(n)]
        sample = names[-10:]
        if oracle_every_step:
            check(sample)
        else:
            closure_surface(proc, sample)
    check([n for n in classes + individuals if proc.exists(n)])
    return proc


@pytest.mark.parametrize("seed", [2, 13])
def test_randomized_closure_oracle_with_rollback(seed):
    proc = rollback_interleaving(seed)
    assert proc.stats["closure_delta_applied"] > 0


# ---------------------------------------------------------------------------
# Engine level: materialised IDB vs evaluate() over the live view
# ---------------------------------------------------------------------------


ENGINE_RULES = {
    "reach_base": "attr(?x, reach, ?y) :- attr(?x, link, ?y).",
    "reach_step": "attr(?x, reach, ?z) :- attr(?x, link, ?y), attr(?y, reach, ?z).",
    "member": "attr(?x, member, Person) :- in(?x, Person).",
}


@pytest.mark.parametrize("seed", [7, 29])
def test_randomized_engine_delta_oracle(seed):
    rng = random.Random(seed)
    proc = PropositionProcessor()
    proc.define_class("Person")
    engine = RuleEngine(proc, incremental=True)
    for name, text in ENGINE_RULES.items():
        engine.add_rule(text, name=name)
    engine.materialise()

    people, links = [], []
    for index in range(6):
        name = f"u{index}"
        proc.tell_individual(name, in_class="Person")
        people.append(name)

    for step in range(40):
        roll = rng.random()
        if roll < 0.45 or not links:
            source, destination = rng.sample(people, 2)
            pid = f"lk{step}"
            proc.tell_link(source, "link", destination, pid=pid)
            links.append(pid)
        elif roll < 0.8:
            victim = links.pop(rng.randrange(len(links)))
            if victim in proc.store:
                proc.retract(victim)
        else:
            # savepoint rollback: the IDB must end exactly where it was
            try:
                with proc.telling():
                    source, destination = rng.sample(people, 2)
                    proc.tell_link(source, "link", destination,
                                   pid=f"rb{step}")
                    raise KeyboardInterrupt("roll back")
            except KeyboardInterrupt:
                pass
        maintained = engine.materialise()
        oracle = evaluate(
            list(engine.rules().values()),
            KnowledgeView(proc).database(),
        )
        assert_identical(maintained, oracle,
                         context=f"seed={seed} step={step}")

    assert engine.stats["materialisations"] == 1
    assert engine.stats["idb_refreshes"] > 0
