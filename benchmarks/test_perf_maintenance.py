"""Perf-9 — delta maintenance of derived state (PR 7 tentpole).

Two ablations of ``incremental`` maintenance, both asserted through
machine-independent structural counters:

- **Closure caches under a mixed workload** (tells, retracts and
  closure queries interleaved): with delta maintenance the five closure
  families are patched in place, so cache *invalidations* — each one a
  thrown-away family another query must rebuild — drop by at least 5x
  against the epoch-invalidation ablation, on identical answers.
- **IDB maintenance on the retract path**: retracting facts one at a
  time from a materialised rule base re-fires every rule from scratch
  per epoch in the ablation, while DRed touches only the doomed and
  rederived region — at least 3x fewer rule firings, on an identical
  final fixpoint.
- **Savepoint rollbacks**: a rollback reverses its telling change by
  change through the same delta maintenance, so the rollback oracle's
  seeded interleavings throw away no closure family at all.

A fourth gate reads the maintained path alone: **a tell's cache upkeep
does not grow with the cache** — the closure lookups one classified
attribute tell makes are the same however many classes are warm.
"""

import pytest

from repro.conceptbase import ConceptBase
from repro.deduction.kb import RuleEngine
from repro.propositions import PropositionProcessor
from tests.test_incremental_oracle import rollback_interleaving

# ---------------------------------------------------------------------------
# Part A: closure-cache invalidations on a mixed workload
# ---------------------------------------------------------------------------

HIERARCHIES = 3
MIXED_OBJECTS = 90


def mixed_workload(incremental: bool, objects: int = MIXED_OBJECTS):
    """Interleave classification tells, attribute links, isa edges and
    the closure queries that want to stay warm between them."""
    proc = PropositionProcessor(optimise=True, incremental=incremental)
    for h in range(HIERARCHIES):
        proc.define_class(f"Base{h}")
        proc.define_class(f"Mid{h}", isa=[f"Base{h}"])
        proc.define_class(f"Leaf{h}", isa=[f"Mid{h}"])
    answers = []
    for index in range(objects):
        h = index % HIERARCHIES
        name = f"obj{index}"
        proc.tell_individual(name, in_class=f"Leaf{h}")
        if index % 7 == 3:
            proc.tell_instanceof(name, f"Mid{(h + 1) % HIERARCHIES}")
        if index % 11 == 5:
            proc.tell_link(name, "peer", f"obj{index - 1}",
                           pid=f"peer{index}")
        if index % 13 == 8 and f"peer{index - 3}" in proc.store:
            proc.retract(f"peer{index - 3}")
        # the queries whose caches the tells are churning
        answers.append((
            sorted(proc.classes_of(name)),
            sorted(proc.instances_of(f"Base{h}")),
            sorted(proc.generalizations(f"Leaf{h}")),
            proc.is_class(name),
        ))
    return proc, answers


@pytest.mark.parametrize("incremental", [False, True],
                         ids=["epoch-invalidate", "delta-maintain"])
def test_perf_mixed_maintenance(benchmark, incremental):
    proc, answers = benchmark(mixed_workload, incremental, 45)
    assert len(answers) == 45


def test_maintenance_invalidation_ratio(perf_counters, registry_metrics):
    """Acceptance (Perf-9a): >=5x fewer closure-cache invalidations on
    the mixed workload, with identical answers along the way."""
    maintained, answers_maintained = mixed_workload(True)
    ablation, answers_ablation = mixed_workload(False)
    assert answers_maintained == answers_ablation
    invalidations_maintained = maintained.stats["closure_invalidations"]
    invalidations_ablation = ablation.stats["closure_invalidations"]
    assert invalidations_maintained * 5 <= invalidations_ablation
    assert maintained.stats["closure_delta_applied"] > 0
    perf_counters(
        closure_invalidations_maintained=invalidations_maintained,
        closure_invalidations_ablation=invalidations_ablation,
        closure_delta_applied=maintained.stats["closure_delta_applied"],
        closure_delta_evictions=maintained.stats["closure_delta_evictions"],
        closure_hits_maintained=maintained.stats["closure_hits"],
        closure_misses_maintained=maintained.stats["closure_misses"],
        closure_misses_ablation=ablation.stats["closure_misses"],
    )
    registry_metrics(maintained.registry, prefix="proposition")
    print(f"\nPerf-9a closure invalidations over a {MIXED_OBJECTS}-object "
          f"mixed workload: maintained={invalidations_maintained}, "
          f"epoch-invalidation={invalidations_ablation}")


def test_mixed_workload_closure_answers_identical():
    """Every closure family agrees between the two regimes at the end."""
    maintained, _ = mixed_workload(True, 40)
    ablation, _ = mixed_workload(False, 40)
    assert maintained.summary() == ablation.summary()
    for h in range(HIERARCHIES):
        for cls in (f"Base{h}", f"Mid{h}", f"Leaf{h}"):
            assert maintained.instances_of(cls) == ablation.instances_of(cls)
            assert (maintained.specializations(cls)
                    == ablation.specializations(cls))
            assert (maintained.generalizations(cls)
                    == ablation.generalizations(cls))
    for index in range(40):
        name = f"obj{index}"
        assert maintained.classes_of(name) == ablation.classes_of(name)


# ---------------------------------------------------------------------------
# Part B: rule firings on the retract path
# ---------------------------------------------------------------------------

CHAIN = 28        # individuals in the linked chain
RETRACTS = 10     # links retracted one at a time


def loaded_engine(incremental: bool):
    """A recursive reachability program over a chain of links."""
    proc = PropositionProcessor()
    proc.define_class("Person")
    engine = RuleEngine(proc, incremental=incremental)
    engine.add_rule("attr(?x, reach, ?y) :- attr(?x, link, ?y).",
                    name="reach_base", document=False)
    engine.add_rule(
        "attr(?x, reach, ?z) :- attr(?x, link, ?y), attr(?y, reach, ?z).",
        name="reach_step", document=False)
    for index in range(CHAIN):
        proc.tell_individual(f"u{index}", in_class="Person")
    for index in range(CHAIN - 1):
        proc.tell_link(f"u{index}", "link", f"u{index + 1}",
                       pid=f"lnk{index}")
    engine.materialise()
    return proc, engine


def retract_sweep(proc, engine):
    """Retract links off the chain tail, re-materialising after each."""
    for step in range(RETRACTS):
        proc.retract(f"lnk{CHAIN - 2 - step}")
        engine.materialise()
    return engine.materialise()


def test_retract_path_fires_fewer_rules(perf_counters, registry_metrics):
    """Acceptance (Perf-9b): >=3x fewer rule firings across the retract
    sweep, on an identical final fixpoint."""
    proc_m, engine_m = loaded_engine(True)
    proc_a, engine_a = loaded_engine(False)
    base_m = engine_m.stats["rule_firings"]
    base_a = engine_a.stats["rule_firings"]
    idb_m = retract_sweep(proc_m, engine_m)
    idb_a = retract_sweep(proc_a, engine_a)
    for pred in set(idb_m.predicates()) | set(idb_a.predicates()):
        assert idb_m.rows(pred) == idb_a.rows(pred), pred
    firings_maintained = engine_m.stats["rule_firings"] - base_m
    firings_ablation = engine_a.stats["rule_firings"] - base_a
    assert firings_maintained * 3 <= firings_ablation
    assert engine_m.stats["idb_refreshes"] >= RETRACTS
    assert engine_m.stats["materialisations"] == 1
    perf_counters(
        retract_rule_firings_maintained=firings_maintained,
        retract_rule_firings_ablation=firings_ablation,
        overdeletions=engine_m.stats["overdeletions"],
        rederivations=engine_m.stats["rederivations"],
        delta_applies=engine_m.stats["delta_applies"],
    )
    registry_metrics(engine_m.registry, prefix="deduction")
    print(f"\nPerf-9b rule firings across {RETRACTS} retracts on a "
          f"{CHAIN}-node chain: maintained={firings_maintained}, "
          f"rebuild={firings_ablation}")


def test_retract_sweep_equivalence_every_step():
    """The maintained IDB equals the rebuilt IDB after *every* retract,
    not just at the end."""
    proc_m, engine_m = loaded_engine(True)
    proc_a, engine_a = loaded_engine(False)
    for step in range(RETRACTS):
        victim = f"lnk{CHAIN - 2 - step}"
        proc_m.retract(victim)
        proc_a.retract(victim)
        idb_m = engine_m.materialise()
        idb_a = engine_a.materialise()
        for pred in set(idb_m.predicates()) | set(idb_a.predicates()):
            assert idb_m.rows(pred) == idb_a.rows(pred), (pred, step)


# ---------------------------------------------------------------------------
# Part C: closure caches across savepoint rollbacks
# ---------------------------------------------------------------------------

ROLLBACK_SEEDS = 100


def test_rollback_maintenance_counts(perf_counters):
    """Acceptance (Perf-9c): the rollback oracle's interleavings (tells,
    retracts and savepoint rollbacks, closure queries after every step)
    invalidate no closure family, and each run ends with answers
    identical to a from-scratch rebuild."""
    names = ("closure_invalidations", "closure_hits", "closure_misses",
             "closure_delta_applied", "closure_delta_evictions",
             "tellings_rolled_back")
    totals = dict.fromkeys(names, 0)
    for seed in range(ROLLBACK_SEEDS):
        proc = rollback_interleaving(seed, oracle_every_step=False)
        for name in names:
            totals[name] += proc.stats[name]
    assert totals["tellings_rolled_back"] > 0
    assert totals["closure_delta_applied"] > 0
    assert totals["closure_invalidations"] == 0
    perf_counters(**{f"rollback_{name}": value
                     for name, value in totals.items()})
    print(f"\nPerf-9c over {ROLLBACK_SEEDS} seeds: "
          f"{totals['tellings_rolled_back']} rollbacks, "
          f"{totals['closure_invalidations']} closure invalidations")


# ---------------------------------------------------------------------------
# Part D: a tell's cache upkeep against the size of the warm cache
# ---------------------------------------------------------------------------

UPKEEP_LEAVES = (10, 30, 300)


def warm_leaf_base(leaves: int) -> ConceptBase:
    """``leaves`` subclasses of ``Paper`` (which declares a ``sender``
    attribute class), one document each, with every leaf's extension,
    classes and attribute classes read once."""
    cb = ConceptBase()
    cb.tell("TELL Person IN SimpleClass END")
    cb.tell("TELL bob IN Person END")
    cb.tell("TELL Paper IN SimpleClass WITH\n  attribute sender : Person\nEND")
    for index in range(leaves):
        cb.tell(f"TELL Leaf{index} IN SimpleClass ISA Paper END")
        cb.tell(f"TELL doc{index} IN Leaf{index} WITH\n"
                f"  attribute sender : bob\nEND")
    proc = cb.propositions
    for index in range(leaves):
        proc.instances_of(f"Leaf{index}")
        proc.classes_of(f"Leaf{index}")
        proc.attribute_classes(f"Leaf{index}")
    return cb


def test_tell_maintenance_counts(perf_counters):
    """Acceptance (Perf-9d): one classified document with one ``sender``
    link, told inside a telling, makes the same number of closure
    lookups (hits plus misses) with 10, 30 and 300 warm leaf classes —
    its upkeep visits what the new edges reach, not every cached key."""
    lookups = {}
    for leaves in UPKEEP_LEAVES:
        cb = warm_leaf_base(leaves)
        proc = cb.propositions
        before = proc.stats["closure_hits"] + proc.stats["closure_misses"]
        with cb.telling():
            cb.tell("TELL fresh IN Leaf0 WITH\n  attribute sender : bob\nEND")
        lookups[leaves] = (proc.stats["closure_hits"]
                           + proc.stats["closure_misses"] - before)
        assert proc.classification_of_link("fresh.sender") == {"Paper.sender"}
        assert "fresh" in proc.instances_of("Paper")
    perf_counters(**{f"tell_upkeep_lookups_{leaves}_leaves": count
                     for leaves, count in lookups.items()})
    assert len(set(lookups.values())) == 1, lookups
    print(f"\nPerf-9d closure lookups per tell by warm leaf classes: "
          f"{lookups}")
