"""Perf-6 — the query-optimisation layer (sections 3.1, 4).

Two ablations, both asserted structurally via counters rather than wall
clock:

- **Closure caches** (``PropositionProcessor(optimise=...)``): a
  Perf-5-style batch load (class hierarchies, then attribute-typed
  instance links, every create validated against the CML axiom base)
  with the epoch-validated closure caches on vs off.  The cached
  processor must perform at least 5x fewer raw isa-BFS expansions while
  producing an identical base.
- **Compiled semi-naive joins** (``evaluate(..., optimise=...)``): a
  recursive reachability + same-generation program over growing edge
  sets, compiled join plans vs the interpreted unify-per-row baseline.
  The compiled path must examine at least 3x fewer rows (join probes)
  at the largest size, on an identical fixpoint.
- **Bound goals through the store's indexes** (the prover's
  ``fact_source(predicate, bound)``): ``attr(?x, sender, P)`` over a
  section 2.1 paper base, the rows the knowledge view returns with the
  goal's bound arguments vs a source that ignores them.  The indexed
  source must return at least 10x fewer rows, with identical answers.
"""

import pytest

from repro.conceptbase import ConceptBase
from repro.deduction import Database, Prover, evaluate, parse_literal, parse_program
from repro.deduction.seminaive import new_stats
from repro.propositions import PropositionProcessor

# ---------------------------------------------------------------------------
# Part A: closure caches under batch load
# ---------------------------------------------------------------------------

HIERARCHIES = 4
LOAD_SIZES = [20, 60, 180]  # objects per batch load


def batch_load(optimise: bool, objects: int) -> PropositionProcessor:
    """Perf-5-style load: entity hierarchies, attribute classes, then a
    stream of classified objects with typed attribute links."""
    proc = PropositionProcessor(optimise=optimise)
    for h in range(HIERARCHIES):
        proc.define_class(f"Base{h}")
        proc.define_class(f"Leaf{h}", isa=[f"Base{h}"])
        proc.tell_link(f"Base{h}", "owner", f"Base{h}",
                       pid=f"Base{h}.owner", of_class="Attribute")
    previous = {}
    for index in range(objects):
        name = f"obj{index}"
        hierarchy = index % HIERARCHIES
        proc.tell_individual(name, in_class=f"Leaf{hierarchy}")
        if hierarchy in previous:
            proc.tell_link(previous[hierarchy], "owner", name,
                           of_class=f"Base{hierarchy}.owner")
        previous[hierarchy] = name
    return proc


@pytest.mark.parametrize("objects", LOAD_SIZES)
@pytest.mark.parametrize("optimise", [False, True],
                         ids=["closure-uncached", "closure-cached"])
def test_perf_closure_cache(benchmark, optimise, objects):
    proc = benchmark(batch_load, optimise, objects)
    assert len(proc.store) > objects


def test_closure_cache_expansion_ratio(perf_counters, registry_metrics):
    """Acceptance: >=5x fewer isa-BFS expansions on the largest batch
    load, with a bit-identical proposition base."""
    objects = max(LOAD_SIZES)
    cached = batch_load(True, objects)
    uncached = batch_load(False, objects)
    assert cached.summary() == uncached.summary()
    assert {p.pid for p in cached.store} == {p.pid for p in uncached.store}
    expansions_cached = cached.stats["isa_expansions"]
    expansions_uncached = uncached.stats["isa_expansions"]
    assert expansions_cached * 5 <= expansions_uncached
    assert cached.stats["closure_hits"] > 0
    perf_counters(
        isa_expansions_cached=expansions_cached,
        isa_expansions_uncached=expansions_uncached,
        closure_hits=cached.stats["closure_hits"],
        closure_misses=cached.stats["closure_misses"],
        closure_invalidations=cached.stats["closure_invalidations"],
    )
    # the same numbers under their stable registry names
    registry_metrics(cached.registry, prefix="proposition")
    print(f"\nPerf-6a isa-BFS expansions over a {objects}-object load: "
          f"cached={expansions_cached}, uncached={expansions_uncached}")


def test_closure_queries_identical_after_load():
    """Cached and uncached processors agree on every closure query."""
    cached = batch_load(True, 40)
    uncached = batch_load(False, 40)
    for h in range(HIERARCHIES):
        assert (cached.instances_of(f"Base{h}")
                == uncached.instances_of(f"Base{h}"))
        assert (cached.specializations(f"Base{h}")
                == uncached.specializations(f"Base{h}"))
        assert ([p.pid for p in cached.attribute_classes(f"Leaf{h}")]
                == [p.pid for p in uncached.attribute_classes(f"Leaf{h}")])
    for index in range(40):
        assert cached.classes_of(f"obj{index}") == uncached.classes_of(f"obj{index}")


# ---------------------------------------------------------------------------
# Part B: compiled semi-naive join plans
# ---------------------------------------------------------------------------

FIXPOINT_SIZES = [16, 32, 48]  # nodes in the edge graph

PROGRAM = parse_program(
    """
    path(?x, ?y) :- edge(?x, ?y).
    path(?x, ?z) :- path(?x, ?y), edge(?y, ?z).
    sg(?x, ?x) :- node(?x).
    sg(?x, ?y) :- edge(?px, ?x), sg(?px, ?py), edge(?py, ?y).
    """
)


def edge_database(nodes: int) -> Database:
    """A chain with deterministic shortcut edges (branching for sg)."""
    edges = {(f"n{i}", f"n{i + 1}") for i in range(nodes - 1)}
    edges |= {(f"n{i}", f"n{(i * 3 + 7) % nodes}") for i in range(0, nodes, 5)}
    return Database({
        "edge": edges,
        "node": {(f"n{i}",) for i in range(nodes)},
    })


def fixpoint(optimise: bool, nodes: int):
    stats = new_stats()
    idb = evaluate(PROGRAM, edge_database(nodes), optimise=optimise,
                   stats=stats)
    return idb, stats


@pytest.mark.parametrize("nodes", FIXPOINT_SIZES)
@pytest.mark.parametrize("optimise", [False, True],
                         ids=["join-interpreted", "join-compiled"])
def test_perf_seminaive_joins(benchmark, optimise, nodes):
    if optimise:
        idb, _stats = benchmark(fixpoint, optimise, nodes)
    else:
        # The interpreted baseline is orders of magnitude slower; one
        # measured round keeps the sweep bounded.
        idb, _stats = benchmark.pedantic(
            fixpoint, args=(optimise, nodes), rounds=1, iterations=1
        )
    assert len(idb.rows("path")) > nodes


def test_seminaive_join_probe_ratio(perf_counters):
    """Acceptance: >=3x fewer join probes at the largest swept size,
    with bit-identical fixpoints."""
    nodes = max(FIXPOINT_SIZES)
    compiled_idb, compiled_stats = fixpoint(True, nodes)
    interpreted_idb, interpreted_stats = fixpoint(False, nodes)
    for predicate in set(compiled_idb.predicates()) | set(
        interpreted_idb.predicates()
    ):
        assert compiled_idb.rows(predicate) == interpreted_idb.rows(predicate)
    probes_compiled = compiled_stats["join_probes"]
    probes_interpreted = interpreted_stats["join_probes"]
    assert probes_compiled * 3 <= probes_interpreted
    perf_counters(
        join_probes_compiled=probes_compiled,
        join_probes_interpreted=probes_interpreted,
        index_probes=compiled_stats["index_probes"],
        fixpoint_iterations=compiled_stats["iterations"],
    )
    print(f"\nPerf-6b join probes over a {nodes}-node fixpoint: "
          f"compiled={probes_compiled}, interpreted={probes_interpreted}")


def test_seminaive_fixpoints_identical_across_sizes():
    for nodes in FIXPOINT_SIZES:
        compiled_idb, _ = fixpoint(True, nodes)
        interpreted_idb, _ = fixpoint(False, nodes)
        assert compiled_idb.rows("path") == interpreted_idb.rows("path")
        assert compiled_idb.rows("sg") == interpreted_idb.rows("sg")


# ---------------------------------------------------------------------------
# Part C: the same headlines, attributed through EXPLAIN alone
# ---------------------------------------------------------------------------


def test_explain_reproduces_headlines_from_registry(perf_counters,
                                                    registry_metrics):
    """Both ablation headlines re-derived purely from EXPLAIN metric
    deltas — no reach into component stats dicts."""
    from repro.obs.explain import QueryExplain
    from repro.obs.metrics import MetricsRegistry, StatsView

    objects = max(LOAD_SIZES)
    expansions = {}
    for optimise in (True, False):
        proc = PropositionProcessor(optimise=optimise)
        report = QueryExplain(proc.registry).explain(
            lambda: _load_into(proc, objects), label="batch-load")
        expansions[optimise] = report.delta("proposition.isa_expansions")
    assert expansions[True] * 5 <= expansions[False]

    nodes = max(FIXPOINT_SIZES)
    probes = {}
    for optimise in (True, False):
        registry = MetricsRegistry()
        stats = StatsView(registry.namespace("deduction"))
        explain = QueryExplain(registry)
        report = explain.explain(
            lambda: evaluate(PROGRAM, edge_database(nodes),
                             optimise=optimise, stats=stats),
            label="fixpoint")
        probes[optimise] = report.delta("deduction.join_probes")
    assert probes[True] * 3 <= probes[False]
    perf_counters(
        explain_isa_expansions_cached=expansions[True],
        explain_isa_expansions_uncached=expansions[False],
        explain_join_probes_compiled=probes[True],
        explain_join_probes_interpreted=probes[False],
    )


def _load_into(proc: PropositionProcessor, objects: int) -> None:
    """The Perf-6a batch load against an existing processor."""
    for h in range(HIERARCHIES):
        proc.define_class(f"Base{h}")
        proc.define_class(f"Leaf{h}", isa=[f"Base{h}"])
        proc.tell_link(f"Base{h}", "owner", f"Base{h}",
                       pid=f"Base{h}.owner", of_class="Attribute")
    previous = {}
    for index in range(objects):
        name = f"obj{index}"
        hierarchy = index % HIERARCHIES
        proc.tell_individual(name, in_class=f"Leaf{hierarchy}")
        if hierarchy in previous:
            proc.tell_link(previous[hierarchy], "owner", name,
                           of_class=f"Base{hierarchy}.owner")
        previous[hierarchy] = name


# ---------------------------------------------------------------------------
# Part D: bound goals answered from the store's indexes
# ---------------------------------------------------------------------------

PAPER_HIERARCHIES = 4
PAPER_LEAVES = 3
PERSONS = 20
DOCUMENTS = 300


def paper_base() -> ConceptBase:
    """The section 2.1 domain in the shape of the served design-browse
    workload, smaller: paper hierarchies whose leaf classes hold
    documents with a ``sender`` attribute pointing at a person."""
    cb = ConceptBase()
    cb.tell("TELL Person IN SimpleClass END")
    leaves = []
    for h in range(PAPER_HIERARCHIES):
        cb.tell(f"TELL Paper{h} IN SimpleClass WITH\n"
                f"  attribute sender : Person\nEND")
        for k in range(PAPER_LEAVES):
            leaves.append(f"Paper{h}s{k}")
            cb.tell(f"TELL {leaves[-1]} IN SimpleClass ISA Paper{h} END")
    cb.tell("\n".join(f"TELL Pers{i} IN Person END" for i in range(PERSONS)))
    cb.tell("\n".join(
        f"TELL Doc{n} IN {leaves[n % len(leaves)]} WITH\n"
        f"  sender sender : Pers{(n * 7) % PERSONS}\nEND"
        for n in range(DOCUMENTS)))
    return cb


def test_bound_goal_fact_rows_ratio(perf_counters):
    """Acceptance: >=10x fewer fact rows offered to the prover for the
    served ``attr(?x, sender, P)`` query, with identical answers."""
    cb = paper_base()
    view = cb.rules.view
    rows = {"indexed": 0, "scan": 0}

    def counted(kind, source):
        def fact_source(predicate, bound):
            out = source(predicate, bound)
            rows[kind] += len(out)
            return out
        return fact_source

    indexed = Prover(cb.rules.rules().values(),
                     fact_source=counted("indexed", view.facts))
    scan = Prover(cb.rules.rules().values(),
                  fact_source=counted("scan", lambda p, bound: view.facts(p)))
    for person in range(PERSONS):
        text = f"attr(?x, sender, Pers{person})"
        answers = indexed.answers(parse_literal(text))
        assert sorted(answers) == sorted(scan.answers(parse_literal(text)))
        assert sorted(answers) == sorted(cb.query(text))
        assert len(answers) == DOCUMENTS // PERSONS
    assert rows["indexed"] * 10 <= rows["scan"]
    perf_counters(
        fact_rows_indexed=rows["indexed"],
        fact_rows_scan=rows["scan"],
        bound_goals=PERSONS,
    )
    print(f"\nPerf-6d fact rows over {PERSONS} attr(?x, sender, P) goals: "
          f"indexed={rows['indexed']}, scan={rows['scan']}")
