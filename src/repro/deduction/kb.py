"""Bridge between the proposition base and the inference engines.

:class:`KnowledgeView` exposes the proposition base as ground facts:

- ``prop(P, X, L, Y)`` — every stored proposition quadruple;
- ``in(X, C)`` — classification closed over specialization;
- ``isa(C, D)`` — explicit specialization links;
- ``isa_star(C, D)`` — reflexive-transitive specialization;
- ``attr(X, L, Y)`` — attribute links (labels are data);
- ``attr_of(P, C)`` — link P is an instance of attribute class C.

A call that binds an argument of ``prop``, ``attr``, ``isa`` or ``in``
is answered from the store's indexes and the processor's
specialization closure, so a bound goal costs its matches, not the
store.  Unbound calls, and every call of ``isa_star`` and ``attr_of``,
get the whole list, cached per knowledge-base stamp: the processor
epoch together with the store's visibility epoch, so workspace
activation invalidates it like a tell does.

:class:`RuleEngine` manages *rule propositions*: each registered rule is
documented in the knowledge base (an ``AssertionObject`` individual plus
a ``rule`` link from the class it is attached to), evaluated bottom-up
for the deduced-proposition hook, and available to the top-down
:class:`~repro.deduction.prover.Prover` for query answering.  The hook
yields nothing, without materialising, while no rule concludes
``attr``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.errors import DeductionError
from repro.deduction.parser import parse_rule
from repro.deduction.prover import Bound, Prover
from repro.deduction.seminaive import (
    Database,
    MaterializedFixpoint,
    evaluate,
    maintenance_stats,
)
from repro.deduction.terms import Rule
from repro.obs.metrics import MetricsRegistry, StatsView
from repro.obs.tracing import get_tracer
from repro.propositions.processor import PropositionProcessor
from repro.propositions.proposition import (
    INSTANCEOF,
    ISA,
    Pattern,
    Proposition,
)

#: Prefix of synthetic identifiers for deduced propositions.
DEDUCED_PREFIX = "ded:"

#: Predicates whose bound calls are answered from the store's indexes,
#: with their arities.
INDEXED_ARITY: Dict[str, int] = {"prop": 4, "attr": 3, "isa": 2, "in": 2}


class KnowledgeView:
    """Fact-level view of a proposition processor."""

    def __init__(self, processor: PropositionProcessor) -> None:
        self.processor = processor
        self._cache_stamp: Optional[Tuple[int, int]] = None
        self._cache: Dict[str, List[Tuple]] = {}

    def stamp(self) -> Tuple[int, int]:
        """What the visible facts depend on: the processor epoch (every
        tell, untell and rollback) and the store's visibility epoch
        (workspace activation and deactivation)."""
        return (self.processor.epoch, self.processor.store.visibility_epoch)

    def facts(self, predicate: str, bound: Optional[Bound] = None) -> List[Tuple]:
        """Ground facts for ``predicate``.

        ``bound`` holds one value per argument, ``None`` where the
        argument is unbound.  When it binds an argument of ``prop``,
        ``attr``, ``isa`` or ``in``, the result is exactly the rows of
        the whole list that agree with it, read from the store's
        indexes, uncached and sorted (index buckets are sets, whose
        order would follow the string hash seed).  Otherwise the whole
        list comes back, cached per :meth:`stamp`.
        """
        if (bound is not None and predicate in INDEXED_ARITY
                and any(value is not None for value in bound)):
            if len(bound) != INDEXED_ARITY[predicate]:
                return []
            return sorted(self._lookup(predicate, bound))
        stamp = self.stamp()
        if self._cache_stamp != stamp:
            self._cache.clear()
            self._cache_stamp = stamp
        if predicate not in self._cache:
            self._cache[predicate] = list(self._compute(predicate))
        return self._cache[predicate]

    def _lookup(self, predicate: str, bound: Bound) -> Iterator[Tuple]:
        """The rows of ``predicate`` that agree with ``bound``: one
        store retrieval, keeping :meth:`_compute`'s row filters."""
        proc = self.processor
        retrieve = proc.store.retrieve
        if predicate == "prop":
            pid, source, label, destination = bound
            for p in retrieve(Pattern(pid=pid, source=source, label=label,
                                      destination=destination)):
                yield (p.pid, p.source, p.label, p.destination)
        elif predicate == "attr":
            source, label, destination = bound
            for p in retrieve(Pattern(source=source, label=label,
                                      destination=destination)):
                if p.is_link and not p.is_instanceof and not p.is_isa:
                    yield (p.source, p.label, p.destination)
        elif predicate == "isa":
            sub, sup = bound
            for p in retrieve(Pattern(source=sub, label=ISA, destination=sup)):
                if p.is_link:
                    yield (p.source, p.destination)
        elif bound[0] is not None:
            # in(X, C), X bound: X's classification links, closed upward.
            member, cls = bound
            classes: Set[str] = set()
            for p in retrieve(Pattern(source=member, label=INSTANCEOF)):
                if p.is_link:
                    classes |= proc.generalizations(p.destination)
            for sup in classes:
                if cls is None or sup == cls:
                    yield (member, sup)
        else:
            # in(X, C), C bound: the classification closure.
            cls = bound[1]
            for member in proc.instances_of(cls):
                yield (member, cls)

    def _compute(self, predicate: str) -> Iterator[Tuple]:
        proc = self.processor
        if predicate == "prop":
            for p in proc.store:
                yield (p.pid, p.source, p.label, p.destination)
        elif predicate == "attr":
            for p in proc.store:
                if p.is_link and not p.is_instanceof and not p.is_isa:
                    yield (p.source, p.label, p.destination)
        elif predicate == "isa":
            for p in proc.store:
                if p.is_isa and p.is_link:
                    yield (p.source, p.destination)
        elif predicate == "isa_star":
            seen: Set[Tuple] = set()
            names = [p.pid for p in proc.store if p.is_individual]
            names += [p.pid for p in proc.store if p.is_link]
            for name in names:
                for sup in proc.generalizations(name):
                    pair = (name, sup)
                    if pair not in seen:
                        seen.add(pair)
                        yield pair
        elif predicate == "in":
            seen = set()
            for p in proc.store:
                if p.is_instanceof and p.is_link:
                    for sup in proc.generalizations(p.destination):
                        pair = (p.source, sup)
                        if pair not in seen:
                            seen.add(pair)
                            yield pair
        elif predicate == "attr_of":
            for p in proc.store:
                if p.is_instanceof and p.is_link:
                    try:
                        inst = proc.store.get(p.source)
                    except Exception:
                        continue
                    if inst.is_link and not inst.is_instanceof and not inst.is_isa:
                        yield (p.source, p.destination)
        # unknown predicates yield nothing: they may be purely IDB.

    def database(self, predicates: Iterable[str] = ("prop", "attr", "isa", "in")) -> Database:
        """Materialise an EDB for bottom-up evaluation."""
        db = Database()
        for predicate in predicates:
            for row in self.facts(predicate):
                db.add(predicate, row)
        return db


class RuleEngine:
    """Rule propositions + deduced propositions for a processor.

    ``optimise`` selects the compiled join-plan evaluator for bottom-up
    materialisation (the default) or the interpreted baseline; ``stats``
    accumulates the evaluator's join/index-probe counters across
    :meth:`materialise` calls, next to the prover's lemma statistics.

    Counters live in the engine's own ``deduction`` namespace of a
    :class:`~repro.obs.metrics.MetricsRegistry` (private by default, or
    a shared registry passed in); ``stats`` is a
    :class:`~repro.obs.metrics.StatsView` over that namespace, so two
    engines never alias each other's dict.
    """

    #: EDB predicates materialised for bottom-up evaluation.
    EDB_PREDICATES: Tuple[str, ...] = ("prop", "attr", "isa", "in")

    def __init__(self, processor: PropositionProcessor,
                 optimise: bool = True,
                 incremental: bool = True,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.processor = processor
        self.view = KnowledgeView(processor)
        self.optimise = optimise
        self.incremental = incremental
        self.registry = registry if registry is not None else MetricsRegistry()
        self._metrics = self.registry.namespace("deduction")
        for key in maintenance_stats():
            self._metrics.counter(key)
        self._c_materialisations = self._metrics.counter("materialisations")
        self._c_refreshes = self._metrics.counter("idb_refreshes")
        self.stats = StatsView(self._metrics)
        self._rules: Dict[str, Rule] = {}
        self._idb_stamp: Optional[Tuple[int, int]] = None
        self._idb: Optional[Database] = None
        self._fixpoint: Optional[MaterializedFixpoint] = None
        self._edb_rows: Dict[str, Set[Tuple]] = {}
        self._hooked = False

    def reset_stats(self) -> None:
        """Zero this engine's own counters."""
        self.stats.reset()

    # -- rule management -------------------------------------------------

    def add_rule(
        self,
        rule: Union[str, Rule],
        name: Optional[str] = None,
        attached_to: str = "Proposition",
        document: bool = True,
    ) -> Rule:
        """Register a deduction rule.

        With ``document=True`` the rule is reflected into the knowledge
        base as a rule proposition: an ``AssertionObject`` individual
        holding the rule, linked from ``attached_to`` by a ``rule`` link
        that instantiates the predefined ``RuleAttribute`` class.
        """
        parsed = parse_rule(rule) if isinstance(rule, str) else rule
        rule_name = name or f"rule_{len(self._rules) + 1}"
        if rule_name in self._rules:
            raise DeductionError(f"duplicate rule name {rule_name!r}")
        self._rules[rule_name] = parsed
        self._idb = None
        self._fixpoint = None
        if document:
            holder = f"Assertion_{rule_name}"
            if not self.processor.exists(holder):
                self.processor.tell_individual(holder, in_class="AssertionObject")
            self.processor.tell_link(
                attached_to, "rule", holder, of_class="RuleAttribute"
            )
        return parsed

    def rules(self) -> Dict[str, Rule]:
        """Registered rules by name."""
        return dict(self._rules)

    def remove_rule(self, name: str) -> None:
        """Unregister a rule by name."""
        if name not in self._rules:
            raise DeductionError(f"unknown rule {name!r}")
        del self._rules[name]
        self._idb = None
        self._fixpoint = None

    # -- engines -----------------------------------------------------------

    def prover(self, lemmas: bool = True, max_depth: int = 256) -> Prover:
        """A top-down prover over the live knowledge base."""
        return Prover(
            rules=self._rules.values(),
            fact_source=self.view.facts,
            lemmas=lemmas,
            epoch_source=self.view.stamp,
            max_depth=max_depth,
        )

    def materialise(self) -> Database:
        """Bottom-up IDB, cached per knowledge-base stamp.

        With ``incremental`` (and the compiled evaluator) the IDB is
        built once into a
        :class:`~repro.deduction.seminaive.MaterializedFixpoint` and
        then *delta-maintained*: a stamp change triggers a support-set
        diff of the EDB predicates against the previous materialisation
        and an :meth:`MaterializedFixpoint.apply_delta` call, instead of
        re-deriving every rule conclusion from scratch.  With
        ``incremental=False`` (or the interpreted evaluator) every stamp
        change re-evaluates fully — the ablation baseline Perf-9
        compares rule-firing counts against.
        """
        stamp = self.view.stamp()
        if self._idb is not None and self._idb_stamp == stamp:
            return self._idb
        if (self.incremental and self.optimise
                and self._fixpoint is not None):
            self._refresh_fixpoint()
            return self._idb
        with get_tracer().span(
            "deduction.materialise",
            rules=len(self._rules), epoch=stamp[0],
        ):
            self._c_materialisations.inc()
            if self.incremental and self.optimise:
                self._edb_rows = {
                    pred: set(self.view.facts(pred))
                    for pred in self.EDB_PREDICATES
                }
                edb = Database(
                    {pred: set(rows) for pred, rows in self._edb_rows.items()}
                )
                self._fixpoint = MaterializedFixpoint(
                    list(self._rules.values()), edb,
                    stats=self.stats,
                )
                self._idb = self._fixpoint.database()
            else:
                self._idb = evaluate(
                    list(self._rules.values()), self.view.database(),
                    optimise=self.optimise, stats=self.stats,
                )
        self._idb_stamp = stamp
        return self._idb

    def _refresh_fixpoint(self) -> None:
        """Delta-maintain the materialised IDB up to the current stamp."""
        assert self._fixpoint is not None
        added: Dict[str, Set[Tuple]] = {}
        removed: Dict[str, Set[Tuple]] = {}
        for pred in self.EDB_PREDICATES:
            new_rows = set(self.view.facts(pred))
            old_rows = self._edb_rows.get(pred, set())
            if new_rows == old_rows:
                continue
            fresh = new_rows - old_rows
            gone = old_rows - new_rows
            if fresh:
                added[pred] = fresh
            if gone:
                removed[pred] = gone
            self._edb_rows[pred] = new_rows
        if added or removed:
            self._c_refreshes.inc()
            self._fixpoint.apply_delta(added, removed)
        self._idb = self._fixpoint.database()
        self._idb_stamp = self.view.stamp()

    # -- deduced propositions ------------------------------------------------

    def deduced_propositions(self) -> List[Proposition]:
        """Propositions asserted by rule conclusions of the form
        ``attr(X, L, Y)`` that are not already stored."""
        idb = self.materialise()
        stored = {
            (p.source, p.label, p.destination)
            for p in self.processor.store
            if p.is_link
        }
        deduced: List[Proposition] = []
        for source, label, destination in sorted(idb.rows("attr"), key=str):
            if (source, label, destination) in stored:
                continue
            if not (self.processor.exists(source) and self.processor.exists(destination)):
                continue
            pid = f"{DEDUCED_PREFIX}{source}:{label}:{destination}"
            deduced.append(Proposition(pid, source, label, destination))
        return deduced

    def deduced_matching(self, pattern: Pattern) -> List[Proposition]:
        """``[p for p in deduced_propositions() if pattern.matches(p)]``.

        Only a rule concluding ``attr`` can deduce a proposition: every
        EDB ``attr`` row is a stored link, and those are dropped.  So
        while no rule does, this is empty and nothing materialises.
        """
        if not any(rule.head.predicate == "attr" for rule in self._rules.values()):
            return []
        return [p for p in self.deduced_propositions() if pattern.matches(p)]

    def install_hook(self) -> None:
        """Register deduced propositions with the processor's retrieval."""
        if self._hooked:
            return
        self._hooked = True

        def hook(_proc: PropositionProcessor, pattern: Pattern) -> Iterable[Proposition]:
            return self.deduced_matching(pattern)

        self.processor.add_deduction_hook(hook)
