"""Constraint propositions and the consistency checker."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import ConsistencyError
from repro.assertions.ast import Expression
from repro.assertions.evaluator import Evaluator
from repro.assertions.parser import parse_assertion
from repro.obs.metrics import MetricsRegistry, Namespace
from repro.obs.tracing import get_tracer
from repro.propositions.processor import PropositionProcessor
from repro.propositions.proposition import Proposition

#: The distinguished free variable bound to each checked instance.
SELF = "self"


@dataclass(frozen=True)
class ConstraintDef:
    """A named constraint attached to a class.

    ``expression`` may use the free variable ``self`` (checked once per
    instance of the class) or be closed (checked once whenever any
    instance of the class is touched).
    """

    name: str
    attached_to: str
    expression: Expression
    source: str

    @property
    def per_instance(self) -> bool:
        """Uses the free variable ``self``?"""
        return SELF in self.expression.free_variables()


@dataclass(frozen=True)
class Violation:
    """One constraint failure, pointing at the violating instance."""

    constraint: str
    attached_to: str
    instance: Optional[str]

    def __repr__(self) -> str:
        subject = self.instance if self.instance is not None else "<global>"
        return f"Violation({self.constraint} on {subject})"


class CheckStats:
    """Counters for the set-oriented vs per-proposition comparison.

    Keeps the attribute API (``stats.evaluations += 1``) but stores each
    counter in a registry namespace, so the numbers also appear in
    metric snapshots and two checkers never share state by accident.
    ``skipped`` counts constraints pruned by the relevance index.
    """

    FIELDS = ("evaluations", "instances_checked", "batches", "skipped")

    def __init__(self, namespace: Optional[Namespace] = None) -> None:
        if namespace is None:
            namespace = MetricsRegistry().namespace("consistency")
        object.__setattr__(self, "_counters",
                           {f: namespace.counter(f) for f in self.FIELDS})

    def __getattr__(self, name: str) -> int:
        counters = object.__getattribute__(self, "_counters")
        if name in counters:
            return counters[name].value
        raise AttributeError(name)

    def __setattr__(self, name: str, value: int) -> None:
        if name not in self._counters:
            raise AttributeError(f"CheckStats has no counter {name!r}")
        self._counters[name].set(value)

    def reset(self) -> None:
        """Zero every counter."""
        for counter in self._counters.values():
            counter.reset()

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy of the counters."""
        return {name: c.value for name, c in self._counters.items()}

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"CheckStats({body})"


class ConsistencyChecker:
    """Evaluates class constraints over instances.

    ``set_oriented=True`` (the default, and the paper's direction of
    study) deduplicates (constraint, instance) pairs across a whole
    batch of updates before evaluating; ``set_oriented=False`` naively
    re-evaluates per updated proposition, which is the ablation measured
    by benchmark Perf-2.

    ``use_relevance=True`` additionally consults the statically compiled
    :class:`~repro.analysis.relevance.RelevanceIndex`: a batch of pure
    attribute updates only re-evaluates constraints whose footprint
    (closed under rule-derived labels, see :meth:`set_rule_source`)
    intersects the touched labels — the precompiled half of the paper's
    set-oriented optimisation.
    """

    def __init__(
        self,
        processor: PropositionProcessor,
        set_oriented: bool = True,
        include_deduced: bool = True,
        use_relevance: bool = True,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        from repro.analysis.relevance import RelevanceIndex

        self.processor = processor
        self.set_oriented = set_oriented
        self.use_relevance = use_relevance
        self.evaluator = Evaluator(processor, include_deduced=include_deduced)
        self._constraints: Dict[str, ConstraintDef] = {}
        self._by_class: Dict[str, List[str]] = {}
        self.relevance = RelevanceIndex()
        self._rule_source = None
        self._rule_signature: Optional[Tuple[str, ...]] = None
        self.registry = registry if registry is not None else MetricsRegistry()
        self.stats = CheckStats(self.registry.namespace("consistency"))

    def reset_stats(self) -> None:
        """Zero this checker's counters."""
        self.stats.reset()

    # ------------------------------------------------------------------
    # Constraint management
    # ------------------------------------------------------------------

    def attach_constraint(
        self, cls: str, name: str, text: str, document: bool = True
    ) -> ConstraintDef:
        """Attach a constraint to ``cls`` and document it in the base as
        a constraint proposition pointing at an assertion object."""
        if name in self._constraints:
            raise ConsistencyError(name, [f"duplicate constraint name {name!r}"])
        definition = ConstraintDef(name, cls, parse_assertion(text), text)
        self._constraints[name] = definition
        self._by_class.setdefault(cls, []).append(name)
        self.relevance.add(name, cls, definition.expression)
        if document:
            holder = f"Assertion_{name}"
            if not self.processor.exists(holder):
                self.processor.tell_individual(holder, in_class="AssertionObject")
            self.processor.tell_link(
                cls, "constraint", holder, of_class="ConstraintAttribute"
            )
        return definition

    def constraints(self) -> Dict[str, ConstraintDef]:
        """All attached constraints by name."""
        return dict(self._constraints)

    def drop_constraint(self, name: str) -> None:
        """Detach a constraint by name."""
        definition = self._constraints.pop(name, None)
        if definition is None:
            raise ConsistencyError(name, ["unknown constraint"])
        self._by_class[definition.attached_to].remove(name)
        self.relevance.remove(name)

    def set_rule_source(self, source) -> None:
        """Tell the relevance index where deduction rules come from.

        ``source`` is a zero-argument callable returning the registered
        rules by name (e.g. ``RuleEngine.rules``); the label-derivation
        closure is rebuilt whenever the rule set changes, so footprint
        matching stays sound in the presence of derived attributes.
        """
        self._rule_source = source
        self._rule_signature = None

    def _refresh_label_deps(self) -> None:
        if self._rule_source is None:
            return
        from repro.analysis.relevance import LabelDependencies

        rules = self._rule_source()
        signature = tuple(sorted(rules))
        if signature != self._rule_signature:
            self._rule_signature = signature
            self.relevance.label_deps = LabelDependencies(rules.values())

    def constraints_for(self, cls: str) -> List[ConstraintDef]:
        """Constraints attached to ``cls`` or any of its generalizations
        (constraints are inherited down the isa hierarchy)."""
        names: List[str] = []
        for sup in sorted(self.processor.generalizations(cls)):
            names.extend(self._by_class.get(sup, ()))
        return [self._constraints[n] for n in names]

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------

    def _evaluate(self, definition: ConstraintDef, instance: Optional[str]) -> Optional[Violation]:
        self.stats.evaluations += 1
        env = {SELF: instance} if definition.per_instance else {}
        if self.evaluator.evaluate(definition.expression, env):
            return None
        return Violation(definition.name, definition.attached_to, instance)

    def check_instance(self, instance: str) -> List[Violation]:
        """Check every constraint applicable to ``instance``."""
        violations: List[Violation] = []
        self.stats.instances_checked += 1
        for cls in sorted(self.processor.classes_of(instance)):
            for definition in self._by_class_direct(cls):
                subject = instance if definition.per_instance else None
                violation = self._evaluate(definition, subject)
                if violation is not None:
                    violations.append(violation)
        return violations

    def _by_class_direct(self, cls: str) -> List[ConstraintDef]:
        return [self._constraints[n] for n in self._by_class.get(cls, ())]

    def check_class(self, cls: str) -> List[Violation]:
        """Check all constraints of ``cls`` over its current extent."""
        with get_tracer().span("consistency.check_class", cls=cls) as span:
            violations = self._check_class(cls)
            span.set(violations=len(violations))
        return violations

    def _check_class(self, cls: str) -> List[Violation]:
        violations: List[Violation] = []
        definitions = self.constraints_for(cls)
        if not definitions:
            return violations
        extent = sorted(self.processor.instances_of(cls))
        for definition in definitions:
            if definition.per_instance:
                for instance in extent:
                    self.stats.instances_checked += 1
                    violation = self._evaluate(definition, instance)
                    if violation is not None:
                        violations.append(violation)
            else:
                violation = self._evaluate(definition, None)
                if violation is not None:
                    violations.append(violation)
        return violations

    def check_all(self) -> List[Violation]:
        """Check every attached constraint over its class extent."""
        with get_tracer().span(
            "consistency.check_all", constraints=len(self._constraints)
        ) as span:
            violations = self._check_all()
            span.set(violations=len(violations))
        return violations

    def _check_all(self) -> List[Violation]:
        violations: List[Violation] = []
        for cls in list(self._by_class):
            for definition in self._by_class_direct(cls):
                if definition.per_instance:
                    for instance in sorted(self.processor.instances_of(cls)):
                        self.stats.instances_checked += 1
                        violation = self._evaluate(definition, instance)
                        if violation is not None:
                            violations.append(violation)
                else:
                    violation = self._evaluate(definition, None)
                    if violation is not None:
                        violations.append(violation)
        return violations

    # ------------------------------------------------------------------
    # Batch (set-oriented) checking
    # ------------------------------------------------------------------

    def _affected_instances(self, prop: Proposition) -> Set[str]:
        if prop.is_individual:
            return {prop.pid}
        affected = {prop.source}
        if not prop.is_instanceof and not prop.is_isa:
            affected.add(prop.destination)
        return affected

    def check_batch(self, props: Iterable[Proposition]) -> List[Violation]:
        """Check the instances affected by a batch of new propositions.

        Set-oriented mode deduplicates (constraint, instance) pairs over
        the whole batch; the naive mode evaluates per proposition, doing
        redundant work proportional to batch overlap.
        """
        props = list(props)
        evals_before = self.stats.evaluations
        skipped_before = self.stats.skipped
        with get_tracer().span(
            "consistency.check_batch",
            props=len(props), set_oriented=self.set_oriented,
        ) as span:
            violations = self._check_batch(props)
            span.set(violations=len(violations),
                     evaluations=self.stats.evaluations - evals_before,
                     skipped=self.stats.skipped - skipped_before)
        return violations

    def _check_batch(self, props: List[Proposition]) -> List[Violation]:
        self.stats.batches += 1
        if self.set_oriented:
            affected: Set[str] = set()
            structural = False
            touched_labels: Set[str] = set()
            for prop in props:
                affected |= self._affected_instances(prop)
                if prop.is_link and not prop.is_instanceof and not prop.is_isa:
                    touched_labels.add(prop.label)
                else:
                    structural = True
            closed_labels = None
            if self.use_relevance and not structural:
                self._refresh_label_deps()
                closed_labels = self.relevance.closed_labels(touched_labels)
            seen: Set[Tuple[str, Optional[str]]] = set()
            violations: List[Violation] = []
            for instance in sorted(affected):
                if not self.processor.exists(instance):
                    continue
                self.stats.instances_checked += 1
                for cls in sorted(self.processor.classes_of(instance)):
                    for definition in self._by_class_direct(cls):
                        subject = instance if definition.per_instance else None
                        key = (definition.name, subject)
                        if key in seen:
                            continue
                        seen.add(key)
                        if self.use_relevance and not self.relevance.relevant(
                            definition.name, closed_labels, structural
                        ):
                            self.stats.skipped += 1
                            continue
                        violation = self._evaluate(definition, subject)
                        if violation is not None:
                            violations.append(violation)
            return violations
        violations = []
        for prop in props:
            for instance in sorted(self._affected_instances(prop)):
                if self.processor.exists(instance):
                    violations.extend(self.check_instance(instance))
        return violations

    # ------------------------------------------------------------------
    # Commit hook
    # ------------------------------------------------------------------

    def install_hook(self, raise_on_violation: bool = True) -> None:
        """Verify every committed telling as one batch."""

        def listener(props: List[Proposition]) -> None:
            violations = self.check_batch(props)
            if violations and raise_on_violation:
                raise ConsistencyError(
                    violations[0].constraint, violations
                )

        self.processor.on_commit(listener)
