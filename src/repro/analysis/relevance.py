"""Constraint-relevance analysis: what does a constraint *read*?

The paper's consistency checker re-evaluates constraints when updates
arrive; the seed re-evaluated every constraint applicable to a touched
instance, whatever the update was.  This module statically extracts the
*footprint* of an assertion expression — the attribute labels it
traverses, the classes whose membership or extent it consults, and
whether it reads the specialization graph — and builds a
:class:`RelevanceIndex` the checker consults so that an attribute update
labelled ``owner`` never re-evaluates a constraint that only reads
``reviewer``.

Deduction rules can *derive* attribute links (``attr(?x, informed, ?y)
:- attr(?x, sender, ?y).``), so a footprint match must be closed under
derivation: :class:`LabelDependencies` computes, from the registered
rule set, which labels may change when a base label changes.  Rules with
variable labels or ``prop(...)`` bodies make the closure conservative
(every label affected).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from repro.assertions.ast import (
    AttributeAtom,
    BinaryOp,
    Comparison,
    Expression,
    InAtom,
    IsaAtom,
    KnownAtom,
    Not,
    PathTerm,
    Quantifier,
    Term,
)
from repro.deduction.terms import Constant, Literal, Rule


@dataclass(frozen=True)
class ConstraintFootprint:
    """The statically derivable read set of one constraint."""

    constraint: str
    attached_to: str
    labels: FrozenSet[str] = frozenset()
    classes: FrozenSet[str] = frozenset()
    reads_isa: bool = False
    opaque: bool = False  # un-analyzable: always considered relevant

    def touches_label(self, labels: Iterable[str]) -> bool:
        """Does any of ``labels`` intersect the footprint?"""
        return self.opaque or not self.labels.isdisjoint(labels)


def _walk_term(term: Term, labels: Set[str]) -> None:
    if isinstance(term, PathTerm):
        labels.add(term.label)
        _walk_term(term.base, labels)
    # SimpleTerm reads nothing by itself.


def footprint_of(
    constraint: str, attached_to: str, expression: Expression
) -> ConstraintFootprint:
    """Extract the footprint of an assertion expression.

    Unknown AST node types mark the footprint opaque (conservatively
    relevant to every update) instead of failing.
    """
    labels: Set[str] = set()
    classes: Set[str] = {attached_to}
    reads_isa = False
    opaque = False

    def walk(expr: Expression) -> None:
        nonlocal reads_isa, opaque
        if isinstance(expr, Quantifier):
            classes.update(cls for _var, cls in expr.bindings)
            walk(expr.body)
        elif isinstance(expr, BinaryOp):
            walk(expr.left)
            walk(expr.right)
        elif isinstance(expr, Not):
            walk(expr.operand)
        elif isinstance(expr, InAtom):
            classes.add(expr.class_name)
            _walk_term(expr.term, labels)
        elif isinstance(expr, IsaAtom):
            reads_isa = True
            _walk_term(expr.sub, labels)
            _walk_term(expr.sup, labels)
        elif isinstance(expr, AttributeAtom):
            labels.add(expr.label)
            _walk_term(expr.source, labels)
            _walk_term(expr.destination, labels)
        elif isinstance(expr, KnownAtom):
            _walk_term(expr.term, labels)
        elif isinstance(expr, Comparison):
            _walk_term(expr.left, labels)
            _walk_term(expr.right, labels)
        else:
            opaque = True

    walk(expression)
    return ConstraintFootprint(
        constraint,
        attached_to,
        labels=frozenset(labels),
        classes=frozenset(classes),
        reads_isa=reads_isa,
        opaque=opaque,
    )


# ---------------------------------------------------------------------------
# Label derivation closure
# ---------------------------------------------------------------------------

#: Start node matched by *any* attribute update: variable-label ``attr``
#: bodies and ``prop`` bodies react to every update.
_ANY = ("any", "")
_VAR_HEAD = ("var-head", "")

_Node = Tuple[str, str]

#: Rule-ish inputs: constructed rules or anything with head/body literals.
RuleLike = Union[Rule, object]


def _body_node(lit: Literal) -> Optional[_Node]:
    if lit.predicate == "attr" and len(lit.args) == 3:
        label = lit.args[1]
        if isinstance(label, Constant):
            return ("label", str(label.value))
        return _ANY
    if lit.predicate == "prop":
        return _ANY
    return ("pred", lit.predicate)


def _head_node(lit: Literal) -> _Node:
    if lit.predicate == "attr" and len(lit.args) == 3:
        label = lit.args[1]
        if isinstance(label, Constant):
            return ("label", str(label.value))
        return _VAR_HEAD
    return ("pred", lit.predicate)


class LabelDependencies:
    """Closure of attribute labels under rule derivation.

    ``affected_labels(l)`` answers: after an update to attribute links
    labelled ``l``, which labels may have changed values?  ``None``
    means *every* label (a variable-label conclusion is reachable).
    """

    def __init__(self, rules: Iterable[RuleLike] = ()) -> None:
        self._edges: Dict[_Node, Set[_Node]] = {}
        self._has_var_head = False
        for rule in rules:
            head = _head_node(rule.head)
            for lit in rule.body:
                src = _body_node(lit)
                if src is None:
                    continue
                self._edges.setdefault(src, set()).add(head)
        self._cache: Dict[str, Optional[FrozenSet[str]]] = {}

    def affected_labels(self, label: str) -> Optional[FrozenSet[str]]:
        """Labels whose values may change after an update to ``label``
        (always includes ``label``); ``None`` = all labels."""
        if label in self._cache:
            return self._cache[label]
        reached: Set[_Node] = set()
        frontier: List[_Node] = [("label", label), _ANY]
        result: Set[str] = {label}
        answer: Optional[FrozenSet[str]] = None
        while frontier:
            node = frontier.pop()
            if node in reached:
                continue
            reached.add(node)
            if node == _VAR_HEAD:
                answer = None
                break
            if node[0] == "label":
                result.add(node[1])
            frontier.extend(self._edges.get(node, ()))
        else:
            answer = frozenset(result)
        self._cache[label] = answer
        return answer


class RelevanceIndex:
    """Footprints of all attached constraints, queryable per update.

    The consistency checker consults :meth:`relevant` with the set of
    attribute labels a batch touched (plus a flag for structural
    updates) and skips constraints that cannot have changed.
    """

    def __init__(self, label_deps: Optional[LabelDependencies] = None) -> None:
        self._footprints: Dict[str, ConstraintFootprint] = {}
        self.label_deps = label_deps or LabelDependencies()

    def add(self, constraint: str, attached_to: str,
            expression: Expression) -> ConstraintFootprint:
        """Register one constraint's footprint; returns it."""
        fp = footprint_of(constraint, attached_to, expression)
        self._footprints[constraint] = fp
        return fp

    def remove(self, constraint: str) -> None:
        """Forget a constraint."""
        self._footprints.pop(constraint, None)

    def footprint(self, constraint: str) -> Optional[ConstraintFootprint]:
        """The registered footprint, if any."""
        return self._footprints.get(constraint)

    def footprints(self) -> Dict[str, ConstraintFootprint]:
        """All registered footprints by constraint name."""
        return dict(self._footprints)

    def closed_labels(self, labels: Iterable[str]) -> Optional[FrozenSet[str]]:
        """Touched labels closed under rule derivation; ``None`` = all."""
        closed: Set[str] = set()
        for label in labels:
            affected = self.label_deps.affected_labels(label)
            if affected is None:
                return None
            closed |= affected
        return frozenset(closed)

    def relevant(self, constraint: str, closed_labels: Optional[FrozenSet[str]],
                 structural: bool) -> bool:
        """Could the constraint's truth value have changed?

        ``closed_labels`` is the batch's touched-label closure (``None``
        = unknown, treat all as touched); ``structural`` says the batch
        contained non-attribute updates (individuals, instanceof, isa),
        which conservatively touch everything.
        """
        if structural or closed_labels is None:
            return True
        fp = self._footprints.get(constraint)
        if fp is None or fp.opaque:
            return True
        return not fp.labels.isdisjoint(closed_labels)
