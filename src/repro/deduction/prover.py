"""Top-down prover with negation-as-failure and lemma generation.

Section 3.1: "The Inference Engines support various proof strategies for
question-answering on the KB (in the current implementation, the Prolog
prover with some enhancements concerning negation is the only such proof
strategy). [...] The inference engines may enhance their performance by
lemma generation; this capability is, e.g., used in creating dependency
graph objects of the GKBMS."

:class:`Prover` performs SLD resolution over a rule program plus a
*fact source*, normally backed by the live proposition base.  The
source is called as ``fact_source(predicate, bound)``: ``bound`` holds
the goal's argument values after substitution, ``None`` where an
argument is still a variable, so a source backed by indexes returns
only the rows that can match (a goal ``attr(?x, sender, P)`` reads one
index bucket, not every attribute link).  A source may return more rows
than match — the prover unifies every row it gets — so one that ignores
``bound`` stays correct.  Proved goals are cached as *lemmas* keyed by
the goal pattern and the knowledge-base stamp, so any update
invalidates stale lemmas automatically.  ``lemmas=False`` turns the
cache off — the ablation measured by benchmark Perf-1.
"""

from __future__ import annotations

import itertools
from typing import (
    Any, Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple,
)

from repro.errors import DeductionError
from repro.deduction.terms import (
    Constant,
    Literal,
    Rule,
    Substitution,
    resolve,
    unify,
)

#: One value per argument of a goal: its constant, or ``None`` where
#: the argument is unbound.
Bound = Tuple[Optional[Any], ...]

#: ``fact_source(predicate, bound)`` yields ground argument tuples for
#: a predicate: at least every row that agrees with ``bound``.
FactSource = Callable[[str, Bound], Iterable[Tuple[Any, ...]]]


def _goal_key(goal: Literal, theta: Substitution) -> Tuple:
    """Hashable pattern of a goal: constants kept, variables wildcarded."""
    parts: List[Any] = [goal.predicate]
    for arg in goal.args:
        arg = resolve(arg, theta)
        parts.append(("const", arg.value) if isinstance(arg, Constant) else "?")
    return tuple(parts)


class Prover:
    """SLD resolution with NAF, depth bounding and lemma caching."""

    def __init__(
        self,
        rules: Iterable[Rule] = (),
        fact_source: Optional[FactSource] = None,
        lemmas: bool = True,
        epoch_source: Optional[Callable[[], Hashable]] = None,
        max_depth: int = 256,
    ) -> None:
        self._rules: List[Rule] = list(rules)
        self._fact_source = fact_source or (lambda predicate, bound: ())
        self._lemmas_enabled = lemmas
        self._epoch_source = epoch_source or (lambda: 0)
        self._max_depth = max_depth
        self._rename = itertools.count(1)
        # lemma cache: goal pattern -> (stamp, list of answer tuples)
        self._lemmas: Dict[Tuple, Tuple[Hashable, List[Tuple[Any, ...]]]] = {}
        self.stats = {"calls": 0, "lemma_hits": 0, "lemma_stores": 0}

    # ------------------------------------------------------------------

    def add_rule(self, rule: Rule) -> None:
        """Add a rule; invalidates the lemma cache."""
        self._rules.append(rule)
        self._lemmas.clear()

    @property
    def rules(self) -> Tuple[Rule, ...]:
        """The rule program."""
        return tuple(self._rules)

    def clear_lemmas(self) -> None:
        """Drop every cached lemma."""
        self._lemmas.clear()

    # ------------------------------------------------------------------

    def solve(self, goal: Literal, theta: Optional[Substitution] = None) -> Iterator[Substitution]:
        """Yield substitutions proving ``goal``."""
        yield from self._solve_goal(goal, dict(theta or {}), depth=0)

    def ask(self, goal: Literal) -> bool:
        """True when at least one proof of ``goal`` exists."""
        for _ in self.solve(goal):
            return True
        return False

    def answers(self, goal: Literal) -> List[Tuple[Any, ...]]:
        """Distinct ground argument tuples satisfying ``goal``.

        Their order is unspecified: it follows the order the fact
        source returns rows in, which may differ between bound and
        unbound calls.
        """
        seen: Set[Tuple[Any, ...]] = set()
        out: List[Tuple[Any, ...]] = []
        for theta in self.solve(goal):
            values = []
            for arg in goal.args:
                value = resolve(arg, theta)
                if not isinstance(value, Constant):
                    break
                values.append(value.value)
            else:
                row = tuple(values)
                if row not in seen:
                    seen.add(row)
                    out.append(row)
        return out

    # ------------------------------------------------------------------

    def _solve_goal(
        self, goal: Literal, theta: Substitution, depth: int
    ) -> Iterator[Substitution]:
        if depth > self._max_depth:
            raise DeductionError(
                f"proof depth limit ({self._max_depth}) exceeded at {goal!r}"
            )
        self.stats["calls"] += 1
        if goal.negated:
            positive = goal.negate().substitute(theta)
            if not positive.is_ground():
                raise DeductionError(
                    f"negation-as-failure requires a ground goal, got {positive!r}"
                )
            for _ in self._solve_goal(positive, dict(theta), depth + 1):
                return
            yield theta
            return

        if self._lemmas_enabled:
            yield from self._solve_with_lemmas(goal, theta, depth)
        else:
            yield from self._expand(goal, theta, depth)

    def _solve_with_lemmas(
        self, goal: Literal, theta: Substitution, depth: int
    ) -> Iterator[Substitution]:
        key = _goal_key(goal, theta)
        epoch = self._epoch_source()
        cached = self._lemmas.get(key)
        if cached is not None and cached[0] == epoch:
            self.stats["lemma_hits"] += 1
            substituted = goal.substitute(theta)
            for row in cached[1]:
                out = unify(
                    substituted,
                    Literal(goal.predicate, tuple(Constant(v) for v in row)),
                    theta,
                )
                if out is not None:
                    yield out
            return
        answers: List[Tuple[Any, ...]] = []
        complete = True
        for result in self._expand(goal, theta, depth):
            row = []
            for arg in goal.args:
                value = resolve(arg, result)
                if isinstance(value, Constant):
                    row.append(value.value)
                else:
                    complete = False
                    break
            else:
                answers.append(tuple(row))
            yield result
        if complete:
            self._lemmas[key] = (epoch, answers)
            self.stats["lemma_stores"] += 1

    def _expand(
        self, goal: Literal, theta: Substitution, depth: int
    ) -> Iterator[Substitution]:
        goal = goal.substitute(theta)
        # 1. ground facts from the fact source, narrowed by the
        #    arguments bound so far (by the query or by earlier body
        #    literals)
        bound = tuple(
            arg.value if isinstance(arg, Constant) else None for arg in goal.args
        )
        for row in self._fact_source(goal.predicate, bound):
            candidate = Literal(goal.predicate, tuple(Constant(v) for v in row))
            out = unify(goal, candidate, theta)
            if out is not None:
                yield out
        # 2. rules
        for rule in self._rules:
            if rule.head.predicate != goal.predicate:
                continue
            fresh = rule.rename(str(next(self._rename)))
            out = unify(goal, fresh.head, theta)
            if out is None:
                continue
            yield from self._solve_body(list(fresh.body), out, depth + 1)

    def _solve_body(
        self, body: List[Literal], theta: Substitution, depth: int
    ) -> Iterator[Substitution]:
        if not body:
            yield theta
            return
        first, rest = body[0], body[1:]
        for out in self._solve_goal(first, theta, depth):
            yield from self._solve_body(rest, out, depth)
