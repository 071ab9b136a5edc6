"""Bottom-up semi-naive Datalog evaluation with stratified negation.

The object processor's "deductive relational database" view (section
3.1) materialises rule conclusions set-at-a-time.  Semi-naive evaluation
only joins against the *delta* of the previous iteration, which is the
standard optimisation over naive iteration; negation is handled by
stratification (a rule may only negate predicates fully computed in
earlier strata).

Two evaluation paths share the same stratified fixpoint loop:

- the **compiled** path (default): each rule is compiled once into join
  plans — one per delta focus — with literals reordered greedily by the
  number of bound argument positions, and each join step probing a
  per-predicate argument-position hash index on the
  :class:`Database` instead of scanning and unifying row by row;
- the **interpreted** path (``optimise=False``): the original
  per-row ``unify`` loop, kept as the ablation baseline benchmark
  Perf-6 compares join-probe counts against.

Both paths count every examined row in ``stats["join_probes"]`` and
produce bit-identical fixpoints.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import DeductionError
from repro.obs.tracing import get_tracer
from repro.deduction.terms import (
    Constant,
    Literal,
    Rule,
    Substitution,
    Variable,
    ground_tuple,
    unify,
)

Fact = Tuple[Any, ...]

_EMPTY_ROWS: frozenset = frozenset()


class Database:
    """Predicate-indexed fact storage.

    Beyond the per-predicate fact sets, the database maintains lazy
    *argument-position indexes*: ``index("edge", (0,))`` maps each value
    of the first argument to the matching rows.  Indexes are built on
    first use and maintained incrementally by :meth:`add`, which is what
    makes the compiled join plans O(matching rows) per probe.
    """

    def __init__(self, facts: Optional[Dict[str, Set[Fact]]] = None) -> None:
        self._facts: Dict[str, Set[Fact]] = {}
        # predicate -> positions-tuple -> key-tuple -> rows
        self._indexes: Dict[str, Dict[Tuple[int, ...], Dict[Tuple, List[Fact]]]] = {}
        self._frozen: Dict[str, frozenset] = {}
        for pred, rows in (facts or {}).items():
            self._facts[pred] = set(rows)

    def add(self, predicate: str, row: Fact) -> bool:
        """Insert; return True when the fact is new."""
        rows = self._facts.get(predicate)
        if rows is None:
            rows = self._facts[predicate] = set()
        if row in rows:
            return False
        rows.add(row)
        self._frozen.pop(predicate, None)
        indexes = self._indexes.get(predicate)
        if indexes:
            for positions, table in indexes.items():
                if not positions or positions[-1] < len(row):
                    key = tuple(row[p] for p in positions)
                    table.setdefault(key, []).append(row)
        return True

    def discard(self, predicate: str, row: Fact) -> bool:
        """Remove one fact; return True when it was present.

        Deletion keeps every built argument-position index consistent
        (the row is removed from each bucket it was filed under, and
        emptied buckets are pruned) and drops the cached frozen
        snapshot, so ``rows()`` / ``index()`` observers never see the
        removed fact again.
        """
        rows = self._facts.get(predicate)
        if rows is None or row not in rows:
            return False
        rows.remove(row)
        if not rows:
            del self._facts[predicate]
        self._frozen.pop(predicate, None)
        indexes = self._indexes.get(predicate)
        if indexes:
            for positions, table in indexes.items():
                if not positions or positions[-1] < len(row):
                    key = tuple(row[p] for p in positions)
                    bucket = table.get(key)
                    if bucket is not None:
                        try:
                            bucket.remove(row)
                        except ValueError:
                            pass
                        if not bucket:
                            del table[key]
        return True

    def rows(self, predicate: str) -> frozenset:
        """The fact set of one predicate, as an immutable snapshot.

        Always a ``frozenset`` — previously this leaked the live
        internal set for known predicates (mutating it corrupted the
        indexes) but a fresh set for unknown ones.  The snapshot is
        cached per predicate and invalidated on the next insert.
        """
        frozen = self._frozen.get(predicate)
        if frozen is None:
            frozen = self._frozen[predicate] = frozenset(
                self._facts.get(predicate, ())
            )
        return frozen

    def _live_rows(self, predicate: str) -> Iterable[Fact]:
        """Internal read-only access without snapshot cost."""
        return self._facts.get(predicate, _EMPTY_ROWS)

    def index(self, predicate: str, positions: Tuple[int, ...]) -> Dict[Tuple, List[Fact]]:
        """The hash index of ``predicate`` on ``positions`` (lazily built)."""
        indexes = self._indexes.setdefault(predicate, {})
        table = indexes.get(positions)
        if table is None:
            table = indexes[positions] = {}
            last = positions[-1] if positions else -1
            for row in self._facts.get(predicate, ()):
                if last < len(row):
                    key = tuple(row[p] for p in positions)
                    table.setdefault(key, []).append(row)
        return table

    def contains(self, predicate: str, row: Fact) -> bool:
        """Membership test for one fact."""
        rows = self._facts.get(predicate)
        return rows is not None and row in rows

    def predicates(self) -> List[str]:
        """Predicates with at least one fact."""
        return list(self._facts)

    def copy(self) -> "Database":
        """Independent deep copy."""
        return Database({p: set(rows) for p, rows in self._facts.items()})

    def merge(self, other: "Database") -> None:
        """Union another database in, in place (indexes kept current)."""
        for pred in other.predicates():
            incoming = other._live_rows(pred)
            if self._indexes.get(pred):
                for row in incoming:
                    self.add(pred, row)
            else:
                rows = self._facts.setdefault(pred, set())
                if incoming - rows:
                    self._frozen.pop(pred, None)
                    rows |= incoming

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._facts.values())


def stratify(rules: Iterable[Rule]) -> List[List[Rule]]:
    """Partition rules into strata; negation may only reach lower strata.

    Raises :class:`DeductionError` when the program is not stratifiable
    (a negative dependency cycle exists).
    """
    rules = list(rules)
    heads = {rule.head.predicate for rule in rules}
    stratum: Dict[str, int] = {pred: 0 for pred in heads}
    changed = True
    iterations = 0
    bound = len(heads) + 1
    while changed:
        changed = False
        iterations += 1
        if iterations > bound * max(1, len(rules)):
            raise DeductionError("program is not stratifiable (negative cycle)")
        for rule in rules:
            head = rule.head.predicate
            for lit in rule.body:
                if lit.predicate not in heads:
                    continue  # EDB predicate: stratum 0 by definition
                required = stratum[lit.predicate] + (1 if lit.negated else 0)
                if stratum[head] < required:
                    stratum[head] = required
                    if stratum[head] > len(heads):
                        raise DeductionError(
                            "program is not stratifiable (negative cycle "
                            f"through {head!r})"
                        )
                    changed = True
    layers: Dict[int, List[Rule]] = defaultdict(list)
    for rule in rules:
        layers[stratum[rule.head.predicate]].append(rule)
    return [layers[level] for level in sorted(layers)]


# ---------------------------------------------------------------------------
# Compiled join plans
# ---------------------------------------------------------------------------
#
# Substitutions on the compiled path are plain ``{variable name: value}``
# dicts — no ``Constant`` wrapping, no ``unify`` call per row.  A literal
# compiled against a known set of already-bound variables splits its
# argument positions into
#
# - *key* positions (constants and bound variables): probed through the
#   database's argument-position index;
# - *binder* positions (first occurrence of a new variable): bound from
#   the row;
# - *check* positions (repeated occurrence of a new variable within the
#   same literal): compared against the binder position.


class _JoinStep:
    """One positive body literal, compiled for a fixed binding context."""

    __slots__ = ("predicate", "arity", "positions", "key_parts", "binders",
                 "checks", "body_index")

    def __init__(self, literal: Literal, bound_vars: Set[str], body_index: int) -> None:
        self.predicate = literal.predicate
        self.arity = len(literal.args)
        self.body_index = body_index  # position among the rule's positives
        positions: List[int] = []
        key_parts: List[Tuple[bool, Any]] = []  # (is_variable, value-or-name)
        binders: List[Tuple[int, str]] = []
        checks: List[Tuple[int, int]] = []
        first_seen: Dict[str, int] = {}
        for pos, arg in enumerate(literal.args):
            if isinstance(arg, Constant):
                positions.append(pos)
                key_parts.append((False, arg.value))
            elif arg.name in bound_vars:
                positions.append(pos)
                key_parts.append((True, arg.name))
            elif arg.name in first_seen:
                checks.append((pos, first_seen[arg.name]))
            else:
                first_seen[arg.name] = pos
                binders.append((pos, arg.name))
        self.positions = tuple(positions)
        self.key_parts = tuple(key_parts)
        self.binders = tuple(binders)
        self.checks = tuple(checks)

    def extend(self, db: Database, env: Dict[str, Any],
               stats: Dict[str, int]) -> Iterator[Dict[str, Any]]:
        """All extensions of ``env`` over matching rows of ``db``."""
        if self.positions:
            key = tuple(
                env[part] if is_var else part
                for is_var, part in self.key_parts
            )
            stats["index_probes"] += 1
            candidates = db.index(self.predicate, self.positions).get(key, ())
        else:
            candidates = db._live_rows(self.predicate)
        arity = self.arity
        for row in candidates:
            stats["join_probes"] += 1
            if len(row) != arity:
                continue
            ok = True
            for pos, first in self.checks:
                if row[pos] != row[first]:
                    ok = False
                    break
            if not ok:
                continue
            out = dict(env)
            for pos, name in self.binders:
                out[name] = row[pos]
            yield out


class _TupleBuilder:
    """Grounds a literal whose variables are all bound (heads, negation)."""

    __slots__ = ("predicate", "parts")

    def __init__(self, literal: Literal) -> None:
        self.predicate = literal.predicate
        self.parts = tuple(
            (True, arg.name) if isinstance(arg, Variable) else (False, arg.value)
            for arg in literal.args
        )

    def build(self, env: Dict[str, Any]) -> Fact:
        return tuple(env[part] if is_var else part for is_var, part in self.parts)


class _CompiledRule:
    """A rule compiled into one join plan per semi-naive focus."""

    def __init__(self, rule: Rule) -> None:
        self.rule = rule
        self.positive = [lit for lit in rule.body if not lit.negated]
        self.negative = [_TupleBuilder(lit) for lit in rule.body if lit.negated]
        self.head = _TupleBuilder(rule.head)
        # focus (None or positive-literal index) -> ordered join steps
        self._plans: Dict[Optional[int], List[_JoinStep]] = {}
        self._check_plan: Optional[List[_JoinStep]] = None

    def _bound_count(self, literal: Literal, bound_vars: Set[str]) -> int:
        count = 0
        for arg in literal.args:
            if isinstance(arg, Constant) or arg.name in bound_vars:
                count += 1
        return count

    def plan(self, focus: Optional[int]) -> List[_JoinStep]:
        """The join order for ``focus``: the delta literal leads, the
        rest follow greedily by bound-position count (selectivity)."""
        try:
            return self._plans[focus]
        except KeyError:
            pass
        remaining = list(range(len(self.positive)))
        order: List[int] = []
        bound_vars: Set[str] = set()
        if focus is not None:
            order.append(focus)
            remaining.remove(focus)
            bound_vars |= {v.name for v in self.positive[focus].variables()}
        while remaining:
            best = max(
                remaining,
                key=lambda i: (self._bound_count(self.positive[i], bound_vars), -i),
            )
            order.append(best)
            remaining.remove(best)
            bound_vars |= {v.name for v in self.positive[best].variables()}
        steps: List[_JoinStep] = []
        bound_vars = set()
        for body_index in order:
            steps.append(_JoinStep(self.positive[body_index], bound_vars, body_index))
            bound_vars |= {v.name for v in self.positive[body_index].variables()}
        self._plans[focus] = steps
        return steps

    def check_plan(self) -> List[_JoinStep]:
        """The join order for a fully-bound head (rederivation checks):
        every head variable is treated as already bound."""
        if self._check_plan is None:
            head_vars = {v.name for v in self.rule.head.variables()}
            remaining = list(range(len(self.positive)))
            order: List[int] = []
            bound_vars = set(head_vars)
            while remaining:
                best = max(
                    remaining,
                    key=lambda i: (self._bound_count(self.positive[i],
                                                     bound_vars), -i),
                )
                order.append(best)
                remaining.remove(best)
                bound_vars |= {v.name for v in self.positive[best].variables()}
            steps: List[_JoinStep] = []
            bound_vars = set(head_vars)
            for body_index in order:
                steps.append(
                    _JoinStep(self.positive[body_index], bound_vars, body_index)
                )
                bound_vars |= {v.name for v in self.positive[body_index].variables()}
            self._check_plan = steps
        return self._check_plan


def _evaluate_compiled(
    crule: _CompiledRule,
    full: Database,
    delta: Optional[Database],
    derived: Database,
    stats: Dict[str, int],
) -> List[Fact]:
    """One semi-naive pass of a compiled rule (see ``_evaluate_rule``)."""
    new_facts: List[Fact] = []
    focus_positions: List[Optional[int]]
    if delta is None or not crule.positive:
        focus_positions = [None]
    else:
        focus_positions = list(range(len(crule.positive)))
    head_pred = crule.rule.head.predicate
    for focus in focus_positions:
        envs: List[Dict[str, Any]] = [{}]
        for step in crule.plan(focus):
            db = delta if (focus is not None and step.body_index == focus) else full
            next_envs: List[Dict[str, Any]] = []
            for env in envs:
                next_envs.extend(step.extend(db, env, stats))
            envs = next_envs
            if not envs:
                break
        for env in envs:
            blocked = False
            for builder in crule.negative:
                if full.contains(builder.predicate, builder.build(env)):
                    blocked = True
                    break
            if blocked:
                continue
            stats["rule_firings"] += 1
            row = crule.head.build(env)
            if not full.contains(head_pred, row) and not derived.contains(
                head_pred, row
            ):
                derived.add(head_pred, row)
                new_facts.append(row)
    return new_facts


# ---------------------------------------------------------------------------
# Interpreted path (the optimise=False ablation baseline)
# ---------------------------------------------------------------------------


def _match_literal(
    literal: Literal,
    rows: Iterable[Fact],
    theta: Substitution,
    stats: Optional[Dict[str, int]] = None,
) -> Iterable[Substitution]:
    """All extensions of ``theta`` matching ``literal`` against ``rows``."""
    bound = literal.substitute(theta)
    for row in rows:
        if stats is not None:
            stats["join_probes"] += 1
        candidate = Literal(
            literal.predicate, tuple(Constant(v) for v in row)
        )
        out = unify(
            Literal(bound.predicate, bound.args), candidate, theta
        )
        if out is not None:
            yield out


def _evaluate_rule(
    rule: Rule,
    full: Database,
    delta: Optional[Database],
    derived: Database,
    stats: Optional[Dict[str, int]] = None,
) -> List[Fact]:
    """One semi-naive pass of ``rule``; ``delta`` focuses one positive
    literal on the last iteration's new facts (None = naive first round)."""
    new_facts: List[Fact] = []
    positive = [lit for lit in rule.body if not lit.negated]
    negative = [lit for lit in rule.body if lit.negated]

    def lookup(lit: Literal, use_delta: bool) -> Iterable[Fact]:
        if use_delta and delta is not None:
            return delta._live_rows(lit.predicate)
        return full._live_rows(lit.predicate)

    focus_positions: List[Optional[int]]
    if delta is None or not positive:
        focus_positions = [None]
    else:
        focus_positions = list(range(len(positive)))

    for focus in focus_positions:
        substitutions: List[Substitution] = [{}]
        for index, lit in enumerate(positive):
            rows = lookup(lit, use_delta=(focus == index))
            next_subs: List[Substitution] = []
            for theta in substitutions:
                next_subs.extend(_match_literal(lit, rows, theta, stats))
            substitutions = next_subs
            if not substitutions:
                break
        for theta in substitutions:
            blocked = False
            for lit in negative:
                row = ground_tuple(lit, theta)
                if full.contains(lit.predicate, row):
                    blocked = True
                    break
            if blocked:
                continue
            if stats is not None:
                stats["rule_firings"] += 1
            row = ground_tuple(rule.head, theta)
            if not full.contains(rule.head.predicate, row) and not derived.contains(
                rule.head.predicate, row
            ):
                derived.add(rule.head.predicate, row)
                new_facts.append(row)
    return new_facts


# ---------------------------------------------------------------------------
# The stratified fixpoint
# ---------------------------------------------------------------------------


def new_stats() -> Dict[str, int]:
    """A fresh evaluation-statistics dict (all counters zero)."""
    return {"join_probes": 0, "index_probes": 0, "iterations": 0,
            "derived_facts": 0, "rule_firings": 0}


def maintenance_stats() -> Dict[str, int]:
    """Fresh counters for incremental maintenance (see
    :class:`MaterializedFixpoint`), on top of :func:`new_stats`."""
    stats = new_stats()
    stats.update({
        "delta_applies": 0,
        "delta_added_facts": 0,
        "delta_removed_facts": 0,
        "count_increments": 0,
        "count_decrements": 0,
        "overdeletions": 0,
        "rederivations": 0,
        "rederive_checks": 0,
        "delta_fallbacks": 0,
    })
    return stats


def evaluate(
    rules: Iterable[Rule],
    edb: Database,
    optimise: bool = True,
    stats: Optional[Dict[str, int]] = None,
) -> Database:
    """Compute the full IDB: ``edb`` plus everything the rules derive.

    ``optimise`` selects the compiled join-plan path (default) or the
    interpreted unify-per-row baseline; both produce identical
    databases.  ``stats`` (any mutable mapping, see :func:`new_stats`)
    accumulates join-probe / index-probe / iteration counters for
    structural performance assertions.  Counters are gathered in a plain
    local dict during the fixpoint (one dict op per probe, even when
    ``stats`` is a registry-backed view) and folded into ``stats`` once
    at the end; the whole evaluation runs under a
    ``deduction.evaluate`` span with one ``deduction.round`` child per
    semi-naive iteration.
    """
    local = new_stats()
    rules = list(rules)
    tracer = get_tracer()
    with tracer.span("deduction.evaluate", rules=len(rules),
                     optimise=optimise) as evaluate_span:
        full = edb.copy()
        for stratum_index, layer in enumerate(stratify(rules)):
            facts = [rule for rule in layer if rule.is_fact]
            proper = [rule for rule in layer if not rule.is_fact]
            compiled = [_CompiledRule(r) for r in proper] if optimise else []
            for fact in facts:
                full.add(fact.head.predicate, ground_tuple(fact.head, {}))
            delta: Optional[Database] = None
            while True:
                local["iterations"] += 1
                derived = Database()
                with tracer.span(
                    "deduction.round", stratum=stratum_index,
                    seminaive=delta is not None,
                ) as round_span:
                    if optimise:
                        for crule in compiled:
                            local["derived_facts"] += len(
                                _evaluate_compiled(crule, full, delta,
                                                   derived, local)
                            )
                    else:
                        for rule in proper:
                            local["derived_facts"] += len(
                                _evaluate_rule(rule, full, delta, derived,
                                               local)
                            )
                    round_span.set(derived=len(derived))
                if len(derived) == 0:
                    break
                full.merge(derived)
                delta = derived
            # First round after facts: run once naive, then semi-naive
            # rounds (handled above: delta None = naive round).
        evaluate_span.set(**local)
    if stats is not None:
        for key, value in local.items():
            stats[key] = stats.get(key, 0) + value
    return full


# ---------------------------------------------------------------------------
# Incremental maintenance: counting + DRed
# ---------------------------------------------------------------------------


class _PatchedView:
    """Pre-delta visibility over a post-delta :class:`Database`.

    Presents ``db`` as it looked before the ``added``/``removed``
    pred->rows patches were physically applied: probes hide rows in
    ``added`` and re-surface rows in ``removed``.  The patch maps are
    delta-sized, so re-surfacing scans are cheap.
    """

    __slots__ = ("_db", "_added", "_removed")

    def __init__(self, db: Database, added: Dict[str, Set[Fact]],
                 removed: Dict[str, Set[Fact]]) -> None:
        self._db = db
        self._added = added
        self._removed = removed

    def index(self, predicate: str, positions: Tuple[int, ...]) -> "_PatchedIndex":
        return _PatchedIndex(
            self._db.index(predicate, positions),
            self._added.get(predicate),
            self._removed.get(predicate),
            positions,
        )

    def _live_rows(self, predicate: str) -> Iterator[Fact]:
        added = self._added.get(predicate)
        removed = self._removed.get(predicate)
        for row in self._db._live_rows(predicate):
            if added and row in added:
                continue
            yield row
        if removed:
            yield from removed

    def contains(self, predicate: str, row: Fact) -> bool:
        removed = self._removed.get(predicate)
        if removed and row in removed:
            return True
        added = self._added.get(predicate)
        if added and row in added:
            return False
        return self._db.contains(predicate, row)


class _PatchedIndex:
    """``.get(key)`` adapter applying the old-state patch per probe."""

    __slots__ = ("_table", "_added", "_removed", "_positions")

    def __init__(self, table: Dict[Tuple, List[Fact]],
                 added: Optional[Set[Fact]], removed: Optional[Set[Fact]],
                 positions: Tuple[int, ...]) -> None:
        self._table = table
        self._added = added
        self._removed = removed
        self._positions = positions

    def get(self, key: Tuple, default: Iterable[Fact] = ()) -> Iterable[Fact]:
        added = self._added
        base = self._table.get(key, ())
        out = [row for row in base if not (added and row in added)]
        if self._removed:
            positions = self._positions
            last = positions[-1] if positions else -1
            for row in self._removed:
                if last < len(row) and tuple(row[p] for p in positions) == key:
                    out.append(row)
        return out


def _flip_add(added: Dict[str, Set[Fact]], removed: Dict[str, Set[Fact]],
              pred: str, row: Fact) -> None:
    """Record a net insertion (cancelling a same-batch removal)."""
    rset = removed.get(pred)
    if rset and row in rset:
        rset.discard(row)
        return
    added.setdefault(pred, set()).add(row)


def _flip_remove(added: Dict[str, Set[Fact]], removed: Dict[str, Set[Fact]],
                 pred: str, row: Fact) -> None:
    """Record a net removal (cancelling a same-batch insertion)."""
    aset = added.get(pred)
    if aset and row in aset:
        aset.discard(row)
        return
    removed.setdefault(pred, set()).add(row)


def _match_head(crule: _CompiledRule, row: Fact) -> Optional[Dict[str, Any]]:
    """Bindings unifying a ground ``row`` with the rule head, or None."""
    parts = crule.head.parts
    if len(row) != len(parts):
        return None
    env: Dict[str, Any] = {}
    for value, (is_var, part) in zip(row, parts):
        if is_var:
            if part in env:
                if env[part] != value:
                    return None
            else:
                env[part] = value
        elif part != value:
            return None
    return env


class MaterializedFixpoint:
    """A stratified fixpoint kept consistent under fact deltas.

    Produces the exact database :func:`evaluate` would, but maintains it
    in place instead of recomputing.  Each stratum is classified once:

    - **counting** — no positive dependency cycle among the stratum's
      head predicates.  Every derived fact carries its exact derivation
      count, adjusted per delta batch with the signed semi-naive
      formula: for each rule and each focused body literal, literals
      before the focus see the *new* state, literals after it the *old*
      state (reconstructed by :class:`_PatchedView`), so the per-batch
      derivation-count change is exact and a fact disappears precisely
      when its last derivation does.
    - **recursive** — maintained by DRed (delete-and-rederive):
      overdelete everything transitively supported by a removed fact
      against the pre-batch state, rederive survivors from the
      remainder, then propagate insertions and rederivations with the
      ordinary semi-naive rounds.

    A delta touching a predicate that appears **negated** in a stratum
    is not maintained incrementally — that stratum and everything above
    it is recomputed from scratch (``delta_fallbacks``); negation makes
    maintenance non-monotone.
    """

    def __init__(self, rules: Iterable[Rule], edb: Database,
                 stats: Optional[Dict[str, int]] = None) -> None:
        self._stats_sink = stats
        self._rules = list(rules)
        self._strata: List[List[_CompiledRule]] = []
        self._rules_by_head: List[Dict[str, List[_CompiledRule]]] = []
        self._stratum_heads: List[List[str]] = []  # topo-ordered when counting
        self._stratum_counting: List[bool] = []
        self._stratum_negated: List[Set[str]] = []
        for layer in stratify(self._rules):
            compiled = [_CompiledRule(r) for r in layer]
            by_head: Dict[str, List[_CompiledRule]] = defaultdict(list)
            for crule in compiled:
                by_head[crule.rule.head.predicate].append(crule)
            order, acyclic = self._topo_heads(compiled, set(by_head))
            self._strata.append(compiled)
            self._rules_by_head.append(dict(by_head))
            self._stratum_heads.append(order)
            self._stratum_counting.append(acyclic)
            self._stratum_negated.append({
                lit.predicate for crule in compiled
                for lit in crule.rule.body if lit.negated
            })
        self._head_preds: Set[str] = {
            head for by_head in self._rules_by_head for head in by_head
        }
        self._edb: Dict[str, Set[Fact]] = {
            pred: set(edb._live_rows(pred)) for pred in edb.predicates()
        }
        self._db = Database({p: set(rows) for p, rows in self._edb.items()})
        # counting strata: head pred -> row -> exact derivation count
        self._counts: Dict[str, Dict[Fact, int]] = {}
        # recursive strata: head pred -> rows with at least one derivation
        self._derived: Dict[str, Set[Fact]] = {}
        self.stats = maintenance_stats()
        local = maintenance_stats()
        # The initial build is an ordinary evaluation — it reports under
        # the same span names so EXPLAIN trees and the obs smoke gates
        # see one evaluate with its rounds, maintained or not.
        with get_tracer().span(
            "deduction.evaluate", rules=len(self._rules), optimise=True,
            maintained=True,
        ) as span:
            for s in range(len(self._strata)):
                self._build_stratum(s, local)
            span.set(**{k: v for k, v in local.items() if v})
        self._fold(local)

    # -- infrastructure ----------------------------------------------------

    def _fold(self, local: Dict[str, int]) -> None:
        for key, value in local.items():
            if value:
                self.stats[key] = self.stats.get(key, 0) + value
                if self._stats_sink is not None:
                    self._stats_sink[key] = self._stats_sink.get(key, 0) + value

    @staticmethod
    def _topo_heads(compiled: List[_CompiledRule],
                    heads: Set[str]) -> Tuple[List[str], bool]:
        """Topologically order the stratum's head predicates by positive
        intra-stratum dependency; returns ``(order, acyclic)``."""
        deps: Dict[str, Set[str]] = {head: set() for head in heads}
        for crule in compiled:
            head = crule.rule.head.predicate
            for lit in crule.positive:
                if lit.predicate in heads and lit.predicate != head:
                    deps[head].add(lit.predicate)
            for lit in crule.rule.body:
                if not lit.negated and lit.predicate == head:
                    return sorted(heads), False  # self-recursive
        order: List[str] = []
        placed: Set[str] = set()
        pending = sorted(heads)
        while pending:
            progress = False
            remaining = []
            for head in pending:
                if deps[head] <= placed:
                    order.append(head)
                    placed.add(head)
                    progress = True
                else:
                    remaining.append(head)
            if not progress:
                return sorted(heads), False  # cycle
            pending = remaining
        return order, True

    def database(self) -> Database:
        """The live materialised database (EDB plus derived facts)."""
        return self._db

    def _join(self, crule: _CompiledRule, focus: Optional[int],
              focus_db: Optional[Database], new_db: Any, old_db: Any,
              stats: Dict[str, int]) -> List[Dict[str, Any]]:
        """Body environments of ``crule``; each one is one derivation.

        With a focus, the focused literal reads ``focus_db``, literals
        before it (in original body order) read ``new_db`` and literals
        after it read ``old_db`` — the telescoping split that makes the
        signed derivation-count delta exact.  Negation is always checked
        against the live database (deltas touching negated predicates
        take the fallback path instead).
        """
        envs: List[Dict[str, Any]] = [{}]
        for step in crule.plan(focus):
            if focus is None:
                db = old_db
            elif step.body_index == focus:
                db = focus_db
            elif step.body_index < focus:
                db = new_db
            else:
                db = old_db
            next_envs: List[Dict[str, Any]] = []
            for env in envs:
                next_envs.extend(step.extend(db, env, stats))
            envs = next_envs
            if not envs:
                return []
        if crule.negative:
            envs = [
                env for env in envs
                if not any(
                    self._db.contains(builder.predicate, builder.build(env))
                    for builder in crule.negative
                )
            ]
        return envs

    # -- initial build -----------------------------------------------------

    def _build_stratum(self, s: int, local: Dict[str, int]) -> None:
        if self._stratum_counting[s]:
            local["iterations"] += 1
            with get_tracer().span("deduction.round", stratum=s,
                                   seminaive=False, counting=True) as span:
                derived_count = 0
                for head in self._stratum_heads[s]:
                    counts = self._counts.setdefault(head, {})
                    for crule in self._rules_by_head[s][head]:
                        for env in self._join(crule, None, None, self._db,
                                              self._db, local):
                            local["rule_firings"] += 1
                            row = crule.head.build(env)
                            previous = counts.get(row, 0)
                            counts[row] = previous + 1
                            if previous == 0 and self._db.add(head, row):
                                local["derived_facts"] += 1
                                derived_count += 1
                span.set(derived=derived_count)
            return
        compiled = self._strata[s]
        delta: Optional[Database] = None
        while True:
            local["iterations"] += 1
            derived = Database()
            with get_tracer().span("deduction.round", stratum=s,
                                   seminaive=delta is not None) as span:
                for crule in compiled:
                    local["derived_facts"] += len(
                        _evaluate_compiled(crule, self._db, delta, derived,
                                           local)
                    )
                span.set(derived=len(derived))
            if len(derived) == 0:
                break
            for pred in derived.predicates():
                self._derived.setdefault(pred, set()).update(
                    derived._live_rows(pred)
                )
            self._db.merge(derived)
            delta = derived

    # -- delta maintenance -------------------------------------------------

    def apply_delta(
        self,
        added: Dict[str, Iterable[Fact]],
        removed: Dict[str, Iterable[Fact]],
    ) -> Tuple[Dict[str, Set[Fact]], Dict[str, Set[Fact]]]:
        """Apply an EDB delta batch; maintain every stratum.

        Returns ``(net_added, net_removed)`` pred->rows maps covering
        both the EDB changes and every derived-fact consequence — the
        exact difference between the database before and after.
        """
        local = maintenance_stats()
        local["delta_applies"] = 1
        added_all: Dict[str, Set[Fact]] = {}
        removed_all: Dict[str, Set[Fact]] = {}
        with get_tracer().span("deduction.apply_delta") as span:
            for pred, rows in removed.items():
                asserted = self._edb.get(pred)
                for row in rows:
                    row = tuple(row)
                    if asserted is None or row not in asserted:
                        continue
                    asserted.remove(row)
                    if self._counts.get(pred, {}).get(row, 0) > 0:
                        continue  # still derived: presence unchanged
                    if row in self._derived.get(pred, ()):
                        continue
                    if self._db.discard(pred, row):
                        _flip_remove(added_all, removed_all, pred, row)
                        local["delta_removed_facts"] += 1
            for pred, rows in added.items():
                asserted = self._edb.setdefault(pred, set())
                for row in rows:
                    row = tuple(row)
                    if row in asserted:
                        continue
                    asserted.add(row)
                    if self._db.add(pred, row):
                        _flip_add(added_all, removed_all, pred, row)
                        local["delta_added_facts"] += 1
            for s in range(len(self._strata)):
                changed = {
                    pred for pred, rows in added_all.items() if rows
                } | {pred for pred, rows in removed_all.items() if rows}
                if not changed:
                    break
                if changed & self._stratum_negated[s]:
                    local["delta_fallbacks"] += 1
                    self._recompute_from(s, added_all, removed_all, local)
                    break
                body_preds = {
                    lit.predicate for crule in self._strata[s]
                    for lit in crule.rule.body
                }
                if not (changed & body_preds) and not (
                    changed & set(self._rules_by_head[s])
                ):
                    continue
                if self._stratum_counting[s]:
                    self._maintain_counting(s, added_all, removed_all, local)
                else:
                    self._maintain_dred(s, added_all, removed_all, local)
            span.set(
                added=sum(len(r) for r in added_all.values()),
                removed=sum(len(r) for r in removed_all.values()),
                fallbacks=local["delta_fallbacks"],
            )
        self._fold(local)
        return added_all, removed_all

    def _maintain_counting(self, s: int, added_all: Dict[str, Set[Fact]],
                           removed_all: Dict[str, Set[Fact]],
                           local: Dict[str, int]) -> None:
        old_view = _PatchedView(self._db, added_all, removed_all)
        for head in self._stratum_heads[s]:
            net: Dict[Fact, int] = {}
            for crule in self._rules_by_head[s][head]:
                for focus in range(len(crule.positive)):
                    pred = crule.positive[focus].predicate
                    for sign, patch in ((1, added_all), (-1, removed_all)):
                        rows = patch.get(pred)
                        if not rows:
                            continue
                        focus_db = Database({pred: set(rows)})
                        for env in self._join(crule, focus, focus_db,
                                              self._db, old_view, local):
                            local["rule_firings"] += 1
                            if sign > 0:
                                local["count_increments"] += 1
                            else:
                                local["count_decrements"] += 1
                            row = crule.head.build(env)
                            net[row] = net.get(row, 0) + sign
            if not net:
                continue
            counts = self._counts.setdefault(head, {})
            asserted = self._edb.get(head, ())
            for row, diff in net.items():
                if diff == 0:
                    continue
                previous = counts.get(row, 0)
                current = max(0, previous + diff)
                if current == 0:
                    counts.pop(row, None)
                else:
                    counts[row] = current
                if previous == 0 and current > 0:
                    if self._db.add(head, row):
                        _flip_add(added_all, removed_all, head, row)
                        local["delta_added_facts"] += 1
                elif previous > 0 and current == 0 and row not in asserted:
                    if self._db.discard(head, row):
                        _flip_remove(added_all, removed_all, head, row)
                        local["delta_removed_facts"] += 1

    def _maintain_dred(self, s: int, added_all: Dict[str, Set[Fact]],
                       removed_all: Dict[str, Set[Fact]],
                       local: Dict[str, int]) -> None:
        compiled = self._strata[s]
        heads = set(self._rules_by_head[s])
        old_view = _PatchedView(self._db, added_all, removed_all)
        # --- phase 1: overdeletion against the pre-batch state ---------
        over: Dict[str, Set[Fact]] = {}
        round_delta: Dict[str, Set[Fact]] = {
            pred: set(rows) for pred, rows in removed_all.items() if rows
        }
        while round_delta:
            local["iterations"] += 1
            next_delta: Dict[str, Set[Fact]] = {}
            for crule in compiled:
                head = crule.rule.head.predicate
                for focus in range(len(crule.positive)):
                    pred = crule.positive[focus].predicate
                    rows = round_delta.get(pred)
                    if not rows:
                        continue
                    focus_db = Database({pred: set(rows)})
                    for env in self._join(crule, focus, focus_db,
                                          old_view, old_view, local):
                        local["rule_firings"] += 1
                        row = crule.head.build(env)
                        if row in over.get(head, ()):
                            continue
                        if row not in self._derived.get(head, ()):
                            continue
                        over.setdefault(head, set()).add(row)
                        # an EDB-asserted row keeps its presence: its
                        # dependents never lose support, so only
                        # derived-only rows propagate the doom wave.
                        if row not in self._edb.get(head, ()):
                            next_delta.setdefault(head, set()).add(row)
            round_delta = next_delta
        # --- phase 2: physical deletion + rederivation ------------------
        recheck: Dict[str, Set[Fact]] = {}
        for head, rows in over.items():
            derived_set = self._derived.setdefault(head, set())
            asserted = self._edb.get(head, ())
            for row in rows:
                derived_set.discard(row)
                local["overdeletions"] += 1
                recheck.setdefault(head, set()).add(row)
                if row in asserted:
                    continue  # presence survives on the EDB assertion
                if self._db.discard(head, row):
                    _flip_remove(added_all, removed_all, head, row)
                    local["delta_removed_facts"] += 1
        # EDB-removed rows of this stratum's heads may still be
        # rule-supported (the derived flag can be stale for rows that
        # were EDB-present at build time): give them a rederive check.
        for head in heads:
            rows = removed_all.get(head)
            if rows:
                recheck.setdefault(head, set()).update(rows)
        rederived = Database()
        for head, rows in recheck.items():
            derived_set = self._derived.setdefault(head, set())
            for row in rows:
                local["rederive_checks"] += 1
                if self._rederivable(s, head, row, local):
                    local["rederivations"] += 1
                    derived_set.add(row)
                    if self._db.add(head, row):
                        _flip_add(added_all, removed_all, head, row)
                        local["delta_added_facts"] += 1
                        rederived.add(head, row)
        # --- phase 3: semi-naive insertion propagation ------------------
        body_preds = {
            lit.predicate for crule in compiled
            for lit in crule.rule.body if not lit.negated
        }
        delta = rederived
        for pred in body_preds:
            rows = added_all.get(pred)
            if rows:
                for row in rows:
                    delta.add(pred, row)
        while len(delta):
            local["iterations"] += 1
            derived = Database()
            for crule in compiled:
                local["derived_facts"] += len(
                    _evaluate_compiled(crule, self._db, delta, derived, local)
                )
            if len(derived) == 0:
                break
            for pred in derived.predicates():
                derived_set = self._derived.setdefault(pred, set())
                for row in derived._live_rows(pred):
                    derived_set.add(row)
                    _flip_add(added_all, removed_all, pred, row)
                    local["delta_added_facts"] += 1
            self._db.merge(derived)
            delta = derived

    def _rederivable(self, s: int, head: str, row: Fact,
                     local: Dict[str, int]) -> bool:
        """True when ``row`` still has a one-step derivation in the
        current database (the DRed rederivation test)."""
        for crule in self._rules_by_head[s][head]:
            env = _match_head(crule, row)
            if env is None:
                continue
            envs = [env]
            for step in crule.check_plan():
                next_envs: List[Dict[str, Any]] = []
                for candidate in envs:
                    next_envs.extend(step.extend(self._db, candidate, local))
                envs = next_envs
                if not envs:
                    break
            for candidate in envs:
                if any(
                    self._db.contains(builder.predicate,
                                      builder.build(candidate))
                    for builder in crule.negative
                ):
                    continue
                return True
        return False

    def _recompute_from(self, s: int, added_all: Dict[str, Set[Fact]],
                        removed_all: Dict[str, Set[Fact]],
                        local: Dict[str, int]) -> None:
        """Fallback: rebuild strata ``s..`` from scratch (negation)."""
        heads: Set[str] = set()
        for idx in range(s, len(self._strata)):
            heads |= set(self._rules_by_head[idx])
        before = {head: set(self._db._live_rows(head)) for head in heads}
        for head in heads:
            asserted = self._edb.get(head, ())
            for row in list(self._db._live_rows(head)):
                if row not in asserted:
                    self._db.discard(head, row)
            self._counts.pop(head, None)
            self._derived.pop(head, None)
        for idx in range(s, len(self._strata)):
            self._build_stratum(idx, local)
        for head in heads:
            after = set(self._db._live_rows(head))
            for row in after - before[head]:
                _flip_add(added_all, removed_all, head, row)
            for row in before[head] - after:
                _flip_remove(added_all, removed_all, head, row)
