"""RMS integration with the GKBMS decision structure (section 3.3.3).

Every decision instance is a JTMS *assumption*; every design object it
produced is justified by (decision + its inputs).  Retracting the
decision's assumption makes all its consequences OUT automatically —
"automatic propagation of the consequences of high-level changes".
One encoding, two shapes:

- :class:`PartitionedDecisionRMS` — the paper's proposed combination
  with GKBMS abstraction: one small JTMS per decision *scope* (e.g.
  per mapped hierarchy or per module), with interface nodes linking
  scopes.  A retraction relabels only the affected partition and the
  partitions reachable through its interface — bounding the dependency
  network each RMS run touches, which is the whole point given that
  "current RMS can handle only fairly small dependency networks
  efficiently".
- :class:`DecisionRMS` — the straightforward flat encoding: the same
  RMS with a single scope, so one JTMS holds the whole history.

Both load :class:`~repro.decisions.ledger.LedgerRecord`s, so they run
over the in-process GKBMS's ledger and over a served
:class:`~repro.decisions.engine.DecisionHistory` ledger alike.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.core.rms.jtms import JTMS
from repro.decisions.ledger import LedgerRecord


class PartitionedDecisionRMS:
    """One JTMS per decision scope, linked by interface premises.

    ``scope_of`` maps a decision record to its partition key (default:
    the decision class — a coarse but effective abstraction; callers
    can partition by mapped hierarchy, module, developer, ...).

    An object produced in scope A and consumed in scope B becomes an
    *interface node*: scope B sees it as a premise whose truth is
    synchronised from scope A on demand.  Retraction relabels the home
    scope and then only propagates across interfaces whose value
    actually changed.
    """

    def __init__(self, scope_of: Optional[Callable[[LedgerRecord], str]] = None) -> None:
        self._scope_of = scope_of or (lambda record: record.decision_class)
        self.partitions: Dict[str, JTMS] = {}
        self._home: Dict[str, str] = {}  # object -> producing scope
        self._imports: Dict[str, Set[str]] = {}  # scope -> imported objects
        self._decision_scope: Dict[str, str] = {}

    def _partition(self, scope: str) -> JTMS:
        if scope not in self.partitions:
            self.partitions[scope] = JTMS()
            self._imports[scope] = set()
        return self.partitions[scope]

    def load(self, records: Iterable[LedgerRecord]) -> None:
        """Encode a decision history across partitions."""
        for record in records:
            self.add_decision(record)

    def add_decision(self, record: LedgerRecord) -> None:
        """Encode one decision in its scope's JTMS."""
        scope = self._scope_of(record)
        jtms = self._partition(scope)
        self._decision_scope[record.did] = scope
        jtms.add_assumption(record.did)
        if not record.is_active:
            jtms.retract(record.did)
        for value in set(record.inputs.values()):
            home = self._home.get(value)
            if home is None or home == scope:
                if value not in jtms.nodes():
                    jtms.add_premise(value)
            else:
                # interface: import the foreign object as a premise
                # whose truth mirrors the home partition
                if value not in jtms.nodes():
                    jtms.add_premise(value)
                self._imports[scope].add(value)
                if not self.partitions[home].is_in(value):
                    jtms.retract(value)
        in_list = [record.did] + sorted(set(record.inputs.values()))
        for output in record.outputs:
            jtms.justify(output, in_list=in_list,
                         informant=record.decision_class)
            self._home.setdefault(output, scope)

    # ------------------------------------------------------------------

    def retract_decision(self, did: str) -> Set[str]:
        """Retract in the home partition, then propagate only through
        interfaces whose objects changed truth value."""
        scope = self._decision_scope.get(did)
        if scope is None:
            from repro.errors import RMSError

            raise RMSError(f"unknown decision {did!r}")
        fell_out: Set[str] = set()
        jtms = self.partitions[scope]
        before = jtms.believed()
        jtms.retract(did)
        wave = (before - jtms.believed()) & set(self._home)
        fell_out |= wave
        # Propagate across interfaces wave by wave, with one batched
        # relabelling per affected partition per wave.
        while wave:
            per_scope: Dict[str, Set[str]] = {}
            for obj in wave:
                for other_scope, imports in self._imports.items():
                    if obj in imports and self.partitions[other_scope].is_in(obj):
                        per_scope.setdefault(other_scope, set()).add(obj)
            wave = set()
            for other_scope, objs in per_scope.items():
                other = self.partitions[other_scope]
                other_before = other.believed()
                other.retract_many(objs)
                newly_out = (other_before - other.believed()) & set(self._home)
                fell_out |= newly_out
                wave |= newly_out
        return fell_out

    def is_current(self, name: str) -> bool:
        """Is the object believed in its home partition?"""
        home = self._home.get(name)
        if home is not None:
            return self.partitions[home].is_in(name)
        return any(j.is_in(name) for j in self.partitions.values())

    def believed_objects(self) -> Set[str]:
        """Design objects believed in their home partitions."""
        believed: Set[str] = set()
        for name, home in self._home.items():
            if self.partitions[home].is_in(name):
                believed.add(name)
        return believed

    def partition_sizes(self) -> Dict[str, int]:
        """Node count per partition (the abstraction payoff)."""
        return {scope: len(jtms) for scope, jtms in self.partitions.items()}

    def total_visits(self) -> int:
        """Justification visits summed over partitions."""
        return sum(j.stats["visits"] for j in self.partitions.values())


class DecisionRMS(PartitionedDecisionRMS):
    """One flat JTMS over the whole decision history: the partitioned
    RMS with a single scope."""

    def __init__(self) -> None:
        super().__init__(scope_of=lambda record: "history")

    @property
    def jtms(self) -> JTMS:
        """The single JTMS holding every decision."""
        return self._partition("history")


def suggest_retractions(records: Iterable[LedgerRecord],
                        conflicting_objects: Iterable[str]) -> List[str]:
    """Dependency-directed backtracking advice (Doyle [DOYL79]).

    Given design objects that cannot coexist (e.g. the associative-key
    implementation and the Minutes relation of fig 2-4), load the
    history into a JTMS, assert a contradiction justified by their
    conjunction, and return the decision ids underlying it — retracting
    any one resolves the conflict.  Ordered least-damage-first: the
    latest culprit (fewest consequents to undo) leads, which in the
    scenario makes the key decision the recommended retraction.
    """
    rms = DecisionRMS()
    records = list(records)
    rms.load(records)
    conflict = list(conflicting_objects)
    rms.jtms.justify("conflict!", in_list=conflict,
                     informant="dependency-directed backtracking")
    rms.jtms.mark_contradiction("conflict!")
    culprits: Set[str] = set()
    for assumption_set in rms.jtms.diagnose():
        culprits |= assumption_set
    ticks = {record.did: record.tick for record in records}
    return sorted(culprits, key=lambda did: (-ticks.get(did, 0), did))
