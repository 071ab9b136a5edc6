"""The justification graph: which later decisions a decision justifies.

Backtracking a decision must also retract its *transitive
consequences* — every later decision that read what it wrote (§3.3.3).
This module derives those consequence edges from the ledger alone:

- **FROM/TO links** — a later decision whose input objects intersect an
  earlier decision's outputs consumed its products;
- **BY links** — an explicit parent reference;
- **write-set overlap** — a later decision whose referenced ids
  (deleted/clipped pids, endpoints of created links, inputs) intersect
  the earlier decision's created ids built directly on its telling.

The graph is an index the :class:`~repro.decisions.ledger.DecisionLedger`
keeps up to date: :meth:`JustificationGraph.add` links each appended
record to the records already present through lookup indexes (output
name -> producers, created id -> creators), so one append costs what
the record's own ids cost, never the ledger's length.  Edges always
point forward in time (earlier ``tick`` to later), so the graph is a
DAG by construction and ``consequents`` is a plain BFS.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import DecisionError

if TYPE_CHECKING:
    from repro.decisions.ledger import LedgerRecord


class JustificationGraph:
    """Consequence edges over ledger records, extended one record at a
    time in non-decreasing tick order."""

    def __init__(self, records: Iterable[LedgerRecord]) -> None:
        # Mutated by the ledger's writer under the serving write lock.
        #: did -> record; statuses are read live, edges never depend on
        #: them.
        self._nodes: Dict[str, LedgerRecord] = {}  # guarded-by: external: GKBMSService._rwlock
        #: did -> {consequent did -> reason}, direct edges only.
        self.edges: Dict[str, Dict[str, str]] = {}  # guarded-by: external: GKBMSService._rwlock
        #: did -> {justifier did -> reason}: the same edges, reversed.
        self._justifiers: Dict[str, Dict[str, str]] = {}  # guarded-by: external: GKBMSService._rwlock
        #: output name -> dids that output it (FROM/TO lookups).
        self._producers: Dict[str, List[str]] = {}  # guarded-by: external: GKBMSService._rwlock
        #: created id -> dids whose ``created_ids()`` contain it.
        self._creators: Dict[str, List[str]] = {}  # guarded-by: external: GKBMSService._rwlock
        self._edge_count = 0  # guarded-by: external: GKBMSService._rwlock
        self._last_tick: Optional[int] = None  # guarded-by: external: GKBMSService._rwlock
        self._build(sorted(records, key=lambda r: r.tick))

    def _build(self, records: List[LedgerRecord]) -> None:
        for record in records:
            self.add(record)

    def add(self, record: LedgerRecord) -> None:
        """Link ``record`` to the records already in the graph.

        Each pair gets one reason, by precedence BY > FROM/TO >
        write-set.  ``record`` must be no older than every record
        already present — the order that makes the maintained graph
        equal the tick-sorted one — or it is refused unchanged."""
        if self._last_tick is not None and record.tick < self._last_tick:
            raise DecisionError(
                f"decision {record.did!r} (tick {record.tick}) is older "
                f"than the ledger's last tick {self._last_tick}"
            )
        reasons: Dict[str, str] = {}
        for parent in record.parents:
            if parent in self._nodes:
                reasons[parent] = "by"
        for name in record.inputs.values():
            for source in self._producers.get(name, ()):
                reasons.setdefault(source, "from-to")
        for ref in record.referenced_ids():
            for source in self._creators.get(ref, ()):
                reasons.setdefault(source, "write-set")
        for source, reason in reasons.items():
            self.edges[source][record.did] = reason
        self._edge_count += len(reasons)
        self._justifiers[record.did] = reasons
        self.edges[record.did] = {}
        self._nodes[record.did] = record
        self._last_tick = record.tick
        # A record naming one object under two output roles produces
        # it once.
        for name in set(record.outputs):
            self._producers.setdefault(name, []).append(record.did)
        for created in record.created_ids():
            self._creators.setdefault(created, []).append(record.did)

    def producers_of(self, name: str) -> List[str]:
        """Dids that output ``name``, in append order."""
        return list(self._producers.get(name, ()))

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def edge_list(self) -> List[Dict[str, str]]:
        """Stable wire form of the direct edges."""
        out: List[Dict[str, str]] = []
        for source in sorted(self.edges):
            for target in sorted(self.edges[source]):
                out.append({
                    "from": source,
                    "to": target,
                    "reason": self.edges[source][target],
                })
        return out

    def consequents(self, did: str,
                    active_only: bool = True) -> Set[str]:
        """Transitive consequents of ``did`` (``did`` itself excluded).

        With ``active_only`` (the backtracking traversal) retracted
        decisions neither appear in the result nor transmit
        consequence — their effects are already gone."""
        seen: Set[str] = set()
        frontier = [did]
        while frontier:
            current = frontier.pop()
            for target in self.edges.get(current, ()):
                if target in seen:
                    continue
                if active_only and not self._nodes[target].is_active:
                    continue
                seen.add(target)
                frontier.append(target)
        return seen

    def justification_of(self, did: str) -> List[Tuple[str, str]]:
        """Direct justifiers of ``did``: ``(earlier did, reason)``."""
        return sorted(self._justifiers.get(did, {}).items())
