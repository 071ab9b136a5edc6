"""Dependency graphs over the decision documentation (figs 2-2 to 2-4).

"The graph in fig 2-2 shows dependencies created by the decision for
move-down, relating the new objects to existing ones and to a
representation of the applied tool."

The graph is *derived* from the documented decision instances — exactly
what the paper means by using lemma generation to create "dependency
graph objects" — and supports zooming (radius-bounded subgraphs around
a focus, cf. the remark at the end of section 2.1 that "the GKBMS must
have some kind of zooming facility for both design objects and design
decisions").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.decisions.ledger import LedgerRecord
from repro.models.display.graph_dag import Edge, GraphDAGRenderer


class DependencyGraph:
    """Typed dependency edges derived from decision records."""

    def __init__(self, records: Iterable[LedgerRecord],
                 include_retracted: bool = False) -> None:
        self.edges: List[Edge] = []
        self._retracted_nodes: Set[str] = set()
        for record in records:
            if not record.is_active:
                if not include_retracted:
                    continue
                self._retracted_nodes.add(record.did)
            for role, value in record.inputs.items():
                self._add((value, role, record.did))
            for role, names in record.output_roles.items():
                for name in names:
                    self._add((record.did, role, name))
            if record.tool:
                self._add((record.did, "by", record.tool))
            for assumption in record.assumptions:
                self._add((record.did, "assumes", assumption))

    def _add(self, edge: Edge) -> None:
        if edge not in self.edges:
            self.edges.append(edge)

    # ------------------------------------------------------------------

    def nodes(self) -> List[str]:
        """All node names in edge order."""
        seen: Dict[str, None] = {}
        for source, _label, destination in self.edges:
            seen.setdefault(source, None)
            seen.setdefault(destination, None)
        return list(seen)

    def successors(self, node: str) -> List[Tuple[str, str]]:
        """Outgoing (label, target) pairs."""
        return [(label, dst) for src, label, dst in self.edges if src == node]

    def predecessors(self, node: str) -> List[Tuple[str, str]]:
        """Incoming (label, source) pairs."""
        return [(label, src) for src, label, dst in self.edges if dst == node]

    def downstream(self, node: str) -> Set[str]:
        """Everything transitively derived from ``node``."""
        out: Set[str] = set()
        frontier = [node]
        while frontier:
            current = frontier.pop()
            for _label, nxt in self.successors(current):
                if nxt not in out:
                    out.add(nxt)
                    frontier.append(nxt)
        return out

    def upstream(self, node: str) -> Set[str]:
        """Everything ``node`` transitively derives from."""
        out: Set[str] = set()
        frontier = [node]
        while frontier:
            current = frontier.pop()
            for _label, prv in self.predecessors(current):
                if prv not in out:
                    out.add(prv)
                    frontier.append(prv)
        return out

    # ------------------------------------------------------------------
    # Zooming
    # ------------------------------------------------------------------

    def zoom(self, focus: str, radius: int = 1) -> "DependencyGraph":
        """Subgraph within ``radius`` edges of ``focus`` (both ways)."""
        keep: Set[str] = {focus}
        frontier = {focus}
        for _step in range(radius):
            next_frontier: Set[str] = set()
            for node in frontier:
                for _label, other in self.successors(node):
                    next_frontier.add(other)
                for _label, other in self.predecessors(node):
                    next_frontier.add(other)
            next_frontier -= keep
            keep |= next_frontier
            frontier = next_frontier
        sub = DependencyGraph([])
        sub.edges = [
            edge for edge in self.edges if edge[0] in keep and edge[2] in keep
        ]
        sub._retracted_nodes = self._retracted_nodes & keep
        return sub

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def renderer(self, highlight: Optional[Iterable[str]] = None) -> GraphDAGRenderer:
        """A GraphDAGRenderer over these edges."""
        renderer = GraphDAGRenderer()
        renderer.extend(self.edges)
        renderer.highlight |= set(highlight or ())
        renderer.highlight |= self._retracted_nodes
        return renderer

    def to_ascii(self, highlight: Optional[Iterable[str]] = None) -> str:
        """Layered ASCII rendering."""
        return self.renderer(highlight).to_ascii()

    def to_dot(self) -> str:
        """Graphviz DOT rendering."""
        return self.renderer().to_dot()
