"""Version and configuration management (section 3.3.2, fig 3-4).

"The decision structure described in section 3.2 can be exploited for
this kind of version and configuration management:

- Allowable multi-level configurations of world/system models, designs,
  and implementations are those which are interrelated by mapping
  decisions (vertical configuration by means of equivalences).
- Allowable one-level (sub)configurations must be consistent, as
  documented by refinement decisions inside a (sub)configuration and
  mapping decisions on coherent higher-level objects (horizontal
  configuration by means of component configuration).
- Versioning rests upon choice decisions.  An alternative version is
  created each time an object is refined or mapped alternatively
  [...]  In this way, version and configuration management come as a
  natural by-product of the decision-based documentation approach."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import VersionError
from repro.core.metamodel import level_of
from repro.decisions.ledger import LedgerRecord, version_base


@dataclass
class Configuration:
    """A derived configuration: one level projected from the history."""

    level: str
    objects: List[str]
    complete: bool
    missing: List[str] = field(default_factory=list)
    consistent: bool = True
    issues: List[str] = field(default_factory=list)

    def __repr__(self) -> str:
        flags = []
        if self.complete:
            flags.append("complete")
        if self.consistent:
            flags.append("consistent")
        return (
            f"Configuration({self.level}, {len(self.objects)} object(s), "
            f"{' '.join(flags) or 'INVALID'})"
        )


@dataclass(frozen=True)
class VersionNode:
    """A version of a design object, created by one decision."""

    name: str
    base: str
    decision: Optional[str]
    tick: int
    active: bool


class VersionManager:
    """Derives versions and configurations from the decision history."""

    def __init__(self, gkbms) -> None:
        self.gkbms = gkbms

    # ------------------------------------------------------------------
    # Versions (choice decisions)
    # ------------------------------------------------------------------

    def base_of(self, name: str) -> str:
        """Strip the ``~tick`` version suffix."""
        return version_base(name)

    def versions_of(self, base: str) -> List[VersionNode]:
        """All documented versions of a design object, oldest first.

        The plain name is version zero; each ``base~tick`` object
        created by a revising (choice) decision is a further version.
        A version is *active* when its creating decision still stands
        (and for the base: when no active revision supersedes it).
        """
        return self._versions(self.gkbms.ledger.version_entries(), base)

    def _versions(self, grouped: Dict[str, List[Tuple[str, LedgerRecord]]],
                  base: str) -> List[VersionNode]:
        """:meth:`versions_of` over the ledger's version grouping."""
        proc = self.gkbms.processor
        entries = grouped.get(base, [])
        revisions = [(name, record) for name, record in entries
                     if name != base]
        exists = proc.exists(base)
        if not exists and not revisions:
            raise VersionError(f"unknown design object {base!r}")
        nodes: List[VersionNode] = []
        if exists:
            creators = [record for name, record in entries if name == base]
            nodes.append(VersionNode(
                base, base, creators[0].did if creators else None,
                creators[0].tick if creators else 0,
                active=not any(record.is_active
                               for _name, record in revisions),
            ))
        for name, record in revisions:
            nodes.append(VersionNode(
                name, base, record.did, record.tick,
                active=record.is_active and proc.exists(name),
            ))
        nodes.sort(key=lambda n: n.tick)
        return nodes

    def current(self, base: str) -> str:
        """The active version of a design object."""
        nodes = [n for n in self.versions_of(base) if n.active]
        if not nodes:
            raise VersionError(f"no active version of {base!r}")
        return nodes[-1].name

    def alternatives(self, base: str) -> List[VersionNode]:
        """Versions created by *choice* decisions — the alternative
        implementations fig 3-4 draws as branching arrows."""
        out = []
        for node in self.versions_of(base):
            if node.decision is None:
                continue
            if self.gkbms.ledger.get(node.decision).kind == "choice":
                out.append(node)
        return out

    # ------------------------------------------------------------------
    # Configurations
    # ------------------------------------------------------------------

    def vertical_configuration(self, name: str) -> Dict[str, List[str]]:
        """The multi-level configuration ``name`` belongs to: objects
        per level reachable through mapping-decision equivalences."""
        proc = self.gkbms.processor
        ledger = self.gkbms.ledger
        reached: Set[str] = {name}
        frontier = [name]
        while frontier:
            current = frontier.pop()
            related: Set[str] = set()
            for record in ledger.producers_of(current):
                if record.is_active:
                    related |= set(record.inputs.values())
            for record in ledger.consumers_of(current):
                if record.is_active:
                    related |= set(record.outputs)
            for other in related - reached:
                reached.add(other)
                frontier.append(other)
        grouped: Dict[str, List[str]] = {}
        for obj in sorted(reached):
            grouped.setdefault(level_of(proc, obj), []).append(obj)
        grouped.pop("unknown", None)
        return grouped

    def configure(self, level: str = "implementation") -> Configuration:
        """"Configure the latest complete <level> version": project the
        derivation structure onto one level, excluding non-used
        versions, and check completeness and consistency."""
        grouped = self.gkbms.ledger.version_entries()
        active_objects = []
        for name in self.gkbms.navigator().status_view(level):
            # version tokens are bookkeeping, not components; the
            # *module-level* artefact keeps the base name and counts
            # while some version of it is active
            if "~" not in name and any(
                    node.active for node in self._versions(grouped, name)):
                active_objects.append(name)

        issues: List[str] = []
        missing: List[str] = []
        if level == "implementation":
            # completeness: every design object that was *ever* input to
            # a mapping decision must still be covered by an active one
            # (a backtracked mapping without replacement leaves a hole)
            ever_mapped: Set[str] = set()
            actively_mapped: Set[str] = set()
            for record in self.gkbms.ledger.records:
                if record.kind != "mapping":
                    continue
                ever_mapped |= set(record.inputs.values())
                if record.is_active:
                    actively_mapped |= set(record.inputs.values())
            missing.extend(ever_mapped - actively_mapped)
        open_obligations = self.gkbms.decisions.open_obligations()
        if open_obligations:
            issues.append(
                f"{len(open_obligations)} open proof obligation(s): "
                + ", ".join(o.name for o in open_obligations)
            )
        violated = self.gkbms.violated_assumptions()
        if violated:
            issues.append("violated assumption(s): " + ", ".join(violated))
        return Configuration(
            level=level,
            objects=active_objects,
            complete=not missing,
            missing=sorted(set(missing)),
            consistent=not issues,
            issues=issues,
        )

    # ------------------------------------------------------------------
    # The fig 3-4 lattice
    # ------------------------------------------------------------------

    def derivation_lattice(self) -> List[Tuple[str, str, str]]:
        """Edges (source, kind, target) of the decision-based
        version/configuration structure: ``mapping`` and ``refinement``
        edges connect objects through decisions; ``choice`` edges
        connect a base object to its alternative versions."""
        edges: List[Tuple[str, str, str]] = []
        for record in self.gkbms.ledger.records:
            kind = record.kind if record.kind != "other" else "decision"
            for source in record.inputs.values():
                for target in record.outputs:
                    edges.append((source, kind, target))
        return edges

    def render_lattice(self) -> str:
        """ASCII rendering of the derivation lattice."""
        from repro.models.display.graph_dag import GraphDAGRenderer

        renderer = GraphDAGRenderer()
        renderer.extend(self.derivation_lattice())
        return renderer.to_ascii()
