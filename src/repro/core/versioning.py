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
from repro.core.metamodel import LEVEL_OF_CLASS, level_of


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
        return name.split("~", 1)[0]

    def versions_of(self, base: str) -> List[VersionNode]:
        """All documented versions of a design object, oldest first.

        The plain name is version zero; each ``base~tick`` object
        created by a revising (choice) decision is a further version.
        A version is *active* when its creating decision still stands
        (and for the base: when no active revision supersedes it).
        """
        proc = self.gkbms.processor
        if not proc.exists(base) and not self._revisions(base):
            raise VersionError(f"unknown design object {base!r}")
        nodes: List[VersionNode] = []
        revisions = self._revisions(base)
        ledger = self.gkbms.ledger
        active_revisions = [
            (name, did, tick) for name, did, tick in revisions
            if did is None or ledger.get(did).is_active
        ]
        if proc.exists(base):
            creator = self._creator(base)
            base_tick = ledger.get(creator).tick if creator is not None else 0
            nodes.append(VersionNode(
                base, base, creator, base_tick,
                active=not active_revisions,
            ))
        for name, did, tick in revisions:
            active = (name, did, tick) in active_revisions and proc.exists(name)
            nodes.append(VersionNode(name, base, did, tick, active=active))
        nodes.sort(key=lambda n: n.tick)
        return nodes

    def _revisions(self, base: str) -> List[Tuple[str, Optional[str], int]]:
        out = []
        for record in self.gkbms.ledger.records:
            for name in record.outputs:
                if "~" in name and self.base_of(name) == base:
                    out.append((name, record.did, record.tick))
        return sorted(out, key=lambda item: item[2])

    def _creator(self, name: str) -> Optional[str]:
        producers = self.gkbms.decisions.producers_of(name)
        return producers[0].did if producers else None

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

    def _level_objects(self, level: str) -> List[str]:
        proc = self.gkbms.processor
        roots = [root for root, lvl in LEVEL_OF_CLASS.items() if lvl == level]
        names: Set[str] = set()
        for root in roots:
            names |= proc.instances_of(root)
        return sorted(names)

    def vertical_configuration(self, name: str) -> Dict[str, List[str]]:
        """The multi-level configuration ``name`` belongs to: objects
        per level reachable through mapping-decision equivalences."""
        proc = self.gkbms.processor
        reached: Set[str] = {name}
        frontier = [name]
        while frontier:
            current = frontier.pop()
            related: Set[str] = set()
            for record in self.gkbms.decisions.producers_of(current):
                if record.is_active:
                    related |= set(record.inputs.values())
            for record in self.gkbms.decisions.consumers_of(current):
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
        active_objects = []
        for name in self._level_objects(level):
            if "~" in name:
                continue  # version tokens are bookkeeping, not components
            try:
                self.current(name)  # raises when no version is active
            except VersionError:
                continue
            # the *module-level* artefact keeps the base name; include
            # it when some version of it is active
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
