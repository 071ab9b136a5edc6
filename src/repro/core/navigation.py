"""Navigation in decision histories (section 3.3.1).

"the GKBMS enables browsing along and arbitrary switching between
several dimensions:

- status-oriented, by browsing requirements, designs, implementations,
  and their interrelationships,
- process-oriented, by following mapping and refinement relationships
  and their causal ordering,
- temporal, by focusing on system versions and following the history of
  design objects and design decisions."

:class:`Navigator` provides the three dimensions over a GKBMS, plus the
interactive :meth:`browser` whose context menus combine applicable
decision classes (fig 2-6 matching) with the exploration directions
that are applicable to the current focus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.metamodel import LEVEL_OF_CLASS, level_of
from repro.models.interaction import Browser, MenuItem


@dataclass(frozen=True)
class HistoryEvent:
    """One event in an object's or the system's timeline."""

    tick: int
    kind: str  # created | used | retracted
    decision: str
    decision_class: str
    subject: str

    def __repr__(self) -> str:
        return f"t{self.tick}: {self.subject} {self.kind} by {self.decision}"


class Navigator:
    """Status / process / temporal browsing over the documentation."""

    def __init__(self, gkbms) -> None:
        self.gkbms = gkbms

    # ------------------------------------------------------------------
    # Status dimension
    # ------------------------------------------------------------------

    def levels(self) -> List[str]:
        """The life-cycle level names."""
        return sorted(set(LEVEL_OF_CLASS.values()))

    def status_view(self, level: str, at: Optional[object] = None) -> List[str]:
        """Design objects at a life-cycle level; with ``at`` given, the
        as-of view — only objects whose classification was valid at that
        tick (so the design *as it stood* at any point of the history
        can be browsed)."""
        proc = self.gkbms.processor
        roots = [root for root, lvl in LEVEL_OF_CLASS.items() if lvl == level]
        names: set = set()
        for root in roots:
            names |= proc.instances_of(root, at=at)
        return sorted(names)

    def interrelations(self, name: str) -> Dict[str, List[str]]:
        """Cross-level links of an object: what it implements and what
        implements it."""
        proc = self.gkbms.processor
        out = {"implements": [], "implemented_by": [], "revises": [],
               "revised_by": []}
        for prop in proc.attributes_of(name, label="implements"):
            out["implements"].append(prop.destination)
        for prop in proc.attributes_of(name, label="revises"):
            out["revises"].append(prop.destination)
        from repro.propositions.proposition import Pattern

        for prop in proc.store.retrieve(Pattern(label="implements",
                                                destination=name)):
            out["implemented_by"].append(prop.source)
        for prop in proc.store.retrieve(Pattern(label="revises",
                                                destination=name)):
            out["revised_by"].append(prop.source)
        return {k: sorted(v) for k, v in out.items()}

    # ------------------------------------------------------------------
    # Process dimension
    # ------------------------------------------------------------------

    def justification_of(self, name: str) -> Optional[str]:
        """The decision that produced (justifies) ``name``."""
        producers = self.gkbms.ledger.producers_of(name)
        active = [r for r in producers if r.is_active]
        chosen = active or producers
        return chosen[-1].did if chosen else None

    def causal_chain(self, name: str) -> List[Tuple[str, str]]:
        """(decision, object) pairs from ``name`` back to its origins —
        following mapping/refinement relationships against their causal
        ordering."""
        chain: List[Tuple[str, str]] = []
        seen = set()
        frontier = [name]
        while frontier:
            current = frontier.pop(0)
            did = self.justification_of(current)
            if did is None:
                continue
            record = self.gkbms.ledger.get(did)
            for value in record.inputs.values():
                pair = (did, value)
                if pair not in seen:
                    seen.add(pair)
                    chain.append(pair)
                    frontier.append(value)
        return chain

    def derived_from(self, name: str) -> List[str]:
        """Objects produced, directly or through further decisions, by
        the active decisions that used ``name``."""
        ledger = self.gkbms.ledger
        derived: Set[str] = set()
        frontier = [name]
        while frontier:
            for record in ledger.consumers_of(frontier.pop()):
                if not record.is_active:
                    continue
                for output in record.outputs:
                    if output not in derived:
                        derived.add(output)
                        frontier.append(output)
        return sorted(derived)

    # ------------------------------------------------------------------
    # Temporal dimension
    # ------------------------------------------------------------------

    def timeline(self) -> List[HistoryEvent]:
        """All documented events ordered by tick."""
        events: List[HistoryEvent] = []
        for record in self.gkbms.ledger.records:
            did = record.did
            for output in record.outputs:
                events.append(HistoryEvent(record.tick, "created", did,
                                           record.decision_class, output))
            for value in record.inputs.values():
                events.append(HistoryEvent(record.tick, "used", did,
                                           record.decision_class, value))
            if record.retracted_tick is not None:
                events.append(HistoryEvent(record.retracted_tick, "retracted",
                                           did, record.decision_class, did))
        events.sort(key=lambda e: (e.tick, e.decision, e.kind))
        return events

    def history_of(self, name: str) -> List[HistoryEvent]:
        """The history of one design object."""
        return [e for e in self.timeline() if e.subject == name]

    # ------------------------------------------------------------------
    # Interactive browsing (fig 2-1)
    # ------------------------------------------------------------------

    def menu_for(self, focus: str) -> List[MenuItem]:
        """Context menu: applicable decision classes (with their tools
        as submenus) plus the exploration directions."""
        items: List[MenuItem] = []
        for dc, _roles, tools in self.gkbms.decisions.applicable_decisions(focus):
            submenu = tuple(
                MenuItem(tool, action=self._tool_action(dc.name, focus, tool))
                for tool in tools
            )
            items.append(MenuItem(dc.name, submenu=submenu))
        explorations = [
            MenuItem("history", action=lambda f=focus: self.history_of(f)),
            MenuItem("causal chain", action=lambda f=focus: self.causal_chain(f)),
            MenuItem("interrelations",
                     action=lambda f=focus: self.interrelations(f)),
        ]
        items.append(MenuItem("explore", submenu=tuple(explorations)))
        return items

    def _tool_action(self, decision_class: str, focus: str, tool: str):
        def action():
            dc = self.gkbms.decisions.get(decision_class)
            roles = self.gkbms.decisions.matching_roles(dc, focus)
            if not roles:
                raise ValueError(f"{focus} no longer fits {decision_class}")
            return self.gkbms.execute(
                decision_class, {roles[0]: focus}, tool=tool
            )

        return action

    def browser(self) -> Browser:
        """An interactive browser with GKBMS menus."""
        return Browser(
            menu_provider=self.menu_for,
            exists=self.gkbms.processor.exists,
        )

    def level_of(self, name: str) -> str:
        """Life-cycle level of a design object."""
        return level_of(self.gkbms.processor, name)
