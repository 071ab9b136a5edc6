"""CML form editor (section 3.3.1).

"This display is associated with a CML form editor, to interact with
the knowledge base and to work with CML code frames."

:class:`FormView` snapshots one object as editable fields;
:class:`FormEditor` applies the edited form back to the knowledge base
as a minimal diff (adds and retracts only what changed), which is the
form-based counterpart of the object transformer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.errors import PropositionError
from repro.objects.object_processor import ObjectProcessor


@dataclass
class FormView:
    """An editable snapshot of one object's attributes."""

    name: str
    in_classes: List[str]
    isa: List[str]
    fields: Dict[str, Set[str]]  # label -> value set

    def set_field(self, label: str, values: Set[str]) -> None:
        """Replace a field's value set."""
        self.fields[label] = set(values)

    def add_value(self, label: str, value: str) -> None:
        """Add one value to a field."""
        self.fields.setdefault(label, set()).add(value)

    def remove_value(self, label: str, value: str) -> None:
        """Remove one value from a field."""
        if label in self.fields:
            self.fields[label].discard(value)

    def render(self) -> str:
        """Plain-text form rendering."""
        lines = [f"== {self.name} =="]
        lines.append("in:  " + ", ".join(sorted(self.in_classes)))
        if self.isa:
            lines.append("isa: " + ", ".join(sorted(self.isa)))
        for label in sorted(self.fields):
            values = ", ".join(sorted(self.fields[label])) or "-"
            lines.append(f"{label:>12}: {values}")
        return "\n".join(lines)


class FormEditor:
    """Loads and saves form views against the knowledge base."""

    def __init__(self, objects: ObjectProcessor) -> None:
        self.objects = objects

    def load(self, name: str) -> FormView:
        """Snapshot an object into an editable form."""
        if not self.objects.exists(name):
            raise PropositionError(f"unknown object {name!r}")
        frame = self.objects.ask(name)
        fields: Dict[str, Set[str]] = {}
        for decl in frame.attributes:
            fields.setdefault(decl.label, set()).add(decl.target)
        return FormView(
            name=name,
            in_classes=list(frame.in_classes),
            isa=list(frame.isa),
            fields=fields,
        )

    def diff(self, form: FormView) -> Tuple[List[Tuple[str, str]], List[str]]:
        """(additions as (label, value), retractions as pids)."""
        proc = self.objects.propositions
        current: Dict[Tuple[str, str], str] = {}
        for prop in proc.attributes_of(form.name):
            current[(prop.label, prop.destination)] = prop.pid
        wanted: Set[Tuple[str, str]] = {
            (label, value)
            for label, values in form.fields.items()
            for value in values
        }
        additions = sorted(wanted - set(current))
        retractions = [current[key] for key in sorted(set(current) - wanted)]
        return additions, retractions

    def save(self, form: FormView) -> Dict[str, int]:
        """Apply the form as a minimal diff; returns change counts."""
        proc = self.objects.propositions
        additions, retractions = self.diff(form)
        for pid in retractions:
            proc.retract(pid)
        for label, value in additions:
            proc.tell_link(form.name, label, value)
        return {"added": len(additions), "retracted": len(retractions)}
