"""The object transformer: frames to propositions and back (fig 3-2).

Telling the frame ::

    TELL Invitation IN TDL_EntityClass ISA Paper WITH
      attribute sender : Person
    END

creates exactly the proposition network of fig 3-2: the individual
``Invitation``, an ``instanceof`` link to ``TDL_EntityClass``, an
``isa`` link to ``Paper``, and an attribute link labelled ``sender`` to
``Person`` that is itself classified under the matching attribute class
(``attribute`` selects the predefined omega ``Attribute``; a category
like ``FROM`` selects the attribute metaclass instance of that label on
one of the object's classes — the instantiation principle at work).
"""

from __future__ import annotations

from typing import List

from repro.errors import PropositionError
from repro.objects.frame import AttributeDecl, ObjectFrame
from repro.propositions.processor import PropositionProcessor
from repro.propositions.proposition import Proposition
from repro.timecalc.interval import ALWAYS, Interval


class ObjectTransformer:
    """Bidirectional frame <-> proposition-set transformation."""

    def __init__(self, processor: PropositionProcessor) -> None:
        self.processor = processor

    # ------------------------------------------------------------------
    # frame -> propositions
    # ------------------------------------------------------------------

    def _find_attribute_class(self, owner: str, decl: AttributeDecl) -> str:
        """The attribute class ``decl`` instantiates.

        ``attribute`` (the default category) maps to the omega
        ``Attribute`` class unless one of the owner's classes declares an
        attribute class with the same *label*; any other category must
        name the label of an attribute class on one of the owner's
        classes (or be the pid of an attribute class)."""
        by_label = decl.category.lower() == "attribute"
        candidates = self.processor.attribute_classes_of(
            self.processor.classes_of(owner),
            decl.label if by_label else decl.category)
        if candidates:
            return candidates[0].pid
        if by_label:
            return "Attribute"
        if self.processor.exists(decl.category):
            return decl.category
        raise PropositionError(
            f"no attribute class for category {decl.category!r} on {owner!r}"
        )

    def tell(self, frame: ObjectFrame, time: Interval = ALWAYS) -> List[Proposition]:
        """Create the proposition set for ``frame``; returns it."""
        created: List[Proposition] = []
        proc = self.processor
        if not proc.exists(frame.name):
            created.append(proc.tell_individual(frame.name, time=time))
        for cls in frame.in_classes:
            created.append(proc.tell_instanceof(frame.name, cls, time=time))
        for sup in frame.isa:
            created.append(proc.tell_isa(frame.name, sup, time=time))
        for decl in frame.attributes:
            attr_class = self._find_attribute_class(frame.name, decl)
            link_pid = f"{frame.name}.{decl.label}"
            if proc.exists(link_pid):
                link_pid = proc.fresh_pid()
            created.append(
                proc.tell_link(
                    frame.name, decl.label, decl.target,
                    pid=link_pid, time=time, of_class=attr_class,
                )
            )
        return created

    # ------------------------------------------------------------------
    # propositions -> frame
    # ------------------------------------------------------------------

    def _category_of(self, link_pid: str) -> str:
        """Best human-readable category for an attribute link: the label
        of the most specific user attribute class it instantiates."""
        classes = self.processor.classification_of_link(link_pid)
        classes.discard("Attribute")
        classes.discard("Proposition")
        for pid in sorted(classes):
            try:
                prop = self.processor.get(pid)
            except Exception:
                continue
            if prop.is_link:
                return prop.label
        return "attribute"

    def ask(self, name: str) -> ObjectFrame:
        """Reconstruct the frame for object ``name`` from its
        propositions (the inverse of :meth:`tell`)."""
        proc = self.processor
        if not proc.exists(name):
            raise PropositionError(f"unknown object {name!r}")
        frame = ObjectFrame(name=name)
        from repro.propositions.proposition import Pattern

        for prop in sorted(
            proc.store.retrieve(Pattern(source=name)), key=lambda p: p.pid
        ):
            if prop.pid == name:
                continue
            if prop.is_instanceof:
                frame.in_classes.append(prop.destination)
            elif prop.is_isa:
                frame.isa.append(prop.destination)
            else:
                category = self._category_of(prop.pid)
                frame.attributes.append(
                    AttributeDecl(category, prop.label, prop.destination)
                )
        frame.in_classes.sort()
        frame.isa.sort()
        frame.attributes.sort(key=lambda d: (d.label, d.target))
        return frame

    def roundtrip_equal(self, frame: ObjectFrame) -> bool:
        """Does telling then asking reproduce the frame (up to order)?"""
        told = self.ask(frame.name)
        return (
            sorted(told.in_classes) == sorted(frame.in_classes)
            and sorted(told.isa) == sorted(frame.isa)
            and sorted((d.label, d.target) for d in told.attributes)
            == sorted((d.label, d.target) for d in frame.attributes)
        )
