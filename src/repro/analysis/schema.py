"""Schema and frame lint for the object transformer.

Checks the structural half of the model before (or after) it reaches
the proposition base: isa cycles in the specialization graph, frames
classifying into or specialising undefined classes, attribute categories
that resolve to no attribute class (the lookup
:meth:`~repro.objects.transformer.ObjectTransformer._find_attribute_class`
would reject at tell time), and dangling attribute targets.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.analysis.diagnostics import Diagnostic, SourceSpan, make
from repro.objects.frame import ObjectFrame
from repro.propositions.processor import PropositionProcessor
from repro.propositions.proposition import ISA, Pattern


def _isa_cycles(processor: PropositionProcessor) -> List[List[str]]:
    """Cycles in the stored specialization graph, each reported once."""
    edges: dict = {}
    for prop in processor.store.retrieve(Pattern(label=ISA)):
        if prop.is_link:
            edges.setdefault(prop.source, set()).add(prop.destination)
    cycles: List[List[str]] = []
    seen_cycles: Set[frozenset] = set()
    state: dict = {}  # 0 visiting, 1 done

    def visit(node: str, path: List[str]) -> None:
        state[node] = 0
        path.append(node)
        for succ in sorted(edges.get(node, ())):
            if succ not in state:
                visit(succ, path)
            elif state[succ] == 0:
                cycle = path[path.index(succ):]
                key = frozenset(cycle)
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    cycles.append(list(cycle))
        path.pop()
        state[node] = 1

    for node in sorted(edges):
        if node not in state:
            visit(node, [])
    return cycles


def check_processor(processor: PropositionProcessor) -> List[Diagnostic]:
    """Lint an already-populated proposition base."""
    out: List[Diagnostic] = []
    for cycle in _isa_cycles(processor):
        loop = " isa ".join(cycle + cycle[:1])
        out.append(
            make(
                "CML030",
                f"specialization cycle: {loop}",
                subject=cycle[0],
                hint="remove one isa link to restore a partial order",
            )
        )
    for prop in processor.store:
        if not prop.is_link:
            continue
        if prop.is_instanceof and not processor.exists(prop.destination):
            out.append(
                make(
                    "CML031",
                    f"{prop.source!r} is declared an instance of undefined "
                    f"class {prop.destination!r}",
                    subject=prop.source,
                )
            )
        elif prop.is_isa and not processor.exists(prop.destination):
            out.append(
                make(
                    "CML034",
                    f"{prop.source!r} specialises undefined class "
                    f"{prop.destination!r}",
                    subject=prop.source,
                )
            )
        elif (not prop.is_instanceof and not prop.is_isa
              and not prop.is_individual
              and not processor.exists(prop.destination)):
            out.append(
                make(
                    "CML033",
                    f"attribute {prop.label!r} of {prop.source!r} targets "
                    f"undefined {prop.destination!r}",
                    subject=prop.source,
                )
            )
    return out


def _category_resolvable(
    processor: PropositionProcessor, frame: ObjectFrame, category: str
) -> bool:
    """Would the object transformer find an attribute class for
    ``category`` on this frame's owner?  Mirrors
    ``ObjectTransformer._find_attribute_class`` without mutating."""
    if category.lower() == "attribute":
        return True
    classes: Set[str] = set(frame.in_classes)
    if processor.exists(frame.name):
        classes |= processor.classes_of(frame.name)
    return bool(processor.attribute_classes_of(classes, category)) \
        or processor.exists(category)


def check_frame(
    frame: ObjectFrame, processor: PropositionProcessor
) -> List[Diagnostic]:
    """Pre-tell lint of one frame against the current base."""
    span = SourceSpan(text=frame.render())
    out: List[Diagnostic] = []
    for cls in frame.in_classes:
        if not processor.exists(cls):
            out.append(
                make(
                    "CML031",
                    f"frame classifies {frame.name!r} into undefined class "
                    f"{cls!r}",
                    subject=frame.name,
                    span=span,
                    hint="TELL the class first",
                )
            )
    for sup in frame.isa:
        if not processor.exists(sup):
            out.append(
                make(
                    "CML034",
                    f"frame specialises undefined class {sup!r}",
                    subject=frame.name,
                    span=span,
                    hint="TELL the generalization first",
                )
            )
    for decl in frame.attributes:
        if not _category_resolvable(processor, frame, decl.category):
            out.append(
                make(
                    "CML032",
                    f"attribute category {decl.category!r} (label "
                    f"{decl.label!r}) resolves to no attribute class on "
                    f"{frame.name!r}",
                    subject=frame.name,
                    span=span,
                    hint="declare the attribute class on one of the "
                         "object's classes, or use 'attribute'",
                )
            )
        if (not processor.exists(decl.target)
                and decl.target != frame.name
                and decl.target not in frame.in_classes):
            out.append(
                make(
                    "CML033",
                    f"attribute {decl.label!r} targets undefined "
                    f"{decl.target!r}",
                    subject=frame.name,
                    span=span,
                )
            )
    return out


def check_frames(
    frames: List[ObjectFrame], processor: Optional[PropositionProcessor] = None
) -> List[Diagnostic]:
    """Lint a frame script in order, simulating definition effects.

    Each frame sees the names introduced by earlier frames (so forward
    references inside one script are only flagged when never defined).
    """
    proc = processor if processor is not None else PropositionProcessor()
    defined: Set[str] = set()
    out: List[Diagnostic] = []

    def exists(name: str) -> bool:
        return name in defined or proc.exists(name)

    # Two passes: collect all names first so order inside a script does
    # not matter (the object processor tells scripts atomically).
    for frame in frames:
        defined.add(frame.name)
    for frame in frames:
        span = SourceSpan(text=frame.render())
        for cls in frame.in_classes:
            if not exists(cls):
                out.append(
                    make("CML031",
                         f"frame classifies {frame.name!r} into undefined "
                         f"class {cls!r}",
                         subject=frame.name, span=span,
                         hint="TELL the class first"))
        for sup in frame.isa:
            if not exists(sup):
                out.append(
                    make("CML034",
                         f"frame specialises undefined class {sup!r}",
                         subject=frame.name, span=span,
                         hint="TELL the generalization first"))
        for decl in frame.attributes:
            if decl.category.lower() != "attribute" and not exists(decl.category):
                resolvable = _category_resolvable(proc, frame, decl.category)
                if not resolvable:
                    out.append(
                        make("CML032",
                             f"attribute category {decl.category!r} (label "
                             f"{decl.label!r}) resolves to no attribute "
                             f"class on {frame.name!r}",
                             subject=frame.name, span=span))
            if not exists(decl.target):
                out.append(
                    make("CML033",
                         f"attribute {decl.label!r} targets undefined "
                         f"{decl.target!r}",
                         subject=frame.name, span=span))
    return out
