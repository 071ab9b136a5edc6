"""The normalisation assistant (fig 2-3, left side).

"InvitationType contains a set-valued attribute; a normalization
decision is therefore offered in the menu [...]  The new selector
expresses the referential integrity constraint among the two relations,
whereas the new constructor allows the reconstruction of the initial,
unnormalized invitation relation."

Given a relation with a ``SET OF T`` field, the assistant produces:

- a base relation (scenario: ``InvitationRel2``) without the set field;
- a detail relation (``InvReceivRel``) of (key, member) pairs;
- a referential-integrity selector (``InvitationsPaperIC``) from the
  detail back to the base;
- a constructor (``ConsInvitation``) joining the two back together.

The original unnormalised relation is retired from the current module
(but kept in the knowledge base as the decision's input); undo restores
it.
"""

from __future__ import annotations

from typing import Dict, List

from repro.decisions.ledger import version_base
from repro.errors import DecisionError
from repro.languages.dbpl.ast import (
    ConstructorDecl,
    Field,
    ForeignKey,
    Join,
    Project,
    RelationDecl,
    RelationRef,
    Rename,
    Select,
    SelectorDecl,
    Union,
)


def _replace_ref(expr, old: str, new: str):
    """Rewrite an algebra expression, renaming one base relation."""
    if isinstance(expr, RelationRef):
        return RelationRef(new) if expr.name == old else expr
    if isinstance(expr, Project):
        return Project(_replace_ref(expr.source, old, new), expr.columns)
    if isinstance(expr, Select):
        return Select(_replace_ref(expr.source, old, new), expr.equalities)
    if isinstance(expr, Rename):
        return Rename(_replace_ref(expr.source, old, new), expr.mapping)
    if isinstance(expr, Join):
        return Join(_replace_ref(expr.left, old, new),
                    _replace_ref(expr.right, old, new), expr.on)
    if isinstance(expr, Union):
        return Union(_replace_ref(expr.left, old, new),
                     _replace_ref(expr.right, old, new))
    return expr


def _set_fields(decl: RelationDecl) -> List[Field]:
    return [f for f in decl.fields if f.type_name.upper().startswith("SET OF ")]


def normalize_apply(gkbms, inputs: Dict[str, str], params: Dict) -> Dict[str, List[str]]:
    """Normalise ``inputs['relation']``; see module docstring."""
    original_name = inputs["relation"]
    decl = gkbms.module.relations.get(original_name)
    if decl is None:
        raise DecisionError(f"no relation {original_name!r} in the current module")
    set_fields = _set_fields(decl)
    if not set_fields:
        raise DecisionError(f"relation {original_name!r} has no set-valued field")
    if len(set_fields) > 1 and "field" not in params:
        raise DecisionError(
            f"relation {original_name!r} has several set-valued fields; "
            f"pass params['field']"
        )
    target_field = params.get("field", set_fields[0].name)
    set_field = next((f for f in decl.fields if f.name == target_field), None)
    if set_field is None or not set_field.type_name.upper().startswith("SET OF "):
        raise DecisionError(
            f"field {target_field!r} of {original_name!r} is not set-valued"
        )
    member_type = set_field.type_name[len("SET OF "):]

    base_name = params.get("base_name", f"{original_name}2")
    stem = original_name[:-3] if original_name.endswith("Rel") else original_name
    detail_name = params.get(
        "detail_name", f"{stem[:3]}{target_field[:6].capitalize()}Rel"
    )
    selector_name = params.get("selector_name", f"{stem}sPaperIC")
    constructor_name = params.get("constructor_name", f"Cons{stem}")

    base_decl = RelationDecl(
        base_name,
        [f for f in decl.fields if f.name != target_field],
        key=decl.key,
        of_type=decl.of_type,
    )
    detail_decl = RelationDecl(
        detail_name,
        [Field(part, decl.field_type(part)) for part in decl.key]
        + [Field(target_field, member_type)],
        key=tuple(decl.key) + (target_field,),
        of_type=decl.of_type,
    )
    selector_decl = SelectorDecl(
        selector_name,
        detail_name,
        ForeignKey(tuple(decl.key), base_name, tuple(decl.key)),
    )
    constructor_decl = ConstructorDecl(
        constructor_name,
        Join(RelationRef(base_name), RelationRef(detail_name), tuple(decl.key)),
    )

    gkbms.retire_artifact(original_name)
    mapped_from = gkbms.mapped_from(original_name)
    gkbms.add_artifact(base_decl, kb_class="NormalizedDBPL_Rel",
                       mapped_from=mapped_from)
    gkbms.add_artifact(detail_decl, kb_class="NormalizedDBPL_Rel",
                       mapped_from=mapped_from)
    gkbms.add_artifact(selector_decl, kb_class="DBPL_Selector",
                       mapped_from=mapped_from)
    gkbms.add_artifact(constructor_decl, kb_class="DBPL_Constructor",
                       mapped_from=mapped_from)

    # Constructors that read the retired relation are re-pointed to the
    # reconstruction view, so the module stays executable (e.g. the
    # move-down ConsPapers now projects over ConsInvitation).
    revised: List[str] = []
    for constructor in list(gkbms.module.constructors.values()):
        if constructor.name == constructor_name:
            continue
        if original_name in constructor.expression.relations():
            rewritten = _replace_ref(
                constructor.expression, original_name, constructor_name
            )
            revised.append(
                gkbms.revise_artifact(
                    constructor.name,
                    ConstructorDecl(constructor.name, rewritten),
                )
            )
    # Selectors referencing the retired relation (e.g. the isa selectors
    # a distribute mapping created) move to the key-preserving base
    # relation.
    for selector in list(gkbms.module.selectors.values()):
        if selector.name == selector_name:
            continue
        new_relation = (
            base_name if selector.relation == original_name
            else selector.relation
        )
        constraint = selector.constraint
        if isinstance(constraint, ForeignKey) and constraint.target == original_name:
            constraint = ForeignKey(
                constraint.columns, base_name, constraint.target_columns
            )
        if new_relation != selector.relation or constraint is not selector.constraint:
            revised.append(
                gkbms.revise_artifact(
                    selector.name,
                    SelectorDecl(selector.name, new_relation, constraint),
                )
            )
    return {
        "relations": [base_name, detail_name],
        "selector": [selector_name],
        "constructor": [constructor_name],
        "revised": revised,
    }


def normalize_undo(gkbms, record) -> None:
    """Drop the normalisation products, restore the original relation
    and un-revise the constructors that had been re-pointed."""
    for name in record.outputs:
        if "~" in name:
            gkbms.unrevise_artifact(version_base(name))
        else:
            gkbms.drop_artifact(name)
    gkbms.restore_artifact(record.inputs["relation"])
