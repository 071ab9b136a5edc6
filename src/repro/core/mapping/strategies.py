"""Hierarchy-mapping strategies: move-down and distribute (section 2.1).

Both strategies map a TaxisDL generalization hierarchy to DBPL:

- **move-down** generates one relation per *leaf* class, carrying all
  inherited attributes plus an artificial surrogate key (``paperkey``
  in the scenario — "initially required to map the object-oriented
  TaxisDL model which does not have keys"); every non-leaf class
  becomes a constructor: the union of its leaves projected onto the
  non-leaf's attributes.
- **distribute** generates one relation per class carrying only its
  *own* attributes; subclass relations reference their superclass
  relation by key (selectors), and a constructor per class joins the
  chain back together.

Set-valued TaxisDL attributes are carried as ``SET OF T`` fields at
this stage — resolving them is the *normalisation* decision's job,
which is exactly the order of decisions in the paper's scenario.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import DecisionError
from repro.languages.dbpl.ast import (
    ConstructorDecl,
    Field,
    ForeignKey,
    Join,
    Project,
    RelationDecl,
    RelationRef,
    SelectorDecl,
    Union,
)
from repro.languages.taxisdl.ast import TDLAttribute, TDLModel


def relation_name_for(entity_class: str) -> str:
    """Default relation name: Invitations -> InvitationRel."""
    stem = entity_class[:-1] if entity_class.endswith("s") else entity_class
    return f"{stem}Rel"


def _field_for(attr: TDLAttribute) -> Field:
    type_name = f"SET OF {attr.target}" if attr.set_valued else attr.target
    return Field(attr.name, type_name)


def _project_columns(design: TDLModel, cls: str, key_attr: str) -> Tuple[str, ...]:
    return (key_attr,) + tuple(a.name for a in design.all_attributes(cls))


def _union_of(parts: List) -> object:
    expr = parts[0]
    for part in parts[1:]:
        expr = Union(expr, part)
    return expr


def move_down_apply(gkbms, inputs: Dict[str, str], params: Dict) -> Dict[str, List[str]]:
    """Map the hierarchy rooted at ``inputs['hierarchy']`` by move-down."""
    root = inputs["hierarchy"]
    design: TDLModel = gkbms.design
    key_attr = params.get("key_attr", "paperkey")
    only = params.get("only")  # restrict to these leaf classes
    leaves = design.leaves(root)
    if only is not None:
        leaves = [leaf for leaf in leaves if leaf in only]
    if not leaves:
        raise DecisionError(f"hierarchy {root!r} has no (selected) leaves to map")

    relations: List[str] = []
    constructors: List[str] = []
    for leaf in leaves:
        rel_name = params.get("names", {}).get(leaf, relation_name_for(leaf))
        fields = [Field(key_attr, "Surrogate")]
        fields += [_field_for(a) for a in design.all_attributes(leaf)]
        decl = RelationDecl(rel_name, fields, key=(key_attr,), of_type=leaf)
        gkbms.add_artifact(decl, kb_class="DBPL_Rel", mapped_from=leaf)
        relations.append(rel_name)

    # Non-leaf classes above the mapped leaves become constructors.
    non_leaves = [
        cls for cls in design.subclasses(root, strict=False)
        if cls not in leaves and set(design.subclasses(cls)) & set(leaves)
        or cls == root
    ]
    for cls in sorted(set(non_leaves)):
        if cls in leaves:
            continue
        covered = [leaf for leaf in leaves
                   if cls in design.superclasses(leaf, strict=False)]
        if not covered:
            continue
        columns = _project_columns(design, cls, key_attr)
        parts = [
            Project(RelationRef(params.get("names", {}).get(leaf, relation_name_for(leaf))), columns)
            for leaf in covered
        ]
        cons_name = params.get("names", {}).get(f"Cons{cls}", f"Cons{cls}")
        decl = ConstructorDecl(cons_name, _union_of(parts))
        gkbms.add_artifact(decl, kb_class="DBPL_Constructor", mapped_from=cls)
        constructors.append(cons_name)
    return {"relations": relations, "constructors": constructors}


def distribute_apply(gkbms, inputs: Dict[str, str], params: Dict) -> Dict[str, List[str]]:
    """Map the hierarchy rooted at ``inputs['hierarchy']`` by distribute."""
    root = inputs["hierarchy"]
    design: TDLModel = gkbms.design
    key_attr = params.get("key_attr", "paperkey")
    classes = sorted(design.subclasses(root, strict=False))

    relations: List[str] = []
    selectors: List[str] = []
    constructors: List[str] = []
    rel_names = {
        cls: params.get("names", {}).get(cls, relation_name_for(cls))
        for cls in classes
    }
    for cls in classes:
        own = design.get(cls).attributes
        fields = [Field(key_attr, "Surrogate")] + [_field_for(a) for a in own]
        decl = RelationDecl(rel_names[cls], fields, key=(key_attr,), of_type=cls)
        gkbms.add_artifact(decl, kb_class="DBPL_Rel", mapped_from=cls)
        relations.append(rel_names[cls])

    for cls in classes:
        for sup in design.get(cls).isa:
            if sup not in rel_names:
                continue
            name = f"{rel_names[cls]}IsA{sup}"
            decl = SelectorDecl(
                name,
                rel_names[cls],
                ForeignKey((key_attr,), rel_names[sup], (key_attr,)),
            )
            gkbms.add_artifact(decl, kb_class="DBPL_Selector", mapped_from=cls)
            selectors.append(name)

    for cls in classes:
        chain = [rel_names[cls]] + [
            rel_names[sup] for sup in design.superclasses(cls) if sup in rel_names
        ]
        if len(chain) < 2:
            continue
        expr: object = RelationRef(chain[0])
        for upper in chain[1:]:
            expr = Join(expr, RelationRef(upper), (key_attr,))
        cons_name = f"Full{cls}"
        gkbms.add_artifact(
            ConstructorDecl(cons_name, expr),
            kb_class="DBPL_Constructor", mapped_from=cls,
        )
        constructors.append(cons_name)
    return {
        "relations": relations,
        "selectors": selectors,
        "constructors": constructors,
    }


def mapping_undo(gkbms, record) -> None:
    """Undo a hierarchy mapping: drop the produced artefacts."""
    for name in record.outputs:
        gkbms.drop_artifact(name)
