"""The key-substitution assistant (fig 2-3 right side, fig 2-4).

"Observing that the system contains only invitations and no other
subclasses of papers, the developer decides to 'make the system more
user-friendly' by replacing the artificial paperkey attribute [...]
with date, author.  This change also implies adaption of the
corresponding constructor, selector, and possibly transaction
definitions."

The assistant rewrites the target relation to use an associative key
(dropping the surrogate field), then cascades: every selector that
referenced the relation through the dropped field is rewritten to the
new key, the detail relations those selectors guard are re-keyed, and
every constructor joining through the dropped field re-joins on the new
key.  The revised artefacts keep their DBPL names (as in the figures)
but become new *versions*: the knowledge base gets fresh versioned
design objects (``InvitationRel2~<tick>``) justified by the choice
decision, which is what makes fig 3-4's alternative-version lattice
fall out of the documentation.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.decisions.ledger import version_base
from repro.errors import DecisionError
from repro.languages.dbpl.ast import (
    ConstructorDecl,
    Field,
    ForeignKey,
    Join,
    Project,
    RelationDecl,
    Rename,
    Select,
    SelectorDecl,
    Union,
)


def _substitute_columns(columns: Tuple[str, ...], drop: str,
                        new_key: Tuple[str, ...]) -> Tuple[str, ...]:
    """Replace the dropped surrogate column by the associative key."""
    out = []
    for column in columns:
        if column == drop:
            out.extend(part for part in new_key if part not in out)
        elif column not in out:
            out.append(column)
    return tuple(out)


def _rewrite(expr, old_key: Tuple[str, ...], new_key: Tuple[str, ...],
             drop: str):
    """Adapt an algebra expression to the key substitution: joins on
    the old key re-join on the new one, projections over the dropped
    surrogate project the associative key instead."""
    if isinstance(expr, Join):
        on = new_key if drop in expr.on or tuple(expr.on) == old_key else expr.on
        return Join(
            _rewrite(expr.left, old_key, new_key, drop),
            _rewrite(expr.right, old_key, new_key, drop),
            tuple(on),
        )
    if isinstance(expr, Project):
        return Project(
            _rewrite(expr.source, old_key, new_key, drop),
            _substitute_columns(expr.columns, drop, new_key),
        )
    if isinstance(expr, Select):
        return Select(_rewrite(expr.source, old_key, new_key, drop),
                      expr.equalities)
    if isinstance(expr, Rename):
        return Rename(_rewrite(expr.source, old_key, new_key, drop),
                      expr.mapping)
    if isinstance(expr, Union):
        return Union(_rewrite(expr.left, old_key, new_key, drop),
                     _rewrite(expr.right, old_key, new_key, drop))
    return expr


def key_substitution_apply(gkbms, inputs: Dict[str, str], params: Dict) -> Dict[str, List[str]]:
    """Substitute the surrogate key of ``inputs['relation']`` by the
    associative key ``params['key']``."""
    relation = inputs["relation"]
    decl = gkbms.module.relations.get(relation)
    if decl is None:
        raise DecisionError(f"no relation {relation!r} in the current module")
    new_key = tuple(params["key"])
    drop = params.get("drop", decl.key[0] if len(decl.key) == 1 else None)
    if drop is None:
        raise DecisionError("params['drop'] required for composite surrogate keys")
    field_names = decl.field_names()
    missing = [part for part in new_key if part not in field_names]
    if missing:
        raise DecisionError(
            f"associative key component(s) {missing} are not fields of "
            f"{relation!r}"
        )
    old_key = tuple(decl.key)

    revised: List[str] = []

    # 1. the relation itself: drop the surrogate, re-key
    new_decl = RelationDecl(
        decl.name,
        [f for f in decl.fields if f.name != drop],
        key=new_key,
        of_type=decl.of_type,
    )
    revised.append(gkbms.revise_artifact(decl.name, new_decl))

    # 2. cascade to selectors referencing the relation through `drop`
    rekeyed_relations = [relation]
    key_types = {part: decl.field_type(part) for part in new_key}
    for selector in list(gkbms.module.selectors.values()):
        constraint = selector.constraint
        if not isinstance(constraint, ForeignKey):
            continue
        if constraint.target != relation or drop not in constraint.target_columns:
            continue
        detail = gkbms.module.relations.get(selector.relation)
        if detail is not None:
            detail_fields = [Field(part, key_types[part]) for part in new_key]
            detail_fields += [
                f for f in detail.fields if f.name not in (drop,) + new_key
            ]
            new_detail = RelationDecl(
                detail.name,
                detail_fields,
                key=new_key
                + tuple(f.name for f in detail.fields
                        if f.name in detail.key and f.name != drop),
                of_type=detail.of_type,
            )
            revised.append(gkbms.revise_artifact(detail.name, new_detail))
            rekeyed_relations.append(detail.name)
        new_selector = SelectorDecl(
            selector.name,
            selector.relation,
            ForeignKey(new_key, relation, new_key),
        )
        revised.append(gkbms.revise_artifact(selector.name, new_selector))

    # 3. cascade to constructors joining or projecting through `drop`
    for constructor in list(gkbms.module.constructors.values()):
        rewritten = _rewrite(constructor.expression, old_key, new_key, drop)
        if rewritten != constructor.expression:
            revised.append(
                gkbms.revise_artifact(
                    constructor.name, ConstructorDecl(constructor.name, rewritten)
                )
            )

    # 4. "...and possibly transaction definitions": adapt generated
    # transactions whose operations used the dropped key field — on the
    # target relation and on every re-keyed detail relation
    from repro.core.mapping.transactions import adapt_transactions_to_key

    for rekeyed in rekeyed_relations:
        revised.extend(
            adapt_transactions_to_key(gkbms, rekeyed, drop, new_key)
        )

    return {"revised": revised}


def key_substitution_undo(gkbms, record) -> None:
    """Restore every artefact revised by the key decision."""
    for name in record.output_roles.get("revised", []):
        gkbms.unrevise_artifact(version_base(name))
