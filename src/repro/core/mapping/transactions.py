"""Transaction mapping: TaxisDL transaction classes to DBPL transactions.

The conceptual design holds *declarative* transaction classes
(parameters, pre- and postconditions); the implementation needs DBPL
transaction programs.  This assistant generates the skeletons: one
parameterised DBPL transaction per TaxisDL transaction class, with one
update operation per relation that implements a parameter's entity
class — including the detail relations produced by normalisation, so a
``SendInvitation(inv : Invitations)`` becomes inserts on both
``InvitationRel2`` and ``InvReceivRel``.

The scenario's key-substitution step notes that the change "also
implies adaption of the corresponding constructor, selector, and
possibly transaction definitions"; the generated operations record the
key fields they use in their detail text, and
:func:`adapt_transactions_to_key` rewrites them when a key decision
fires (wired into :mod:`repro.core.mapping.keys`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import DecisionError
from repro.languages.dbpl.ast import TransactionDecl, TransactionOp
from repro.languages.taxisdl.ast import TDLTransactionClass


def _relations_implementing(gkbms, entity_class: str) -> List[str]:
    """Current module relations that implement ``entity_class`` or one
    of its generalizations (normalisation splits count: both halves)."""
    proc = gkbms.processor
    accepted: List[str] = []
    targets = proc.generalizations(entity_class)
    for name in gkbms.module.relations:
        source = gkbms.mapped_from(name)
        if source is not None and source in targets:
            accepted.append(name)
        elif source is not None and entity_class in proc.generalizations(source):
            accepted.append(name)
    return accepted


def map_transaction_apply(gkbms, inputs: Dict[str, str],
                          params: Dict) -> Dict[str, List[str]]:
    """Generate a DBPL transaction for ``inputs['transaction']``."""
    txn_name = inputs["transaction"]
    design_txn: TDLTransactionClass | None = gkbms.design.transactions.get(
        txn_name
    )
    if design_txn is None:
        raise DecisionError(
            f"no transaction class {txn_name!r} in the current design"
        )
    operations: List[TransactionOp] = []
    for param_name, param_class in design_txn.parameters:
        relations = _relations_implementing(gkbms, param_class)
        if not relations:
            raise DecisionError(
                f"parameter {param_name!r} of {txn_name!r}: no relation "
                f"implements {param_class!r} yet — map the hierarchy first"
            )
        for relation in sorted(relations):
            decl = gkbms.module.relations[relation]
            detail = f"VALUES {param_name} KEY {', '.join(decl.key)}"
            operations.append(TransactionOp("insert", relation, detail))
    dbpl_name = params.get("name", f"T{txn_name}")
    decl = TransactionDecl(
        dbpl_name,
        parameters=list(design_txn.parameters),
        operations=operations,
    )
    gkbms.add_artifact(decl, kb_class="DBPL_Transaction",
                       mapped_from=txn_name)
    return {"program": [dbpl_name]}


def map_transaction_undo(gkbms, record) -> None:
    """Drop the generated transaction program from the module."""
    for name in record.outputs:
        gkbms.drop_artifact(name)


def adapt_transactions_to_key(gkbms, relation: str, drop: str,
                              new_key: Tuple[str, ...]) -> List[str]:
    """Rewrite transaction operations on ``relation`` whose detail text
    used the dropped key field; returns versioned artefact names."""
    revised: List[str] = []
    for txn in list(gkbms.module.transactions.values()):
        changed = False
        operations: List[TransactionOp] = []
        for op in txn.operations:
            if op.relation == relation and drop in op.detail:
                detail = op.detail.replace(drop, ", ".join(new_key))
                operations.append(TransactionOp(op.kind, op.relation, detail))
                changed = True
            else:
                operations.append(op)
        if changed:
            new_txn = TransactionDecl(txn.name, list(txn.parameters),
                                      operations)
            revised.append(gkbms.revise_artifact(txn.name, new_txn))
    return revised
