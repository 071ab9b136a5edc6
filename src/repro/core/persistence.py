"""Persistence for the GKBMS documentation service.

"Ex post, it plays the role of a documentation service in which
development objects are related to the decisions and tools that
created or changed them."  A documentation service must outlive the
session: :func:`save_gkbms` captures the full state — the proposition
base (minus the reconstructible kernel), the decision history with
obligations and assumptions, the TaxisDL design, the DBPL module and
its retired artefact versions — as one JSON-able dict;
:func:`load_gkbms` restores it into a fresh GKBMS.

Tools are code, so the standard library is re-registered on load and
any *custom* tools/decision classes must be registered by the caller
before loading a history that references them.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, Optional

from repro.atomicio import FileIO, atomic_write_json, read_checked_json
from repro.errors import GKBMSError
from repro.core.decisions import Obligation
from repro.core.gkbms import GKBMS
from repro.decisions.ledger import DecisionLedger
from repro.languages.dbpl.ast import (
    ConstructorDecl,
    RelationDecl,
    SelectorDecl,
    TransactionDecl,
)
from repro.languages.dbpl.parser import parse_dbpl
from repro.languages.dbpl.printer import (
    print_constructor,
    print_relation,
    print_selector,
    print_transaction,
)
from repro.languages.taxisdl.parser import parse_taxisdl
from repro.languages.taxisdl.printer import print_model
from repro.propositions.serialization import dump_processor, load_processor

#: 2: decisions are :meth:`LedgerRecord.to_json` dicts plus a separate
#: obligation table.  A format-1 dump stored ``outputs`` as a
#: role -> names dict, which a ledger record would misread.
FORMAT_VERSION = 2


def _decl_to_text(decl) -> str:
    if isinstance(decl, RelationDecl):
        return print_relation(decl)
    if isinstance(decl, SelectorDecl):
        return print_selector(decl)
    if isinstance(decl, ConstructorDecl):
        return print_constructor(decl)
    if isinstance(decl, TransactionDecl):
        return print_transaction(decl)
    raise GKBMSError(f"unserialisable artefact {decl!r}")


def _decl_from_text(text: str):
    module = parse_dbpl(f"DATABASE MODULE Tmp;\n{text}\nEND Tmp.\n")
    names = module.names()
    if len(names) != 1:
        raise GKBMSError(f"expected one declaration, got {names}")
    return module.get(names[0])


def save_gkbms(gkbms: GKBMS) -> Dict[str, Any]:
    """Capture the full GKBMS state as a JSON-able dict."""
    return {
        "format": FORMAT_VERSION,
        "name": gkbms.name,
        "clock": gkbms.clock,
        "knowledge": dump_processor(gkbms.processor),
        "design": print_model(gkbms.design),
        "module": {
            name: _decl_to_text(gkbms.module.get(name))
            for name in gkbms.module.names()
        },
        "retired": {
            name: [_decl_to_text(decl) for decl in stack]
            for name, stack in gkbms._retired.items() if stack
        },
        "artifact_meta": {
            name: dict(meta) for name, meta in gkbms._artifact_meta.items()
        },
        "assumptions": dict(gkbms._assumptions),
        "decisions": [record.to_json() for record in gkbms.ledger.records],
        "obligations": [
            asdict(obligation)
            for obligation in gkbms.decisions.obligations.values()
        ],
    }


def load_gkbms(data: Dict[str, Any],
               gkbms: Optional[GKBMS] = None) -> GKBMS:
    """Restore a GKBMS from :func:`save_gkbms` output.

    Pass a pre-built ``gkbms`` when custom tools/decision classes must
    be registered first; otherwise a fresh one with the standard
    library is used.
    """
    if data.get("format") != FORMAT_VERSION:
        raise GKBMSError(f"unsupported dump format {data.get('format')!r}")
    if gkbms is None:
        gkbms = GKBMS(name=data.get("name", "gkbms"))
        gkbms.register_standard_library()
    load_processor(data["knowledge"], processor=gkbms.processor)
    if data.get("design"):
        parse_taxisdl(data["design"], model=gkbms.design)
    for text in data.get("module", {}).values():
        gkbms.module.add(_decl_from_text(text))
    for name, stack in data.get("retired", {}).items():
        gkbms._retired[name] = [_decl_from_text(text) for text in stack]
    gkbms._artifact_meta = {
        name: dict(meta)
        for name, meta in data.get("artifact_meta", {}).items()
    }
    gkbms._assumptions = dict(data.get("assumptions", {}))
    gkbms._clock = int(data.get("clock", 0))
    ledger = DecisionLedger.from_wire_log(data.get("decisions", []))
    for record in ledger.records:
        if record.decision_class not in gkbms.decisions.classes():
            raise GKBMSError(
                f"history references unregistered decision class "
                f"{record.decision_class!r}; register it before loading"
            )
    gkbms.ledger = ledger
    gkbms.decisions.obligations = {
        item["oid"]: Obligation(**item)
        for item in data.get("obligations", [])
    }
    return gkbms


STATE_KIND = "gkbms-state"


def save_to_file(gkbms: GKBMS, path: str, io: Optional[FileIO] = None) -> None:
    """Write :func:`save_gkbms` output atomically to a checksummed file.

    The state is serialised in memory first, written to a ``*.tmp``
    sibling, fsynced and only then renamed over ``path`` — so neither a
    serialisation error nor a crash mid-write can corrupt a previously
    saved history (the documentation-service guarantee).
    """
    atomic_write_json(path, STATE_KIND, save_gkbms(gkbms), io=io)


def load_from_file(path: str, gkbms: Optional[GKBMS] = None,
                   io: Optional[FileIO] = None) -> GKBMS:
    """Read a file written by :func:`save_to_file`.

    The envelope's kind, version and checksum are validated
    (:class:`~repro.errors.PersistenceError` on corruption); legacy
    files written before the envelope format load unchanged.
    """
    payload = read_checked_json(path, STATE_KIND, io=io, allow_legacy=True)
    return load_gkbms(payload, gkbms=gkbms)
