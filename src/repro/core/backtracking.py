"""Selective backtracking of design decisions (section 2.1, fig 2-4).

"Therefore, the decision to choose associative keys must be retracted,
together with all its consequent changes, without redoing all the rest
of the design; supporting this consistent, selective backtracking is
the main purpose of introducing the explicit documentation of design
decisions and dependencies."

The algorithm: take the *consequent closure* of the target decision
from the :class:`~repro.decisions.graph.JustificationGraph` the GKBMS's
ledger maintains (later decisions consuming any object it produced,
transitively — the same function served backtracking uses), then undo
the closure newest-first.  Undoing a decision removes the design
objects it created from the knowledge base and (through the tool's undo
function) from the language-level artefact stores; the decision record
itself is kept, marked retracted — ex-post documentation survives, as
the paper's versioning story (fig 3-4) requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import BacktrackError
from repro.decisions.ledger import LedgerRecord


@dataclass
class BacktrackReport:
    """What a selective backtrack did."""

    target: str
    retracted_decisions: List[str] = field(default_factory=list)
    retracted_objects: List[str] = field(default_factory=list)
    surviving_decisions: List[str] = field(default_factory=list)

    def __repr__(self) -> str:
        return (
            f"BacktrackReport(target={self.target!r}, "
            f"decisions={self.retracted_decisions}, "
            f"objects={len(self.retracted_objects)} object(s))"
        )


class Backtracker:
    """Selective, consistent retraction of decisions + consequences."""

    def __init__(self, gkbms) -> None:
        self.gkbms = gkbms

    # ------------------------------------------------------------------

    def retract(self, did: str) -> BacktrackReport:
        """Selectively backtrack decision ``did`` and its consequents."""
        if self.gkbms.processor.in_telling:  # its marks would outlive a rollback
            raise BacktrackError("a backtrack is its own transaction; commit "
                                 "or abort the open telling first")
        ledger = self.gkbms.ledger
        target = ledger.by_did.get(did)
        if target is None:
            raise BacktrackError(f"unknown decision {did!r}")
        if not target.is_active:
            raise BacktrackError(f"decision {did!r} is already retracted")
        condemned = ledger.graph.consequents(did)
        condemned.add(did)
        # newest first, so inputs of earlier condemned decisions still
        # exist while their consumers are being undone
        victims = sorted((ledger.by_did[d] for d in condemned),
                         key=lambda r: r.tick, reverse=True)
        report = BacktrackReport(target=did)
        # The whole backtrack is one transaction, exactly like executing
        # a decision (section 3.2): every victim's tool undo, the
        # retraction of its produced objects and the status flips
        # commit or roll back together.  A tool undo that mutates
        # halfway and then raises must not leave a half-backtracked
        # base behind records still marked "done".
        artefact_snapshot = self.gkbms.snapshot_artifacts()
        retracted: List[Tuple[str, int]] = []
        try:
            with self.gkbms.processor.telling():
                for victim in victims:
                    retracted.append((victim.did, self.gkbms.tick()))
                    report.retracted_objects.extend(self._undo(victim))
        except Exception:
            self.gkbms.restore_artifacts(artefact_snapshot)
            raise
        for victim_did, tick in retracted:
            ledger.mark_retracted(victim_did, tick)
        report.retracted_decisions = [d for d, _tick in reversed(retracted)]
        report.surviving_decisions = [r.did for r in ledger.active()]
        return report

    def _undo(self, record: LedgerRecord) -> List[str]:
        """Undo one decision inside the backtrack's telling; returns
        the proposition ids retracted from the knowledge base."""
        tool = self.gkbms.tools.get(record.tool) if record.tool else None
        if tool is not None and tool.undo is not None:
            tool.undo(self.gkbms, record)
        else:
            self._default_undo(record)
        proc = self.gkbms.processor
        retracted_pids: List[str] = []
        for name in record.outputs:
            if proc.exists(name):
                retracted_pids.extend(p.pid for p in proc.retract(name))
        if proc.exists(record.did):
            proc.tell_instanceof(record.did, "RetractedDecision")
        return retracted_pids

    def _default_undo(self, record: LedgerRecord) -> None:
        """Remove produced artefacts from the language-level stores."""
        module = getattr(self.gkbms, "module", None)
        if module is None:
            return
        for name in record.outputs:
            try:
                module.remove(name)
            except Exception:
                pass  # not a module-level artefact

    # ------------------------------------------------------------------

    def retract_for_assumption(self, assumption: str) -> List[BacktrackReport]:
        """Backtrack every active decision resting on ``assumption`` —
        the fig 2-4 situation: mapping Minutes invalidates the 'only
        invitations are papers' assumption behind the key decision."""
        ledger = self.gkbms.ledger
        victims = [
            record.did
            for record in ledger.active()
            if assumption in record.assumptions
        ]
        if not victims:
            raise BacktrackError(
                f"no active decision rests on assumption {assumption!r}"
            )
        reports = []
        for did in victims:
            if ledger.get(did).is_active:
                reports.append(self.retract(did))
        return reports
