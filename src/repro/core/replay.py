"""Decision replay / revision support (section 3.3).

"decision processing — besides pure backtracking of decisions, tool
specifications enable some kind of revision support; for instance,
adding an attribute in the design could be processed by the GKBMS by
replaying decisions (GKBMS tests their re-applicability)."

:class:`Replayer` takes retracted (or historical) decision records,
tests whether their decision class is still applicable in the *current*
state, and re-executes the applicable ones with the same tool, inputs
and parameters.  Decisions that are no longer applicable are reported,
not silently skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import DecisionError, NotApplicableError
from repro.core.decisions import DecisionEngine
from repro.decisions.ledger import LedgerRecord


@dataclass
class ReplayOutcome:
    """Result of attempting to replay one decision."""

    original: str
    status: str  # replayed | not_applicable | failed
    new_decision: Optional[str] = None
    reason: str = ""


@dataclass
class ReplayReport:
    """Aggregated outcomes of a replay run."""
    outcomes: List[ReplayOutcome] = field(default_factory=list)

    @property
    def replayed(self) -> List[ReplayOutcome]:
        """Outcomes that re-executed successfully."""
        return [o for o in self.outcomes if o.status == "replayed"]

    @property
    def rejected(self) -> List[ReplayOutcome]:
        """Outcomes that did not replay."""
        return [o for o in self.outcomes if o.status != "replayed"]


class Replayer:
    """Re-applies documented decisions after upstream changes."""

    def __init__(self, gkbms) -> None:
        self.gkbms = gkbms
        self.engine: DecisionEngine = gkbms.decisions

    def is_reapplicable(self, record: LedgerRecord) -> bool:
        """Would the decision's class accept its inputs right now?"""
        try:
            dc = self.engine.get(record.decision_class)
            self.engine.check_applicability(dc, record.inputs)
        except (DecisionError, NotApplicableError):
            return False
        return True

    def replay(self, record: LedgerRecord,
               params: Optional[Dict] = None) -> ReplayOutcome:
        """Re-execute one historical decision in the current state."""
        dc_name = record.decision_class
        try:
            dc = self.engine.get(dc_name)
            self.engine.check_applicability(dc, record.inputs)
        except (DecisionError, NotApplicableError) as exc:
            return ReplayOutcome(record.did, "not_applicable", reason=str(exc))
        if record.tool is None:
            return ReplayOutcome(
                record.did, "not_applicable",
                reason="manual decisions cannot be replayed automatically",
            )
        try:
            new_record = self.engine.execute(
                dc_name,
                dict(record.inputs),
                tool=record.tool,
                params=params if params is not None else dict(record.params),
                actor=f"replay({record.actor})",
                rationale=f"replay of {record.did}",
                assumptions=list(record.assumptions),
            )
        except Exception as exc:  # tool failure is a reportable outcome
            return ReplayOutcome(record.did, "failed", reason=str(exc))
        return ReplayOutcome(record.did, "replayed", new_decision=new_record.did)

    def replay_all(self, records: Sequence[LedgerRecord],
                   stop_on_failure: bool = False) -> ReplayReport:
        """Replay a sequence of decisions in order."""
        report = ReplayReport()
        for record in records:
            outcome = self.replay(record)
            report.outcomes.append(outcome)
            if stop_on_failure and outcome.status != "replayed":
                break
        return report

    def replay_retracted(self, since_tick: int = 0) -> ReplayReport:
        """Try to re-apply every retracted decision (oldest first)."""
        victims = [
            record for record in self.gkbms.ledger.records
            if not record.is_active and record.tick >= since_tick
        ]
        return self.replay_all(victims)
