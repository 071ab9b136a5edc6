"""The design explanation facility (section 3.3.3).

"As an enhancement of the navigation facilities, the predicative
specifications of tool and decision classes together with ConceptBase
rules and constraints will be used to develop a design explanation
facility."

:class:`Explainer` composes textual explanations from the documented
decision structure: why a design object exists (its justifying
decision, the tool application, the inputs it was derived from, the
stated rationale and assumptions, the verification status), and the
full derivation trace back to the design/requirements level.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import GKBMSError


class Explainer:
    """Answers "why does this object exist / have this status?"."""

    def __init__(self, gkbms) -> None:
        self.gkbms = gkbms

    # ------------------------------------------------------------------

    def explain_object(self, name: str) -> str:
        """Why a design object exists: its justifying decisions."""
        proc = self.gkbms.processor
        if not proc.exists(name):
            raise GKBMSError(f"unknown design object {name!r}")
        lines: List[str] = []
        classes = sorted(
            cls for cls in proc.classes_of(name)
            if cls not in ("Proposition",)
        )
        level = self.gkbms.level_of(name)
        lines.append(f"{name} [{level}] in {', '.join(classes)}")
        producers = self.gkbms.ledger.producers_of(name)
        if not producers:
            lines.append("  told directly (no justifying decision recorded)")
        for record in producers:
            status = "" if record.is_active else " (RETRACTED)"
            lines.append(
                f"  justified by {record.did}{status}: "
                f"{record.decision_class} at t{record.tick}"
            )
            dc = self.gkbms.decisions.get(record.decision_class)
            if dc.description:
                lines.append(f"    task: {dc.description}")
            if record.tool:
                tool = self.gkbms.tools.get(record.tool)
                lines.append(
                    f"    by tool {record.tool} ({tool.automation}): "
                    f"{tool.description}"
                )
            else:
                lines.append(f"    executed manually by {record.actor}")
            for role, value in sorted(record.inputs.items()):
                lines.append(f"    from {role} = {value}")
            if record.rationale:
                lines.append(f"    rationale: {record.rationale}")
            for assumption in record.assumptions:
                marker = (
                    " [VIOLATED]"
                    if assumption in self.gkbms.violated_assumptions(active_only=False)
                    else ""
                )
                lines.append(f"    assumes {assumption}{marker}")
            for obligation in self.gkbms.decisions.obligations_of(record.did):
                detail = f" by {obligation.signer}" if obligation.signer else ""
                lines.append(
                    f"    obligation {obligation.name}: "
                    f"{obligation.status}{detail}"
                )
        return "\n".join(lines)

    def explain_decision(self, did: str) -> str:
        """One decision's task, I/O, tool and rationale."""
        record = self.gkbms.ledger.by_did.get(did)
        if record is None:
            raise GKBMSError(f"unknown decision {did!r}")
        dc = self.gkbms.decisions.get(record.decision_class)
        lines = [
            f"{did}: execution of decision class {dc.name} "
            f"({dc.kind}) at t{record.tick}"
            + ("" if record.is_active else " — RETRACTED"),
        ]
        if dc.description:
            lines.append(f"  task: {dc.description}")
        if dc.precondition:
            lines.append(f"  precondition: {dc.precondition}")
        for role, value in sorted(record.inputs.items()):
            lines.append(f"  from {role} = {value}")
        for role, names in sorted(record.output_roles.items()):
            for name in names:
                lines.append(f"  to {role} = {name}")
        if record.tool:
            lines.append(f"  by {record.tool}")
        if record.rationale:
            lines.append(f"  rationale: {record.rationale}")
        return "\n".join(lines)

    # ------------------------------------------------------------------

    def trace(self, name: str, _depth: int = 0, _seen: Optional[set] = None) -> str:
        """Full derivation trace from ``name`` back to underived
        objects (the design/world model the implementation rests on)."""
        seen = _seen if _seen is not None else set()
        indent = "  " * _depth
        if name in seen:
            return f"{indent}{name} (see above)"
        seen.add(name)
        lines = [f"{indent}{name}"]
        producers = self.gkbms.ledger.producers_of(name)
        active = [r for r in producers if r.is_active]
        if active:
            record = active[-1]
            lines.append(
                f"{indent}<- {record.did} ({record.decision_class}"
                + (f", {record.tool}" if record.tool else "")
                + ")"
            )
            for value in sorted(set(record.inputs.values())):
                lines.append(self.trace(value, _depth + 1, seen))
        return "\n".join(lines)

    def explain_constraint(self, checker, name: str,
                           instance: Optional[str] = None) -> str:
        """Trace a constraint's evaluation (§3.3.3: explanation through
        "ConceptBase rules and constraints").

        ``checker`` is the :class:`~repro.consistency.checker.
        ConsistencyChecker` holding the constraint; with ``instance``
        given, the per-instance form is traced for that object.
        """
        definition = checker.constraints().get(name)
        if definition is None:
            raise GKBMSError(f"unknown constraint {name!r}")
        env = {}
        if definition.per_instance:
            if instance is None:
                raise GKBMSError(
                    f"constraint {name!r} is per-instance; pass instance="
                )
            env = {"self": instance}
        header = (
            f"constraint {name} on {definition.attached_to}"
            + (f" for {instance}" if instance else "")
            + f": {definition.source}"
        )
        trace = checker.evaluator.explain(definition.expression, env)
        return header + "\n" + trace

    def explain_assumption(self, name: str) -> str:
        """Trace why an assumption holds or is violated right now."""
        assertion = self.gkbms._assumptions.get(name)
        if assertion is None:
            return f"assumption {name}: informal (no checkable assertion)"
        from repro.assertions.evaluator import Evaluator
        from repro.assertions.parser import parse_assertion

        evaluator = Evaluator(self.gkbms.processor)
        trace = evaluator.explain(parse_assertion(assertion))
        return f"assumption {name}: {assertion}\n{trace}"

    def why_retracted(self, did: str) -> str:
        """Explain a retraction in terms of assumptions and backtracking."""
        record = self.gkbms.ledger.by_did.get(did)
        if record is None:
            raise GKBMSError(f"unknown decision {did!r}")
        if record.is_active:
            return f"{did} stands (not retracted)"
        lines = [f"{did} was retracted at t{record.retracted_tick}"]
        violated = set(self.gkbms.violated_assumptions(active_only=False))
        for assumption in record.assumptions:
            if assumption in violated:
                lines.append(
                    f"  its assumption {assumption!r} no longer holds"
                )
        return "\n".join(lines)
