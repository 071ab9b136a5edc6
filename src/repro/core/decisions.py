"""Decision classes, applicability matching and documented execution.

This implements the core loop of fig 2-6:

1. "The class of a selected object is matched against the input classes
   of decision classes; by testing the other input objects and
   preconditions of these classes, possible decisions applicable to
   this object are determined."
2. "A tool is now applicable to the initial object if it can execute
   (i.e., is associated with) one of these decision classes, normally
   the most specific one."
3. After execution, a *decision instance* is created whose small-letter
   ``from`` / ``to`` / ``by`` links instantiate the class-level
   ``FROM`` / ``TO`` / ``BY`` links, and every produced design object
   gets a ``justification`` link back to the decision (fig 3-3).

Verification obligations (section 3.2): "only those parts of the
constraints not guaranteed by tool specifications have to be tested
[...] the 'proof' may be either formal or by 'signature' of the
decision maker."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import DecisionError, NotApplicableError, ObligationError
from repro.assertions.evaluator import Evaluator
from repro.assertions.parser import parse_assertion
from repro.core.tools import ToolRegistry, ToolSpec
from repro.decisions.ledger import LedgerRecord
from repro.propositions.processor import PropositionProcessor
from repro.timecalc.interval import Interval


@dataclass
class Obligation:
    """A verification obligation attached to an executed decision."""

    oid: str
    name: str
    decision_id: str
    assertion: Optional[str]  # None: only dischargeable by signature
    status: str = "open"  # open | guaranteed | signed | proved
    signer: Optional[str] = None

    @property
    def discharged(self) -> bool:
        """True once guaranteed, signed or proved."""
        return self.status != "open"


@dataclass(frozen=True)
class DecisionClass:
    """A class of design decisions (a task to be solved).

    ``inputs`` and ``outputs`` map role labels to design object class
    names; ``precondition`` / ``postcondition`` are assertion-language
    texts whose free variables are the role labels; ``obligations``
    maps obligation names to assertion texts (``None`` = signature
    only); ``tools`` names the registered tools that can execute the
    class; ``parts`` decomposes composite decisions (the PART links
    used for configuration control); ``isa`` places the class in the
    decision specialization hierarchy (``DecNormalize`` isa
    ``TDL_MappingDec`` in fig 3-3).
    """

    name: str
    description: str = ""
    inputs: Tuple[Tuple[str, str], ...] = ()
    outputs: Tuple[Tuple[str, str], ...] = ()
    precondition: Optional[str] = None
    postcondition: Optional[str] = None
    obligations: Tuple[Tuple[str, Optional[str]], ...] = ()
    tools: Tuple[str, ...] = ()
    parts: Tuple[str, ...] = ()
    isa: Tuple[str, ...] = ()
    #: 'mapping' (between levels), 'refinement' (within a level),
    #: 'choice' (creates an alternative version) or 'other' — the three
    #: decision kinds section 3.3.2 builds versioning/configuration on.
    kind: str = "other"

    def input_class(self, role: str) -> str:
        """The design object class of one input role."""
        for r, cls in self.inputs:
            if r == role:
                return cls
        raise DecisionError(f"decision class {self.name!r} has no input role {role!r}")

    def input_roles(self) -> List[str]:
        """The input role labels."""
        return [r for r, _cls in self.inputs]

    def output_roles(self) -> List[str]:
        """The output role labels."""
        return [r for r, _cls in self.outputs]


class DecisionEngine:
    """Registers decision classes, matches, executes, documents.

    Executed decisions are appended to the GKBMS's
    :class:`~repro.decisions.ledger.DecisionLedger`; the engine itself
    keeps only what a record must not carry: the mutable discharge
    status of each raised obligation, in :attr:`obligations`.
    """

    def __init__(self, gkbms) -> None:
        self.gkbms = gkbms
        self.processor: PropositionProcessor = gkbms.processor
        self.tools: ToolRegistry = gkbms.tools
        self._classes: Dict[str, DecisionClass] = {}
        #: oid -> obligation, for committed decisions only.
        self.obligations: Dict[str, Obligation] = {}

    # ------------------------------------------------------------------
    # Registration (builds the middle layer of fig 3-3)
    # ------------------------------------------------------------------

    def register(self, dc: DecisionClass) -> DecisionClass:
        """Register a decision class and reflect it into the base."""
        if dc.name in self._classes:
            raise DecisionError(f"duplicate decision class {dc.name!r}")
        for tool_name in dc.tools:
            if tool_name not in self.tools:
                raise DecisionError(
                    f"decision class {dc.name!r} names unregistered tool "
                    f"{tool_name!r}"
                )
        for parent in dc.isa:
            if parent not in self._classes:
                raise DecisionError(
                    f"decision class {dc.name!r} specialises unknown {parent!r}"
                )
        proc = self.processor
        proc.define_class(dc.name, level="SimpleClass", isa=dc.isa)
        proc.tell_instanceof(dc.name, "DesignDecision")
        for role, cls in dc.inputs:
            proc.tell_link(dc.name, role, cls, pid=f"{dc.name}.{role}",
                           of_class="FROM")
        for role, cls in dc.outputs:
            proc.tell_link(dc.name, role, cls, pid=f"{dc.name}.{role}",
                           of_class="TO")
            # class-level justification link: output class -> decision class
            proc.tell_link(cls, f"justified_by_{dc.name}", dc.name,
                           pid=f"{cls}.justified_by.{dc.name}",
                           of_class="JUSTIFICATION")
        for tool_name in dc.tools:
            proc.tell_link(dc.name, "supported_by", tool_name,
                           pid=f"{dc.name}.by.{tool_name}", of_class="BY")
        for part in dc.parts:
            if part in self._classes:
                proc.tell_link(dc.name, "part", part,
                               pid=f"{dc.name}.part.{part}", of_class="PART")
        self._classes[dc.name] = dc
        return dc

    def get(self, name: str) -> DecisionClass:
        """Look a decision class up by name."""
        try:
            return self._classes[name]
        except KeyError:
            raise DecisionError(f"unknown decision class {name!r}") from None

    def classes(self) -> List[str]:
        """Registered decision class names."""
        return list(self._classes)

    # ------------------------------------------------------------------
    # Applicability matching (fig 2-6, fig 2-1's menu)
    # ------------------------------------------------------------------

    def matching_roles(self, dc: DecisionClass, focus: str) -> List[str]:
        """Input roles of ``dc`` the focus object could fill."""
        return [
            role
            for role, cls in dc.inputs
            if self.processor.is_instance_of(focus, cls)
        ]

    def _specificity(self, dc: DecisionClass) -> int:
        """Depth in the decision specialization hierarchy (more
        generalizations = more specific)."""
        return len(self.processor.generalizations(dc.name, strict=True))

    def applicable_decisions(
        self, focus: str
    ) -> List[Tuple[DecisionClass, List[str], List[str]]]:
        """Decision classes applicable to ``focus``, most specific
        first, each with the roles the focus can fill and the tools
        that could execute it."""
        matches: List[Tuple[DecisionClass, List[str], List[str]]] = []
        for dc in self._classes.values():
            roles = self.matching_roles(dc, focus)
            if not roles:
                continue
            matches.append((dc, roles, list(dc.tools)))
        matches.sort(key=lambda m: (-self._specificity(m[0]), m[0].name))
        return matches

    def check_applicability(self, dc: DecisionClass, inputs: Dict[str, str]) -> None:
        """Raise :class:`NotApplicableError` unless ``inputs`` satisfy
        the decision class's roles and precondition."""
        for role, cls in dc.inputs:
            if role not in inputs:
                raise NotApplicableError(
                    f"{dc.name}: missing input role {role!r}"
                )
            value = inputs[role]
            if not self.processor.is_instance_of(value, cls):
                raise NotApplicableError(
                    f"{dc.name}: input {value!r} is no instance of {cls!r} "
                    f"(role {role!r})"
                )
        if dc.precondition:
            evaluator = Evaluator(self.processor)
            if not evaluator.evaluate(parse_assertion(dc.precondition), dict(inputs)):
                raise NotApplicableError(
                    f"{dc.name}: precondition {dc.precondition!r} fails "
                    f"for {inputs}"
                )

    # ------------------------------------------------------------------
    # Execution + documentation (bottom layer of fig 3-3)
    # ------------------------------------------------------------------

    def execute(
        self,
        decision_class: str,
        inputs: Dict[str, str],
        tool: Optional[str] = None,
        params: Optional[Dict] = None,
        outputs: Optional[Dict[str, List[str]]] = None,
        actor: str = "developer",
        rationale: str = "",
        assumptions: Sequence[str] = (),
    ) -> LedgerRecord:
        """Execute and document one design decision.

        With ``tool`` given, the tool's apply function performs the
        transformation; otherwise ``outputs`` must name the design
        objects the developer created manually (which must already be
        told to the knowledge base).
        """
        if self.processor.in_telling:  # its record would outlive a rollback
            raise DecisionError("a decision is its own transaction; commit "
                                "or abort the open telling first")
        dc = self.get(decision_class)
        self.check_applicability(dc, inputs)
        tool_spec: Optional[ToolSpec] = None
        if tool is not None:
            if tool not in dc.tools:
                raise DecisionError(
                    f"tool {tool!r} is not associated with decision class "
                    f"{dc.name!r}"
                )
            tool_spec = self.tools.get(tool)

        # A decision executes as a transaction (section 3.2: "the
        # decision instance defining a, possibly nested, transaction"):
        # the knowledge-base telling, the artefact stores and the clock
        # roll back together when the tool fails or the postcondition
        # does not hold, so a failed decision leaves no trace.  The tick
        # is still taken before the tool runs: tools name versions from
        # the clock.
        artefact_snapshot = self.gkbms.snapshot_artifacts()
        tick = self.gkbms.tick()
        did = f"dec{len(self.gkbms.ledger) + 1}"
        try:
            with self.processor.telling():
                if tool_spec is not None and tool_spec.apply is not None:
                    produced = tool_spec.apply(
                        self.gkbms, dict(inputs), dict(params or {})
                    )
                elif outputs is not None:
                    produced = {
                        role: list(names) for role, names in outputs.items()
                    }
                else:
                    raise DecisionError(
                        f"{dc.name}: manual execution requires explicit outputs"
                    )
                missing_roles = [
                    r for r in dc.output_roles() if r not in produced
                ]
                if missing_roles:
                    raise DecisionError(
                        f"{dc.name}: execution produced no output for "
                        f"role(s) {missing_roles}"
                    )

                record = LedgerRecord(
                    did=did,
                    tick=tick,
                    decision_class=dc.name,
                    kind=dc.kind,
                    tool=tool,
                    inputs=dict(inputs),
                    outputs=[name for names in produced.values()
                             for name in names],
                    rationale=rationale,
                    output_roles=produced,
                    params=dict(params or {}),
                    actor=actor,
                    assumptions=list(assumptions),
                )
                self._document(dc, record)
                raised = self._raise_obligations(dc, record, tool_spec)
                if dc.postcondition:
                    env = dict(inputs)
                    for role, names in produced.items():
                        if names:
                            env.setdefault(role, names[0])
                    evaluator = Evaluator(self.processor)
                    if not evaluator.evaluate(
                        parse_assertion(dc.postcondition), env
                    ):
                        raise DecisionError(
                            f"{dc.name}: postcondition "
                            f"{dc.postcondition!r} fails after execution "
                            f"of {did}"
                        )
        except Exception:
            self.gkbms.restore_artifacts(artefact_snapshot)
            raise
        self.gkbms.ledger.append(record)
        for obligation in raised:
            self.obligations[obligation.oid] = obligation
        return record

    def _document(self, dc: DecisionClass, record: LedgerRecord) -> None:
        proc = self.processor
        validity = Interval.since(record.tick)
        proc.tell_individual(record.did, in_class=dc.name, time=validity)
        for role, value in record.inputs.items():
            if any(r == role for r, _c in dc.inputs):
                proc.tell_link(record.did, role, value,
                               of_class=f"{dc.name}.{role}", time=validity)
        for role, names in record.output_roles.items():
            output_class = dict(dc.outputs).get(role)
            for name in names:
                if not proc.exists(name):
                    raise DecisionError(
                        f"{dc.name}: output {name!r} was never told to the "
                        f"knowledge base"
                    )
                if output_class is not None:
                    proc.tell_link(record.did, role, name,
                                   of_class=f"{dc.name}.{role}", time=validity)
                    proc.tell_link(
                        name, "justification", record.did,
                        of_class=f"{output_class}.justified_by.{dc.name}",
                        time=validity,
                    )
        if record.tool is not None:
            # document the tool *application* as a token of the tool
            # specification class, linked by a small-letter `by` link
            application = f"{record.did}.app"
            proc.tell_individual(application, in_class=record.tool,
                                 time=validity)
            proc.tell_link(record.did, "by", application,
                           of_class=f"{dc.name}.by.{record.tool}", time=validity)
        for assumption in record.assumptions:
            if not proc.exists(assumption):
                proc.tell_individual(assumption, in_class="Assumption")
            proc.tell_link(record.did, "assumes", assumption, time=validity)

    def _raise_obligations(self, dc: DecisionClass, record: LedgerRecord,
                           tool_spec: Optional[ToolSpec]) -> List[Obligation]:
        raised: List[Obligation] = []
        for name, assertion in dc.obligations:
            oid = f"obl{len(self.obligations) + len(raised) + 1}"
            obligation = Obligation(oid, name, record.did, assertion)
            if tool_spec is not None and tool_spec.guarantees_obligation(name):
                obligation.status = "guaranteed"
            else:
                self.processor.tell_individual(oid, in_class="ProofObligation")
                self.processor.tell_link(record.did, "obliges", oid)
            record.obligations.append(name)
            raised.append(obligation)
        return raised

    # ------------------------------------------------------------------
    # Obligation discharge
    # ------------------------------------------------------------------

    def _find_obligation(self, oid: str) -> Obligation:
        obligation = self.obligations.get(oid)
        if obligation is None:
            raise ObligationError(f"unknown obligation {oid!r}")
        return obligation

    def sign(self, oid: str, signer: str) -> Obligation:
        """Discharge by signature of the decision maker."""
        obligation = self._find_obligation(oid)
        if obligation.discharged:
            raise ObligationError(f"obligation {oid!r} already discharged")
        obligation.status = "signed"
        obligation.signer = signer
        return obligation

    def prove(self, oid: str) -> Obligation:
        """Discharge formally: evaluate the obligation's assertion."""
        obligation = self._find_obligation(oid)
        if obligation.discharged:
            raise ObligationError(f"obligation {oid!r} already discharged")
        if obligation.assertion is None:
            raise ObligationError(
                f"obligation {oid!r} has no formal assertion; use sign()"
            )
        record = self.gkbms.ledger.get(obligation.decision_id)
        env = dict(record.inputs)
        for role, names in record.output_roles.items():
            if names:
                env.setdefault(role, names[0])
        evaluator = Evaluator(self.processor)
        if not evaluator.evaluate(parse_assertion(obligation.assertion), env):
            raise ObligationError(
                f"obligation {oid!r}: assertion {obligation.assertion!r} "
                f"does not hold"
            )
        obligation.status = "proved"
        return obligation

    def obligations_of(self, did: str) -> List[Obligation]:
        """The obligations one decision raised, in raising order."""
        return [o for o in self.obligations.values() if o.decision_id == did]

    def open_obligations(self) -> List[Obligation]:
        """Open obligations of all active decisions."""
        ledger = self.gkbms.ledger
        return [
            o for o in self.obligations.values()
            if not o.discharged and ledger.get(o.decision_id).is_active
        ]
