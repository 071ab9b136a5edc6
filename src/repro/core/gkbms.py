"""The GKBMS facade (S11): one object wiring the whole system together.

"Ex ante, the GKBMS can be seen as an integrative tool server which
helps users in selecting tasks and tools within a large development
project; ex post, it plays the role of a documentation service in which
development objects are related to the decisions and tools that created
or changed them (i.e., justify their current status)."  (section 1)

A :class:`GKBMS` owns:

- a ConceptBase kernel (proposition processor + object processor +
  rule engine + consistency checker) with the conceptual process model
  installed;
- the language-level artefact stores: the TaxisDL design
  (:attr:`design`), the DBPL module (:attr:`module`) and, on demand, an
  executable DBPL database (:meth:`build_database`);
- the decision machinery: tool registry, decision engine, selective
  backtracker, replayer — and the :class:`DecisionLedger` the engine
  documents every executed decision in;
- the derived services: dependency graphs, navigation, versioning &
  configuration, explanation — created lazily, all reading the same
  documentation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.errors import GKBMSError
from repro.assertions.evaluator import Evaluator
from repro.assertions.parser import parse_assertion
from repro.consistency.checker import ConsistencyChecker
from repro.core.backtracking import Backtracker
from repro.core.decisions import DecisionEngine
from repro.core.dependency import DependencyGraph
from repro.core.metamodel import install_gkbms_metamodel, level_of
from repro.core.replay import Replayer
from repro.core.tools import ToolRegistry
from repro.dbpl_engine.engine import Database
from repro.decisions.ledger import DecisionLedger
from repro.deduction.kb import RuleEngine
from repro.languages.dbpl.ast import DBPLModule
from repro.languages.taxisdl.ast import TDLModel
from repro.languages.taxisdl.parser import parse_taxisdl
from repro.objects.object_processor import ObjectProcessor
from repro.propositions.processor import PropositionProcessor
from repro.timecalc.interval import Interval


class GKBMS:
    """The Global Knowledge Base Management System."""

    def __init__(self, name: str = "gkbms",
                 processor: Optional[PropositionProcessor] = None) -> None:
        self.name = name
        self.processor = processor if processor is not None else PropositionProcessor()
        install_gkbms_metamodel(self.processor)
        self.objects = ObjectProcessor(self.processor)
        self.rules = RuleEngine(self.processor)
        self.consistency = ConsistencyChecker(self.processor)
        self.consistency.set_rule_source(self.rules.rules)
        self.tools = ToolRegistry(self.processor)
        self.ledger = DecisionLedger()
        self.decisions = DecisionEngine(self)
        self.backtracker = Backtracker(self)
        self.replayer = Replayer(self)

        self.design = TDLModel(f"{name}-design")
        self.module = DBPLModule(f"{name}-module")
        self._clock = 0
        self._artifact_meta: Dict[str, Dict[str, Optional[str]]] = {}
        self._retired: Dict[str, List[object]] = {}
        self._assumptions: Dict[str, Optional[str]] = {}

    # ------------------------------------------------------------------
    # Clock (the version/time dimension)
    # ------------------------------------------------------------------

    @property
    def clock(self) -> int:
        """The current version tick."""
        return self._clock

    def tick(self) -> int:
        """Advance and return the version clock."""
        self._clock += 1
        return self._clock

    # ------------------------------------------------------------------
    # Standard kernel knowledge
    # ------------------------------------------------------------------

    def register_standard_library(self) -> None:
        """Install the prototype's kernel tools and decision classes."""
        from repro.core.mapping.registry import (
            standard_decision_classes,
            standard_tools,
        )

        for tool in standard_tools():
            if tool.name not in self.tools:
                self.tools.register(tool)
        for dc in standard_decision_classes():
            if dc.name not in self.decisions.classes():
                self.decisions.register(dc)

    # ------------------------------------------------------------------
    # Design import (TaxisDL level)
    # ------------------------------------------------------------------

    def import_design(self, design: Union[str, TDLModel]) -> TDLModel:
        """Load a TaxisDL design and mirror it into the knowledge base
        as design objects (instances of ``TDL_EntityClass`` etc.)."""
        if isinstance(design, str):
            design = parse_taxisdl(design)
        proc = self.processor
        for cls in design.classes.values():
            if not proc.exists(cls.name):
                proc.tell_individual(cls.name, in_class="TDL_EntityClass")
            for sup in cls.isa:
                proc.tell_isa(cls.name, sup)
            self.design.add_class(cls)
        for txn in design.transactions.values():
            if not proc.exists(txn.name):
                proc.tell_individual(txn.name, in_class="TDL_TransactionClass")
            self.design.add_transaction(txn)
        for script in design.scripts.values():
            if not proc.exists(script.name):
                proc.tell_individual(script.name, in_class="TDL_Script")
            self.design.add_script(script)
        return self.design

    def extend_design(self, source: str) -> List[str]:
        """Add further TaxisDL blocks to the current design (the 'add
        Minutes later' move of the scenario)."""
        before_classes = set(self.design.classes)
        before_txns = set(self.design.transactions)
        parse_taxisdl(source, model=self.design)
        added: List[str] = []
        proc = self.processor
        for name in self.design.classes:
            if name in before_classes:
                continue
            cls = self.design.classes[name]
            if not proc.exists(name):
                proc.tell_individual(name, in_class="TDL_EntityClass")
            for sup in cls.isa:
                proc.tell_isa(name, sup)
            added.append(name)
        for name in self.design.transactions:
            if name not in before_txns:
                if not proc.exists(name):
                    proc.tell_individual(name, in_class="TDL_TransactionClass")
                added.append(name)
        return added

    # ------------------------------------------------------------------
    # Artefact management (DBPL level)
    # ------------------------------------------------------------------

    def add_artifact(self, decl, kb_class: str,
                     mapped_from: Optional[str] = None) -> str:
        """Register a DBPL declaration as a design object."""
        self.module.add(decl)
        validity = Interval.since(self._clock)
        if not self.processor.exists(decl.name):
            self.processor.tell_individual(decl.name, in_class=kb_class,
                                           time=validity)
        if mapped_from is not None and self.processor.exists(mapped_from):
            self.processor.tell_link(decl.name, "implements", mapped_from,
                                     time=validity)
        self._artifact_meta[decl.name] = {
            "kb_class": kb_class, "mapped_from": mapped_from,
        }
        return decl.name

    def drop_artifact(self, name: str) -> None:
        """Remove an artefact from the current module (KB retraction is
        the backtracker's business)."""
        try:
            self.module.remove(name)
        except Exception:
            pass

    def retire_artifact(self, name: str) -> None:
        """Take an artefact out of the current module, keeping it
        restorable (used when a decision replaces it)."""
        decl = self.module.get(name)
        self.module.remove(name)
        self._retired.setdefault(name, []).append(decl)

    def restore_artifact(self, name: str) -> None:
        """Put the latest retired version back into the module."""
        stack = self._retired.get(name)
        if not stack:
            raise GKBMSError(f"no retired version of artefact {name!r}")
        self.module.add(stack.pop())

    def revise_artifact(self, base: str, new_decl) -> str:
        """Replace ``base`` in the module by ``new_decl`` (same name)
        and document the revision as a versioned design object
        ``base~<tick>`` in the knowledge base."""
        old = self.module.get(base)
        self.module.remove(base)
        self._retired.setdefault(base, []).append(old)
        self.module.add(new_decl)
        versioned = f"{base}~{self._clock}"
        validity = Interval.since(self._clock)
        meta = self._artifact_meta.get(base, {})
        kb_class = meta.get("kb_class") or "DBPL_Object"
        if not self.processor.exists(versioned):
            self.processor.tell_individual(versioned, in_class=kb_class,
                                           time=validity)
            if self.processor.exists(base):
                self.processor.tell_link(versioned, "revises", base,
                                         time=validity)
        return versioned

    def unrevise_artifact(self, base: str) -> None:
        """Undo the latest revision of ``base`` in the module."""
        stack = self._retired.get(base)
        if not stack:
            raise GKBMSError(f"no earlier version of artefact {base!r}")
        self.module.remove(base)
        self.module.add(stack.pop())

    def snapshot_artifacts(self) -> Dict:
        """Copy the artefact-store state (module + retired stacks +
        metadata) and the version clock, so a failing decision can roll
        them back."""
        import copy

        return {
            "clock": self._clock,
            "relations": dict(self.module.relations),
            "selectors": dict(self.module.selectors),
            "constructors": dict(self.module.constructors),
            "transactions": dict(self.module.transactions),
            "retired": {k: list(v) for k, v in self._retired.items()},
            "meta": copy.deepcopy(self._artifact_meta),
        }

    def restore_artifacts(self, snapshot: Dict) -> None:
        """Restore a snapshot taken by :meth:`snapshot_artifacts`."""
        self._clock = snapshot["clock"]
        self.module.relations = dict(snapshot["relations"])
        self.module.selectors = dict(snapshot["selectors"])
        self.module.constructors = dict(snapshot["constructors"])
        self.module.transactions = dict(snapshot["transactions"])
        self._retired = {k: list(v) for k, v in snapshot["retired"].items()}
        self._artifact_meta = dict(snapshot["meta"])

    def mapped_from(self, name: str) -> Optional[str]:
        """The design object an artefact implements, if known."""
        return self._artifact_meta.get(name, {}).get("mapped_from")

    def artifact_kb_class(self, name: str) -> Optional[str]:
        """The design object class an artefact was told as."""
        return self._artifact_meta.get(name, {}).get("kb_class")

    # ------------------------------------------------------------------
    # Assumptions (the fig 2-4 mechanism)
    # ------------------------------------------------------------------

    def assume(self, name: str, assertion: Optional[str] = None) -> str:
        """Register a (checkable) assumption design decisions can rest
        on; pass its name in ``execute(..., assumptions=[name])``."""
        if not self.processor.exists(name):
            self.processor.tell_individual(name, in_class="Assumption")
        self._assumptions[name] = assertion
        return name

    def violated_assumptions(self, active_only: bool = True) -> List[str]:
        """Assumptions whose assertion no longer holds.

        With ``active_only`` (the default) an assumption only counts
        while some *active* decision rests on it — once the offending
        decision has been backtracked, the stale assumption no longer
        taints configurations.
        """
        evaluator = Evaluator(self.processor)
        resting: Dict[str, bool] = {}
        used_anywhere: Dict[str, bool] = {}
        for record in self.ledger.records:
            for assumption in record.assumptions:
                used_anywhere[assumption] = True
                if record.is_active:
                    resting[assumption] = True
        violated = []
        for name, assertion in self._assumptions.items():
            if assertion is None:
                continue
            if active_only and used_anywhere.get(name) and not resting.get(name):
                continue
            if not evaluator.evaluate(parse_assertion(assertion)):
                violated.append(name)
        return violated

    # ------------------------------------------------------------------
    # External sources (fig 2-5's bottom layer)
    # ------------------------------------------------------------------

    def register_source(self, design_object: str, reference: str) -> str:
        """Record that a design object abstracts an external source
        ("tokens of the GKBMS only represent characteristic features of
        sources recorded outside the GKB")."""
        if not self.processor.exists(design_object):
            raise GKBMSError(f"unknown design object {design_object!r}")
        token = f"src:{reference}"
        if not self.processor.exists(token):
            self.processor.tell_individual(token, in_class="ExternalSource")
        self.processor.tell_link(design_object, "source", token,
                                 of_class="SourceRef")
        return token

    # ------------------------------------------------------------------
    # Derived services
    # ------------------------------------------------------------------

    def dependency_graph(self, include_retracted: bool = False) -> DependencyGraph:
        """The derived dependency graph (figs 2-2..2-4)."""
        return DependencyGraph(self.ledger.records,
                               include_retracted=include_retracted)

    def build_database(self, populate: bool = True) -> Database:
        """An executable database for the current module state."""
        database = Database()
        for decl in self.module.relations.values():
            database.create_relation(decl)
        for decl in self.module.selectors.values():
            database.create_selector(decl)
        # constructors may reference each other regardless of their
        # declaration order: insert in dependency order
        pending = list(self.module.constructors.values())
        while pending:
            progressed = False
            for decl in list(pending):
                known = set(database.relations) | set(database.constructors)
                if set(decl.expression.relations()) <= known:
                    database.create_constructor(decl)
                    pending.remove(decl)
                    progressed = True
            if not progressed:
                # let the engine raise its descriptive error
                database.create_constructor(pending[0])
        return database

    def navigator(self):
        """Status/process/temporal browsing service."""
        from repro.core.navigation import Navigator

        return Navigator(self)

    def versions(self):
        """Version & configuration management service."""
        from repro.core.versioning import VersionManager

        return VersionManager(self)

    def explainer(self):
        """The design explanation facility."""
        from repro.core.explanation import Explainer

        return Explainer(self)

    def level_of(self, name: str) -> str:
        """Life-cycle level of a design object."""
        return level_of(self.processor, name)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def execute(self, decision_class: str, inputs: Dict[str, str], **kwargs):
        """Shorthand for :meth:`DecisionEngine.execute`."""
        return self.decisions.execute(decision_class, inputs, **kwargs)

    def code_frames(self) -> str:
        """The current implementation's code frames (figs 2-2 to 2-4)."""
        from repro.languages.dbpl.printer import print_module

        return print_module(self.module)
