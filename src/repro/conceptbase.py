"""The ConceptBase facade (fig 3-1).

One object exposing the whole conceptual model base management system:
the proposition processor (with axiom base and consistency checker),
the object processor (frames, deductive relational view, behaviours),
the inference engines (rules, prover, assertion evaluation) and the
model configuration/display level.  The GKBMS builds on the same
components; this facade makes the kernel adoptable on its own, e.g.::

    cb = ConceptBase()
    cb.define_metaclass("TDL_EntityClass")
    cb.tell('''
        TELL Invitation IN TDL_EntityClass WITH
          attribute sender : Person
        END
    ''')
    cb.add_rule("attr(?x, informed, ?y) :- attr(?x, sender, ?y).")
    cb.add_constraint("Invitation", "HasSender", "Known(self.sender)")
    cb.ask("exists i/Invitation (Known(i.sender))")
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import ReproError
from repro.analysis.analyzer import ModelAnalyzer
from repro.analysis.diagnostics import DiagnosticReport
from repro.assertions.ast import Quantifier
from repro.assertions.evaluator import Bindings, Evaluator
from repro.assertions.parser import parse_assertion
from repro.consistency.checker import ConsistencyChecker, Violation
from repro.deduction.kb import RuleEngine
from repro.deduction.parser import parse_literal
from repro.models.display.relational_display import RelationalDisplay
from repro.models.display.text_dag import TextDAGBrowser
from repro.obs.metrics import MetricsRegistry
from repro.objects.behaviours import BehaviourBase
from repro.objects.frame import ObjectFrame
from repro.objects.object_processor import ObjectProcessor
from repro.objects.relational import RelationalView
from repro.propositions.processor import PropositionProcessor
from repro.propositions.proposition import Proposition
from repro.propositions.store import PropositionStore
from repro.timecalc.interval import ALWAYS, Interval


class ConceptBase:
    """The conceptual model base management system, in one object."""

    def __init__(self, store: Optional[PropositionStore] = None,
                 strict: bool = False,
                 registry: Optional[MetricsRegistry] = None) -> None:
        #: One registry for the whole facade: each component writes its
        #: own namespace (proposition.*, deduction.*, consistency.*, …),
        #: so ``cb.registry.snapshot()`` is the full system census.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.propositions = PropositionProcessor(
            store=store, registry=self.registry
        )
        self.objects = ObjectProcessor(self.propositions)
        self.rules = RuleEngine(self.propositions, registry=self.registry)
        self.rules.install_hook()
        self.consistency = ConsistencyChecker(
            self.propositions, registry=self.registry
        )
        self.consistency.set_rule_source(self.rules.rules)
        self.behaviours = BehaviourBase(self.propositions)
        self.view = RelationalView(self.propositions)
        self._evaluator = Evaluator(self.propositions)
        #: Strict mode refuses to commit rules, constraints and frames
        #: that carry error-level static diagnostics.
        self.strict = strict

    def explain(self):
        """A :class:`~repro.obs.explain.QueryExplain` bound to this
        facade's registry."""
        from repro.obs.explain import QueryExplain

        return QueryExplain(self.registry)

    def metrics_snapshot(self, prefix: str = "") -> Dict[str, Any]:
        """Point-in-time values of every metric the facade owns."""
        return self.registry.snapshot(prefix)

    def reset_stats(self) -> None:
        """Zero every counter in the facade's registry."""
        self.registry.reset()

    # ------------------------------------------------------------------
    # Telling (object processor level)
    # ------------------------------------------------------------------

    def define_class(self, name: str, isa: Iterable[str] = (),
                     level: str = "SimpleClass") -> Proposition:
        """Create a class at an instantiation level, with generalizations."""
        return self.propositions.define_class(name, level=level, isa=isa)

    def define_metaclass(self, name: str) -> Proposition:
        """Create a metaclass (its instances are classes)."""
        return self.propositions.define_class(name, level="MetaClass")

    def tell(self, frames: Union[str, ObjectFrame],
             time: Interval = ALWAYS) -> List[Proposition]:
        """Tell one frame or a script of frames.

        In strict mode the frames are linted first and error-level
        diagnostics refuse the whole telling."""
        if self.strict:
            from repro.analysis.schema import check_frames
            from repro.objects.frame import parse_frames

            parsed = (parse_frames(frames) if isinstance(frames, str)
                      else [frames])
            report = DiagnosticReport()
            report.extend(check_frames(parsed, self.propositions))
            report.raise_if_errors()
        if isinstance(frames, str) and frames.count("TELL") > 1:
            return self.objects.tell_all(frames, time=time)
        return self.objects.tell(frames, time=time)

    def untell(self, name: str) -> List[Proposition]:
        """Retract an object and everything referencing it."""
        return self.objects.untell(name)

    def telling(self):
        """Batched update context (checked as one unit on commit when
        the consistency hook is installed)."""
        return self.propositions.telling()

    def transaction(self):
        """A savepoint-scoped update: nests freely (each level rolls
        back independently), and a consistency-check failure at commit
        (after :meth:`enforce_on_commit`) automatically rolls the whole
        unit back before the :class:`~repro.errors.ConsistencyError`
        propagates — unlike :meth:`telling`, which leaves the batch
        committed for the caller to repair.  With a durable store
        (:class:`~repro.propositions.wal.WalStore`), commit is also the
        durability boundary under the ``commit`` fsync policy."""
        return self.propositions.telling(rollback_on_listener_error=True)

    # ------------------------------------------------------------------
    # Asking
    # ------------------------------------------------------------------

    def ask_object(self, name: str) -> ObjectFrame:
        """The frame grouped around one object identifier."""
        return self.objects.ask(name)

    def ask(self, assertion: str, env: Optional[Bindings] = None) -> bool:
        """Evaluate a (closed or environment-bound) assertion."""
        return self._evaluator.evaluate(parse_assertion(assertion),
                                        env or {})

    def ask_all(self, assertion: str) -> List[Bindings]:
        """Witnesses of an ``exists``-quantified assertion."""
        expr = parse_assertion(assertion)
        if not isinstance(expr, Quantifier):
            raise ReproError("ask_all() requires an exists-quantified assertion")
        return list(self._evaluator.satisfying(expr))

    def query(self, literal: str) -> List[Tuple[Any, ...]]:
        """Answer a fact-level query (``attr(?x, sender, ?y)``) through
        the prover, rules included."""
        prover = self.rules.prover()
        return prover.answers(parse_literal(literal))

    def instances(self, cls: str, at: Optional[object] = None) -> List[str]:
        """The extent of a class; with ``at``, the as-of extent."""
        return sorted(self.propositions.instances_of(cls, at=at))

    # ------------------------------------------------------------------
    # Rules, constraints, behaviours
    # ------------------------------------------------------------------

    def add_rule(self, rule: str, name: Optional[str] = None,
                 attached_to: str = "Proposition") -> None:
        """Register a deduction rule (documented as a rule proposition).

        In strict mode the rule is first analyzed together with the
        already-registered rules; unsafe rules and recursion through
        negation refuse the commit with an
        :class:`~repro.errors.AnalysisError`."""
        if self.strict:
            analyzer = ModelAnalyzer(self.propositions)
            analyzer.add_rules(self.rules.rules().items())
            rule_name = name or f"rule_{len(self.rules.rules()) + 1}"
            if isinstance(rule, str):
                analyzer.add_rule_text(rule_name, rule)
            else:
                analyzer.add_rule(rule_name, rule)
            analyzer.analyze().raise_if_errors()
        self.rules.add_rule(rule, name=name, attached_to=attached_to)

    def add_constraint(self, cls: str, name: str, text: str) -> None:
        """Attach a first-order constraint to a class.

        In strict mode the constraint is statically checked first
        (unbound variables, undefined classes) and error diagnostics
        refuse the attachment."""
        if self.strict:
            analyzer = ModelAnalyzer(self.propositions)
            analyzer.add_constraint_text(name, cls, text)
            analyzer.analyze().raise_if_errors()
        self.consistency.attach_constraint(cls, name, text)

    def check(self) -> List[Violation]:
        """Check every attached constraint over its extent."""
        return self.consistency.check_all()

    def analyze(self, check_times: bool = False) -> DiagnosticReport:
        """Static analysis of the whole model: rule stratification and
        safety, constraint safety, schema lint and (optionally) validity
        containment — without evaluating anything against extents."""
        analyzer = ModelAnalyzer(self.propositions, check_times=check_times)
        analyzer.add_rules(self.rules.rules().items())
        analyzer.add_constraint_defs(self.consistency.constraints().values())
        return analyzer.analyze()

    def enforce_on_commit(self) -> None:
        """Reject inconsistent tellings at commit (set-oriented)."""
        self.consistency.install_hook()

    def define_behaviour(self, cls: str, name: str, fn) -> None:
        """Attach a behaviour (method) to a class."""
        self.behaviours.define(cls, name, fn)

    def invoke(self, name: str, behaviour: str, *args: Any) -> Any:
        """Run a behaviour on an object (most specific class wins)."""
        return self.behaviours.invoke(name, behaviour, *args)

    # ------------------------------------------------------------------
    # Display (model processor level)
    # ------------------------------------------------------------------

    def display(self, name: str) -> str:
        """The object's frame rendering (the ``display`` behaviour)."""
        return self.behaviours.invoke(name, "display")

    def relational_display(self, cls: str, **options) -> str:
        """Tabular rendering of a class relation (§3.3.1)."""
        return RelationalDisplay(self.view, **options).render(cls)

    def browse(self, focus: str, direction: str = "specializations",
               depth: int = 3) -> str:
        """A text-DAG rendering from ``focus`` along a closure."""
        proc = self.propositions

        def children(name: str) -> List[str]:
            if not proc.exists(name):
                return []
            if direction == "specializations":
                return sorted(proc.specializations(name, strict=True))
            if direction == "generalizations":
                return sorted(proc.generalizations(name, strict=True))
            if direction == "instances":
                return sorted(proc.instances_of(name, direct=True))
            raise ReproError(f"unknown browse direction {direction!r}")

        return TextDAGBrowser(children=children, depth=depth).render(focus)

    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, int]:
        """Census of the proposition base by proposition kind."""
        return self.propositions.summary()
