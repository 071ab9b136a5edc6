"""The proposition processor (S2).

Section 3.1: "The Proposition Processor enables the manipulation of
propositions according to the axioms of CML.  [Its interface] mainly
consists of the two operations retrieve_proposition(p) and
create_proposition(p) [...]  the proposition processor as a whole [...]
deals with stored, inherited and deduced propositions."

The processor wraps a pluggable :class:`~repro.propositions.store.
PropositionStore`, validates every create against the
:class:`~repro.propositions.axioms.AxiomBase`, computes class membership
and specialization closures (inherited propositions), and consults
registered deduction engines for deduced propositions.  Every mutation
bumps an *epoch* counter, the invalidation signal for lemma caches and
derived views further up the stack.

The closure queries (``generalizations``, ``classes_of``, ``is_class``,
...) are memoised in epoch-validated caches.  Invalidation is
fine-grained: two sub-epochs track isa links and instanceof links
separately, and plain attribute links touch no cache, so an
attribute-heavy telling keeps every closure warm while a taxonomy
change moves exactly the caches that could have changed.
``optimise=False`` bypasses the caches entirely (the ablation path
measured by benchmark Perf-6);
``stats`` counts hits, misses, invalidations and raw isa-BFS expansions
so speedups can be asserted structurally, like the prover's lemma
statistics.
"""

from __future__ import annotations

import heapq
import itertools
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Set,
    Tuple,
)

from repro.errors import PropositionError, UnknownPropositionError
from repro.obs.metrics import MetricsRegistry, StatsView
from repro.obs.tracing import get_tracer
from repro.propositions.axioms import AxiomBase, BOOTSTRAP, KERNEL_CLASSES, KERNEL_PIDS
from repro.propositions.proposition import (
    INSTANCEOF,
    ISA,
    Pattern,
    Proposition,
    individual,
    link,
)
from repro.propositions.store import MemoryStore, PropositionStore
from repro.timecalc.interval import ALWAYS, Interval

#: A deduction hook receives (processor, pattern) and yields propositions.
DeductionHook = Callable[["PropositionProcessor", Pattern], Iterable[Proposition]]


class Telling:
    """A batched update (the unit the consistency checker optimises over).

    Collects every mutation — creates, deletes (retractions) and
    validity clips — performed inside a ``with`` block; on error they
    are undone again in reverse order.  Tellings nest: an inner telling
    is a **savepoint** whose rollback undoes only its own mutations
    while the enclosing telling keeps going, and whose commit merges
    its batch into the parent.  Registered commit listeners (e.g. the
    consistency checker) fire once, at the outermost commit, seeing the
    whole batch at once — the paper's "set-oriented optimization of the
    consistency check".  Durable stores receive matching transaction
    markers (``begin``/``commit``/``abort`` at the outermost level,
    ``save``/``release``/``rollback`` for savepoints) so crash recovery
    can discard exactly the uncommitted suffix.
    """

    def __init__(self, processor: "PropositionProcessor",
                 rollback_on_listener_error: bool = False) -> None:
        self._processor = processor
        self.created: List[Proposition] = []
        #: Every mutation in order: ("create", prop) | ("delete", prop)
        #: | ("clip", old, new).
        self.ops: List[Tuple] = []
        self._active = False
        self._parent: Optional["Telling"] = None
        self._depth = 0
        self._rollback_on_listener_error = rollback_on_listener_error

    @property
    def depth(self) -> int:
        """Nesting depth while active (1 = outermost telling)."""
        return self._depth

    def __repr__(self) -> str:
        state = "active" if self._active else "closed"
        return (f"<Telling depth={self._depth} created={len(self.created)} "
                f"ops={len(self.ops)} {state}>")

    def __enter__(self) -> "Telling":
        self._processor._begin(self)
        self._active = True
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._active = False
        if exc_type is None:
            self._processor._commit(self)
            return False
        self._processor._rollback(self)
        return False

    def record(self, prop: Proposition) -> None:
        """Track a proposition created inside this telling."""
        if self._active:
            self.created.append(prop)
            self.ops.append(("create", prop))

    def record_delete(self, prop: Proposition) -> None:
        """Track a deletion, so rollback can restore the proposition."""
        if self._active:
            self.ops.append(("delete", prop))

    def record_clip(self, old: Proposition, new: Proposition) -> None:
        """Track a validity clip, so rollback can restore the interval."""
        if self._active:
            self.ops.append(("clip", old, new))

    def _merge_into(self, parent: "Telling") -> None:
        parent.created.extend(self.created)
        parent.ops.extend(self.ops)


class _ClosureCache:
    """One memo table validated against a stamp of epoch counters."""

    __slots__ = ("stamp", "table")

    def __init__(self) -> None:
        self.stamp: Optional[Tuple[int, ...]] = None
        self.table: Dict[Any, Any] = {}


class PinnedRead:
    """An epoch-pinned read: the snapshot-consistency witness.

    Entering records the processor's mutation epoch and the store's
    visibility epoch; exiting records whether both survived unchanged.
    A read whose :attr:`consistent` flag is ``False`` overlapped a
    mutation — a *torn read*.  The service layer runs every read under
    its reader/writer lock and asserts the flag, which is how the
    stress tests prove "every ask sees a consistent epoch" structurally
    instead of by hoping.
    """

    __slots__ = ("_processor", "epoch", "visibility", "consistent")

    def __init__(self, processor: "PropositionProcessor") -> None:
        self._processor = processor
        self.epoch: Optional[int] = None
        self.visibility: Optional[int] = None
        self.consistent: Optional[bool] = None

    def __enter__(self) -> "PinnedRead":
        self.epoch = self._processor._epoch
        self.visibility = self._processor.store.visibility_epoch
        self.consistent = None
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.consistent = (
            self._processor._epoch == self.epoch
            and self._processor.store.visibility_epoch == self.visibility
        )
        return False


class PropositionProcessor:
    """Create/retrieve propositions subject to the CML axiom base."""

    def __init__(
        self,
        store: Optional[PropositionStore] = None,
        axiom_base: Optional[AxiomBase] = None,
        bootstrap: bool = True,
        optimise: bool = True,
        incremental: bool = True,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if registry is None:
            registry = MetricsRegistry()
        self.store = store if store is not None else MemoryStore(registry=registry)
        self.axioms = axiom_base if axiom_base is not None else AxiomBase()
        self._ids = itertools.count(1)
        self._epoch = 0
        # Fine-grained invalidation signals: which *kind* of link changed.
        self._isa_epoch = 0
        self._instanceof_epoch = 0
        self._optimise = optimise
        # Delta-maintain closure caches on every change instead of
        # letting the moved sub-epoch invalidate them wholesale.
        self._incremental = incremental
        # Structural performance counters live in this instance's own
        # registry namespace — never a dict shared with (or adopted
        # from) the store, so two processors on one store count
        # independently.  The store's durability counters stay visible
        # through ``stats``, read-only.
        self.registry = registry
        self._metrics = self.registry.namespace("proposition")
        counter = self._metrics.counter
        self._c_closure_hits = counter("closure_hits")
        self._c_closure_misses = counter("closure_misses")
        self._c_closure_invalidations = counter("closure_invalidations")
        self._c_closure_delta_applied = counter("closure_delta_applied")
        self._c_closure_delta_evictions = counter("closure_delta_evictions")
        self._c_isa_expansions = counter("isa_expansions")
        self._c_tells = counter("tells")
        self._c_retracts = counter("retracts")
        self._c_clips = counter("clips")
        self._c_commits = counter("tellings_committed")
        self._c_rollbacks = counter("tellings_rolled_back")
        store_stats = getattr(self.store, "stats", None)
        readonly = (store_stats,) if isinstance(store_stats, Mapping) else ()
        #: Dict-compatible view: this processor's counters (writable)
        #: merged with the store's durability counters (read-only).
        self.stats: StatsView = StatsView(self._metrics, readonly=readonly)
        self._caches: Dict[str, _ClosureCache] = {
            family: _ClosureCache()
            for family in (
                "generalizations", "specializations", "classes_of",
                "instances_of", "is_class",
            )
        }
        self._tellings: List[Telling] = []
        self._commit_listeners: List[Callable[[List[Proposition]], None]] = []
        self._commit_validators: List[Callable[[List[Proposition]], None]] = []
        self._deduction_hooks: List[DeductionHook] = []
        if bootstrap:
            for prop in BOOTSTRAP:
                if prop.pid not in self.store:
                    self.store.create(prop)
            for prop in self.axioms.axiom_propositions():
                if prop.pid not in self.store:
                    self.store.create(prop)

    # ------------------------------------------------------------------
    # Epochs and transactions
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Monotone counter bumped on every mutation (cache invalidation)."""
        return self._epoch

    def reset_stats(self) -> None:
        """Zero this processor's own counters.  The read-only durability
        counters surfaced from the store are untouched — reset those on
        the store itself."""
        self.stats.reset()

    def _bump(self) -> None:
        self._epoch += 1

    def _note_change(self, prop: Proposition, op: str = "create") -> None:
        """Record which invalidation class a created/deleted/clipped
        proposition falls into.  Individuals never affect closures (the
        only membership they change, ``x in store``, is always checked
        live), and no cached family reads a plain attribute link, so
        only isa and instanceof links bump the fine-grained sub-epochs.
        The one exception: an individual *named* ``isa``/``instanceof``
        matches the reserved-label retrieval patterns, so it is
        classified by its label like a link would be.

        On the optimised incremental path the bumped sub-epoch no longer
        dooms the dependent closure caches: every cache that was valid
        immediately before the change has its stamp advanced *first*
        (so nested closure queries during maintenance stay hot) and its
        table then delta-updated in place from the single changed link —
        a BFS from the new edge on create, a targeted eviction /
        DRed-style shrink on delete.  Every mutation comes through here:
        tell, retract, clip, and each step of a rollback's undo.  The
        sub-epochs only move forward, so no memo is ever revalidated by
        a counter landing back on an old value.  Only caches that were
        already stale, and reserved-name individuals, fall back to the
        epoch-invalidation machinery."""
        if prop.is_individual:
            if prop.label == ISA:
                self._isa_epoch += 1
            elif prop.label == INSTANCEOF:
                self._instanceof_epoch += 1
            return
        if prop.is_isa:
            kind = "isa"
        elif prop.is_instanceof:
            kind = "instanceof"
        else:
            return
        incremental = self._optimise and self._incremental
        pre: Optional[Dict[str, Tuple[int, ...]]] = None
        if incremental:
            pre = {family: self._stamp(family) for family in self._caches}
        if kind == "isa":
            self._isa_epoch += 1
        else:
            self._instanceof_epoch += 1
        if not incremental:
            return
        assert pre is not None
        fresh: Set[str] = set()
        for family, cache in self._caches.items():
            post = self._stamp(family)
            if post == pre[family]:
                continue  # family independent of this link kind
            if cache.stamp == pre[family]:
                # Valid before the change: advance the stamp before any
                # table surgery, so closure queries issued *during*
                # maintenance revalidate instead of clearing the table
                # we are updating.
                cache.stamp = post
                fresh.add(family)
        if fresh:
            self._apply_closure_delta(kind, op, prop, fresh)

    # ------------------------------------------------------------------
    # Closure-cache delta maintenance
    # ------------------------------------------------------------------

    def _apply_closure_delta(self, kind: str, op: str,
                             prop: Proposition, fresh: Set[str]) -> None:
        """Fold one changed isa or instanceof link into every still-valid
        closure cache.

        ``fresh`` names the families whose stamps were just advanced;
        only their tables are touched.  Every family holds name sets, so
        tables are extended in place on tell and shrunk/evicted on
        retract.  ``instances_of`` is patched through the keys of the
        edge's destination and its generalizations, the only classes
        whose extension can see the edge, so its upkeep costs what the
        edge reaches rather than what the cache holds.  Clips keep every
        table: validity intervals are invisible to the name sets."""
        applied = 0
        evicted = 0
        source, destination = prop.source, prop.destination
        caches = self._caches
        if kind == "isa" and op == "create":
            if "generalizations" in fresh and caches["generalizations"].table:
                table = caches["generalizations"].table
                gain = {destination} | set(
                    self._isa_closure(destination, down=False)
                )
                for key, value in list(table.items()):
                    if key == source or source in value:
                        table[key] = frozenset((value | gain) - {key})
                        applied += 1
            if "specializations" in fresh and caches["specializations"].table:
                table = caches["specializations"].table
                gain = {source} | set(self._isa_closure(source, down=True))
                for key, value in list(table.items()):
                    if key == destination or destination in value:
                        table[key] = frozenset((value | gain) - {key})
                        applied += 1
            if "classes_of" in fresh and caches["classes_of"].table:
                table = caches["classes_of"].table
                if source == "Proposition":
                    # Every cached set contains the universal class, so
                    # membership no longer witnesses reachability.
                    evicted += len(table)
                    table.clear()
                else:
                    gain = {destination} | set(
                        self._isa_closure(destination, down=False)
                    )
                    for key, value in list(table.items()):
                        if source in value:
                            table[key] = frozenset(value | gain)
                            applied += 1
            if "instances_of" in fresh and caches["instances_of"].table:
                table = caches["instances_of"].table
                gain = self.instances_of(source)
                for cls in self.generalizations(destination):
                    value = table.get((cls, False))
                    if value is not None:
                        table[(cls, False)] = frozenset(value | gain)
                        applied += 1
            if "is_class" in fresh:
                evicted += self._drop_false_classhood()
        elif kind == "isa" and op == "delete":
            if "generalizations" in fresh and caches["generalizations"].table:
                table = caches["generalizations"].table
                for key, value in list(table.items()):
                    if (key == source or source in value) and destination in value:
                        del table[key]
                        evicted += 1
            if "specializations" in fresh and caches["specializations"].table:
                table = caches["specializations"].table
                for key, value in list(table.items()):
                    if (key == destination or destination in value) and source in value:
                        del table[key]
                        evicted += 1
            if "classes_of" in fresh and caches["classes_of"].table:
                table = caches["classes_of"].table
                for key, value in list(table.items()):
                    if source in value and destination in value:
                        del table[key]
                        evicted += 1
            if "instances_of" in fresh and caches["instances_of"].table:
                table = caches["instances_of"].table
                for cls in self.generalizations(destination):
                    if table.pop((cls, False), None) is not None:
                        evicted += 1
            if "is_class" in fresh and caches["is_class"].table:
                # Classhood can only flip off when the lost reachability
                # (the edge target and its ancestors) included one of the
                # class-defining kernel classes.
                lost = {destination} | self.generalizations(destination)
                if lost & {"Class", "Attribute", "MetaClass", "MetametaClass"}:
                    table = caches["is_class"].table
                    evicted += len(table)
                    table.clear()
        elif kind == "instanceof" and op == "create":
            if "classes_of" in fresh and caches["classes_of"].table:
                table = caches["classes_of"].table
                value = table.get(source)
                if value is not None:
                    gain = {destination} | set(
                        self._isa_closure(destination, down=False)
                    )
                    table[source] = frozenset(value | gain)
                    applied += 1
            if "instances_of" in fresh and caches["instances_of"].table:
                table = caches["instances_of"].table
                keys = [(destination, True)]
                keys.extend((cls, False) for cls in self.generalizations(destination))
                for key in keys:
                    value = table.get(key)
                    if value is not None:
                        table[key] = frozenset(value | {source})
                        applied += 1
            if "is_class" in fresh:
                evicted += self._drop_false_classhood()
        elif kind == "instanceof" and op == "delete":
            if "classes_of" in fresh and caches["classes_of"].table:
                if caches["classes_of"].table.pop(source, None) is not None:
                    evicted += 1
            if "instances_of" in fresh and caches["instances_of"].table:
                table = caches["instances_of"].table
                remaining = {
                    p.destination
                    for p in self.store.retrieve(
                        Pattern(source=source, label=INSTANCEOF)
                    )
                    if p.is_link
                }
                value = table.get((destination, True))
                if (value is not None and source in value
                        and destination not in remaining):
                    table[(destination, True)] = frozenset(value - {source})
                    applied += 1
                # ``source`` stays in the extension of every class some
                # surviving direct class specializes.
                kept: Set[str] = set()
                for cls in remaining:
                    kept |= self.generalizations(cls)
                for cls in self.generalizations(destination) - kept:
                    value = table.get((cls, False))
                    if value is not None and source in value:
                        table[(cls, False)] = frozenset(value - {source})
                        applied += 1
            if "is_class" in fresh and caches["is_class"].table:
                table = caches["is_class"].table
                if table.pop(source, None) is not None:
                    evicted += 1
                for meta in self.store.retrieve(
                    Pattern(label=INSTANCEOF, destination=source)
                ):
                    if table.pop(meta.source, None) is not None:
                        evicted += 1
        # isa/instanceof clips change validity intervals only, which the
        # name-set closures never read: stamps advanced, tables kept.
        if applied:
            self._c_closure_delta_applied.inc(applied)
        if evicted:
            self._c_closure_delta_evictions.inc(evicted)

    def _drop_false_classhood(self) -> int:
        """New isa/instanceof edges are monotone for classhood: cached
        ``True`` verdicts stay, cached ``False`` verdicts may flip."""
        table = self._caches["is_class"].table
        stale = [key for key, value in table.items() if not value]
        for key in stale:
            del table[key]
        return len(stale)

    # Which sub-epochs each closure family depends on.  All stamps fold
    # in the store's visibility epoch: workspace activation changes the
    # visible network without any create/delete passing through here.
    def _stamp(self, family: str) -> Tuple[int, ...]:
        visibility = self.store.visibility_epoch
        if family in ("generalizations", "specializations"):
            return (self._isa_epoch, visibility)
        # classes_of / instances_of / is_class: classification closed
        # over specialization.
        return (self._isa_epoch, self._instanceof_epoch, visibility)

    def _cached(self, family: str, key: Any, compute: Callable[[], Any]) -> Any:
        """Memoise ``compute()`` under ``key``, validated per stamp.

        A cache *miss* (and every call on the ``optimise=False``
        ablation path) runs the closure computation under a
        ``proposition.closure`` span, so a traced query shows exactly
        which closures went cold; hits only move the hit counter — a
        warm query trace is span-free at this level, which is how
        :class:`~repro.obs.explain.QueryExplain` tells cached from cold.
        """
        if not self._optimise:
            with get_tracer().span("proposition.closure", family=family,
                                   key=repr(key), cache="off"):
                return compute()
        cache = self._caches[family]
        stamp = self._stamp(family)
        if cache.stamp != stamp:
            if cache.table:
                self._c_closure_invalidations.inc()
                cache.table.clear()
            cache.stamp = stamp
        try:
            value = cache.table[key]
        except KeyError:
            self._c_closure_misses.inc()
            with get_tracer().span("proposition.closure", family=family,
                                   key=repr(key), cache="miss"):
                value = cache.table[key] = compute()
            return value
        self._c_closure_hits.inc()
        return value

    def telling(self, rollback_on_listener_error: bool = False) -> Telling:
        """Open a batched update; use as a context manager.

        Tellings nest freely: an inner telling acts as a savepoint —
        its rollback undoes only its own mutations.  With
        ``rollback_on_listener_error=True`` a commit-listener failure
        (e.g. the consistency checker's hook rejecting the batch) also
        rolls the whole telling back before the error propagates, which
        is the behaviour :meth:`repro.conceptbase.ConceptBase.transaction`
        exposes.
        """
        return Telling(self, rollback_on_listener_error=rollback_on_listener_error)

    @property
    def in_telling(self) -> bool:
        """Is a telling (at any nesting depth) currently open?"""
        return bool(self._tellings)

    def _begin(self, telling: Telling) -> None:
        telling._parent = self._tellings[-1] if self._tellings else None
        telling._depth = len(self._tellings) + 1
        self.store.txn("begin" if telling._parent is None else "save")
        self._tellings.append(telling)

    def _commit(self, telling: Telling) -> None:
        if not self._tellings or self._tellings[-1] is not telling:
            raise PropositionError("telling commit out of nesting order")
        self._tellings.pop()
        if telling._parent is not None:
            # Savepoint release: fold the batch into the enclosing
            # telling; listeners fire only at the outermost commit.
            telling._merge_into(telling._parent)
            self.store.txn("release")
            return
        try:
            # Validators first (stale-epoch / conflict rejection), then
            # listeners (the consistency checker): a conflicting commit
            # should be refused before any constraint work is spent.
            for validator in self._commit_validators:
                validator(list(telling.created))
            for listener in self._commit_listeners:
                listener(list(telling.created))
        except Exception:
            if telling._rollback_on_listener_error:
                self._undo(telling)
                self.store.txn("abort")
                self._c_rollbacks.inc()
                raise
            # Legacy telling() semantics: the batch stays committed and
            # the error surfaces to the caller, who may retract.  The
            # durable commit marker must reflect that.
            self.store.txn("commit")
            self._c_commits.inc()
            raise
        self.store.txn("commit")
        self._c_commits.inc()

    def _rollback(self, telling: Telling) -> None:
        if self._tellings and self._tellings[-1] is telling:
            self._tellings.pop()
        self._undo(telling)
        self.store.txn("abort" if telling._parent is None else "rollback")
        self._c_rollbacks.inc()

    def _undo(self, telling: Telling) -> None:
        """Physically reverse a telling's mutations, newest first.  Each
        reversal is one more change through :meth:`_note_change`, so the
        closure caches are patched exactly as for a tell, retract or
        clip: a rolled-back create is maintained as a delete, a
        rolled-back delete as a create, a rolled-back clip as a clip."""
        for op in reversed(telling.ops):
            kind = op[0]
            if kind == "create":
                prop = op[1]
                if prop.pid in self.store:
                    self.store.delete(prop.pid)
                    self._note_change(prop, op="delete")
            elif kind == "delete":
                prop = op[1]
                if prop.pid not in self.store:
                    self.store.create(prop)
                    self._note_change(prop)
            else:  # clip
                old = op[1]
                self.store.replace(old)
                self._note_change(old, op="clip")
        self._bump()

    def on_commit(self, listener: Callable[[List[Proposition]], None]) -> None:
        """Register a listener for committed tellings."""
        self._commit_listeners.append(listener)

    def add_commit_validator(
        self, validator: Callable[[List[Proposition]], None]
    ) -> None:
        """Register a commit *validator*: called at the outermost commit
        with the telling's created propositions, before any listener.
        Raising refuses the commit with the telling's error semantics
        (``rollback_on_listener_error=True`` tellings roll the whole
        batch back) — the hook the service layer's first-committer-wins
        validation plugs into."""
        self._commit_validators.append(validator)

    def read_transaction(self) -> PinnedRead:
        """An epoch-pinned read scope: ``with proc.read_transaction() as
        pin: ...`` then check ``pin.consistent`` — ``False`` means a
        mutation landed mid-read (a torn read)."""
        return PinnedRead(self)

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------

    def fresh_pid(self) -> str:
        """A proposition identifier not yet used in the base."""
        while True:
            pid = f"p{next(self._ids)}"
            if pid not in self.store:
                return pid

    def create_proposition(self, prop: Proposition) -> Proposition:
        """Validate ``prop`` against the axiom base and store it."""
        with get_tracer().span("proposition.tell", pid=prop.pid):
            self.axioms.validate(self, prop)
            self.store.create(prop)
            self._note_change(prop)
            self._bump()
            self._c_tells.inc()
            if self._tellings:
                self._tellings[-1].record(prop)
            return prop

    def tell_individual(
        self,
        name: str,
        in_class: Optional[str] = None,
        time: Interval = ALWAYS,
        belief_time: Interval = ALWAYS,
    ) -> Proposition:
        """Create a node, optionally classifying it into ``in_class``."""
        prop = self.create_proposition(
            individual(name, time=time, belief_time=belief_time)
        )
        if in_class is not None:
            self.tell_instanceof(name, in_class, time=time)
        return prop

    def tell_link(
        self,
        source: str,
        label: str,
        destination: str,
        pid: Optional[str] = None,
        time: Interval = ALWAYS,
        belief_time: Interval = ALWAYS,
        of_class: Optional[str] = None,
    ) -> Proposition:
        """Create a link; ``of_class`` additionally classifies it as an
        instance of the given attribute class (instantiation principle)."""
        prop = self.create_proposition(
            link(pid or self.fresh_pid(), source, label, destination,
                 time=time, belief_time=belief_time)
        )
        if of_class is not None:
            self.tell_instanceof(prop.pid, of_class, time=time)
        return prop

    def tell_instanceof(self, instance: str, cls: str,
                        time: Interval = ALWAYS) -> Proposition:
        """Assert a classification link."""
        return self.create_proposition(
            link(self.fresh_pid(), instance, INSTANCEOF, cls, time=time)
        )

    def tell_isa(self, sub: str, sup: str, time: Interval = ALWAYS) -> Proposition:
        """Assert a specialization link."""
        return self.create_proposition(
            link(self.fresh_pid(), sub, ISA, sup, time=time)
        )

    def define_class(
        self,
        name: str,
        level: str = "SimpleClass",
        isa: Iterable[str] = (),
        time: Interval = ALWAYS,
    ) -> Proposition:
        """Convenience: create a class at an instantiation level.

        ``level`` should be one of ``SimpleClass`` / ``MetaClass`` /
        ``MetametaClass`` (fig 2-5's abstraction levels).
        """
        prop = self.tell_individual(name, in_class=level, time=time)
        for sup in isa:
            self.tell_isa(name, sup, time=time)
        return prop

    # ------------------------------------------------------------------
    # Retraction
    # ------------------------------------------------------------------

    def dependents(self, pid: str) -> List[Proposition]:
        """Links that structurally reference ``pid`` (excluding itself)."""
        seen: Dict[str, Proposition] = {}
        for pattern in (Pattern(source=pid), Pattern(destination=pid)):
            for prop in self.store.retrieve(pattern):
                if prop.pid != pid:
                    seen[prop.pid] = prop
        return list(seen.values())

    def retract(self, pid: str, cascade: bool = True) -> List[Proposition]:
        """Remove a proposition; with ``cascade`` also every link that
        (transitively) references it.  Returns everything removed.

        One reverse-adjacency pass collects the dependent closure and the
        reference counts; deletion then drains leaves from a heap, so the
        whole cascade costs O(closure + edges) store operations instead
        of re-running ``dependents`` per member per round.
        """
        if pid in KERNEL_PIDS:
            raise PropositionError(f"kernel proposition {pid!r} cannot be retracted")
        if pid not in self.store:
            raise UnknownPropositionError(f"unknown proposition {pid!r}")
        with get_tracer().span("proposition.retract", pid=pid,
                               cascade=cascade) as span:
            removed = self._retract_closure(pid, cascade)
            span.set(removed=len(removed))
        self._c_retracts.inc()
        self._bump()
        return removed

    def _retract_closure(self, pid: str, cascade: bool) -> List[Proposition]:
        # Single pass: BFS over structural dependents, recording for each
        # member the set of closure members that reference it.
        closure: Set[str] = {pid}
        props: Dict[str, Proposition] = {pid: self.store.get(pid)}
        referenced_by: Dict[str, Set[str]] = {pid: set()}
        frontier = [pid]
        while frontier:
            current = frontier.pop()
            for dep in self.dependents(current):
                referenced_by[current].add(dep.pid)
                if dep.pid not in closure:
                    closure.add(dep.pid)
                    props[dep.pid] = dep
                    referenced_by[dep.pid] = set()
                    frontier.append(dep.pid)
        if len(closure) > 1 and not cascade:
            raise PropositionError(
                f"proposition {pid!r} still referenced by "
                f"{sorted(closure - {pid})}"
            )
        # Delete leaves first so referential integrity never breaks
        # mid-way; self-referencing links are deleted unconditionally,
        # and mutual-reference cycles are broken by force-deleting the
        # smallest remaining identifier (matching the previous policy).
        removed: List[Proposition] = []
        remaining = set(closure)
        ready = sorted(m for m in remaining if not referenced_by[m])
        heapq.heapify(ready)
        while remaining:
            if ready:
                current = heapq.heappop(ready)
                if current not in remaining:
                    continue
            else:
                current = min(remaining)
            prop = props[current]
            removed.append(self.store.delete(current))
            self._note_change(prop, op="delete")
            if self._tellings:
                self._tellings[-1].record_delete(prop)
            remaining.discard(current)
            for target in {prop.source, prop.destination}:
                refs = referenced_by.get(target)
                if refs is not None and current in refs:
                    refs.discard(current)
                    if not refs and target in remaining:
                        heapq.heappush(ready, target)
        return removed

    def clip_validity(self, pid: str, at) -> Proposition:
        """End a proposition's validity at time ``at`` instead of deleting
        it — the history-preserving retraction used for versioning."""
        prop = self.store.get(pid)
        clipped = prop.time.clip_end(at)
        if clipped is None:
            raise PropositionError(
                f"proposition {pid!r} was never valid before {at!r}"
            )
        updated = prop.with_time(clipped)
        self.replace_proposition(updated)
        return updated

    def replace_proposition(self, prop: Proposition) -> Proposition:
        """Swap the stored proposition with ``prop``'s pid for ``prop``
        and return the one it replaced.  The one clip path: it patches
        the closure caches through :meth:`_note_change` and records the
        clip in the open telling.  :meth:`clip_validity` ends an
        interval through it, and backtracking restores a clipped
        interval through it without invalidating warm closure caches."""
        old = self.store.get(prop.pid)
        with get_tracer().span("proposition.clip", pid=prop.pid):
            self.store.replace(prop)
            self._note_change(prop, op="clip")
            self._c_clips.inc()
            if self._tellings:
                self._tellings[-1].record_clip(old, prop)
            self._bump()
        return old

    # ------------------------------------------------------------------
    # Retrieval: stored, inherited, deduced
    # ------------------------------------------------------------------

    def add_deduction_hook(self, hook: DeductionHook) -> None:
        """Register a deduced-propositions source."""
        self._deduction_hooks.append(hook)

    def retrieve_proposition(
        self, pattern: Pattern, include_deduced: bool = True
    ) -> Iterator[Proposition]:
        """Stored propositions matching ``pattern`` plus, when requested,
        propositions deduced by registered rule engines."""
        seen: Set[str] = set()
        for prop in self.store.retrieve(pattern):
            seen.add(prop.pid)
            yield prop
        if include_deduced:
            for hook in self._deduction_hooks:
                for prop in hook(self, pattern):
                    if prop.pid not in seen and pattern.matches(prop):
                        seen.add(prop.pid)
                        yield prop

    def get(self, pid: str) -> Proposition:
        """Fetch a stored proposition by identifier."""
        return self.store.get(pid)

    def exists(self, pid: str) -> bool:
        """Is the identifier in the base?"""
        return pid in self.store

    # ------------------------------------------------------------------
    # Closures: specialization and classification
    # ------------------------------------------------------------------

    def _isa_closure(self, name: str, down: bool) -> frozenset:
        """The strict isa-closure of ``name`` (ancestors or descendants),
        memoised per isa-epoch.  ``name`` itself is never a member (isa
        BFS never revisits its origin), so strict/non-strict variants
        both derive from the same cached set."""

        def compute() -> frozenset:
            result: Set[str] = set()
            frontier = [name]
            expansions = 0
            while frontier:
                current = frontier.pop()
                expansions += 1
                if down:
                    pattern = Pattern(label=ISA, destination=current)
                else:
                    pattern = Pattern(source=current, label=ISA)
                for prop in self.store.retrieve(pattern):
                    neighbour = prop.source if down else prop.destination
                    if neighbour not in result and neighbour != name:
                        result.add(neighbour)
                        frontier.append(neighbour)
            self._c_isa_expansions.inc(expansions)
            return frozenset(result)

        family = "specializations" if down else "generalizations"
        return self._cached(family, name, compute)

    def generalizations(self, name: str, strict: bool = False) -> Set[str]:
        """All (transitive) isa-ancestors of ``name``."""
        result = set(self._isa_closure(name, down=False))
        if not strict:
            result.add(name)
        return result

    def specializations(self, name: str, strict: bool = False) -> Set[str]:
        """All (transitive) isa-descendants of ``name``."""
        result = set(self._isa_closure(name, down=True))
        if not strict:
            result.add(name)
        return result

    def classes_of(self, name: str) -> Set[str]:
        """Every class ``name`` belongs to, including via specialization
        of its explicit classes; always includes ``Proposition``."""

        def compute() -> frozenset:
            result: Set[str] = {"Proposition"}
            for prop in self.store.retrieve(Pattern(source=name, label=INSTANCEOF)):
                if prop.is_link:
                    result |= self.generalizations(prop.destination)
            return frozenset(result)

        return set(self._cached("classes_of", name, compute))

    def instances_of(self, cls: str, direct: bool = False,
                     at: Optional[object] = None) -> Set[str]:
        """The extension of ``cls``: explicit instances of it and of all
        its specializations (unless ``direct``).

        With ``at`` given, only classification links whose validity
        interval covers that time count — the as-of (time-travel) query
        the version intervals of section 3.1 enable.  As-of queries
        bypass the memo cache (their results also depend on validity
        clipping, which deliberately preserves the epoch-stamped caches).
        """

        def compute() -> frozenset:
            classes = {cls} if direct else self.specializations(cls)
            result: Set[str] = set()
            for c in classes:
                pattern = Pattern(label=INSTANCEOF, destination=c, at=at)
                for prop in self.store.retrieve(pattern):
                    if prop.is_link:
                        result.add(prop.source)
            return frozenset(result)

        if at is not None:
            return set(compute())
        return set(self._cached("instances_of", (cls, direct), compute))

    def is_instance_of(self, name: str, cls: str) -> bool:
        """Membership, closed over specialization."""
        if cls == "Proposition":
            return name in self.store
        if cls == "Class":
            return self.is_class(name)
        return cls in self.classes_of(name)

    def is_class(self, name: str) -> bool:
        """Classhood: kernel classes, instances of ``Class``, and
        attribute links (attribute classes implicitly have the
        instance-level links as instances — the instantiation principle
        makes every attribute proposition potentially classifiable)."""
        if name in KERNEL_CLASSES:
            return True

        def compute() -> bool:
            for prop in self.store.retrieve(Pattern(source=name, label=INSTANCEOF)):
                destination_closure = self.generalizations(prop.destination)
                if "Class" in destination_closure or "Attribute" in destination_closure:
                    return True
                # Instances of a metaclass are classes; instances of a
                # metametaclass are metaclasses, hence classes too.  And an
                # instance of an attribute metaclass (e.g. a FROM link on a
                # concrete decision class) is itself an attribute class.
                for meta in self.store.retrieve(
                    Pattern(source=prop.destination, label=INSTANCEOF)
                ):
                    meta_closure = self.generalizations(meta.destination)
                    if ("MetaClass" in meta_closure
                            or "MetametaClass" in meta_closure
                            or "Attribute" in meta_closure):
                        return True
            return False

        return self._cached("is_class", name, compute)

    # ------------------------------------------------------------------
    # Attributes (aggregation) with inheritance
    # ------------------------------------------------------------------

    def attributes_of(self, name: str, label: Optional[str] = None) -> List[Proposition]:
        """Explicit attribute links leaving ``name`` (reserved labels
        excluded)."""
        pattern = Pattern(source=name, label=label)
        return [
            prop
            for prop in self.store.retrieve(pattern)
            if prop.is_link and not prop.is_instanceof and not prop.is_isa
        ]

    def attribute_classes(self, cls: str, label: Optional[str] = None) -> List[Proposition]:
        """Attribute links defined on ``cls`` or inherited from its
        generalizations — the paper's inherited propositions.  Worked
        out on each call from the cached ``generalizations`` closure and
        the store's source/label index.  The order depends on neither
        the hash seed nor the store's history: ``cls`` first, then its
        generalizations by name; within one class, by pid."""
        owners = [cls, *sorted(self._isa_closure(cls, down=False))]
        return [
            prop
            for owner in owners
            for prop in sorted(self.attributes_of(owner, label=label),
                               key=lambda p: p.pid)
        ]

    def attribute_classes_of(self, classes: Iterable[str],
                             label: Optional[str] = None) -> List[Proposition]:
        """The attribute classes of each of ``classes`` (by name, each
        in :meth:`attribute_classes` order), every one once: a class
        that an earlier one already listed, by inheritance, keeps its
        first place.  ``label`` keeps only the classes with that label,
        the same subsequence in the same order."""
        seen: Set[str] = set()
        out: List[Proposition] = []
        for cls in sorted(classes):
            for prop in self.attribute_classes(cls, label):
                if prop.pid not in seen:
                    seen.add(prop.pid)
                    out.append(prop)
        return out

    def links_instantiating(self, attr_class_pid: str) -> List[Proposition]:
        """All links that are declared instances of an attribute class."""
        result = []
        for inst in self.store.retrieve(
            Pattern(label=INSTANCEOF, destination=attr_class_pid)
        ):
            try:
                result.append(self.store.get(inst.source))
            except UnknownPropositionError:
                continue
        return result

    def classification_of_link(self, pid: str) -> Set[str]:
        """The attribute classes a given link is an instance of."""
        result: Set[str] = set()
        for prop in self.store.retrieve(Pattern(source=pid, label=INSTANCEOF)):
            result |= self.generalizations(prop.destination)
        return result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def individuals(self) -> List[Proposition]:
        """All node propositions."""
        return [p for p in self.store if p.is_individual]

    def links(self) -> List[Proposition]:
        """All link propositions."""
        return [p for p in self.store if p.is_link]

    def __len__(self) -> int:
        return len(self.store)

    def summary(self) -> Dict[str, int]:
        """Basic census of the base (used by displays and tests)."""
        counts = {"individuals": 0, "instanceof": 0, "isa": 0, "attribute": 0}
        for prop in self.store:
            if prop.is_individual:
                counts["individuals"] += 1
            elif prop.is_instanceof:
                counts["instanceof"] += 1
            elif prop.is_isa:
                counts["isa"] += 1
            else:
                counts["attribute"] += 1
        return counts
