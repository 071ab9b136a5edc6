"""Physical representations of the proposition base.

Section 3.1: "Several physical representations (e.g. Prolog workspaces,
external databases) of propositions can be managed by the proposition
base.  In its interface it exports operations for retrieving and creating
stored propositions."

Three stores implement that interface:

- :class:`MemoryStore` — hash-indexed main-memory store (the default);
- :class:`LogStore` — an append-only journal whose current state is the
  replay of its entries, with compaction (models an external database
  file / recovery log);
- :class:`WorkspaceStore` — named partitions with a union view (models
  the BIM-Prolog workspaces of the prototype).

Stores deal purely in *stored* propositions; inheritance and deduction
live in the proposition processor, exactly as the paper separates the
proposition base from the proposition processor.
"""

from __future__ import annotations

import abc
import json
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import PropositionError, UnknownPropositionError
from repro.obs.metrics import MetricsRegistry, StatsView
from repro.propositions.proposition import Pattern, Proposition


class PropositionStore(abc.ABC):
    """Interface every physical representation must export."""

    @property
    def visibility_epoch(self) -> int:
        """Counter bumped when the *visible* content changes without a
        create/delete going through the owning processor (e.g. workspace
        activation).  Stores without such a mechanism stay at 0; caches
        above the store fold this into their validation stamps."""
        return 0

    @abc.abstractmethod
    def create(self, prop: Proposition) -> None:
        """Store ``prop``; reject duplicate identifiers."""

    @abc.abstractmethod
    def delete(self, pid: str) -> Proposition:
        """Remove and return the proposition with identifier ``pid``."""

    @abc.abstractmethod
    def get(self, pid: str) -> Proposition:
        """Return the proposition with identifier ``pid``."""

    @abc.abstractmethod
    def retrieve(self, pattern: Pattern) -> Iterator[Proposition]:
        """Yield stored propositions matching ``pattern``."""

    @abc.abstractmethod
    def __len__(self) -> int: ...

    @abc.abstractmethod
    def __iter__(self) -> Iterator[Proposition]: ...

    def __contains__(self, pid: str) -> bool:
        try:
            self.get(pid)
        except UnknownPropositionError:
            return False
        return True

    def txn(self, kind: str) -> None:
        """Transaction boundary hook, driven by the proposition
        processor's tellings: ``begin``/``commit``/``abort`` for the
        outermost telling, ``save``/``release``/``rollback`` for nested
        savepoints.  Purely in-memory stores need no boundaries (their
        state *is* the current state); durable stores override this to
        write transaction markers into their journal."""

    def rows(self) -> Tuple[str, ...]:
        """The visible propositions in canonical serialized form, sorted.

        Two stores hold bit-identical content iff their ``rows()`` are
        equal — the comparison the crash-recovery and replay tests use.
        """
        from repro.propositions.serialization import proposition_to_json

        return tuple(sorted(
            json.dumps(proposition_to_json(prop), sort_keys=True)
            for prop in self
        ))

    def replace(self, prop: Proposition) -> Proposition:
        """Swap the stored proposition with the same pid for ``prop``."""
        old = self.delete(prop.pid)
        self.create(prop)
        return old


class MemoryStore(PropositionStore):
    """Hash-indexed in-memory store.

    Maintains secondary indexes on source, label, destination and the
    (source, label) pair, so the common access paths of the object
    processor (all attributes of an object; all instanceof links of a
    class) are O(result).  Index buckets are pruned when they empty, so
    index dictionaries never grow beyond the live proposition set under
    create/delete churn.

    Access counters (creates / deletes / retrievals / scans) live in
    ``namespace`` of ``registry`` — private per store unless a shared
    registry is passed in — and surface through ``stats``, a
    :class:`~repro.obs.metrics.StatsView`.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 namespace: str = "store") -> None:
        self._by_pid: Dict[str, Proposition] = {}
        self._by_source: Dict[str, set] = {}
        self._by_label: Dict[str, set] = {}
        self._by_destination: Dict[str, set] = {}
        self._by_source_label: Dict[Tuple[str, str], set] = {}
        self._by_label_destination: Dict[Tuple[str, str], set] = {}
        self.registry = registry if registry is not None else MetricsRegistry()
        self._metrics = self.registry.namespace(namespace)
        self._c_creates = self._metrics.counter("creates")
        self._c_deletes = self._metrics.counter("deletes")
        self._c_retrievals = self._metrics.counter("retrievals")
        self._c_scans = self._metrics.counter("scans")
        self.stats = StatsView(self._metrics)

    def reset_stats(self) -> None:
        """Zero this store's access counters."""
        self.stats.reset()

    def _index_entries(self, prop: Proposition):
        yield self._by_source, prop.source
        yield self._by_label, prop.label
        yield self._by_destination, prop.destination
        yield self._by_source_label, (prop.source, prop.label)
        yield self._by_label_destination, (prop.label, prop.destination)

    def create(self, prop: Proposition) -> None:
        """Store; reject duplicate identifiers."""
        if prop.pid in self._by_pid:
            raise PropositionError(f"duplicate proposition identifier {prop.pid!r}")
        self._by_pid[prop.pid] = prop
        for index, key in self._index_entries(prop):
            index.setdefault(key, set()).add(prop.pid)
        self._c_creates.inc()

    def delete(self, pid: str) -> Proposition:
        """Remove and return by identifier; empty buckets are pruned."""
        prop = self.get(pid)
        del self._by_pid[pid]
        for index, key in self._index_entries(prop):
            bucket = index.get(key)
            if bucket is not None:
                bucket.discard(pid)
                if not bucket:
                    del index[key]
        self._c_deletes.inc()
        return prop

    def get(self, pid: str) -> Proposition:
        """Fetch by identifier."""
        try:
            return self._by_pid[pid]
        except KeyError:
            raise UnknownPropositionError(f"unknown proposition {pid!r}") from None

    def _candidate_pids(self, pattern: Pattern) -> Optional[Iterable[str]]:
        """Pick the most selective index for ``pattern``; None = scan."""
        if pattern.pid is not None:
            return [pattern.pid] if pattern.pid in self._by_pid else []
        if pattern.source is not None and pattern.label is not None:
            return self._by_source_label.get((pattern.source, pattern.label), ())
        if pattern.label is not None and pattern.destination is not None:
            return self._by_label_destination.get(
                (pattern.label, pattern.destination), ()
            )
        if pattern.source is not None:
            return self._by_source.get(pattern.source, ())
        if pattern.destination is not None:
            return self._by_destination.get(pattern.destination, ())
        if pattern.label is not None:
            return self._by_label.get(pattern.label, ())
        return None

    def retrieve(self, pattern: Pattern) -> Iterator[Proposition]:
        """Yield matches via the most selective index."""
        self._c_retrievals.inc()
        candidates = self._candidate_pids(pattern)
        if candidates is None:
            self._c_scans.inc()
            yield from pattern.filter(iter(self._by_pid.values()))
            return
        for pid in list(candidates):
            prop = self._by_pid.get(pid)
            if prop is not None and pattern.matches(prop):
                yield prop

    def __len__(self) -> int:
        return len(self._by_pid)

    def __iter__(self) -> Iterator[Proposition]:
        return iter(list(self._by_pid.values()))


class LogStore(PropositionStore):
    """Append-only journal store.

    Every mutation appends a ``("create" | "delete", proposition)`` entry;
    the current state is derived by replay and cached in an internal
    :class:`MemoryStore`.  :meth:`compact` rewrites the journal to the
    live set.  This models an external-database representation with a
    recovery log, and gives the Perf-4 benchmark a second physical
    representation with different write/read trade-offs.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._journal: List[Tuple[str, Proposition]] = []
        self._state = MemoryStore(registry=self.registry)
        self._c_compactions = self.registry.namespace("store").counter("compactions")

    @property
    def stats(self) -> StatsView:
        """Access counters of the replayed state (plus ``compactions``)."""
        return self._state.stats

    def reset_stats(self) -> None:
        """Zero the store's access counters."""
        self._state.reset_stats()

    @classmethod
    def from_journal(
        cls, entries: Iterable[Tuple[str, Proposition]]
    ) -> "LogStore":
        """Reconstruct a store by replaying ``(op, proposition)`` journal
        entries — the recovery constructor.  ``from_journal(s.journal)``
        reproduces both ``s``'s state and its journal exactly."""
        store = cls()
        for op, prop in entries:
            if op == "create":
                store.create(prop)
            elif op == "delete":
                store.delete(prop.pid)
            else:
                raise PropositionError(f"unknown journal op {op!r}")
        return store

    @property
    def journal(self) -> Tuple[Tuple[str, Proposition], ...]:
        """The append-only (op, proposition) entries."""
        return tuple(self._journal)

    def create(self, prop: Proposition) -> None:
        """Store and append a create entry."""
        self._state.create(prop)
        self._journal.append(("create", prop))

    def delete(self, pid: str) -> Proposition:
        """Remove and append a delete entry."""
        prop = self._state.delete(pid)
        self._journal.append(("delete", prop))
        return prop

    def get(self, pid: str) -> Proposition:
        """Fetch from the replayed state."""
        return self._state.get(pid)

    def retrieve(self, pattern: Pattern) -> Iterator[Proposition]:
        """Query the replayed state."""
        return self._state.retrieve(pattern)

    def replay(self) -> MemoryStore:
        """Rebuild state purely from the journal (recovery path)."""
        state = MemoryStore()
        for op, prop in self._journal:
            if op == "create":
                state.create(prop)
            else:
                state.delete(prop.pid)
        return state

    def compact(self) -> int:
        """Drop superseded journal entries; return entries removed."""
        before = len(self._journal)
        self._journal = [("create", prop) for prop in self._state]
        self._c_compactions.inc()
        return before - len(self._journal)

    def __len__(self) -> int:
        return len(self._state)

    def __iter__(self) -> Iterator[Proposition]:
        return iter(self._state)


class WorkspaceStore(PropositionStore):
    """Named partitions with a union view (Prolog-workspace model).

    Each proposition lives in exactly one workspace; retrieval runs over
    the union of *active* workspaces.  Deactivating a workspace hides its
    propositions without deleting them — the mechanism the model
    configuration module (S8) uses to activate model nodes.
    """

    DEFAULT = "__kernel__"

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._metrics = self.registry.namespace("store")
        self._c_activations = self._metrics.counter("activations")
        self._c_deactivations = self._metrics.counter("deactivations")
        self._c_removals = self._metrics.counter("workspaces_removed")
        self.stats = StatsView(self._metrics)
        self._spaces: Dict[str, MemoryStore] = {
            self.DEFAULT: self._new_space(self.DEFAULT)
        }
        self._active: Dict[str, bool] = {self.DEFAULT: True}
        self._location: Dict[str, str] = {}
        self._current = self.DEFAULT
        self._visibility_epoch = 0

    def _new_space(self, name: str) -> MemoryStore:
        # one metrics namespace per partition: "store.<name>.creates" etc.
        return MemoryStore(registry=self.registry, namespace=f"store.{name}")

    def snapshot(self) -> Dict[str, int]:
        """All ``store.*`` counters (union + per-partition) by full name."""
        return self.registry.snapshot("store")

    def reset_stats(self) -> None:
        """Zero the union-level and per-partition counters."""
        self.registry.reset("store")

    @property
    def visibility_epoch(self) -> int:
        """Bumped on activate/deactivate: visible content changed without
        any create/delete, so processor-level caches must revalidate."""
        return self._visibility_epoch

    # -- workspace management ---------------------------------------------

    def add_workspace(self, name: str, active: bool = True) -> None:
        """Create a named partition."""
        if name in self._spaces:
            raise PropositionError(f"workspace {name!r} already exists")
        self._spaces[name] = self._new_space(name)
        self._active[name] = active

    def remove_workspace(self, name: str) -> int:
        """Discard a partition and everything in it; returns how many
        propositions were dropped.

        Removing an *inactive* (or empty) workspace leaves
        :attr:`visibility_epoch` alone — its content never reached the
        union view, so processor closure caches stamped against it stay
        valid.  Removing an active, non-empty workspace does change the
        visible network, so the epoch bumps exactly as deactivation
        would.
        """
        if name == self.DEFAULT:
            raise PropositionError("the kernel workspace cannot be removed")
        if name not in self._spaces:
            raise PropositionError(f"unknown workspace {name!r}")
        space = self._spaces.pop(name)
        was_active = self._active.pop(name)
        dropped = len(space)
        for prop in space:
            self._location.pop(prop.pid, None)
        if was_active and dropped:
            self._visibility_epoch += 1
        if self._current == name:
            self._current = self.DEFAULT
        self._c_removals.inc()
        return dropped

    def workspaces(self) -> List[str]:
        """All partition names."""
        return list(self._spaces)

    def is_active(self, name: str) -> bool:
        """Is the partition part of the union view?"""
        if name not in self._spaces:
            raise PropositionError(f"unknown workspace {name!r}")
        return self._active[name]

    def set_current(self, name: str) -> None:
        """Direct new propositions into a partition."""
        if name not in self._spaces:
            raise PropositionError(f"unknown workspace {name!r}")
        self._current = name

    def activate(self, name: str) -> None:
        """Make a partition visible."""
        if name not in self._spaces:
            raise PropositionError(f"unknown workspace {name!r}")
        if not self._active[name]:
            self._visibility_epoch += 1
            self._c_activations.inc()
        self._active[name] = True

    def deactivate(self, name: str) -> None:
        """Hide a partition (kernel excluded)."""
        if name not in self._spaces:
            raise PropositionError(f"unknown workspace {name!r}")
        if name == self.DEFAULT:
            raise PropositionError("the kernel workspace cannot be deactivated")
        if self._active[name]:
            self._visibility_epoch += 1
            self._c_deactivations.inc()
        self._active[name] = False

    def workspace_of(self, pid: str) -> str:
        """The partition holding a proposition."""
        try:
            return self._location[pid]
        except KeyError:
            raise UnknownPropositionError(f"unknown proposition {pid!r}") from None

    def _active_spaces(self) -> Iterator[MemoryStore]:
        for name, space in self._spaces.items():
            if self._active[name]:
                yield space

    # -- store interface ----------------------------------------------------

    def create(self, prop: Proposition) -> None:
        """Store into the current partition."""
        if prop.pid in self._location:
            raise PropositionError(f"duplicate proposition identifier {prop.pid!r}")
        self._spaces[self._current].create(prop)
        self._location[prop.pid] = self._current

    def delete(self, pid: str) -> Proposition:
        """Remove from its partition."""
        space = self.workspace_of(pid)
        prop = self._spaces[space].delete(pid)
        del self._location[pid]
        return prop

    def get(self, pid: str) -> Proposition:
        """Fetch if its partition is active."""
        space = self.workspace_of(pid)
        if not self._active[space]:
            raise UnknownPropositionError(
                f"proposition {pid!r} is in inactive workspace {space!r}"
            )
        return self._spaces[space].get(pid)

    def retrieve(self, pattern: Pattern) -> Iterator[Proposition]:
        """Query the union of active partitions.

        A pid-bound pattern short-circuits straight to the owning
        partition via the location map instead of probing every active
        space; other patterns use each partition's own secondary indexes
        (candidate selection stays per-space, never a unioned scan).
        """
        if pattern.pid is not None:
            space = self._location.get(pattern.pid)
            if space is None or not self._active[space]:
                return
            prop = self._spaces[space].get(pattern.pid)
            if pattern.matches(prop):
                yield prop
            return
        for space in self._active_spaces():
            yield from space.retrieve(pattern)

    def __len__(self) -> int:
        return sum(len(space) for space in self._active_spaces())

    def __iter__(self) -> Iterator[Proposition]:
        for space in self._active_spaces():
            yield from space
