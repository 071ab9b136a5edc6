"""The immutable, serializable decision ledger (§2.1/§3.3).

Every design decision — served or executed in process by
:class:`~repro.core.gkbms.GKBMS` — becomes one :class:`LedgerRecord`:
the decision class, the tool, the input/output design objects, the
*exact* proposition ids told, untold and clipped, the serialized delta
those ids summarize, obligations, parent links and a logical
timestamp.
Records are append-only — selective backtracking never removes one, it
marks it ``retracted`` and appends a retraction event to the same WAL,
so the full decision history (including the paths not taken) survives
any crash and is reconstructible from the log alone.

The ledger is the one in-memory copy of that history: a durable
:class:`~repro.propositions.wal.WalStore` hands over the records it
recovered when :class:`~repro.decisions.DecisionHistory` binds it, and
reads the ledger back at checkpoint; :meth:`LedgerRecord.to_json` /
:meth:`LedgerRecord.from_json` round-trip losslessly.
"""

from __future__ import annotations

from bisect import bisect, insort
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.canonical import Encoded, dumps
from repro.decisions.graph import JustificationGraph
from repro.errors import DecisionError

#: Decision kinds with derivation semantics (§3.3): ``mapping``
#: decisions produce vertical configurations, ``refinement`` horizontal
#: ones, ``choice`` decisions open version alternatives.
KINDS = ("mapping", "refinement", "choice", "other")

#: The wire-form configuration list each derivation kind feeds.
_CONFIGURATION_OF_KIND = {"mapping": "vertical", "refinement": "horizontal",
                          "choice": "alternatives"}


def version_base(name: str) -> str:
    """The design object a ``base~tick`` version name versions (a plain
    name is its own base)."""
    return name.split("~", 1)[0]


@dataclass
class LedgerRecord:
    """One durable decision: provenance plus its serialized delta."""

    did: str
    tick: int
    decision_class: str
    kind: str = "other"
    tool: Optional[str] = None
    #: role -> design-object name (the FROM links).
    inputs: Dict[str, str] = field(default_factory=dict)
    #: design objects this decision created (the TO links).
    outputs: List[str] = field(default_factory=list)
    #: explicit BY/parent links to earlier decisions.
    parents: List[str] = field(default_factory=list)
    rationale: str = ""
    #: obligation names (their discharge status lives with the engine
    #: that raised them, not on the record).
    obligations: List[str] = field(default_factory=list)
    #: in-process provenance: role -> produced names (``outputs`` is
    #: their concatenation), tool parameters, who executed the decision
    #: and the assumptions it rests on (fig 2-4).
    output_roles: Dict[str, List[str]] = field(default_factory=dict)
    params: Dict[str, Any] = field(default_factory=dict)
    actor: str = "developer"
    assumptions: List[str] = field(default_factory=list)
    #: exact proposition ids created / deleted / clipped.
    told: List[str] = field(default_factory=list)
    untold: List[str] = field(default_factory=list)
    clipped: List[str] = field(default_factory=list)
    #: the serialized delta, in apply order:
    #: ``["create", prop] | ["delete", prop] | ["clip", old, new]``.
    delta: List[List[Any]] = field(default_factory=list)
    status: str = "done"
    retracted_tick: Optional[int] = None

    @property
    def is_active(self) -> bool:
        return self.status == "done"

    def created_ids(self) -> List[str]:
        """Every id this decision brought into existence (pids told
        plus named outputs) — the write set the justification graph
        overlaps against."""
        out = list(self.told)
        out.extend(name for name in self.outputs if name not in out)
        return out

    def referenced_ids(self) -> List[str]:
        """Every id this decision *read or touched*: input objects,
        deleted/clipped pids, and the endpoints of created links."""
        refs: List[str] = list(self.inputs.values())
        refs.extend(self.untold)
        refs.extend(self.clipped)
        for op in self.delta:
            if op[0] == "create":
                prop = op[1]
                for endpoint in (prop.get("source"), prop.get("destination")):
                    if endpoint and endpoint != prop.get("pid"):
                        refs.append(endpoint)
        return refs

    def summary(self) -> Dict[str, Any]:
        """The wire shape ``history`` returns (delta elided to counts)."""
        return {
            "did": self.did,
            "tick": self.tick,
            "decision_class": self.decision_class,
            "kind": self.kind,
            "tool": self.tool,
            "inputs": dict(self.inputs),
            "outputs": list(self.outputs),
            "parents": list(self.parents),
            "rationale": self.rationale,
            "obligations": list(self.obligations),
            "told": len(self.told),
            "untold": len(self.untold),
            "clipped": len(self.clipped),
            "status": self.status,
            "retracted_tick": self.retracted_tick,
        }

    def to_json(self) -> Dict[str, Any]:
        """Lossless, JSON-able form (the WAL logs it less its delta)."""
        return {
            "did": self.did,
            "tick": self.tick,
            "decision_class": self.decision_class,
            "kind": self.kind,
            "tool": self.tool,
            "inputs": dict(self.inputs),
            "outputs": list(self.outputs),
            "parents": list(self.parents),
            "rationale": self.rationale,
            "obligations": list(self.obligations),
            "told": list(self.told),
            "untold": list(self.untold),
            "clipped": list(self.clipped),
            "delta": [list(op) for op in self.delta],
            "status": self.status,
            "retracted_tick": self.retracted_tick,
            "output_roles": {role: list(names)
                             for role, names in self.output_roles.items()},
            "params": _params_to_json(self.params),
            "actor": self.actor,
            "assumptions": list(self.assumptions),
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "LedgerRecord":
        if not isinstance(data, dict) or "did" not in data:
            raise DecisionError(f"bad serialized decision record: {data!r}")
        return cls(
            did=str(data["did"]),
            tick=int(data.get("tick", 0)),
            decision_class=str(data.get("decision_class", "")),
            kind=str(data.get("kind", "other")),
            tool=data.get("tool"),
            inputs=dict(data.get("inputs") or {}),
            outputs=list(data.get("outputs") or []),
            parents=list(data.get("parents") or []),
            rationale=str(data.get("rationale", "")),
            obligations=list(data.get("obligations") or []),
            told=list(data.get("told") or []),
            untold=list(data.get("untold") or []),
            clipped=list(data.get("clipped") or []),
            delta=[list(op) for op in data.get("delta") or []],
            status=str(data.get("status", "done")),
            retracted_tick=data.get("retracted_tick"),
            output_roles={str(role): list(names) for role, names
                          in (data.get("output_roles") or {}).items()},
            params=_params_from_json(data.get("params") or {}),
            actor=str(data.get("actor", "developer")),
            assumptions=list(data.get("assumptions") or []),
        )


def _params_to_json(params: Dict[str, Any]) -> Dict[str, Any]:
    """Tool parameters as JSON; tuples (e.g. a composite key) are
    tagged so they come back as tuples, not lists."""
    return {key: {"__tuple__": list(value)} if isinstance(value, tuple)
            else value
            for key, value in params.items()}


def _params_from_json(params: Dict[str, Any]) -> Dict[str, Any]:
    return {key: tuple(value["__tuple__"])
            if isinstance(value, dict) and "__tuple__" in value else value
            for key, value in params.items()}


def _version_entry(name: str, record: LedgerRecord) -> Dict[str, Any]:
    """One version in the ``versions`` wire form."""
    return {"name": name, "decision": record.did, "active": record.is_active}


def _configuration_edge(record: LedgerRecord) -> Dict[str, Any]:
    """A derivation decision's edge in its ``versions`` configuration."""
    return {"decision": record.did,
            "from": sorted(set(record.inputs.values())),
            "to": list(record.outputs),
            "active": record.is_active}


class DecisionLedger:
    """Append-only record list with deterministic ids and ticks.

    Served ``did``s are ``d1, d2, ...`` by append order and ticks
    advance by one per ledger event (decide or backtrack), so replaying
    the same accepted history — from the commit log or the WAL —
    reproduces the same ids, which is what makes the ledger itself the
    oracle.  The in-process GKBMS appends ``dec1, dec2, ...`` ticked by
    its own version clock.

    Like :attr:`by_did`, :attr:`graph` is an index kept up to date on
    :meth:`append`; records must arrive in non-decreasing tick order
    (served ticks strictly increase, in-process ones follow the GKBMS
    clock), and recovery rebuilds it by appending the logged records.

    The two read answers, ``versions`` and ``history``, are kept as
    canonical-JSON fragments: :meth:`append` renders a record's,
    :meth:`mark_retracted` renders a victim's again, and a read only
    joins them (:meth:`encoded_versions`, :meth:`encoded_history`).
    That holds because a record changes after its append only through
    :meth:`mark_retracted`.
    """

    def __init__(self) -> None:
        # All mutation happens on the service's commit-writer thread;
        # reads run under the serving rwlock above it.
        self.records: List[LedgerRecord] = []  # guarded-by: external: GKBMSService._rwlock
        self.by_did: Dict[str, LedgerRecord] = {}  # guarded-by: external: GKBMSService._rwlock
        self.graph = JustificationGraph([])  # guarded-by: external: GKBMSService._rwlock
        self._events = 0  # guarded-by: <writer>
        #: base -> ``(name, producing record)`` per output, ledger order.
        self._versions: Dict[str, List[Tuple[str, LedgerRecord]]] = {}  # guarded-by: external: GKBMSService._rwlock
        # The encoded answers' fragments, each in the order its answer
        # lists them.
        #: did -> the record's ``history`` summary.
        self._summaries: Dict[str, str] = {}  # guarded-by: external: GKBMSService._rwlock
        #: base -> its version entries, parallel to ``_versions[base]``.
        self._version_frags: Dict[str, List[str]] = {}  # guarded-by: external: GKBMSService._rwlock
        #: base -> ``"base":[entries]``, its member of ``versions``.
        self._version_members: Dict[str, str] = {}  # guarded-by: external: GKBMSService._rwlock
        self._bases: List[str] = []  # guarded-by: external: GKBMSService._rwlock
        #: configuration -> did -> the record's configuration edge.
        self._configurations: Dict[str, Dict[str, str]] = {  # guarded-by: external: GKBMSService._rwlock
            target: {} for target in _CONFIGURATION_OF_KIND.values()}
        #: The justification edges as ``(from, to)``, sorted, and
        #: encoded in the same order.
        self._edge_keys: List[Tuple[str, str]] = []  # guarded-by: external: GKBMSService._rwlock
        self._edges: List[str] = []  # guarded-by: external: GKBMSService._rwlock
        self._active = 0  # guarded-by: external: GKBMSService._rwlock
        #: Fragments rendered since the ledger was built.
        self.fragments_rendered = 0  # guarded-by: <writer>

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[LedgerRecord]:
        return iter(self.records)

    def next_did(self) -> str:
        return f"d{len(self.records) + 1}"

    def next_tick(self) -> int:  # runs-on: writer
        """The tick the next event will carry.  A pure read: only an
        event that lands (:meth:`append`, :meth:`mark_retracted`)
        advances the clock, so a refused decide or backtrack uses up
        no tick."""
        return self._events + 1

    def get(self, did: str) -> LedgerRecord:
        record = self.by_did.get(did)
        if record is None:
            raise DecisionError(f"unknown decision {did!r}")
        return record

    def append(self, record: LedgerRecord) -> None:  # runs-on: writer
        if record.did in self.by_did:
            raise DecisionError(f"duplicate decision id {record.did!r}")
        self.graph.add(record)
        self.records.append(record)
        self.by_did[record.did] = record
        self._events = max(self._events, record.tick,
                           record.retracted_tick or 0)
        for name in record.outputs:
            base = version_base(name)
            if base not in self._versions:
                insort(self._bases, base)
                self._versions[base], self._version_frags[base] = [], []
            self._versions[base].append((name, record))
            self._version_frags[base].append("")
        if record.is_active:
            self._active += 1
        self._render(record)
        # The record's in-edges, beside the graph that just linked them.
        for source, reason in self.graph.justification_of(record.did):
            key = (source, record.did)
            at = bisect(self._edge_keys, key)
            self._edge_keys.insert(at, key)
            self._edges.insert(at, self._encode(
                {"from": source, "to": record.did, "reason": reason}))

    def mark_retracted(self, did: str, tick: int) -> None:  # runs-on: writer
        record = self.get(did)
        if record.is_active:
            self._active -= 1
        record.status = "retracted"
        record.retracted_tick = tick
        self._events = max(self._events, tick)
        self._render(record)

    def _encode(self, value: Any) -> str:  # runs-on: writer
        self.fragments_rendered += 1
        return dumps(value)

    def _render(self, record: LedgerRecord) -> None:  # runs-on: writer
        """(Re)render ``record``'s own fragments: its summary, its
        version entries (and their bases' members) and its
        configuration edge.  Its justification edges carry no status,
        so they never change."""
        self._summaries[record.did] = self._encode(record.summary())
        for base in dict.fromkeys(map(version_base, record.outputs)):
            frags = self._version_frags[base]
            for at, (name, owner) in enumerate(self._versions[base]):
                if owner is record:
                    frags[at] = self._encode(_version_entry(name, record))
            self._version_members[base] = \
                f'{self._encode(base)}:[{",".join(frags)}]'
        target = _CONFIGURATION_OF_KIND.get(record.kind)
        if target is not None:
            self._configurations[target][record.did] = \
                self._encode(_configuration_edge(record))

    def active(self) -> List[LedgerRecord]:
        return [record for record in self.records if record.is_active]

    def producers_of(self, name: str) -> List[LedgerRecord]:
        """Records that output ``name``, oldest first (the graph's
        output-name index)."""
        return [self.by_did[did] for did in self.graph.producers_of(name)]

    def consumers_of(self, name: str) -> List[LedgerRecord]:
        """Records that used ``name`` as an input, oldest first."""
        return [record for record in self.records
                if name in record.inputs.values()]

    def version_entries(self) -> Dict[str, List[Tuple[str, LedgerRecord]]]:
        """Every output grouped under the base it versions (§3.3.2):
        base -> ``(name, producing record)`` in ledger order, the plain
        name and its ``base~tick`` revisions alike.  This is the index
        :meth:`append` maintains: read it, never change it."""
        return self._versions

    def encoded_versions(self) -> Encoded:
        """:meth:`versions`, joined from the kept fragments."""
        configurations, members = self._configurations, self._version_members
        alternatives = ",".join(configurations["alternatives"].values())
        horizontal = ",".join(configurations["horizontal"].values())
        versions = ",".join([members[base] for base in self._bases])
        vertical = ",".join(configurations["vertical"].values())
        return Encoded(f'{{"alternatives":[{alternatives}],'
                       f'"horizontal":[{horizontal}],'
                       f'"versions":{{{versions}}},"vertical":[{vertical}]}}')

    def encoded_history(self, include_retracted: bool = True) -> Encoded:
        """:meth:`history`, joined from the kept fragments."""
        if include_retracted:
            decisions = ",".join(self._summaries.values())
            edges = ",".join(self._edges)
        else:
            by_did = self.by_did
            decisions = ",".join([
                summary for record, summary
                in zip(self.records, self._summaries.values())
                if record.is_active])
            edges = ",".join([
                edge for (source, target), edge
                in zip(self._edge_keys, self._edges)
                if by_did[source].is_active and by_did[target].is_active])
        return Encoded(f'{{"active":{self._active},"decisions":[{decisions}],'
                       f'"edges":[{edges}],"recorded":{len(self.records)}}}')

    # The dict forms of the two answers, derived from the records on
    # every call: the reference the kept fragments are tested against.

    def versions(self) -> Dict[str, Any]:
        """The ``versions`` wire form: each base's versions with their
        creating decision's status, plus the configuration edges
        mapping (vertical), refinement (horizontal) and choice
        (alternatives) decisions draw."""
        configurations: Dict[str, List[Dict[str, Any]]] = {
            "vertical": [], "horizontal": [], "alternatives": []}
        grouped: Dict[str, List[Dict[str, Any]]] = {}
        for record in self.records:
            target = _CONFIGURATION_OF_KIND.get(record.kind)
            if target is not None:
                configurations[target].append(_configuration_edge(record))
            for name in record.outputs:
                grouped.setdefault(version_base(name), []).append(
                    _version_entry(name, record))
        return {"versions": dict(sorted(grouped.items())), **configurations}

    def history(self, include_retracted: bool = True) -> Dict[str, Any]:
        """The ``history`` wire form: the listed decisions plus the
        justification graph's direct edges between them."""
        decisions = [record.summary() for record in self.records
                     if include_retracted or record.is_active]
        listed = {entry["did"] for entry in decisions}
        return {
            "decisions": decisions,
            "edges": [edge for edge in self.graph.edge_list()
                      if edge["from"] in listed and edge["to"] in listed],
            "recorded": len(self.records),
            "active": len(self.active()),
        }

    @classmethod
    def from_wire_log(cls, records: List[Dict[str, Any]]
                      ) -> "DecisionLedger":
        """Rebuild the typed ledger from wire records (those a WAL
        recovered, or a saved GKBMS's)."""
        ledger = cls()
        for item in records:
            ledger.append(LedgerRecord.from_json(item))
        return ledger
