"""The served decision-history engine.

:class:`DecisionHistory` binds a ledger (and the justification graph
it maintains) to one :class:`~repro.conceptbase.ConceptBase` and
implements the five wire ops (§3.3 served):

- ``decide`` — run a decision's tells/untells as one transaction and
  append the ledger record *inside* that transaction, so record and
  delta are atomic on the WAL (:meth:`apply_decide`, writer thread);
- ``backtrack`` — graph-traverse the transitive consequents and undo
  exactly their recorded deltas, newest first, as one transaction
  (:meth:`apply_backtrack`, writer thread) — never a rebuild of the
  base, so cost is proportional to the consequence set;
- ``replay`` — re-applicability test: diff a decision's recorded delta
  against the current base and report drift (read);
- ``history`` — the ledger plus the justification graph's edges (read);
- ``versions`` — versions and vertical/horizontal configurations
  derived from the ledger's mapping/refinement/choice kinds (read).

The two whole-ledger reads return the answers the ledger keeps encoded
(:class:`~repro.canonical.Encoded`), which the frame encoder splices
into the response as they are.

Threading contract: ``apply_*`` methods run exclusively on the commit
pipeline's writer thread under the service's write lock (the service
dispatches them from ``_apply_commit``); the read methods run under
the service's read lock.  The ledger itself is therefore guarded by
the same rwlock as the proposition store.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.canonical import Encoded
from repro.conceptbase import ConceptBase
from repro.decisions.ledger import DecisionLedger, LedgerRecord
from repro.errors import BacktrackError, DecisionError
from repro.objects.frame import parse_frames
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import get_tracer
from repro.propositions.serialization import (
    proposition_from_json,
    proposition_to_json,
)
from repro.propositions.wal import WalStore


def decide_keys(spec: Dict[str, Any]) -> List[str]:
    """The conflict keys a decide spec writes: the names of the frames
    its tells define (parsed exactly as a plain ``tell``'s keys are)
    and the names its untells remove, so first-committer-wins treats
    both alike."""
    keys: List[str] = []
    for source in spec.get("tell") or []:
        for frame in parse_frames(source):
            if frame.name not in keys:
                keys.append(frame.name)
    for name in spec.get("untell") or []:
        if name not in keys:
            keys.append(name)
    return keys


class DecisionHistory:
    """Ledger + justification graph + derivations over one base."""

    def __init__(self, cb: ConceptBase,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.cb = cb
        self.proc = cb.propositions
        self.store = self.proc.store
        self.registry = registry if registry is not None else cb.registry
        ns = self.registry.namespace("decisions")
        self._c_recorded = ns.counter("recorded")
        self._c_backtracked = ns.counter("backtracked")
        self._c_replay_drift = ns.counter("replay_drift")
        self._g_nodes = ns.gauge("graph_nodes")
        self._g_edges = ns.gauge("graph_edges")
        self._g_fragments = ns.gauge("fragments_rendered")
        #: A durable store hands over the ledger it recovered, once, and
        #: reads this one back through the binding when it checkpoints.
        if isinstance(self.store, WalStore):
            self.ledger = DecisionLedger.from_wire_log(self.store.bind_ledger(
                lambda: [record.to_json() for record in self.ledger]))
        else:
            self.ledger = DecisionLedger()
        self._refresh_gauges()

    def _refresh_gauges(self) -> None:
        graph = self.ledger.graph
        self._g_nodes.set(graph.node_count)
        self._g_edges.set(graph.edge_count)
        self._g_fragments.set(self.ledger.fragments_rendered)

    # ------------------------------------------------------------------
    # Writes (commit-pipeline writer thread, under the write lock)
    # ------------------------------------------------------------------

    def _validate_spec(self, spec: Dict[str, Any]) -> None:
        """The checks that read state; the spec's shape was checked
        once, at the wire."""
        for role, name in (spec.get("inputs") or {}).items():
            if not self.proc.exists(name):
                raise DecisionError(
                    f"input {role!r} = {name!r} does not exist"
                )
        for parent in spec.get("parents") or []:
            if parent not in self.ledger.by_did:
                raise DecisionError(f"unknown parent decision {parent!r}")

    def _refuse_nesting(self, op: str) -> None:
        # As on the wire: nested in a caller's transaction that later
        # aborts, the ledger change would outlive the rolled-back delta.
        if self.proc.in_telling:
            raise DecisionError(f"{op} is its own transaction; commit or "
                                f"abort the open one first")

    def apply_decide(self, arg: str) -> Dict[str, Any]:  # runs-on: writer
        """Execute one decide spec (canonical JSON) transactionally."""
        self._refuse_nesting("decide")
        spec = json.loads(arg)
        self._validate_spec(spec)
        did = self.ledger.next_did()
        with get_tracer().span("decisions.decide", did=did,
                               decision_class=spec["decision_class"]):
            with self.cb.transaction() as telling:
                for source in spec.get("tell") or []:
                    self.cb.tell(source)
                for name in spec.get("untell") or []:
                    self.cb.untell(name)
                record = self._record_from_telling(did, spec, telling.ops)
                if isinstance(self.store, WalStore):
                    self.store.append_decision(record.to_json())
        # Only a committed decide reaches the ledger, so an aborted one
        # leaves nothing in memory to undo; the log's abort marker
        # discards its record on replay.
        self.ledger.append(record)
        self._c_recorded.inc()
        self._refresh_gauges()
        return {
            "did": record.did,
            "tick": record.tick,
            "outputs": list(record.outputs),
            "told": len(record.told),
            "untold": len(record.untold),
        }

    def _record_from_telling(self, did: str, spec: Dict[str, Any],
                             ops: List[Any]) -> LedgerRecord:
        told: List[str] = []
        untold: List[str] = []
        clipped: List[str] = []
        delta: List[List[Any]] = []
        outputs: List[str] = []
        for op in ops:
            if op[0] == "create":
                prop = op[1]
                told.append(prop.pid)
                delta.append(["create", proposition_to_json(prop)])
                if prop.is_individual and prop.pid not in outputs:
                    outputs.append(prop.pid)
            elif op[0] == "delete":
                untold.append(op[1].pid)
                delta.append(["delete", proposition_to_json(op[1])])
            elif op[0] == "clip":
                clipped.append(op[2].pid)
                delta.append(["clip", proposition_to_json(op[1]),
                              proposition_to_json(op[2])])
        return LedgerRecord(
            did=did,
            tick=self.ledger.next_tick(),
            decision_class=spec["decision_class"],
            kind=spec.get("kind", "other"),
            tool=spec.get("tool"),
            inputs=dict(spec.get("inputs") or {}),
            outputs=outputs,
            parents=list(spec.get("parents") or []),
            rationale=spec.get("rationale", ""),
            obligations=list(spec.get("obligations") or []),
            told=told,
            untold=untold,
            clipped=clipped,
            delta=delta,
        )

    def apply_backtrack(self, arg: str) -> Dict[str, Any]:  # runs-on: writer
        """Retract a decision and its transitive consequents by undoing
        exactly their recorded deltas (newest first, one transaction)."""
        self._refuse_nesting("backtrack")
        spec = json.loads(arg)
        did = str(spec.get("did", ""))
        record = self.ledger.get(did)
        if not record.is_active:
            raise BacktrackError(f"decision {did!r} is already retracted")
        condemned = self.ledger.graph.consequents(did) | {did}
        victims = sorted((self.ledger.by_did[d] for d in condemned),
                         key=lambda r: r.tick, reverse=True)
        durable = isinstance(self.store, WalStore)
        tick = self.ledger.next_tick()
        reapplied = 0
        with get_tracer().span("decisions.backtrack", did=did,
                               condemned=len(victims)):
            with self.cb.transaction():
                for victim in victims:
                    reapplied += self._undo_delta(victim)
                    if durable:
                        self.store.append_decision_retract(victim.did, tick)
        # As with a decide, the marks land only after the commit.
        for victim in victims:
            self.ledger.mark_retracted(victim.did, tick)
        self._c_backtracked.inc(len(victims))
        self._refresh_gauges()
        return {
            "did": did,
            "tick": tick,
            "retracted": [victim.did for victim in victims],
            "reapplied": reapplied,
        }

    def _undo_delta(self, record: LedgerRecord) -> int:  # runs-on: writer
        """Inverse-apply one record's delta through the processor's
        delta-maintenance paths; returns propositions touched."""
        count = 0
        for op in reversed(record.delta):
            kind = op[0]
            if kind == "create":
                pid = op[1]["pid"]
                if self.proc.exists(pid):
                    count += len(self.proc.retract(pid, cascade=True))
            elif kind == "delete":
                data = op[1]
                if not self.proc.exists(data["pid"]):
                    self.proc.create_proposition(proposition_from_json(data))
                    count += 1
            elif kind == "clip":
                old = op[1]
                if self.proc.exists(old["pid"]):
                    self.proc.replace_proposition(proposition_from_json(old))
                    count += 1
        return count

    # ------------------------------------------------------------------
    # Reads (under the service's read lock)
    # ------------------------------------------------------------------

    def history(self, include_retracted: bool = True) -> Encoded:
        """The listed decisions plus the justification graph's direct
        edges between them (:meth:`DecisionLedger.history`), encoded."""
        return self.ledger.encoded_history(include_retracted)

    def replay(self, did: str) -> Dict[str, Any]:
        """Re-applicability test: diff the recorded delta against the
        current base; every mismatch is one drift entry."""
        record = self.ledger.get(did)
        drift: List[Dict[str, Any]] = []
        applicable = True
        # Endpoints the decision itself (re)creates are satisfiable by
        # re-applying it — only *external* endpoints can go missing.
        would_create = {op[1]["pid"] for op in record.delta
                        if op[0] == "create"}
        for role, name in record.inputs.items():
            if not self.proc.exists(name):
                applicable = False
                drift.append({"kind": "missing_input", "role": role,
                              "name": name})
        for op in record.delta:
            if op[0] == "create":
                data = op[1]
                if self.proc.exists(data["pid"]):
                    current = proposition_to_json(self.proc.get(data["pid"]))
                    if current != data:
                        drift.append({"kind": "changed", "pid": data["pid"]})
                else:
                    for endpoint in (data["source"], data["destination"]):
                        if endpoint != data["pid"] \
                                and endpoint not in would_create \
                                and not self.proc.exists(endpoint):
                            applicable = False
                            drift.append({"kind": "missing_endpoint",
                                          "pid": data["pid"],
                                          "name": endpoint})
            elif op[0] == "delete":
                if not self.proc.exists(op[1]["pid"]):
                    drift.append({"kind": "already_gone",
                                  "pid": op[1]["pid"]})
            elif op[0] == "clip":
                old, new = op[1], op[2]
                if not self.proc.exists(old["pid"]):
                    drift.append({"kind": "already_gone", "pid": old["pid"]})
                elif proposition_to_json(self.proc.get(old["pid"])) != new:
                    drift.append({"kind": "changed", "pid": old["pid"]})
        if drift:
            self._c_replay_drift.inc()
        return {
            "did": did,
            "status": record.status,
            "applicable": applicable,
            "drift": drift,
        }

    def versions(self) -> Encoded:
        """Versions and configurations derived from the ledger (§3.3,
        :meth:`DecisionLedger.versions`), encoded."""
        return self.ledger.encoded_versions()
