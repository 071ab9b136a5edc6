"""Query EXPLAIN: span trees plus before/after metric attribution.

``QueryExplain`` wraps any piece of work — an ``ask``, a ``query``, a
telling — and produces an :class:`ExplainReport`: the spans the work
emitted (closure computations, semi-naive rounds, constraint sweeps,
WAL appends) arranged as a tree, and the exact registry counter deltas
it caused.  Because the numbers come from the same
:class:`~repro.obs.metrics.MetricsRegistry` the benchmarks read, an
EXPLAIN of the PR 2 workloads reproduces their headline ratios (isa
expansions saved by the closure caches, join probes saved by the
compiled plans) from registry data alone.

A capture records only the work of its own context: it installs a
fresh enabled tracer as the current context's tracer (see
:func:`~repro.obs.tracing.get_tracer`), so spans other threads open
meanwhile go to the process default, not into the report.  Its counter
deltas are registry-wide; a caller that shares the registry with other
threads (the served ``explain`` op) holds them off for the capture.

Cache attribution falls out of the span protocol: a closure cache *hit*
never opens a span (it only bumps ``proposition.closure_hits``), so a
warm query's EXPLAIN shows counter movement with no ``proposition.closure``
spans — the visible signature of a cache-served query — while a cold
query shows one span per computed closure with ``cache="miss"``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional

from repro.obs.metrics import MetricsRegistry, diff_snapshots
from repro.obs.tracing import _CONTEXT_TRACER, Tracer, render_tree, span_tree


class ExplainReport:
    """What one captured piece of work did: spans + metric deltas."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.before: Dict[str, Any] = {}
        self.after: Dict[str, Any] = {}
        self.span_records: List[Dict[str, Any]] = []
        #: Return value of the captured callable (``explain(fn)`` only).
        self.result: Any = None

    # -- metrics -----------------------------------------------------------

    @property
    def metrics(self) -> Dict[str, Any]:
        """Per-name counter deltas between entry and exit snapshots."""
        return diff_snapshots(self.before, self.after)

    def delta(self, name: str) -> int:
        """The delta of one counter (0 if it never moved)."""
        value = self.metrics.get(name, 0)
        return value if isinstance(value, (int, float)) else 0

    def changed(self) -> Dict[str, Any]:
        """Only the metrics that actually moved."""
        out: Dict[str, Any] = {}
        for name, value in self.metrics.items():
            if isinstance(value, Mapping):
                if value.get("count"):
                    out[name] = value
            elif value:
                out[name] = value
        return out

    # -- spans -------------------------------------------------------------

    def tree(self) -> List[Dict[str, Any]]:
        """The captured spans as a forest (see :func:`span_tree`)."""
        return span_tree(self.span_records)

    def subsystems(self) -> Dict[str, int]:
        """Captured spans per subsystem (name prefix before the dot)."""
        counts: Dict[str, int] = {}
        for record in self.span_records:
            subsystem = str(record.get("name", "")).split(".", 1)[0]
            counts[subsystem] = counts.get(subsystem, 0) + 1
        return counts

    def spans_named(self, name: str) -> List[Dict[str, Any]]:
        """Captured span records with exactly this name."""
        return [r for r in self.span_records if r.get("name") == name]

    # -- attribution -------------------------------------------------------

    def headline(self) -> Dict[str, Any]:
        """The attribution summary: cache, expansion and probe work.

        ``closure_spans`` counts actual closure *computations* (cache
        misses open spans; hits do not), so ``closure_hits`` moving
        while ``closure_spans`` stays 0 is a fully cache-served query.

        Cache *pathology* is the invalidation/delta split:
        ``closure_invalidations`` is rebuild-the-world churn (an epoch
        bump emptied a family), ``closure_delta_applied`` is in-place
        maintenance that kept the family warm.  A mutation-heavy
        workload whose invalidations dwarf its delta applications is
        throwing derived state away instead of patching it.
        """
        hits = self.delta("proposition.closure_hits")
        misses = self.delta("proposition.closure_misses")
        total = hits + misses
        return {
            "closure_hits": hits,
            "closure_misses": misses,
            "cache_hit_rate": (hits / total) if total else None,
            "closure_spans": len(self.spans_named("proposition.closure")),
            "closure_invalidations":
                self.delta("proposition.closure_invalidations"),
            "closure_delta_applied":
                self.delta("proposition.closure_delta_applied"),
            "closure_delta_evictions":
                self.delta("proposition.closure_delta_evictions"),
            "idb_delta_applies": self.delta("deduction.delta_applies"),
            "idb_delta_fallbacks": self.delta("deduction.delta_fallbacks"),
            "rule_firings": self.delta("deduction.rule_firings"),
            "isa_expansions": self.delta("proposition.isa_expansions"),
            "join_probes": self.delta("deduction.join_probes"),
            "index_probes": self.delta("deduction.index_probes"),
            "evaluations": self.delta("consistency.evaluations"),
            "constraints_skipped": self.delta("consistency.skipped"),
            "wal_records": self.delta("wal.wal_records"),
            "store_retrievals": self.delta("store.retrievals"),
        }

    def render(self) -> str:
        """The EXPLAIN display: span tree, headline, changed counters."""
        lines = [f"EXPLAIN {self.label}"]
        tree = self.tree()
        if tree:
            lines.append(render_tree(tree))
        else:
            lines.append("  (no spans recorded — all work served by caches"
                         " or tracing disabled)")
        lines.append("-- attribution --")
        for key, value in self.headline().items():
            if value is None:
                continue
            if key == "cache_hit_rate":
                lines.append(f"  {key} = {value:.2f}")
            elif value:
                lines.append(f"  {key} = {value}")
        changed = self.changed()
        if changed:
            lines.append("-- counters moved --")
            for name in sorted(changed):
                value = changed[name]
                if isinstance(value, Mapping):
                    value = f"count+{value.get('count', 0)}"
                lines.append(f"  {name} = {value}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"<ExplainReport {self.label!r} spans={len(self.span_records)}"
                f" changed={len(self.changed())}>")


class QueryExplain:
    """EXPLAIN facade over one registry (usually a facade's)."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry

    @contextmanager
    def capture(self, label: str = "query") -> Iterator[ExplainReport]:
        """Capture everything run inside the ``with`` block, on this
        context."""
        report = ExplainReport(label)
        tracer = Tracer(enabled=True)
        token = _CONTEXT_TRACER.set(tracer)
        report.before = self.registry.snapshot()
        try:
            yield report
        finally:
            report.after = self.registry.snapshot()
            _CONTEXT_TRACER.reset(token)
            report.span_records = [span.to_json() for span in tracer.spans]

    def explain(self, fn: Callable[[], Any],
                label: Optional[str] = None) -> ExplainReport:
        """Run ``fn`` under capture; its return value lands on
        ``report.result``."""
        if label is None:
            label = getattr(fn, "__name__", "query") or "query"
        with self.capture(label) as report:
            report.result = fn()
        return report
