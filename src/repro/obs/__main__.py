"""``python -m repro.obs`` — inspect and gate observability artifacts.

Subcommands:

- ``smoke``  — run a small traced workload across every instrumented
  subsystem (propositions, deduction, consistency, WAL, store, models,
  and a service built before tracing went on: server, decisions),
  export the span JSONL and a metric snapshot, print the census.  The
  CI ``obs-smoke`` job runs this and then ``check``\\ s the artifact.
- ``check``  — gate a trace file: parse must be clean and each required
  subsystem must have a non-zero span count.  Non-zero exit on failure.
- ``dump``   — render a trace file as span trees + subsystem counts;
  with ``--metrics`` also the closure-cache pathology block
  (hit/miss/invalidation/delta-applied census) of a snapshot.
- ``diff``   — per-counter deltas between two metric snapshots.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import Dict, List, Optional

from repro.obs.logging import StreamSink, log, set_sink
from repro.obs.metrics import (
    MetricsRegistry,
    diff_snapshots,
    dump_snapshot,
    load_snapshot,
)
from repro.obs.tracing import (
    TraceError,
    Tracer,
    load_jsonl,
    render_tree,
    set_tracer,
    span_tree,
)

#: Subsystems the smoke workload must produce spans for.
SMOKE_SUBSYSTEMS = ("proposition", "deduction", "consistency", "wal", "models",
                    "server", "decisions")


def run_smoke(trace_path: str, metrics_path: str,
              wal_dir: Optional[str] = None) -> Dict[str, int]:
    """Drive every instrumented subsystem once, under one tracer.

    The service is built before the tracer goes in, as a server is
    already running when an operator turns tracing on.  Every run starts
    from an empty base: an earlier smoke's ``smoke.wal`` and snapshots
    in ``wal_dir`` are removed first.  Returns the finished-span census
    per subsystem after writing the JSONL trace and the metric snapshot.
    """
    from repro.conceptbase import ConceptBase
    from repro.models.model import ModelBase
    from repro.propositions.wal import WalStore
    from repro.server.client import LocalClient
    from repro.server.service import GKBMSService

    registry = MetricsRegistry()
    service = GKBMSService(registry=registry)
    tracer = Tracer(enabled=True)
    previous = set_tracer(tracer)
    store = None
    try:
        if wal_dir is None:
            wal_dir = tempfile.mkdtemp(prefix="obs-smoke-")
        wal_path = os.path.join(wal_dir, "smoke.wal")
        for stale in (wal_path, wal_path + ".snapshot",
                      wal_path + ".snapshot.prev"):
            if os.path.exists(stale):
                os.remove(stale)
        store = WalStore(wal_path, registry=registry)
        cb = ConceptBase(store=store, registry=registry)
        cb.define_metaclass("TDL_EntityClass")
        cb.tell(
            """
            TELL Person IN TDL_EntityClass END

            TELL Invitation IN TDL_EntityClass WITH
              attribute sender : Person
            END
            """
        )
        with cb.transaction():
            cb.tell("TELL bob IN Person END")
            cb.tell("TELL alice IN Person END")
        cb.tell(
            """
            TELL inv1 IN Invitation WITH
              sender sender : bob
            END
            """
        )
        cb.add_rule("attr(?x, informed, ?y) :- attr(?x, sender, ?y).",
                    name="informs")
        cb.add_constraint("Invitation", "HasSender", "Known(self.sender)")
        answers = cb.query("attr(?x, informed, ?y)")
        violations = cb.check()
        cb.query("attr(?x, informed, ?y)")  # warm pass: cache-served
        store.checkpoint()

        models = ModelBase(registry=registry)
        models.define_model("world")
        models.define_model("system", submodels=["world"])
        with models.in_model("world"):
            models.processor.tell_individual("Meeting")
        models.configure(["system"])
        models.configure(["world"])

        client = LocalClient(service)
        client.tell("TELL Module IN SimpleClass END")
        client.decide("Smoke", kind="mapping",
                      tell=["TELL parser IN Module END"])

        log("info", "smoke workload done", logger="repro.obs",
            answers=len(answers), violations=len(violations))
    finally:
        service.close()
        set_tracer(previous)
        if store is not None:
            store.close()
    exported = tracer.export_jsonl(trace_path)
    dump_snapshot(metrics_path, registry.snapshot())
    log("info", "smoke artifacts written", logger="repro.obs",
        trace=trace_path, metrics=metrics_path, spans=exported)
    return tracer.subsystem_counts()


def _cmd_smoke(args: argparse.Namespace) -> int:
    counts = run_smoke(args.trace_out, args.metrics_out, args.wal_dir)
    for subsystem in sorted(counts):
        log("info", f"{subsystem}: {counts[subsystem]} spans",
            logger="repro.obs")
    missing = [s for s in SMOKE_SUBSYSTEMS if not counts.get(s)]
    if missing:
        log("error", f"FAIL: no spans from {', '.join(missing)}",
            logger="repro.obs")
        return 1
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        records = load_jsonl(args.trace)
    except (TraceError, OSError) as exc:
        log("error", f"FAIL: {exc}", logger="repro.obs")
        return 1
    counts: Dict[str, int] = {}
    for record in records:
        subsystem = str(record.get("name", "")).split(".", 1)[0]
        counts[subsystem] = counts.get(subsystem, 0) + 1
    required = args.require or list(SMOKE_SUBSYSTEMS)
    missing = [s for s in required if not counts.get(s)]
    log("info", f"{len(records)} spans, subsystems: "
        + (", ".join(f"{s}={counts[s]}" for s in sorted(counts)) or "none"),
        logger="repro.obs")
    if missing:
        log("error", f"FAIL: no spans from {', '.join(missing)}",
            logger="repro.obs")
        return 1
    log("info", "OK", logger="repro.obs")
    return 0


def _counter(snapshot: Dict[str, object], name: str) -> int:
    value = snapshot.get(name, 0)
    if isinstance(value, dict):
        return int(value.get("count", 0))
    return int(value) if isinstance(value, (int, float)) else 0


def closure_cache_report(snapshot: Dict[str, object]) -> List[str]:
    """Render the closure-cache pathology block of a metric snapshot.

    The hit/miss/invalidation/delta-applied census makes the cache
    regime legible at a glance: invalidations rebuilding whole closure
    families versus deltas patching them in place (the PR 2 headline
    ratio — e.g. 538 isa expansions cached vs 702 uncached — shows up
    here as the hit rate; PR 7's maintenance shows up as deltas
    replacing invalidations).
    """
    hits = _counter(snapshot, "proposition.closure_hits")
    misses = _counter(snapshot, "proposition.closure_misses")
    total = hits + misses
    lines = ["-- closure cache --",
             f"  hits = {hits}  misses = {misses}"
             + (f"  hit_rate = {hits / total:.2f}" if total else ""),
             f"  invalidations = "
             f"{_counter(snapshot, 'proposition.closure_invalidations')}"
             f"  delta_applied = "
             f"{_counter(snapshot, 'proposition.closure_delta_applied')}"
             f"  delta_evictions = "
             f"{_counter(snapshot, 'proposition.closure_delta_evictions')}",
             f"  isa_expansions = "
             f"{_counter(snapshot, 'proposition.isa_expansions')}",
             "-- idb maintenance --",
             f"  delta_applies = {_counter(snapshot, 'deduction.delta_applies')}"
             f"  delta_fallbacks = "
             f"{_counter(snapshot, 'deduction.delta_fallbacks')}"
             f"  rule_firings = {_counter(snapshot, 'deduction.rule_firings')}",
             f"  rederivations = "
             f"{_counter(snapshot, 'deduction.rederivations')}"
             f"  overdeletions = "
             f"{_counter(snapshot, 'deduction.overdeletions')}"]
    return lines


def _cmd_dump(args: argparse.Namespace) -> int:
    try:
        records = load_jsonl(args.trace)
    except (TraceError, OSError) as exc:
        log("error", f"FAIL: {exc}", logger="repro.obs")
        return 1
    log("info", render_tree(span_tree(records), max_depth=args.max_depth),
        logger="repro.obs")
    if args.metrics:
        try:
            snapshot = load_snapshot(args.metrics)
        except OSError as exc:
            log("error", f"FAIL: {exc}", logger="repro.obs")
            return 1
        log("info", "\n".join(closure_cache_report(snapshot)),
            logger="repro.obs")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    try:
        before = load_snapshot(args.before)
        after = load_snapshot(args.after)
    except OSError as exc:
        log("error", f"FAIL: {exc}", logger="repro.obs")
        return 1
    deltas = diff_snapshots(before, after)
    for name in sorted(deltas):
        value = deltas[name]
        if isinstance(value, dict):
            if value.get("count"):
                log("info", f"{name} count+{value['count']}", logger="repro.obs")
        elif value or args.all:
            log("info", f"{name} {value:+}", logger="repro.obs")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect and gate trace/metric artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    smoke = sub.add_parser("smoke", help="run the traced smoke workload")
    smoke.add_argument("--trace-out", default="obs-trace.jsonl")
    smoke.add_argument("--metrics-out", default="obs-metrics.json")
    smoke.add_argument("--wal-dir", default=None)
    smoke.set_defaults(fn=_cmd_smoke)

    check = sub.add_parser("check", help="gate a trace file")
    check.add_argument("trace")
    check.add_argument("--require", action="append", default=None,
                       metavar="SUBSYSTEM")
    check.set_defaults(fn=_cmd_check)

    dump = sub.add_parser("dump", help="render a trace file")
    dump.add_argument("trace")
    dump.add_argument("--max-depth", type=int, default=12)
    dump.add_argument("--metrics", default=None,
                      help="metric snapshot to render the closure-cache"
                           " pathology block from")
    dump.set_defaults(fn=_cmd_dump)

    diff = sub.add_parser("diff", help="diff two metric snapshots")
    diff.add_argument("before")
    diff.add_argument("after")
    diff.add_argument("--all", action="store_true",
                      help="include zero deltas")
    diff.set_defaults(fn=_cmd_diff)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # A CLI is an application: route structured logs to the console for
    # the duration of the run (restored so in-process callers — tests —
    # do not change the process default).
    previous = set_sink(StreamSink())
    try:
        return args.fn(args)
    finally:
        set_sink(previous)


if __name__ == "__main__":
    sys.exit(main())
