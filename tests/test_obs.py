"""Tests for the observability layer: metrics, tracing, EXPLAIN, CLI."""

import json
import threading
import time

import pytest

from repro.deduction.kb import RuleEngine
from repro.obs.explain import QueryExplain
from repro.obs.logging import (
    CollectingSink,
    NullSink,
    StreamSink,
    get_sink,
    log,
    set_sink,
)
from repro.obs.metrics import (
    MetricError,
    MetricsRegistry,
    StatsView,
    diff_snapshots,
    dump_snapshot,
    load_snapshot,
)
from repro.obs.tracing import (
    TraceError,
    Tracer,
    load_jsonl,
    render_tree,
    span_tree,
)
from repro.propositions.processor import PropositionProcessor


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        with pytest.raises(MetricError):
            registry.gauge("a.b")

    def test_thread_safety_smoke(self):
        registry = MetricsRegistry()
        counter = registry.counter("x.hits")
        threads = [
            threading.Thread(
                target=lambda: [counter.inc() for _ in range(1000)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000

    def test_namespace_prefixes_names(self):
        registry = MetricsRegistry()
        ns = registry.namespace("proposition")
        ns.counter("tells").inc(3)
        assert registry.snapshot() == {"proposition.tells": 3}
        assert ns.snapshot() == {"tells": 3}

    def test_histogram_summary_and_determinism(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        h1 = r1.histogram("q.latency", reservoir_size=16)
        h2 = r2.histogram("q.latency", reservoir_size=16)
        for i in range(100):
            h1.observe(float(i))
            h2.observe(float(i))
        # same name => same reservoir RNG => identical snapshots
        assert h1.summary() == h2.summary()
        assert h1.summary()["count"] == 100
        assert h1.summary()["min"] == 0.0
        assert h1.summary()["max"] == 99.0

    def test_reset_by_prefix(self):
        registry = MetricsRegistry()
        registry.counter("a.x").inc()
        registry.counter("b.y").inc()
        registry.reset("a.")
        assert registry.snapshot() == {"a.x": 0, "b.y": 1}

    def test_diff_snapshots(self):
        before = {"a.x": 1, "a.y": 5}
        after = {"a.x": 4, "a.z": 2}
        assert diff_snapshots(before, after) == {
            "a.x": 3, "a.y": -5, "a.z": 2
        }

    def test_snapshot_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("a.x").inc(7)
        path = str(tmp_path / "snap.json")
        dump_snapshot(path, registry.snapshot())
        assert load_snapshot(path) == {"a.x": 7}


class TestStatsView:
    def test_dict_idiom_hits_registry(self):
        registry = MetricsRegistry()
        ns = registry.namespace("c")
        ns.counter("hits")
        view = StatsView(ns)
        view["hits"] += 2
        assert view["hits"] == 2
        assert registry.snapshot()["c.hits"] == 2

    def test_readonly_backing_visible_but_not_writable(self):
        registry = MetricsRegistry()
        ns = registry.namespace("own")
        ns.counter("mine")
        backing = {"theirs": 9}
        view = StatsView(ns, readonly=(backing,))
        assert view["theirs"] == 9
        assert "theirs" in dict(view)
        with pytest.raises(MetricError):
            view["theirs"] = 1

    def test_reset_leaves_readonly_alone(self):
        registry = MetricsRegistry()
        ns = registry.namespace("own")
        ns.counter("mine").inc(4)
        backing = {"theirs": 9}
        view = StatsView(ns, readonly=(backing,))
        view.reset()
        assert view["mine"] == 0
        assert view["theirs"] == 9


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestTracing:
    def test_span_nesting_and_ordering(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a.outer"):
            with tracer.span("a.inner"):
                pass
            with tracer.span("a.second"):
                pass
        # finished in close order: inner, second, outer
        names = [span.name for span in tracer.spans]
        assert names == ["a.inner", "a.second", "a.outer"]
        outer = tracer.spans[2]
        assert tracer.spans[0].parent_id == outer.span_id
        assert tracer.spans[1].parent_id == outer.span_id
        assert outer.parent_id is None

    def test_injectable_clock_determinism(self):
        tracer = Tracer(clock=FakeClock(), enabled=True)
        with tracer.span("a.x"):
            pass
        span = tracer.spans[0]
        assert (span.start, span.end, span.duration) == (1.0, 2.0, 1.0)

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("a.x") as span:
            span.set(k=1)
        assert tracer.spans == []

    def test_error_status_on_exception(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("a.x"):
                raise ValueError("boom")
        assert tracer.spans[0].status == "error"
        assert tracer.spans[0].attrs["error"] == "ValueError"

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer(clock=FakeClock(), enabled=True)
        with tracer.span("a.outer", depth=0):
            with tracer.span("a.inner", depth=1):
                pass
        path = str(tmp_path / "trace.jsonl")
        assert tracer.export_jsonl(path) == 2
        records = load_jsonl(path)
        assert [r["name"] for r in records] == ["a.inner", "a.outer"]
        roots = span_tree(records)
        assert len(roots) == 1
        assert roots[0]["name"] == "a.outer"
        assert roots[0]["children"][0]["name"] == "a.inner"
        text = render_tree(roots)
        assert "a.outer" in text and "└─ a.inner" in text

    def test_malformed_trace_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "a.x", "span_id": 1}\nnot json\n')
        with pytest.raises(TraceError):
            load_jsonl(str(path))
        path.write_text('{"nope": 1}\n')
        with pytest.raises(TraceError):
            load_jsonl(str(path))

    def test_max_spans_bounds_memory(self):
        tracer = Tracer(enabled=True, max_spans=2)
        for _ in range(5):
            with tracer.span("a.x"):
                pass
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3


# ---------------------------------------------------------------------------
# Logging
# ---------------------------------------------------------------------------


class TestLogging:
    def test_default_sink_is_silent(self, capsys):
        assert isinstance(get_sink(), NullSink)
        log("info", "quiet")
        assert capsys.readouterr().out == ""

    def test_collecting_sink(self):
        sink = CollectingSink()
        log("warning", "watch out", sink=sink, code=7)
        assert sink.messages("warning") == ["watch out"]
        assert sink.records[0].fields == {"code": 7}

    def test_stream_sink_routes_errors(self, capsys):
        previous = set_sink(StreamSink())
        try:
            log("info", "to stdout")
            log("error", "to stderr")
        finally:
            set_sink(previous)
        captured = capsys.readouterr()
        assert "to stdout" in captured.out
        assert "error: to stderr" in captured.err

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            log("loud", "nope")


# ---------------------------------------------------------------------------
# Stats aliasing regressions (engine/checker; processor+WAL cases live
# in test_wal_recovery.py)
# ---------------------------------------------------------------------------


class TestStatsIndependence:
    def test_two_engines_one_processor_count_independently(self):
        proc = PropositionProcessor()
        for i in range(5):
            proc.tell_individual(f"node{i}")
        for i in range(4):
            proc.tell_link(f"node{i}", "knows", f"node{i+1}")
        rule = "attr(?x, peer, ?z) :- attr(?x, knows, ?y), attr(?y, knows, ?z)."
        one = RuleEngine(proc)
        two = RuleEngine(proc)
        one.add_rule(rule, document=False)
        two.add_rule(rule, document=False)
        one.materialise()
        assert one.stats["join_probes"] > 0
        assert two.stats["join_probes"] == 0

    def test_engine_reset_stats(self):
        proc = PropositionProcessor()
        engine = RuleEngine(proc)
        engine.add_rule("attr(?x, a, ?y) :- attr(?x, b, ?y).",
                        document=False)
        engine.materialise()
        assert engine.stats["iterations"] > 0
        engine.reset_stats()
        assert engine.stats["iterations"] == 0

    def test_checker_stats_registry_backed(self):
        from repro.conceptbase import ConceptBase

        cb = ConceptBase()
        cb.define_metaclass("TDL_EntityClass")
        cb.tell("TELL Person IN TDL_EntityClass END")
        cb.add_constraint("Person", "IsKnown", "Known(self)")
        cb.tell("TELL ann IN Person END")
        cb.check()
        assert cb.consistency.stats.evaluations > 0
        # the same numbers surface through the shared facade registry
        snap = cb.metrics_snapshot("consistency")
        assert snap["consistency.evaluations"] == \
            cb.consistency.stats.evaluations
        cb.consistency.reset_stats()
        assert cb.consistency.stats.evaluations == 0

    def test_checkstats_rejects_unknown_attribute(self):
        from repro.consistency.checker import CheckStats

        stats = CheckStats()
        with pytest.raises(AttributeError):
            stats.typo = 3

    def test_store_counters_roll_up_to_facade_registry(self):
        from repro.conceptbase import ConceptBase

        cb = ConceptBase()
        cb.define_metaclass("TDL_EntityClass")
        snap = cb.metrics_snapshot("store")
        assert snap["store.creates"] > 0


# ---------------------------------------------------------------------------
# EXPLAIN
# ---------------------------------------------------------------------------


class TestQueryExplain:
    def _processor(self, optimise=True):
        proc = PropositionProcessor(optimise=optimise)
        proc.define_class("Person", level="SimpleClass")
        for i in range(10):
            proc.tell_individual(f"ind{i}", in_class="Person")
        return proc

    def test_cold_query_shows_closure_spans(self):
        proc = self._processor()
        explain = QueryExplain(proc.registry)
        with explain.capture("cold") as report:
            proc.classes_of("ind0")
        assert report.spans_named("proposition.closure")
        assert report.delta("proposition.closure_misses") > 0
        assert report.headline()["closure_spans"] > 0

    def test_warm_query_is_span_free_but_counts_hits(self):
        proc = self._processor()
        proc.classes_of("ind0")  # warm the cache
        explain = QueryExplain(proc.registry)
        with explain.capture("warm") as report:
            proc.classes_of("ind0")
        assert report.spans_named("proposition.closure") == []
        assert report.delta("proposition.closure_hits") > 0
        assert report.delta("proposition.closure_misses") == 0
        assert "cache" in report.render()

    def test_explain_reproduces_isa_expansion_headline(self):
        """PR 2's >=5x isa-expansion saving, from registry data alone."""
        expansions = {}
        for optimise in (True, False):
            proc = self._processor(optimise=optimise)
            explain = QueryExplain(proc.registry)
            with explain.capture("workload") as report:
                for i in range(10):
                    proc.classes_of(f"ind{i}")
                    proc.instances_of("Person")
            expansions[optimise] = report.delta(
                "proposition.isa_expansions")
        assert expansions[False] >= 5 * max(1, expansions[True])

    def test_explain_reproduces_join_probe_headline(self):
        """PR 3's >=3x join-probe saving, from registry data alone."""
        probes = {}
        rule = ("attr(?x, peer, ?z) :- "
                "attr(?x, knows, ?y), attr(?y, knows, ?z).")
        for optimise in (True, False):
            proc = PropositionProcessor()
            for i in range(12):
                proc.tell_individual(f"node{i}")
            for i in range(11):
                proc.tell_link(f"node{i}", "knows", f"node{i+1}")
            engine = RuleEngine(proc, optimise=optimise)
            engine.add_rule(rule, document=False)
            explain = QueryExplain(engine.registry)
            report = explain.explain(engine.materialise)
            probes[optimise] = report.delta("deduction.join_probes")
        assert probes[False] >= 3 * max(1, probes[True])

    def test_explain_captures_deduction_rounds(self):
        proc = PropositionProcessor()
        for i in range(4):
            proc.tell_individual(f"node{i}")
        for i in range(3):
            proc.tell_link(f"node{i}", "knows", f"node{i+1}")
        engine = RuleEngine(proc)
        engine.add_rule(
            "attr(?x, reaches, ?y) :- attr(?x, knows, ?y).",
            document=False)
        engine.add_rule(
            "attr(?x, reaches, ?z) :- "
            "attr(?x, reaches, ?y), attr(?y, knows, ?z).",
            document=False)
        explain = QueryExplain(engine.registry)
        report = explain.explain(engine.materialise)
        trees = report.tree()
        materialise = [t for t in trees
                       if t["name"] == "deduction.materialise"]
        assert materialise
        evaluates = [c for c in materialise[0]["children"]
                     if c["name"] == "deduction.evaluate"]
        assert evaluates
        rounds = [c for c in evaluates[0]["children"]
                  if c["name"] == "deduction.round"]
        assert len(rounds) >= 2
        assert report.delta("deduction.materialisations") == 1

    def test_explain_surfaces_cache_pathology_split(self):
        """The headline separates rebuild churn (invalidations) from
        in-place maintenance (delta applications): the same mutation
        workload shows deltas on the incremental processor and
        invalidations on the ablation."""
        observed = {}
        for incremental in (True, False):
            proc = PropositionProcessor(incremental=incremental)
            proc.define_class("Person")
            proc.tell_individual("ann")
            proc.classes_of("ann")           # warm the family
            explain = QueryExplain(proc.registry)
            with explain.capture("mutate") as report:
                proc.tell_instanceof("ann", "Person")
                proc.classes_of("ann")
            observed[incremental] = report.headline()
        assert observed[True]["closure_delta_applied"] > 0
        assert observed[True]["closure_invalidations"] == 0
        assert observed[False]["closure_invalidations"] > 0
        assert observed[False]["closure_delta_applied"] == 0
        rendered_keys = ("closure_delta_applied", "closure_invalidations")
        assert any(key in QueryExplain(
            PropositionProcessor().registry
        ).explain(lambda: None).headline() for key in rendered_keys)

    def test_facade_explain_accessor(self):
        from repro.conceptbase import ConceptBase

        cb = ConceptBase()
        cb.define_metaclass("TDL_EntityClass")
        cb.tell("TELL Person IN TDL_EntityClass END")
        with cb.explain().capture("tell") as report:
            cb.tell("TELL ann IN Person END")
        assert report.delta("proposition.tells") > 0
        assert "EXPLAIN tell" in report.render()

    def test_capture_records_only_its_own_thread(self):
        """Another thread telling into another base meanwhile opens its
        spans on the (disabled) process default, not in the report."""
        from repro.conceptbase import ConceptBase

        cb = ConceptBase()
        cb.tell("TELL Person IN SimpleClass END")
        other = ConceptBase()
        other.tell("TELL Person IN SimpleClass END")
        told = []
        stop = threading.Event()

        def tell_others():
            while not stop.is_set():
                other.tell(f"TELL p{len(told)} IN Person END")
                told.append(1)

        worker = threading.Thread(target=tell_others)
        worker.start()
        try:
            with cb.explain().capture("tell") as report:
                before = len(told)
                cb.tell("TELL ann IN Person END")
                # the other thread keeps telling while the capture is open
                deadline = time.monotonic() + 5
                while len(told) < before + 3 and time.monotonic() < deadline:
                    stop.wait(0.001)
                overlapped = len(told) - before
        finally:
            stop.set()
            worker.join(5)
        assert not worker.is_alive()
        assert overlapped >= 3
        tells = report.spans_named("proposition.tell")
        assert len(tells) == 2  # ann and its instanceof link

    def test_capture_restores_previous_tracer(self):
        from repro.obs.tracing import get_tracer

        proc = self._processor()
        before = get_tracer()
        with QueryExplain(proc.registry).capture("x"):
            assert get_tracer() is not before
        assert get_tracer() is before


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestObsCli:
    def test_smoke_check_dump_diff(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        trace = str(tmp_path / "trace.jsonl")
        metrics = str(tmp_path / "metrics.json")
        assert main(["smoke", "--trace-out", trace,
                     "--metrics-out", metrics,
                     "--wal-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for subsystem in ("proposition", "deduction", "consistency",
                          "wal", "models", "server", "decisions"):
            assert f"{subsystem}:" in out

        assert main(["check", trace]) == 0
        assert "OK" in capsys.readouterr().out

        assert main(["dump", trace]) == 0
        assert "wal.recover" in capsys.readouterr().out

        assert main(["dump", trace, "--metrics", metrics]) == 0
        out = capsys.readouterr().out
        assert "closure cache" in out
        assert "delta_applied" in out
        assert "idb maintenance" in out

        # diff a snapshot against itself: all deltas zero, prints nothing
        assert main(["diff", metrics, metrics]) == 0
        assert capsys.readouterr().out.strip() == ""

    def test_smoke_twice_into_one_wal_dir(self, tmp_path, capsys):
        """A second smoke on the same ``--wal-dir`` starts from an empty
        base instead of recovering the first run's log."""
        from repro.obs.__main__ import main

        censuses = []
        for run in range(2):
            assert main(["smoke",
                         "--trace-out", str(tmp_path / f"trace{run}.jsonl"),
                         "--metrics-out", str(tmp_path / f"metrics{run}.json"),
                         "--wal-dir", str(tmp_path)]) == 0
            out = capsys.readouterr().out
            censuses.append([line for line in out.splitlines()
                             if line.endswith(" spans")])
        assert censuses[0] and censuses[0] == censuses[1]

    def test_check_fails_on_missing_subsystem(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        trace = tmp_path / "partial.jsonl"
        trace.write_text(json.dumps(
            {"name": "proposition.tell", "span_id": 1, "parent_id": None}
        ) + "\n")
        assert main(["check", str(trace)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_check_fails_on_malformed_trace(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        trace = tmp_path / "garbage.jsonl"
        trace.write_text("this is not json\n")
        assert main(["check", str(trace)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_metrics_snapshot_has_stable_subsystem_names(self, tmp_path):
        from repro.obs.__main__ import run_smoke

        trace = str(tmp_path / "trace.jsonl")
        metrics = str(tmp_path / "metrics.json")
        run_smoke(trace, metrics, wal_dir=str(tmp_path))
        snapshot = load_snapshot(metrics)
        prefixes = {name.split(".", 1)[0] for name in snapshot}
        assert {"proposition", "deduction", "consistency",
                "wal", "store", "models"} <= prefixes
