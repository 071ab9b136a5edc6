"""Perf-12 — selective backtracking on a served decision history (PR 10).

The point of keeping the justification graph (section 3.3.3): undoing
a design decision should cost what the decision and its transitive
consequents cost, not what the whole history cost.  Gated claims over
a 200-decision served history:

- **Selective beats rebuild**: backtracking a mid-history decision
  re-applies >= 3x fewer propositions than a from-scratch rebuild of
  the surviving history would replay.
- **And is exact**: the post-backtrack base is bit-identical
  (canonical ``rows()``) to an oracle base where the condemned
  decisions never executed at all.

- **Graph work is per record, not per history**: on a 1000-decision
  history, decides, backtracks and history reads construct no
  justification graph; each decide links exactly one record into the
  graph the ledger maintains.

- **A decide's delta is logged once**: over 200 decides shaped like
  servedbench's decision-history preload, WAL bytes per decide are at
  least 25% below the same log in the older format, whose ``decision``
  records repeated the delta their transaction had already logged.

- **Ledger reads join, they do not encode**: on a served 400-decision
  ledger of that shape, 50 ``versions`` and 50 ``history`` reads render
  no fragment (``decisions.fragments_rendered``); one decide renders as
  many at 100 decisions as at 400; one backtrack renders its victims'
  own fragments again and nothing else.

Counters (propositions re-applied, rebuild size, the ratio scaled to
an integer, graph constructions and links per op) land in the BENCH
json as the machine-independent trajectory; the ``decisions.*``
registry metrics ride along.
"""

from repro.atomicio import REAL_IO
from repro.conceptbase import ConceptBase
from repro.decisions import JustificationGraph
from repro.decisions.ledger import version_base
from repro.obs.metrics import MetricsRegistry
from repro.propositions.wal import WalStore, encode_record, scan_records
from repro.server.client import LocalClient
from repro.server.service import GKBMSService

#: History length for the Perf-12 gates.
DECISIONS = 200
#: Selective backtrack must re-apply >= RATIO x fewer propositions
#: than a from-scratch rebuild of the surviving history.
RATIO = 3.0
#: Mid-history backtrack target; its from-to chain segment (chains
#: break every 4 decisions) makes the condemned subtree 3 decisions.
TARGET = f"d{DECISIONS // 2 - 2}"
#: History length, and ops per kind, for the graph-work gate.
WORK_DECISIONS = 1000
WORK_DECIDES, WORK_BACKTRACKS, WORK_HISTORIES = 50, 10, 10
#: Decides for the WAL-bytes gate, and the least saving per decide
#: against the older log format (the delta repeated in each record).
WAL_DECIDES, WAL_SAVING = 200, 0.25
#: Ledger sizes for the encoded-read gate, and reads of each op.
READ_DECISIONS, SMALL_DECISIONS, READS = 400, 100, 50


def _grow_history(client, count):
    """Bare-individual decides (pid == name, so oracle comparison is
    bit-exact) chained into length-4 from-to segments — so a
    mid-history backtrack condemns a real subtree, not just itself."""
    for n in range(count):
        spec = {"tell": [f"TELL Obj{n} END"]}
        if n % 4:
            spec["inputs"] = {"src": f"Obj{n - 1}"}
        client.decide(f"Dec{n % 6}",
                      kind=("mapping", "refinement", "choice")[n % 3],
                      **spec)


def _rebuild_survivors(history, condemned):
    """The from-scratch alternative: replay every surviving decision
    into a fresh service; returns (service, propositions replayed)."""
    service = GKBMSService(batch_window=0.0)
    oracle = LocalClient(service)
    replayed = 0
    for entry in history["decisions"]:
        if entry["did"] in condemned:
            continue
        result = oracle.decide(
            entry["decision_class"],
            tell=[f"TELL {name} END" for name in entry["outputs"]],
            inputs=entry["inputs"], kind=entry["kind"],
        )
        replayed += result["told"] + result["untold"]
    return service, oracle, replayed


def test_backtrack_replays_fewer_propositions_than_rebuild(
        perf_counters, registry_metrics):
    service = GKBMSService(batch_window=0.0)
    client = LocalClient(service)
    _grow_history(client, DECISIONS)
    report = client.backtrack(TARGET)
    condemned = set(report["retracted"])
    assert 3 <= len(condemned) < DECISIONS // 4

    history = client.history()
    oracle_service, oracle, rebuild_props = \
        _rebuild_survivors(history, condemned)

    reapplied = report["reapplied"]
    assert reapplied * RATIO <= rebuild_props, (
        f"selective backtrack touched {reapplied} propositions; "
        f"a rebuild replays {rebuild_props} — ratio below {RATIO}x"
    )
    perf_counters(
        history_decisions=DECISIONS,
        condemned_decisions=len(condemned),
        backtrack_reapplied=reapplied,
        rebuild_replayed=rebuild_props,
        selectivity_ratio_x100=int(100 * rebuild_props / max(reapplied, 1)),
    )
    registry_metrics(service.cb.registry, prefix="decisions")
    client.close()
    oracle.close()


def test_backtrack_state_identical_to_oracle(perf_counters):
    service = GKBMSService(batch_window=0.0)
    client = LocalClient(service)
    _grow_history(client, DECISIONS)
    report = client.backtrack(TARGET)
    condemned = set(report["retracted"])
    oracle_service, oracle, _ = \
        _rebuild_survivors(client.history(), condemned)
    live_rows = service.cb.propositions.store.rows()
    oracle_rows = oracle_service.cb.propositions.store.rows()
    assert live_rows == oracle_rows
    perf_counters(surviving_propositions=len(live_rows))
    client.close()
    oracle.close()


def test_decide_graph_work_counts(monkeypatch, perf_counters):
    service = GKBMSService(batch_window=0.0)
    client = LocalClient(service)
    _grow_history(client, WORK_DECISIONS)
    counts = {"constructions": 0, "links": 0}
    init, add = JustificationGraph.__init__, JustificationGraph.add

    def counted_init(self, records):
        counts["constructions"] += 1
        init(self, records)

    def counted_add(self, record):
        counts["links"] += 1
        add(self, record)

    monkeypatch.setattr(JustificationGraph, "__init__", counted_init)
    monkeypatch.setattr(JustificationGraph, "add", counted_add)
    for n in range(WORK_DECIDES):
        client.decide("DecWork", tell=[f"TELL Work{n} END"],
                      inputs={"src": f"Obj{n}"})
    # chain heads (every 4th decision) in distinct segments
    step = WORK_DECISIONS // WORK_BACKTRACKS
    for target in range(1, WORK_DECISIONS, step):
        assert client.backtrack(f"d{target}")["retracted"]
    for _ in range(WORK_HISTORIES):
        client.history()
    ops = WORK_DECIDES + WORK_BACKTRACKS + WORK_HISTORIES
    ledger = service.decisions.ledger
    assert len(ledger) == WORK_DECISIONS + WORK_DECIDES
    assert counts["constructions"] == 0, (
        f"{counts['constructions']} justification graph(s) built in "
        f"{ops} decision ops"
    )
    assert counts["links"] == WORK_DECIDES
    perf_counters(
        ledger_records=len(ledger),
        graph_edges=ledger.graph.edge_count,
        decision_ops=ops,
        graph_constructions=counts["constructions"],
        graph_constructions_per_op=counts["constructions"] / ops,
        graph_links_per_decide=counts["links"] / WORK_DECIDES,
    )
    client.close()


def _seed_artifacts(client):
    """The classes artifact decides tell into; returns the first
    artifact list."""
    client.tell("TELL Artifact IN SimpleClass WITH\n"
                "  attribute from : Artifact\nEND")
    client.tell("TELL Note IN SimpleClass END")
    client.tell("TELL Root IN Artifact END")
    return ["Root"]


def _artifact_decide(client, artifacts, n, notes=None):
    """Decide ``n`` in decision-history's shape: one artifact linked
    FROM a recent one, plus ``notes`` notes (0, 1 or 2 in turn)."""
    source = artifacts[-1 - (7 * n) % min(len(artifacts), 40)]
    name = f"Art{n}"
    tell = [f"TELL {name} IN Artifact WITH\n  from from : {source}\nEND"]
    tell += [f"TELL {name}n{j} IN Note END"
             for j in range((n + 1) % 3 if notes is None else notes)]
    dclass = ("DecMap", "DecRefine", "DecChoose")[n % 3]
    client.decide(dclass, kind=("mapping", "refinement", "choice")[n % 3],
                  tool=dclass[3:] + "Tool", tell=tell,
                  inputs={"source": source},
                  rationale=f"seeded decision {n}")
    artifacts.append(name)


def test_wal_bytes_per_decide_counts(tmp_path, perf_counters):
    path = str(tmp_path / "decide.wal")
    store = WalStore(path, registry=MetricsRegistry())
    service = GKBMSService(ConceptBase(store=store), batch_window=0.0)
    client = LocalClient(service)
    artifacts = _seed_artifacts(client)
    start = store.log_offset
    for n in range(WAL_DECIDES):
        _artifact_decide(client, artifacts, n)
    ledger = service.decisions.ledger
    logged = store.log_offset - start
    records, _offset, corruption = scan_records(REAL_IO.read_bytes(path))
    assert corruption == ""
    decisions = [payload["record"] for _end, payload in records
                 if payload["op"] == "decision"]
    assert len(decisions) == WAL_DECIDES
    assert not any("delta" in record for record in decisions)
    # The same log in the older format: each decision record re-encoded
    # with its ledger record's delta.
    older = logged + sum(
        len(encode_record({"op": "decision", "record": dict(
            record, delta=ledger.get(record["did"]).to_json()["delta"])}))
        - len(encode_record({"op": "decision", "record": record}))
        for record in decisions)
    per_decide, older_per_decide = logged / WAL_DECIDES, older / WAL_DECIDES
    assert per_decide <= (1 - WAL_SAVING) * older_per_decide, (
        f"{per_decide:.0f} WAL bytes per decide against "
        f"{older_per_decide:.0f} with the delta logged twice"
    )
    perf_counters(
        wal_decides=WAL_DECIDES,
        wal_bytes_per_decide=round(per_decide),
        wal_bytes_per_decide_delta_twice=round(older_per_decide),
        wal_saving_pct=round(100 * (1 - per_decide / older_per_decide), 1),
    )
    client.close()
    store.close()


def _artifact_ledger(count):
    """A served ledger of ``count`` artifact decides; returns the
    service, its client and the artifact names."""
    service = GKBMSService(batch_window=0.0)
    client = LocalClient(service)
    artifacts = _seed_artifacts(client)
    for n in range(count):
        _artifact_decide(client, artifacts, n)
    return service, client, artifacts


def test_ledger_read_encode_counts(perf_counters, registry_metrics):
    per_decide = {}
    for size in (SMALL_DECISIONS, READ_DECISIONS):
        service, client, artifacts = _artifact_ledger(size)
        ledger = service.decisions.ledger
        before = ledger.fragments_rendered
        _artifact_decide(client, artifacts, size, notes=1)
        per_decide[size] = ledger.fragments_rendered - before
        if size != READ_DECISIONS:
            client.close()
    # One decide renders its own fragments and its new edges, whatever
    # the ledger's length.
    assert per_decide[SMALL_DECISIONS] == per_decide[READ_DECISIONS] > 0

    before = ledger.fragments_rendered
    for _ in range(READS):
        versions = client.versions()
        history = client.history()
    by_reads = ledger.fragments_rendered - before
    assert by_reads == 0, (
        f"{by_reads} fragments rendered by {2 * READS} ledger reads"
    )
    assert len(history["decisions"]) == READ_DECISIONS + 1
    assert history["edges"] and versions["versions"]

    before = ledger.fragments_rendered
    report = client.backtrack(f"d{READ_DECISIONS // 2}")
    victims = [ledger.get(did) for did in report["retracted"]]
    assert len(victims) > 1
    # A victim's own fragments: its summary, its version entries, each
    # of their bases' keys, and its configuration edge.  Its
    # justification edges carry no status and stay as they are.
    own = sum(1 + len(victim.outputs)
              + len(set(map(version_base, victim.outputs)))
              + (victim.kind != "other") for victim in victims)
    rendered = ledger.fragments_rendered - before
    assert rendered == own, (
        f"backtracking {len(victims)} decisions rendered {rendered} "
        f"fragments, their own are {own}"
    )
    snapshot = service.cb.registry.snapshot("decisions")
    assert snapshot["decisions.fragments_rendered"] == \
        ledger.fragments_rendered
    perf_counters(
        ledger_records=len(ledger),
        ledger_reads=2 * READS,
        fragments_rendered_by_reads=by_reads,
        fragments_per_decide_at_100=per_decide[SMALL_DECISIONS],
        fragments_per_decide_at_400=per_decide[READ_DECISIONS],
        backtrack_victims=len(victims),
        fragments_per_backtrack=rendered,
        versions_result_bytes=len(service.decisions.versions()),
        history_result_bytes=len(service.decisions.history()),
    )
    registry_metrics(service.cb.registry, prefix="decisions")
    client.close()
