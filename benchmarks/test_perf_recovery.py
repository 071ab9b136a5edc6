"""Perf-10 — crash-survivable service tier (PR 8).

Measures what recovery costs and gates what it must never lose:

- **Supervised MTTR**: a durability fault poisons the pipeline under a
  live client; the :class:`~repro.server.supervisor.ServiceSupervisor`
  quiesces, truncates to the durable watermark, replays the WAL and
  resumes.  The bench times the full client-visible outage (fault to
  successful retried commit) and the gate bounds the supervisor's own
  ``server.supervisor.mttr_ms`` generously — wall clocks vary, losing
  acked commits does not.
- **Chaos-matrix counts**: one seed of every strict fault kind through
  the :class:`~repro.scenario.chaos.ChaosHarness`; the structural
  gates are machine-independent — recovered rows equal to the acked
  oracle replay, zero acked commits lost, exactly-once for the
  dropped-client retry.

Counters land in ``BENCH_PR8.json`` via ``--bench-json`` (see
``benchmarks/conftest.py``): per-kind acked/applied commit counts,
unsynced bytes lost to the power cut, and the supervisor's restart and
recovery totals.
"""

from repro.conceptbase import ConceptBase
from repro.faults import FaultPlan, FaultyIO
from repro.obs.metrics import MetricsRegistry
from repro.propositions.wal import WalStore
from repro.scenario.chaos import STRICT_KINDS, ChaosHarness, replay_commit_log
from repro.server.client import LocalClient, RetryPolicy
from repro.server.service import GKBMSService
from repro.server.supervisor import ServiceSupervisor

SEED = 0
#: Generous ceiling on the supervisor's measured recovery time.  The
#: point is boundedness (no hung recovery, no unbounded backoff), not a
#: wall-clock race: real MTTR here is tens of milliseconds.
MTTR_CEILING_MS = 5000.0
PRE_FAULT_COMMITS = 6
POST_FAULT_COMMITS = 4


def supervised_fault_cycle(wal_path):
    """One full outage: commits, fsync fault, supervised restart,
    retried commits on the recovered service.  Returns (service,
    registry) with the supervisor already joined."""
    plan = FaultPlan(seed=SEED)
    io = FaultyIO(plan)
    registry = MetricsRegistry()
    store = WalStore(wal_path, fsync="commit", io=io, registry=registry)
    service = GKBMSService(ConceptBase(store=store, registry=registry))
    supervisor = ServiceSupervisor(
        service, backoff_base=0.001, backoff_cap=0.01, seed=SEED
    )
    client = LocalClient(
        service, retry=RetryPolicy(seed=SEED, base=0.001, cap=0.01)
    )
    client.tell("TELL Doc IN SimpleClass END")
    for n in range(PRE_FAULT_COMMITS):
        client.tell(f"TELL Pre{n} IN Doc END")
    plan.fail_fsyncs_from = io.ops + 1
    for n in range(POST_FAULT_COMMITS):
        # The first of these hits the poisoned pipeline; its tokened
        # retry waits out the restart and applies exactly once.
        client.tell(f"TELL Post{n} IN Doc END")
    supervisor.join()
    return service, registry


# ---------------------------------------------------------------------------
# Part A: supervised recovery — timed outage, bounded MTTR
# ---------------------------------------------------------------------------

def test_perf_supervised_recovery_mttr(benchmark, tmp_path):
    counter = iter(range(10**6))

    def cycle():
        service, registry = supervised_fault_cycle(
            str(tmp_path / f"mttr{next(counter)}.wal")
        )
        try:
            return registry.snapshot("server.supervisor")
        finally:
            service.drain()

    snapshot = benchmark(cycle)
    assert snapshot["server.supervisor.recoveries"] >= 1
    assert snapshot["server.supervisor.read_only_degrades"] == 0
    mttr = snapshot["server.supervisor.mttr_ms"]
    assert mttr["count"] >= 1
    assert mttr["max"] < MTTR_CEILING_MS


# ---------------------------------------------------------------------------
# Part B: structural gates (run in CI with --benchmark-disable)
# ---------------------------------------------------------------------------

def test_recovery_counts_zero_lost_acked(tmp_path, perf_counters,
                                         registry_metrics):
    """The Perf-10 acceptance bar: a supervised restart keeps every
    commit a client was told about, exactly once, and says how long it
    was down."""
    service, registry = supervised_fault_cycle(str(tmp_path / "gate.wal"))
    try:
        assert service.status == "serving"
        log = service.pipeline.commit_log()
        live = service.cb.propositions.store.rows()
        oracle = replay_commit_log(log)
        assert live == oracle.propositions.store.rows(), \
            "recovered base diverged from its own commit log"
        names = [f"Pre{n}" for n in range(PRE_FAULT_COMMITS)] + \
                [f"Post{n}" for n in range(POST_FAULT_COMMITS)]
        for name in names:
            hits = sum(
                1 for entry in log
                if any(f"TELL {name} " in arg for _k, arg in entry[2])
            )
            assert hits == 1, f"{name}: applied {hits} times"
        snapshot = registry.snapshot("server.supervisor")
        assert snapshot["server.supervisor.faults"] >= 1
        assert snapshot["server.supervisor.failed_recoveries"] == 0
        perf_counters(
            recovery_commits_total=len(log),
            recovery_restarts=snapshot["server.supervisor.restarts"],
            recovery_mttr_ms_max=snapshot["server.supervisor.mttr_ms"]["max"],
        )
        registry_metrics(registry, prefix="server.supervisor")
    finally:
        service.drain()


def test_chaos_matrix_counts_zero_lost_acked(tmp_path, perf_counters):
    """One seed of every strict fault kind: the reboot oracle holds —
    every acked commit survives, no unacked commit is visible."""
    totals = {"acked": 0, "applied": 0, "unsynced_bytes_lost": 0}
    for kind in STRICT_KINDS:
        harness = ChaosHarness(
            str(tmp_path / f"{kind}.wal"), kind, SEED
        )
        report = harness.run()
        assert report.rows_equal, f"{kind}: lost acked commits"
        assert report.lost_acked == 0
        if kind == "client_drop":
            assert report.exactly_once is True
        totals["acked"] += report.acked_commits
        totals["applied"] += report.applied_commits
        totals["unsynced_bytes_lost"] += report.unsynced_bytes_lost
    assert totals["acked"] > 0
    perf_counters(
        chaos_kinds=len(STRICT_KINDS),
        chaos_acked_commits=totals["acked"],
        chaos_applied_commits=totals["applied"],
        chaos_unsynced_bytes_lost=totals["unsynced_bytes_lost"],
    )
