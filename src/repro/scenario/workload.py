"""Randomised design-evolution workloads (S28).

Generates seeded, reproducible evolution histories: a random forest of
TaxisDL hierarchies, then a random sequence of GKBMS operations
(mapping with a random strategy, normalisation where a set-valued field
exists, transaction mapping, selective backtracking, replay).  Used by
the stress tests — which assert global invariants after *any* such
history — and usable for scaling studies beyond the Perf benches.

Randomness comes from a :class:`random.Random` with an explicit seed,
never from global state, so every failure is replayable.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.gkbms import GKBMS
from repro.errors import (
    CommitConflict,
    ConnectionLost,
    DeadlineExceeded,
    ReproError,
    ServerOverloaded,
    ServerReadOnly,
    ServerRestarting,
    SessionError,
)
from repro.faults import CrashPoint

STRATEGIES = {
    "DecMoveDown": "MoveDownMapper",
    "DecDistribute": "DistributeMapper",
    "DecSingleRelation": "SingleRelationMapper",
}


@dataclass
class WorkloadEvent:
    """One step of a generated history, for reporting."""

    kind: str  # map | normalize | map_txn | backtrack | replay | skip
    detail: str = ""


@dataclass
class DesignEvolutionWorkload:
    """Seeded random evolution history over a fresh GKBMS."""

    seed: int = 0
    hierarchies: int = 3
    steps: int = 12
    events: List[WorkloadEvent] = field(default_factory=list)

    def build_design(self) -> str:
        """A random forest: each hierarchy gets 1-3 subclasses, some
        attributes set-valued (normalisation candidates)."""
        rng = random.Random(self.seed)
        blocks: List[str] = []
        for h in range(self.hierarchies):
            root = f"Root{h}"
            blocks.append(
                f"entity class {root} with\n"
                f"  owner : {root}\n"
                f"end\n"
            )
            for s in range(rng.randint(1, 3)):
                attr = (
                    f"  members : set of {root}\n"
                    if rng.random() < 0.5
                    else f"  detail{s} : {root}\n"
                )
                blocks.append(
                    f"entity class Sub{h}x{s} isa {root} with\n{attr}end\n"
                )
            blocks.append(
                f"transaction class Touch{h} with\n"
                f"  in it : Root{h}\n"
                f"end\n"
            )
        return "\n".join(blocks)

    def run(self, gkbms: Optional[GKBMS] = None) -> GKBMS:
        """Execute the random history; returns the evolved GKBMS."""
        rng = random.Random(self.seed + 1)
        if gkbms is None:
            gkbms = GKBMS()
            gkbms.register_standard_library()
        gkbms.import_design(self.build_design())
        mapped: List[str] = []  # roots already mapped
        for _step in range(self.steps):
            action = rng.choice(
                ["map", "map", "normalize", "map_txn", "backtrack", "replay"]
            )
            handler = getattr(self, f"_do_{action}")
            self.events.append(handler(gkbms, rng, mapped))
        return gkbms

    # ------------------------------------------------------------------

    def _unmapped_roots(self, gkbms: GKBMS, mapped: List[str]) -> List[str]:
        return [
            f"Root{h}" for h in range(self.hierarchies)
            if f"Root{h}" not in mapped
        ]

    def _do_map(self, gkbms: GKBMS, rng: random.Random,
                mapped: List[str]) -> WorkloadEvent:
        candidates = self._unmapped_roots(gkbms, mapped)
        if not candidates:
            return WorkloadEvent("skip", "everything mapped")
        root = rng.choice(candidates)
        decision_class = rng.choice(sorted(STRATEGIES))
        try:
            gkbms.execute(
                decision_class, {"hierarchy": root},
                tool=STRATEGIES[decision_class],
            )
        except Exception as exc:  # name clash across strategies: skip
            return WorkloadEvent("skip", f"map {root} failed: {exc}")
        mapped.append(root)
        return WorkloadEvent("map", f"{root} via {decision_class}")

    def _do_normalize(self, gkbms: GKBMS, rng: random.Random,
                      mapped: List[str]) -> WorkloadEvent:
        candidates = [
            name
            for name, decl in gkbms.module.relations.items()
            if any(f.type_name.upper().startswith("SET OF ")
                   for f in decl.fields)
        ]
        if not candidates:
            return WorkloadEvent("skip", "nothing to normalize")
        relation = rng.choice(sorted(candidates))
        try:
            gkbms.execute(
                "DecNormalize", {"relation": relation}, tool="Normalizer",
            )
        except Exception as exc:
            return WorkloadEvent("skip", f"normalize {relation}: {exc}")
        return WorkloadEvent("normalize", relation)

    def _do_map_txn(self, gkbms: GKBMS, rng: random.Random,
                    mapped: List[str]) -> WorkloadEvent:
        candidates = [
            name for name in gkbms.design.transactions
            if f"T{name}" not in gkbms.module.transactions
        ]
        if not candidates:
            return WorkloadEvent("skip", "no transaction to map")
        txn = rng.choice(sorted(candidates))
        try:
            gkbms.execute(
                "DecMapTransaction", {"transaction": txn},
                tool="TransactionMapper",
            )
        except Exception as exc:
            return WorkloadEvent("skip", f"map_txn {txn}: {exc}")
        return WorkloadEvent("map_txn", txn)

    def _do_backtrack(self, gkbms: GKBMS, rng: random.Random,
                      mapped: List[str]) -> WorkloadEvent:
        active = gkbms.ledger.active()
        if not active:
            return WorkloadEvent("skip", "no decision to backtrack")
        victim = rng.choice(active)
        report = gkbms.backtracker.retract(victim.did)
        # a backtracked mapping frees its hierarchy for remapping
        for did in report.retracted_decisions:
            record = gkbms.ledger.get(did)
            for value in record.inputs.values():
                if value in mapped:
                    mapped.remove(value)
        return WorkloadEvent(
            "backtrack",
            f"{victim.did} (+{len(report.retracted_decisions) - 1} consequents)",
        )

    def _do_replay(self, gkbms: GKBMS, rng: random.Random,
                   mapped: List[str]) -> WorkloadEvent:
        retracted = [r for r in gkbms.ledger.records if not r.is_active]
        if not retracted:
            return WorkloadEvent("skip", "nothing to replay")
        record = rng.choice(retracted)
        outcome = gkbms.replayer.replay(record)
        if outcome.status == "replayed":
            for value in record.inputs.values():
                if value.startswith("Root") and value not in mapped:
                    mapped.append(value)
        return WorkloadEvent("replay", f"{record.did}: {outcome.status}")


# ----------------------------------------------------------------------
# Concurrent service-layer load (PR 5)
# ----------------------------------------------------------------------


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1)))
    return sorted_values[rank]


@dataclass
class LoadStats:
    """What a concurrent run did, with latency percentiles."""

    requests: int = 0
    commits: int = 0
    conflicts: int = 0
    shed: int = 0
    deadline_exceeded: int = 0
    expected_rejections: int = 0
    unexpected_errors: int = 0
    #: Ops cut short by an injected fault (tolerant mode): the service
    #: restarting, degraded read-only, a dropped connection, a session
    #: lost across a recovery.  Chaos runs count these separately so
    #: "unexpected" still gates at zero.
    interrupted: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    duration_s: float = 0.0

    def merge(self, other: "LoadStats") -> None:
        self.requests += other.requests
        self.commits += other.commits
        self.conflicts += other.conflicts
        self.shed += other.shed
        self.deadline_exceeded += other.deadline_exceeded
        self.expected_rejections += other.expected_rejections
        self.unexpected_errors += other.unexpected_errors
        self.interrupted += other.interrupted
        self.latencies_ms.extend(other.latencies_ms)

    @property
    def throughput(self) -> float:
        """Requests per second over the whole run."""
        return self.requests / self.duration_s if self.duration_s else 0.0

    def latency_summary(self) -> Dict[str, float]:
        ordered = sorted(self.latencies_ms)
        return {
            "p50_ms": _percentile(ordered, 0.50),
            "p99_ms": _percentile(ordered, 0.99),
            "max_ms": ordered[-1] if ordered else 0.0,
        }

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "requests": self.requests,
            "commits": self.commits,
            "conflicts": self.conflicts,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "expected_rejections": self.expected_rejections,
            "unexpected_errors": self.unexpected_errors,
            "interrupted": self.interrupted,
            "duration_s": round(self.duration_s, 6),
            "throughput_rps": round(self.throughput, 3),
        }
        out.update(
            {k: round(v, 3) for k, v in self.latency_summary().items()}
        )
        return out


@dataclass
class ConcurrentLoadGenerator:
    """Seeded multi-client load against the GKBMS service layer.

    ``client_factory`` yields one connected client per worker thread —
    a :class:`~repro.server.client.LocalClient` for in-process stress,
    a :class:`~repro.server.client.TCPClient` for the smoke run against
    a real socket.  Each worker runs a seeded random mix of autocommit
    tells, multi-op transactions over a small *hot set* of shared
    objects (the contention that exercises first-committer-wins) and
    snapshot reads.  Conflicts, shedding and deadline refusals are
    *expected* outcomes and counted separately; anything else counts as
    an unexpected error, which the stress tests and the CI smoke gate
    at zero.
    """

    client_factory: Callable[[], Any]
    threads: int = 8
    ops_per_thread: int = 40
    seed: int = 0
    write_ratio: float = 0.5
    transaction_ratio: float = 0.5
    hot_keys: int = 4
    class_name: str = "LoadObject"
    #: Fraction of ops that drive the decision ledger instead: mostly
    #: ``decide`` (telling one fresh object under a seeded decision
    #: class), sometimes ``backtrack`` of one of the worker's own
    #: earlier decisions.
    decision_ratio: float = 0.0
    #: Chaos mode: the service may be killed, restarted or degraded
    #: mid-run, so fault-shaped failures (restarting, read-only, lost
    #: connections, sessions invalidated by a recovery) count as
    #: ``interrupted`` instead of ``unexpected_errors`` — and a
    #: simulated process death reaching a worker ends that worker's op
    #: instead of tearing the whole generator down.
    tolerant: bool = False

    def __post_init__(self) -> None:
        # worker-private did lists for decision traffic; each worker
        # only touches its own wid key
        self._own_dids: Dict[int, List[str]] = {}

    def prime(self, client: Any) -> None:
        """Create the class and hot objects every worker touches."""
        client.tell(f"TELL {self.class_name} IN SimpleClass END")
        for k in range(self.hot_keys):
            client.tell(f"TELL Hot{k} IN {self.class_name} END")

    def run(self, prime: bool = True) -> LoadStats:
        """Drive the workload; returns merged statistics."""
        if prime:
            primer = self.client_factory()
            try:
                self.prime(primer)
            except BaseException as exc:  # noqa: BLE001 - chaos only
                # In tolerant mode the fault may land while priming;
                # the workers still run (and count their own
                # interruptions).  Anywhere else, priming must work.
                if not (self.tolerant
                        and isinstance(exc, (ReproError, OSError,
                                             CrashPoint))):
                    raise
            finally:
                try:
                    primer.close()
                except CrashPoint:
                    if not self.tolerant:
                        raise
        per_worker = [LoadStats() for _ in range(self.threads)]
        barrier = threading.Barrier(self.threads + 1)
        workers = [
            threading.Thread(
                target=self._worker, name=f"loadgen-{wid}",
                args=(wid, per_worker[wid], barrier), daemon=True,
            )
            for wid in range(self.threads)
        ]
        for worker in workers:
            worker.start()
        barrier.wait()
        start = time.monotonic()
        for worker in workers:
            worker.join()
        total = LoadStats()
        for stats in per_worker:
            total.merge(stats)
        total.duration_s = time.monotonic() - start
        return total

    # ------------------------------------------------------------------

    def _worker(self, wid: int, stats: LoadStats,
                barrier: threading.Barrier) -> None:
        rng = random.Random(self.seed * 1009 + wid)
        client = self.client_factory()
        try:
            barrier.wait()
            for n in range(self.ops_per_thread):
                self._one_op(client, rng, wid, n, stats)
        finally:
            client.close()

    def _timed(self, stats: LoadStats, fn: Callable[[], Any]) -> Any:
        start = time.monotonic()
        try:
            return fn()
        finally:
            stats.latencies_ms.append((time.monotonic() - start) * 1000.0)
            stats.requests += 1

    def _one_op(self, client: Any, rng: random.Random, wid: int,
                n: int, stats: LoadStats) -> None:
        try:
            if self.decision_ratio and rng.random() < self.decision_ratio:
                self._decision_op(client, rng, wid, n, stats)
                return
            if rng.random() >= self.write_ratio:
                self._timed(stats, lambda: client.instances(self.class_name))
                return
            if rng.random() < self.transaction_ratio:
                self._transaction_op(client, rng, wid, n, stats)
            else:
                source = f"TELL W{wid}x{n} IN {self.class_name} END"
                self._timed(stats, lambda: client.tell(source))
                stats.commits += 1
        except CommitConflict:
            stats.conflicts += 1
            stats.expected_rejections += 1
        except ServerOverloaded:
            stats.shed += 1
            stats.expected_rejections += 1
        except DeadlineExceeded:
            stats.deadline_exceeded += 1
            stats.expected_rejections += 1
        except (ServerRestarting, ServerReadOnly,
                ConnectionLost, SessionError):
            if self.tolerant:
                stats.interrupted += 1
            else:
                stats.unexpected_errors += 1
        except CrashPoint:
            # The simulated process death leaked to this caller (e.g.
            # an in-process client racing the kill).  In chaos mode the
            # worker plays a client of a dead server: count and carry
            # on.  Outside chaos there is no legitimate source — let it
            # kill the run like the SIGKILL it models.
            if not self.tolerant:
                raise
            stats.interrupted += 1
        except ReproError:
            if self.tolerant:
                stats.interrupted += 1
            else:
                stats.unexpected_errors += 1
        except Exception:
            if self.tolerant:
                stats.interrupted += 1
            else:
                stats.unexpected_errors += 1

    def _decision_op(self, client: Any, rng: random.Random, wid: int,
                     n: int, stats: LoadStats) -> None:
        """Decision-ledger traffic.  Worker-private did lists keep
        backtracks well-formed — a did is claimed at most once, so the
        only refusals are fault-shaped (lost acks, recovering servers),
        which the taxonomy in :meth:`_one_op` already classifies."""
        own = self._own_dids.setdefault(wid, [])
        if own and rng.random() < 0.3:
            did = own.pop(rng.randrange(len(own)))
            self._timed(stats, lambda: client.backtrack(did))
            stats.commits += 1
            return
        kind = rng.choice(("mapping", "refinement", "choice", "other"))
        result = self._timed(stats, lambda: client.decide(
            f"Load{kind.capitalize()}Dec",
            tell=[f"TELL D{wid}x{n} IN {self.class_name} END"],
            inputs={"base": f"Hot{rng.randrange(self.hot_keys)}"},
            kind=kind,
            rationale=f"load worker {wid} op {n}",
        ))
        own.append(result["did"])
        stats.commits += 1

    def _transaction_op(self, client: Any, rng: random.Random, wid: int,
                        n: int, stats: LoadStats) -> None:
        """A pinned transaction touching a hot shared object — the
        contended path where first-committer-wins bites."""
        hot = f"Hot{rng.randrange(self.hot_keys)}"
        self._timed(stats, client.begin)
        try:
            self._timed(stats, lambda: client.tell(
                f"TELL T{wid}x{n} IN {self.class_name} END"
            ))
            self._timed(stats, lambda: client.tell(
                f"TELL {hot} IN {self.class_name} END"
            ))
            self._timed(stats, client.commit)
        except BaseException:
            # A refused commit already ended the transaction server-side;
            # any earlier failure leaves it open — either way the session
            # must be clean for the next op.
            try:
                client.abort()
            except ReproError:
                pass
            raise
        stats.commits += 1
