"""The five decision ops over the wire, on every transport.

``decide`` / ``backtrack`` / ``replay`` / ``history`` / ``versions``
must behave identically through the in-process :class:`LocalClient`,
the threaded TCP transport and the asyncio pipelined transport — and
keep the acceptance promises: a backtracked mid-history decision leaves
a base bit-identical to one that never executed it or its consequents,
an idempotency token makes decide exactly-once under retry, and a
writer killed mid-backtrack loses no acked decision.
"""

import random

import pytest

from repro.conceptbase import ConceptBase
from repro.errors import (
    BacktrackError,
    CommitConflict,
    DecisionError,
    ProtocolError,
    SessionError,
)
from repro.faults import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.propositions.wal import WalStore
from repro.scenario.chaos import PowerCutIO, oracle_prefix
from repro.server.client import LocalClient, PipelinedTCPClient, TCPClient
from repro.server.service import GKBMSService
from repro.server.tcp import AsyncGKBMSServer, GKBMSServer


@pytest.fixture
def service():
    svc = GKBMSService(batch_window=0.0)
    yield svc
    svc.close()


@pytest.fixture
def client(service):
    c = LocalClient(service)
    yield c
    c.close()


def seed_schema(client):
    client.tell("TELL K IN SimpleClass END")


class TestServedOps:
    def test_decide_result_shape(self, client):
        seed_schema(client)
        result = client.decide(
            "DecMap", kind="mapping", tell=["TELL R IN K END"],
            rationale="first",
        )
        assert result["did"] == "d1"
        assert result["outputs"] == ["R"]
        assert result["told"] == 2  # individual + instanceof link
        assert result["untold"] == 0
        assert "epoch" in result and "commit_seq" in result

    def test_backtrack_cascades_over_the_wire(self, client):
        seed_schema(client)
        d1 = client.decide("A", tell=["TELL R IN K END"])
        d2 = client.decide("B", inputs={"x": "R"},
                           tell=["TELL R2 IN K END"])
        report = client.backtrack(d1["did"])
        assert report["retracted"] == [d2["did"], d1["did"]]
        assert report["reapplied"] >= 4
        assert client.instances("K") == []

    def test_history_and_graph_over_the_wire(self, client):
        seed_schema(client)
        client.decide("A", tell=["TELL R IN K END"])
        client.decide("B", inputs={"x": "R"})
        history = client.history()
        assert history["recorded"] == 2 and history["active"] == 2
        assert history["edges"] == [
            {"from": "d1", "to": "d2", "reason": "from-to"},
        ]

    def test_replay_and_versions_over_the_wire(self, client):
        seed_schema(client)
        d1 = client.decide("Choice", kind="choice",
                           tell=["TELL R~alt IN K END", "TELL R IN K END"])
        client.backtrack(d1["did"])
        outcome = client.replay(d1["did"])
        assert outcome["applicable"] is True
        versions = client.versions()
        # both variants of base R fell with the backtrack
        assert [v["active"] for v in versions["versions"]["R"]] == \
            [False, False]
        assert versions["alternatives"][0]["decision"] == d1["did"]

    def test_decide_refused_inside_open_transaction(self, client):
        seed_schema(client)
        client.begin()
        with pytest.raises(SessionError):
            client.decide("A", tell=["TELL R IN K END"])
        client.abort()
        client.decide("A", tell=["TELL R IN K END"])  # fine again

    def test_bad_specs_are_typed_errors(self, client):
        with pytest.raises(ProtocolError):
            client.decide("")
        with pytest.raises(DecisionError):
            client.decide("A", kind="hunch")
        with pytest.raises(DecisionError):
            client.decide("A", inputs={"x": "Ghost"})
        with pytest.raises(DecisionError):
            client.backtrack("d99")
        with pytest.raises(BacktrackError):
            seed_schema(client)
            did = client.decide("A", tell=["TELL R IN K END"])["did"]
            client.backtrack(did)
            client.backtrack(did)

    def test_malformed_spec_refused_before_it_applies(self, client):
        """Regression: a string ``untell`` used to be iterated by
        character, deleting objects ``a`` and ``b``."""
        seed_schema(client)
        client.tell("TELL a IN K END")
        client.tell("TELL b IN K END")
        with pytest.raises(ProtocolError):
            client.decide("DecX", untell="ab")
        for bad in ({"tell": "TELL c IN K END"}, {"parents": [1]},
                    {"inputs": {"x": 1}}, {"rationale": 5},
                    {"tool": ["T"]}):
            with pytest.raises(ProtocolError):
                client._call("decide", dict(bad, decision_class="DecX"))
        assert sorted(client.instances("K")) == ["a", "b"]
        assert client.history()["recorded"] == 0

    def test_decide_conflicts_with_staged_tell_of_same_name(self, service):
        """Regression: decide's conflict keys split sources on the
        substring "TELL", so a decide telling ``TELLTALE`` wrote key
        ``TALE`` and a racing transaction committed over it."""
        decider = LocalClient(service)
        racer = LocalClient(service)
        seed_schema(decider)
        racer.begin()
        racer.tell("TELL TELLTALE IN K END")
        decider.decide("DecX", tell=["TELL TELLTALE IN K END"])
        with pytest.raises(CommitConflict):
            racer.commit()

    def test_failed_decide_burns_no_did(self, client):
        seed_schema(client)
        with pytest.raises(DecisionError):
            client.decide("A", inputs={"x": "Ghost"})
        assert client.decide("B", tell=["TELL R IN K END"])["did"] == "d1"

    def test_decide_token_is_idempotent(self, client):
        seed_schema(client)
        params = {"decision_class": "A", "tell": ["TELL R IN K END"],
                  "token": "dec-tok-1"}
        first = client._call("decide", dict(params))
        again = client._call("decide", dict(params))
        assert again["did"] == first["did"]
        assert client.history()["recorded"] == 1


class TestOverTCP:
    @pytest.fixture
    def server(self, service):
        tcp = GKBMSServer(("127.0.0.1", 0), service)
        tcp.serve_in_thread()
        yield tcp
        tcp.close()

    def test_five_ops_round_trip(self, server):
        c = TCPClient(server.host, server.port)
        seed_schema(c)
        d1 = c.decide("A", kind="mapping", tell=["TELL R IN K END"])
        d2 = c.decide("B", kind="choice", inputs={"x": "R"},
                      tell=["TELL R~alt IN K END"])
        assert c.history()["edges"][0]["reason"] == "from-to"
        report = c.backtrack(d2["did"])
        assert report["retracted"] == [d2["did"]]
        assert c.replay(d2["did"])["applicable"] is True
        assert c.versions()["versions"]["R"][1]["active"] is False
        assert d1["did"] == "d1"
        c.close()


class TestOverAsync:
    def test_five_ops_round_trip_pipelined(self):
        service = GKBMSService(batch_window=0.0)
        tcp = AsyncGKBMSServer(("127.0.0.1", 0), service)
        tcp.serve_in_thread()
        try:
            c = PipelinedTCPClient(tcp.host, tcp.port)
            seed_schema(c)
            d1 = c.decide("A", tell=["TELL R IN K END"])
            d2 = c.decide("B", inputs={"x": "R"})
            assert c.history()["recorded"] == 2
            report = c.backtrack(d1["did"])
            assert set(report["retracted"]) == {d1["did"], d2["did"]}
            assert c.replay(d1["did"])["status"] == "retracted"
            assert "versions" in c.versions()
            c.close()
        finally:
            tcp.close()


class TestAcceptance:
    """The tentpole's acceptance criteria, directly."""

    def _random_history(self, client, rng, count):
        """Bare-individual decides (name-determined pids) chained by
        from-to inputs, so the never-executed oracle can be compared
        bit-for-bit."""
        outputs = []
        for n in range(count):
            spec = {"tell": [f"TELL Obj{n} END"]}
            if outputs and rng.random() < 0.45:
                spec["inputs"] = {"src": rng.choice(outputs)}
            client.decide(f"Dec{n % 5}", **spec)
            outputs.append(f"Obj{n}")
        return outputs

    @pytest.mark.parametrize("seed", [3, 11])
    def test_backtrack_state_identical_to_never_executed_oracle(self, seed):
        rng = random.Random(seed)
        service = GKBMSService(batch_window=0.0)
        live = LocalClient(service)
        self._random_history(live, rng, 24)
        target = f"d{rng.randrange(5, 12)}"
        report = live.backtrack(target)
        condemned = set(report["retracted"])
        # oracle: same history, but the condemned decides never ran
        survivors = [
            entry for entry in live.history()["decisions"]
            if entry["did"] not in condemned
        ]
        oracle_service = GKBMSService(batch_window=0.0)
        oracle = LocalClient(oracle_service)
        for entry in survivors:
            oracle.decide(
                entry["decision_class"],
                tell=[f"TELL {name} END" for name in entry["outputs"]],
                inputs=entry["inputs"], kind=entry["kind"],
            )
        assert service.cb.propositions.store.rows() == \
            oracle_service.cb.propositions.store.rows()
        live.close()
        oracle.close()

    def test_writer_kill_mid_backtrack_loses_nothing(self, tmp_path):
        """SIGKILL the (simulated) writer while the backtrack's WAL
        records are being appended: the un-acked backtrack vanishes
        wholesale, every acked decision survives with its status."""
        path = str(tmp_path / "kill.wal")
        plan = FaultPlan(seed=17)
        io = PowerCutIO(plan)
        registry = MetricsRegistry()
        store = WalStore(path, io=io, registry=registry)
        service = GKBMSService(ConceptBase(store=store, registry=registry),
                               batch_window=0.0)
        client = LocalClient(service)
        seed_schema(client)
        dids = []
        for n in range(5):
            spec = {"tell": [f"TELL R{n} IN K END"]}
            if dids:
                spec["inputs"] = {"x": f"R{n - 1}"}
            dids.append(client.decide(f"Dec{n}", **spec)["did"])
        acked = service.pipeline.acked_log()
        # arm the power cut inside the next WAL write burst
        plan.crash_at = io.ops + 2
        with pytest.raises(BaseException):
            client.backtrack(dids[1])
        io.powercut()
        recovered = WalStore(path, registry=MetricsRegistry())
        cb = ConceptBase(store=recovered)
        from repro.decisions import DecisionHistory
        ledger = DecisionHistory(cb).ledger
        assert [(r.did, r.status) for r in ledger.records] == \
            [(did, "done") for did in dids]
        assert oracle_prefix(recovered.rows(), acked) == len(acked)
        recovered.close()

    def test_decide_spec_rides_wal_not_memory(self, tmp_path):
        """Replayable from the WAL alone: a fresh process (new store,
        new service) serves the full history and can still backtrack."""
        path = str(tmp_path / "replay.wal")
        store = WalStore(path, registry=MetricsRegistry())
        service = GKBMSService(ConceptBase(store=store))
        client = LocalClient(service)
        seed_schema(client)
        client.decide("A", kind="mapping", tell=["TELL R IN K END"],
                      rationale="keep me")
        client.decide("B", inputs={"x": "R"}, tell=["TELL R2 IN K END"])
        service.drain()

        store2 = WalStore(path, registry=MetricsRegistry())
        service2 = GKBMSService(ConceptBase(store=store2))
        client2 = LocalClient(service2)
        history = client2.history()
        assert [d["did"] for d in history["decisions"]] == ["d1", "d2"]
        assert history["decisions"][0]["rationale"] == "keep me"
        report = client2.backtrack("d1")
        assert report["retracted"] == ["d2", "d1"]
        assert client2.instances("K") == []
        service2.cb.propositions.store.close()
