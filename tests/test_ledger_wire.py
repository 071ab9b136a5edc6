"""The ledger's encoded reads against their dict derivations.

``versions`` and ``history`` are answered from canonical-JSON fragments
the ledger keeps encoded (DESIGN.md §5k, "Ledger reads").  Each frame
must be byte for byte the frame of the dict the ledger derives from its
records on every call — after every decide and backtrack of seeded
random histories, and again after a WAL recovery, a checkpoint and a
memory-backed supervised restart.
"""

import random

import pytest

from repro.conceptbase import ConceptBase
from repro.decisions import KINDS
from repro.errors import ServerError
from repro.obs.metrics import MetricsRegistry
from repro.propositions.wal import WalStore
from repro.server.client import LocalClient
from repro.server.protocol import encode_frame, ok_response
from repro.server.service import GKBMSService
from repro.server.supervisor import ServiceSupervisor

SEEDS = range(6)
STEPS = 40
#: An int, a string and an object request id.
REQUEST_IDS = (7, "r-1", {"n": [1, "x"]})


def read_frames(service, session):
    """The served ``versions`` frame and both ``history`` frames, for
    every request id."""
    frames = []
    for rid in REQUEST_IDS:
        for op, params in (("versions", {}),
                           ("history", {"include_retracted": True}),
                           ("history", {"include_retracted": False})):
            response = service.handle({"id": rid, "op": op,
                                       "session": session,
                                       "params": params})
            assert response["ok"], response
            frames.append(encode_frame(response))
    return frames


def oracle_frames(service):
    """The same frames from the ledger's dict derivations."""
    ledger = service.decisions.ledger
    frames = []
    for rid in REQUEST_IDS:
        frames.append(encode_frame(ok_response(rid, ledger.versions())))
        frames.append(encode_frame(ok_response(rid, ledger.history(True))))
        frames.append(encode_frame(ok_response(rid, ledger.history(False))))
    return frames


def assert_frames_match(service, client):
    frames = read_frames(service, client.session)
    assert frames == oracle_frames(service)
    return frames


def drive(client, service, rng, steps=STEPS):
    """A seeded history of decides and backtracks, checked after every
    step: every kind, ``base~tick`` revisions, 0-3 outputs, shared and
    repeated inputs, links into earlier objects (write-set edges),
    parents, and backtracks whose consequents chain."""
    proc = service.cb.propositions
    ledger = service.decisions.ledger
    names = []
    for step in range(steps):
        active = [record.did for record in ledger if record.is_active]
        if active and rng.random() < 0.2:
            client.backtrack(rng.choice(active))
        else:
            alive = [name for name in names if proc.exists(name)]
            outputs = []
            for n in range(rng.randrange(4)):
                if alive and rng.random() < 0.3:
                    outputs.append(f"{rng.choice(alive).split('~')[0]}~"
                                   f"{ledger.next_tick() + n}")
                else:
                    outputs.append(f"O{step}x{n}")
            tell = [f"TELL {name} IN K END" for name in outputs]
            if alive and tell and rng.random() < 0.3:
                tell[0] = (f"TELL {outputs[0]} IN K WITH\n"
                           f"  attribute ref : {rng.choice(alive)}\nEND")
            inputs = {}
            if alive:
                picks = [rng.choice(alive) for _ in range(rng.randrange(3))]
                inputs = {f"role{i}": name for i, name in enumerate(picks)}
                if picks and rng.random() < 0.3:
                    inputs["again"] = picks[0]
            parents = ([rng.choice(list(ledger.by_did))]
                       if len(ledger) and rng.random() < 0.2 else [])
            client.decide(f"Dec{step % 5}", kind=rng.choice(KINDS),
                          tell=tell, inputs=inputs, parents=parents,
                          tool=rng.choice([None, "Tool"]),
                          rationale=rng.choice(["", "why é"]))
            names.extend(outputs)
        assert_frames_match(service, client)


def seeded_service(store=None):
    service = GKBMSService(ConceptBase(store=store))
    client = LocalClient(service)
    client.tell("TELL K IN SimpleClass END")
    return service, client


@pytest.mark.parametrize("seed", SEEDS)
def test_frames_byte_identical_after_every_step(seed):
    service, client = seeded_service()
    drive(client, service, random.Random(seed))
    ledger = service.decisions.ledger
    assert any(not record.is_active for record in ledger)
    assert ledger.graph.edge_count > 0
    service.close()


@pytest.mark.parametrize("checkpoint", [False, True])
def test_frames_survive_wal_recovery(tmp_path, checkpoint):
    path = str(tmp_path / "ledger.wal")
    store = WalStore(path, registry=MetricsRegistry())
    service, client = seeded_service(store)
    drive(client, service, random.Random(11))
    live = assert_frames_match(service, client)
    if checkpoint:
        service.checkpoint()
    service.close()
    store.close()

    recovered = WalStore(path, registry=MetricsRegistry())
    service2 = GKBMSService(ConceptBase(store=recovered))
    client2 = LocalClient(service2)
    assert assert_frames_match(service2, client2) == live
    # The recovered fragments keep answering as the history moves on.
    drive(client2, service2, random.Random(12), steps=10)
    service2.close()
    recovered.close()


def test_frames_survive_memory_backed_restart():
    service, client = seeded_service()
    supervisor = ServiceSupervisor(service, backoff_base=0.0)
    drive(client, service, random.Random(21))
    live = assert_frames_match(service, client)
    supervisor._on_fault(ServerError("synthetic durability fault"))
    supervisor.join()
    assert service.status == "serving"
    assert assert_frames_match(service, client) == live
    drive(client, service, random.Random(22), steps=10)
    service.close()

