"""Tests for proposition serialisation and GKBMS persistence."""

import json

import pytest

from repro.errors import GKBMSError, PropositionError
from repro.core import GKBMS
from repro.core.persistence import (
    load_from_file,
    load_gkbms,
    save_gkbms,
    save_to_file,
)
from repro.propositions import PropositionProcessor
from repro.propositions.serialization import (
    dump_processor,
    dumps,
    load_processor,
    loads,
    proposition_from_json,
    proposition_to_json,
)
from repro.scenario import MeetingScenario
from repro.timecalc import Interval


class TestPropositionSerialization:
    def test_roundtrip_plain(self):
        proc = PropositionProcessor()
        proc.define_class("Doc")
        proc.tell_individual("d1", in_class="Doc")
        proc.tell_link("d1", "title", "Doc")
        restored = loads(dumps(proc))
        assert restored.exists("d1")
        assert restored.is_instance_of("d1", "Doc")
        assert {p.pid for p in restored.store} == {p.pid for p in proc.store}

    def test_intervals_survive(self):
        proc = PropositionProcessor()
        proc.define_class("Doc")
        proc.tell_individual("d1", in_class="Doc",
                             time=Interval.from_ticks(3, 9))
        restored = loads(dumps(proc))
        prop = restored.get("d1")
        assert prop.time.contains_point(5)
        assert not prop.time.contains_point(9)

    def test_open_interval_survives(self):
        proc = PropositionProcessor()
        proc.tell_individual("v", time=Interval.since(7))
        restored = loads(dumps(proc))
        assert restored.get("v").time.contains_point(10**9)

    def test_kernel_not_dumped_but_reconstructed(self):
        proc = PropositionProcessor()
        data = dump_processor(proc)
        assert all(
            item["pid"] != "InstanceOf_omega"
            for item in data["propositions"]
        )
        restored = load_processor(data)
        assert restored.exists("InstanceOf_omega")

    def test_validated_load_orders_dependencies(self):
        proc = PropositionProcessor()
        proc.define_class("Doc")
        proc.tell_individual("d1", in_class="Doc")
        data = dump_processor(proc)
        # shuffle: links first
        data["propositions"].sort(key=lambda item: item["pid"])
        restored = load_processor(data, validate=True)
        assert restored.is_instance_of("d1", "Doc")

    def test_validated_load_rejects_dangling(self):
        data = {
            "format": 1,
            "propositions": [
                {"pid": "x", "source": "ghost", "label": "l",
                 "destination": "ghost"},
            ],
        }
        with pytest.raises(PropositionError):
            load_processor(data, validate=True)

    def test_bad_format_rejected(self):
        with pytest.raises(PropositionError):
            load_processor({"format": 99, "propositions": []})

    def test_single_proposition_roundtrip(self):
        from repro.propositions import link

        prop = link("p", "a", "l", "b", time=Interval.from_ticks(1, 2))
        assert proposition_from_json(proposition_to_json(prop)) == prop


class TestGKBMSPersistence:
    @pytest.fixture(scope="class")
    def dump(self):
        scenario = MeetingScenario().run_all()
        return save_gkbms(scenario.gkbms), scenario

    def test_dump_is_json_compatible(self, dump):
        data, _scenario = dump
        assert json.loads(json.dumps(data)) == data

    def test_module_restored(self, dump):
        data, scenario = dump
        restored = load_gkbms(json.loads(json.dumps(data)))
        assert sorted(restored.module.names()) == sorted(
            scenario.gkbms.module.names()
        )
        assert restored.module.relations["InvitationRel2"].key == (
            "paperkey",
        )

    def test_history_restored(self, dump):
        data, scenario = dump
        restored = load_gkbms(json.loads(json.dumps(data)))
        assert [r.to_json() for r in restored.ledger.records] == \
            [r.to_json() for r in scenario.gkbms.ledger.records]
        assert restored.decisions.obligations == \
            scenario.gkbms.decisions.obligations
        keys_did = scenario.records["keys"].did
        assert not restored.ledger.get(keys_did).is_active
        assert restored.ledger.get(keys_did).params == {
            "key": ("date", "author"),
        }
        assert restored.ledger.get(keys_did).assumptions == [
            "OnlyInvitationsArePapers"
        ]

    def test_justification_graph_rebuilt_on_load(self, dump):
        data, scenario = dump
        restored = load_gkbms(json.loads(json.dumps(data)))
        edges = scenario.gkbms.ledger.graph.edge_list()
        assert edges  # the meeting history's decisions consume each other
        assert restored.ledger.graph.edge_list() == edges

    def test_services_work_on_restored_state(self, dump):
        data, _scenario = dump
        restored = load_gkbms(json.loads(json.dumps(data)))
        config = restored.versions().configure("implementation")
        assert config.complete
        graph = restored.dependency_graph(include_retracted=True)
        assert graph.nodes()
        text = restored.explainer().explain_object("InvitationRel2")
        assert "justified by" in text

    def test_decision_ids_continue(self, dump):
        data, _scenario = dump
        restored = load_gkbms(json.loads(json.dumps(data)))
        before = {r.did for r in restored.ledger.records}
        record = restored.execute(
            "DecMapTransaction", {"transaction": "SendInvitation"},
            tool="TransactionMapper",
        )
        assert record.did not in before

    def test_backtracking_works_after_reload(self, dump):
        data, _scenario = dump
        restored = load_gkbms(json.loads(json.dumps(data)))
        victim = restored.ledger.active()[-1].did
        report = restored.backtracker.retract(victim)
        assert victim in report.retracted_decisions

    def test_file_roundtrip(self, dump, tmp_path):
        data, scenario = dump
        path = tmp_path / "gkbms.json"
        save_to_file(scenario.gkbms, str(path))
        restored = load_from_file(str(path))
        assert restored.clock == scenario.gkbms.clock

    def test_unknown_decision_class_rejected(self, dump):
        data, _scenario = dump
        mutated = json.loads(json.dumps(data))
        mutated["decisions"][0]["decision_class"] = "DecFromTheFuture"
        with pytest.raises(GKBMSError):
            load_gkbms(mutated)

    def test_bad_format_rejected(self, dump):
        data, _scenario = dump
        # format 1 kept decisions' outputs as role -> names dicts
        for version in (99, 1):
            with pytest.raises(GKBMSError):
                load_gkbms(dict(json.loads(json.dumps(data)),
                                format=version))

    def test_retired_stacks_restored(self, dump):
        data, scenario = dump
        restored = load_gkbms(json.loads(json.dumps(data)))
        # normalisation retired the unnormalised InvitationRel
        assert "InvitationRel" in restored._retired
        restored.restore_artifact("InvitationRel")
        assert "InvitationRel" in restored.module.relations


class TestSingleRelationStrategy:
    @pytest.fixture
    def gkbms(self):
        g = GKBMS()
        g.register_standard_library()
        g.import_design(
            """
            entity class Items with
              owner : Items
            end
            entity class Books isa Items with
              author : Items
            end
            entity class Journals isa Items with
              volume : Items
            end
            """
        )
        return g

    def test_universal_relation(self, gkbms):
        record = gkbms.execute(
            "DecSingleRelation", {"hierarchy": "Items"},
            tool="SingleRelationMapper",
        )
        rel = gkbms.module.relations["ItemsAllRel"]
        assert rel.field_names() == [
            "paperkey", "kind", "owner", "author", "volume",
        ]
        assert set(record.output_roles["constructors"]) == {
            "OnlyItems", "OnlyBooks", "OnlyJournals",
        }

    def test_views_discriminate(self, gkbms):
        gkbms.execute("DecSingleRelation", {"hierarchy": "Items"},
                      tool="SingleRelationMapper")
        db = gkbms.build_database()
        with db.transaction():
            db.relation("ItemsAllRel").insert(
                {"paperkey": "b1", "kind": "Books", "owner": "o",
                 "author": "knuth"}
            )
            db.relation("ItemsAllRel").insert(
                {"paperkey": "j1", "kind": "Journals", "owner": "o",
                 "volume": "42"}
            )
        books = db.rows("OnlyBooks")
        assert [row["paperkey"] for row in books] == ["b1"]
        everything = db.rows("OnlyItems")
        assert {row["paperkey"] for row in everything} == {"b1", "j1"}

    def test_backtrackable(self, gkbms):
        record = gkbms.execute(
            "DecSingleRelation", {"hierarchy": "Items"},
            tool="SingleRelationMapper",
        )
        gkbms.backtracker.retract(record.did)
        assert "ItemsAllRel" not in gkbms.module.relations
        assert not gkbms.processor.exists("OnlyBooks")

    def test_menu_offers_all_three_strategies(self, gkbms):
        names = [
            dc.name
            for dc, _r, _t in gkbms.decisions.applicable_decisions("Items")
        ]
        assert {"DecMoveDown", "DecDistribute", "DecSingleRelation"} <= set(
            names
        )


class TestAtomicSave:
    """Regression: a failed save must never clobber the previous dump."""

    @pytest.fixture
    def saved(self, tmp_path):
        gkbms = GKBMS()
        gkbms.register_standard_library()
        path = str(tmp_path / "state.json")
        save_to_file(gkbms, path)
        return gkbms, path

    def test_unserialisable_state_leaves_old_file_intact(self, saved):
        gkbms, path = saved
        before = open(path, "rb").read()
        gkbms._assumptions["poison"] = object()  # not JSON-serialisable
        with pytest.raises(TypeError):
            save_to_file(gkbms, path)
        assert open(path, "rb").read() == before
        load_from_file(path)  # still loadable

    def test_failed_write_leaves_old_file_intact(self, saved):
        from repro.faults import FaultPlan, FaultyIO, WriteFault

        gkbms, path = saved
        before = open(path, "rb").read()
        with pytest.raises(WriteFault):
            save_to_file(gkbms, path, io=FaultyIO(FaultPlan(fail_write_at=1)))
        assert open(path, "rb").read() == before
        load_from_file(path)

    def test_no_tmp_file_left_behind(self, saved, tmp_path):
        gkbms, path = saved
        gkbms._assumptions["poison"] = object()
        with pytest.raises(TypeError):
            save_to_file(gkbms, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]
