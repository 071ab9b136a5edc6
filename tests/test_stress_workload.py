"""Stress tests: global invariants over randomised evolution histories.

Whatever random sequence of mappings, normalisations, backtrackings and
replays a workload performs, the GKBMS must end in a state where:

1. the module is loadable into the execution engine (no dangling
   selectors/constructors);
2. every active decision's outputs exist in the knowledge base, every
   retracted decision's outputs are gone;
3. the RMS view of the history agrees with the record statuses;
4. configurations are derivable and name their missing pieces;
5. the whole state survives a persistence roundtrip.
"""

import json

import pytest

from repro.core.persistence import load_gkbms, save_gkbms
from repro.core.rms import DecisionRMS
from repro.scenario.workload import DesignEvolutionWorkload

SEEDS = [1, 7, 23, 42, 99]


@pytest.fixture(params=SEEDS)
def evolved(request):
    workload = DesignEvolutionWorkload(seed=request.param,
                                       hierarchies=3, steps=14)
    gkbms = workload.run()
    return workload, gkbms


class TestWorkloadInvariants:
    def test_history_produced_events(self, evolved):
        workload, _gkbms = evolved
        assert len(workload.events) == workload.steps
        kinds = {event.kind for event in workload.events}
        assert kinds <= {"map", "normalize", "map_txn", "backtrack",
                         "replay", "skip"}

    def test_module_always_executable(self, evolved):
        _workload, gkbms = evolved
        database = gkbms.build_database()
        # every base relation accepts a row with just its key fields
        for name, instance in database.relations.items():
            row = {part: f"v_{part}" for part in instance.decl.key}
            instance.insert(row)
        # every constructor evaluates
        for name in gkbms.module.constructors:
            database.rows(name)

    def test_active_outputs_exist_retracted_gone(self, evolved):
        """An object exists iff *some* active decision produced it —
        names may be re-created after a backtrack, e.g. when a hierarchy
        is remapped by a different strategy."""
        _workload, gkbms = evolved
        produced_by_active = {
            name
            for record in gkbms.ledger.active()
            for name in record.outputs
        }
        produced_ever = {
            name
            for record in gkbms.ledger.records
            for name in record.outputs
        }
        for name in produced_ever:
            assert gkbms.processor.exists(name) == (
                name in produced_by_active
            ), name

    def test_rms_agrees_with_record_statuses(self, evolved):
        _workload, gkbms = evolved
        rms = DecisionRMS()
        rms.load(gkbms.ledger.records)
        for record in gkbms.ledger.records:
            for name in record.outputs:
                if gkbms.processor.exists(name):
                    assert rms.is_current(name) or any(
                        name in other.outputs
                        for other in gkbms.ledger.active()
                    )

    def test_configuration_derivable(self, evolved):
        _workload, gkbms = evolved
        config = gkbms.versions().configure("implementation")
        assert isinstance(config.objects, list)
        if not config.complete:
            assert config.missing

    def test_dependency_graph_consistent(self, evolved):
        _workload, gkbms = evolved
        graph = gkbms.dependency_graph()
        for source, _label, destination in graph.edges:
            # every edge endpoint is a decision, tool, or existing object
            known = (
                source in gkbms.ledger.by_did
                or gkbms.processor.exists(source)
                or source in gkbms.tools.names()
            )
            assert known, source

    def test_persistence_roundtrip(self, evolved):
        _workload, gkbms = evolved
        data = json.loads(json.dumps(save_gkbms(gkbms)))
        restored = load_gkbms(data)
        assert sorted(restored.module.names()) == sorted(gkbms.module.names())
        assert [r.did for r in restored.ledger] == [r.did for r in gkbms.ledger]
        restored.build_database()  # still executable

    def test_reproducible(self, evolved):
        workload, gkbms = evolved
        again = DesignEvolutionWorkload(seed=workload.seed,
                                        hierarchies=3, steps=14)
        gkbms2 = again.run()
        assert [e.kind for e in again.events] == [
            e.kind for e in workload.events
        ]
        assert sorted(gkbms2.module.names()) == sorted(gkbms.module.names())
        assert [r.did for r in gkbms2.ledger] == [r.did for r in gkbms.ledger]
