"""Randomized oracle equivalence for decision histories (PR 10).

Mirrors :mod:`tests.test_incremental_oracle`: seeded interleavings of
decide / backtrack on a live :class:`DecisionHistory` are compared,
after **every step**, against a from-scratch oracle that replays the
same op log into a fresh concept base.  Any drift between the
incrementally maintained state (propositions, ledger, justification
graph) and the rebuild is a correctness bug.

Part two drives the same randomized histories through the in-process
GKBMS (:class:`DesignEvolutionWorkload`) and checks the *derived*
views — :class:`Navigator` timelines/causal chains and
:class:`VersionManager` versions/configurations — for their global
invariants plus same-seed determinism.
"""

import json
import random

import pytest

from repro.conceptbase import ConceptBase
from repro.core.navigation import Navigator
from repro.core.versioning import VersionManager
from repro.decisions import DecisionHistory
from repro.errors import VersionError
from repro.scenario.workload import DesignEvolutionWorkload
from tests.test_decision_ledger import AllPairsGraph


# ---------------------------------------------------------------------------
# Part A: decide/backtrack interleavings vs from-scratch replay
# ---------------------------------------------------------------------------


def fresh_history():
    cb = ConceptBase()
    with cb.transaction():
        cb.tell("TELL K IN SimpleClass END")
    return cb, DecisionHistory(cb)


def rebuild(ops):
    """From-scratch oracle: replay the identical op log into a fresh
    base.  Dids and ticks are deterministic, so the result must match
    the incrementally maintained state bit for bit."""
    cb, history = fresh_history()
    for op, arg in ops:
        if op == "decide":
            history.apply_decide(arg)
        else:
            history.apply_backtrack(arg)
    return cb, history


def assert_identical(live_cb, live_history, oracle_cb, oracle_history,
                     context=""):
    assert live_cb.propositions.store.rows() == \
        oracle_cb.propositions.store.rows(), context
    assert [r.summary() for r in live_history.ledger.records] == \
        [r.summary() for r in oracle_history.ledger.records], context
    # the graphs each ledger maintained on append, not fresh rebuilds,
    # and both equal to the all-pairs definition
    live_edges = live_history.ledger.graph.edge_list()
    assert live_edges == oracle_history.ledger.graph.edge_list(), context
    assert live_edges == \
        AllPairsGraph(live_history.ledger.records).edge_list(), context


@pytest.mark.parametrize("seed", [2, 19, 73])
def test_randomized_interleavings_match_full_replay(seed):
    rng = random.Random(seed)
    cb, history = fresh_history()
    ops = []
    told = []  # names currently believed to exist
    backtracks = 0
    for step in range(40):
        active = [r.did for r in history.ledger.active()]
        if active and rng.random() < 0.25:
            arg = json.dumps({"did": rng.choice(active)})
            report = history.apply_backtrack(arg)
            told = [n for n in told if n not in
                    {o for d in report["retracted"]
                     for o in history.ledger.by_did[d].outputs}]
            ops.append(("backtrack", arg))
            backtracks += 1
        else:
            name = f"Obj{step}"
            spec = {
                "decision_class": f"Dec{step % 4}",
                "kind": rng.choice(("mapping", "refinement",
                                    "choice", "other")),
                "tell": [f"TELL {name} IN K END"],
            }
            if told and rng.random() < 0.5:
                spec["inputs"] = {"src": rng.choice(told)}
            if rng.random() < 0.2:
                spec["rationale"] = f"step {step}"
            arg = json.dumps(spec, sort_keys=True)
            history.apply_decide(arg)
            told.append(name)
            ops.append(("decide", arg))
        oracle_cb, oracle_history = rebuild(ops)
        assert_identical(cb, history, oracle_cb, oracle_history,
                         context=f"seed={seed} step={step}")
    assert backtracks >= 3  # the run exercised selective retraction


@pytest.mark.parametrize("seed", [2, 19])
def test_backtrack_equals_never_executing_the_victims(seed):
    """Stronger oracle: after a cascade backtrack, the base equals one
    where the condemned decides simply never happened.  Bare tells
    (name-determined pids) keep the comparison bit-exact."""
    rng = random.Random(seed)
    cb, history = fresh_history()
    specs = []
    for step in range(20):
        spec = {"decision_class": "Dec",
                "tell": [f"TELL Obj{step} END"]}
        if step and rng.random() < 0.5:
            spec["inputs"] = {"src": f"Obj{rng.randrange(step)}"}
        history.apply_decide(json.dumps(spec, sort_keys=True))
        specs.append(spec)
    target = f"d{rng.randrange(3, 10)}"
    report = history.apply_backtrack(json.dumps({"did": target}))
    condemned = {int(d[1:]) - 1 for d in report["retracted"]}
    oracle_cb, oracle_history = fresh_history()
    for n, spec in enumerate(specs):
        if n not in condemned:
            oracle_history.apply_decide(json.dumps(spec, sort_keys=True))
    assert cb.propositions.store.rows() == \
        oracle_cb.propositions.store.rows()


# ---------------------------------------------------------------------------
# Part B: navigation / versioning invariants over random GKBMS histories
# ---------------------------------------------------------------------------


SEEDS = [3, 21, 55]


@pytest.fixture(params=SEEDS)
def evolved(request):
    workload = DesignEvolutionWorkload(seed=request.param,
                                       hierarchies=3, steps=14)
    gkbms = workload.run()
    return workload, gkbms


class TestNavigatorInvariants:
    def test_timeline_is_tick_ordered_and_grounded(self, evolved):
        _workload, gkbms = evolved
        nav = Navigator(gkbms)
        timeline = nav.timeline()
        ticks = [e.tick for e in timeline]
        assert ticks == sorted(ticks)
        for event in timeline:
            assert event.decision in gkbms.ledger.by_did
            assert event.kind in {"created", "used", "retracted"}

    def test_justifications_point_at_real_producers(self, evolved):
        _workload, gkbms = evolved
        nav = Navigator(gkbms)
        for record in gkbms.ledger.records:
            if not record.is_active:
                continue
            for output in record.outputs:
                did = nav.justification_of(output)
                assert did is not None
                justifier = gkbms.ledger.get(did)
                assert output in justifier.outputs

    def test_causal_chains_terminate_and_stay_in_history(self, evolved):
        _workload, gkbms = evolved
        nav = Navigator(gkbms)
        for record in gkbms.ledger.records:
            for output in record.outputs:
                chain = nav.causal_chain(output)
                assert len(chain) <= 4 * len(gkbms.ledger)
                for did, used in chain:
                    assert used in \
                        gkbms.ledger.get(did).inputs.values()

    def test_status_views_agree_with_level_of(self, evolved):
        _workload, gkbms = evolved
        nav = Navigator(gkbms)
        for level in nav.levels():
            for name in nav.status_view(level):
                assert nav.level_of(name) == level

    def test_menus_always_offer_exploration(self, evolved):
        _workload, gkbms = evolved
        nav = Navigator(gkbms)
        names = nav.status_view("requirements") + nav.status_view("design")
        for name in names[:5]:
            items = nav.menu_for(name)
            assert items[-1].title == "explore"


class TestVersionInvariants:
    def test_versions_are_tick_ordered_alternatives_subset(self, evolved):
        _workload, gkbms = evolved
        versions = VersionManager(gkbms)
        bases = {versions.base_of(name)
                 for record in gkbms.ledger.records
                 for name in record.outputs}
        for base in sorted(bases):
            try:
                nodes = versions.versions_of(base)
            except VersionError:
                continue  # fully retracted and physically gone
            ticks = [n.tick for n in nodes]
            assert ticks == sorted(ticks)
            names = {n.name for n in nodes}
            assert {n.name for n in versions.alternatives(base)} <= names
            active = [n for n in nodes if n.active]
            if active:
                assert versions.current(base) == active[-1].name
            else:
                with pytest.raises(VersionError):
                    versions.current(base)

    def test_lattice_edges_come_from_recorded_decisions(self, evolved):
        _workload, gkbms = evolved
        versions = VersionManager(gkbms)
        legal = set()
        for record in gkbms.ledger.records:
            for source in record.inputs.values():
                for target in record.outputs:
                    legal.add((source, target))
        for source, kind, target in versions.derivation_lattice():
            assert (source, target) in legal
            assert kind in {"mapping", "refinement", "choice", "decision"}

    def test_configuration_is_internally_consistent(self, evolved):
        _workload, gkbms = evolved
        config = VersionManager(gkbms).configure("implementation")
        assert config.complete == (not config.missing)
        assert config.consistent == (not config.issues)
        assert all("~" not in name for name in config.objects)


def test_same_seed_reruns_are_deterministic():
    runs = []
    for _ in range(2):
        workload = DesignEvolutionWorkload(seed=7, hierarchies=3, steps=14)
        gkbms = workload.run()
        nav, versions = Navigator(gkbms), VersionManager(gkbms)
        runs.append((
            [(e.kind, e.detail) for e in workload.events],
            [repr(e) for e in nav.timeline()],
            versions.derivation_lattice(),
            versions.configure("implementation").objects,
        ))
    assert runs[0] == runs[1]
