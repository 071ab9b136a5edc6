"""Fig 2-4 — code frames and dependency graph after backtracking the
key-substitution decision.

"the assumption that Invitations are the only kind of Papers leads to
an inconsistency as soon as the mapping of Minutes [...] is considered.
Therefore, the decision to choose associative keys must be retracted,
together with all its consequent changes, without redoing all the rest
of the design."
"""

from repro.scenario import MeetingScenario


def run_to_fig_2_4():
    scenario = MeetingScenario().run_to_fig_2_4()
    graph = scenario.gkbms.dependency_graph(include_retracted=True)
    return scenario, graph, scenario.gkbms.code_frames()


def test_fig_2_4_backtrack(benchmark):
    scenario, graph, frames = benchmark(run_to_fig_2_4)
    gkbms = scenario.gkbms

    # the key decision is retracted, *only* the key decision
    statuses = {record.did: record.status for record in gkbms.ledger}
    retracted = sorted(d for d, s in statuses.items() if s == "retracted")
    assert retracted == [scenario.records["keys"].did]

    # mapping and normalisation were not redone
    assert scenario.records["map"].status == "done"
    assert scenario.records["normalize"].status == "done"

    # the module is back to surrogate keys (the figure's code frames)
    module = gkbms.module
    assert module.relations["InvitationRel2"].key == ("paperkey",)
    assert module.relations["InvReceivRel"].key == ("paperkey", "receiver")
    assert "(paperkey) REFERENCES InvitationRel2 (paperkey)" in frames

    # Minutes is now mapped alongside
    assert "MinutesRel" in module.relations

    # the graph highlights what was touched: the retracted decision
    # node is marked
    rendered = graph.to_ascii()
    assert f"[{scenario.records['keys'].did}]" in rendered

    # the stale assumption no longer taints the configuration
    assert gkbms.violated_assumptions() == []

    print("\nFig 2-4 code frames after backtracking:")
    print(frames)
