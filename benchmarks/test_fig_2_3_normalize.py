"""Fig 2-3 — dependency graph and code frames after normalisation and
key substitution.

"The new selector expresses the referential integrity constraint among
the two relations, whereas the new constructor allows the
reconstruction of the initial, unnormalized invitation relation. [...]
the developer decides to 'make the system more user-friendly' by
replacing the artificial paperkey attribute with date, author."
"""

from repro.scenario import MeetingScenario


def run_to_fig_2_3():
    scenario = MeetingScenario().run_to_fig_2_3()
    return scenario, scenario.gkbms.dependency_graph(), scenario.gkbms.code_frames()


def test_fig_2_3_normalize_and_keys(benchmark):
    scenario, graph, frames = benchmark(run_to_fig_2_3)
    module = scenario.gkbms.module

    # normalisation products (left side of the figure)
    norm = scenario.records["normalize"]
    assert norm.output_roles["relations"] == ["InvitationRel2", "InvReceivRel"]
    assert norm.output_roles["selector"] == ["InvitationsPaperIC"]
    assert norm.output_roles["constructor"] == ["ConsInvitation"]
    assert ("InvitationRel", "relation", norm.did) in graph.edges

    # key substitution (right side): associative key everywhere
    assert module.relations["InvitationRel2"].key == ("date", "author")
    assert "paperkey" not in module.relations["InvitationRel2"].field_names()
    assert module.relations["InvReceivRel"].key == ("date", "author", "receiver")
    selector = module.selectors["InvitationsPaperIC"]
    assert selector.constraint.columns == ("date", "author")
    assert selector.constraint.target == "InvitationRel2"
    assert "KEY date, author;" in frames

    # automatic and manual execution interact: the key decision left a
    # proof obligation (KeysCorrect) that a signature can discharge
    keys = scenario.records["keys"]
    open_names = [o.name for o in scenario.gkbms.decisions.obligations_of(
        keys.did) if not o.discharged]
    assert "KeysCorrect" in open_names

    # the reconstruction view actually reconstructs
    db = scenario.gkbms.build_database()
    with db.transaction():
        db.relation("InvitationRel2").insert(
            {"date": "d1", "author": "a1", "sender": "s1"}
        )
        db.relation("InvReceivRel").insert(
            {"date": "d1", "author": "a1", "receiver": "r1"}
        )
    rows = db.rows("ConsInvitation")
    assert rows == [
        {"date": "d1", "author": "a1", "sender": "s1", "receiver": "r1"}
    ]

    print("\nFig 2-3 code frames:")
    print(frames)
