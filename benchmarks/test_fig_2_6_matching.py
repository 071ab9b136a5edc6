"""Fig 2-6 — decision instance created after selection and tool-aided
execution of an applicable decision class.

"Input and output interrelationships are denoted by FROM and TO links.
Tool associations are represented by BY links.  [...]  By convention,
links labeled with small letters are instances of those denoted by
capitals.  Due to this instantiation principle, all links among GKBMS
instances must be interpreted as specified at the level of classes and
tool specifications."
"""

from repro.scenario import MeetingScenario


def select_and_execute():
    scenario = MeetingScenario().setup()
    gkbms = scenario.gkbms
    # select: match the focus object's class against decision inputs
    matches = gkbms.decisions.applicable_decisions("Invitations")
    # execute the most specific decision class with its first tool
    dc, roles, tools = matches[0]
    record = gkbms.execute(
        dc.name, {roles[0]: "Papers"}, tool=tools[0],
        params={"only": ["Invitations"],
                "names": {"Invitations": "InvitationRel"}},
    )
    return scenario, matches, record


def test_fig_2_6_matching(benchmark):
    scenario, matches, record = benchmark(select_and_execute)
    proc = scenario.gkbms.processor

    # the menu matched by input classes; the most specific class leads
    assert matches[0][0].name in ("DecMoveDown", "DecDistribute")

    # class level: FROM/TO/BY links instantiate the capital metaclass
    # attributes
    dc_name = record.decision_class
    assert "FROM" in proc.classification_of_link(f"{dc_name}.hierarchy")
    assert "TO" in proc.classification_of_link(f"{dc_name}.relations")
    assert "BY" in proc.classification_of_link(
        f"{dc_name}.by.{record.tool}"
    )

    # instance level: the small-letter links are instances of the
    # class-level links (the instantiation principle)
    for prop in proc.attributes_of(record.did, label="hierarchy"):
        assert f"{dc_name}.hierarchy" in proc.classification_of_link(prop.pid)
    for prop in proc.attributes_of(record.did, label="relations"):
        assert f"{dc_name}.relations" in proc.classification_of_link(prop.pid)
    by_links = proc.attributes_of(record.did, label="by")
    assert len(by_links) == 1
    assert f"{dc_name}.by.{record.tool}" in proc.classification_of_link(
        by_links[0].pid
    )
    # the tool application token instantiates the tool specification
    assert proc.is_instance_of(by_links[0].destination, record.tool)

    # outputs are justified by the decision (the ex-post documentation)
    for name in record.outputs:
        justifications = proc.attributes_of(name, label="justification")
        assert [p.destination for p in justifications] == [record.did]

    print(f"\nFig 2-6: executed {record.did} of {dc_name} by {record.tool}")
