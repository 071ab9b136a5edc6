"""Fig 1-1 — the DAIDA architecture.

Rebuilds the full multi-layer pipeline the architecture diagram shows:
a CML world model, a system model embedded in it, a TaxisDL conceptual
design, and DBPL programs — with the GKBMS documenting the mapping
decisions that connect the layers, and assistants (tools) attached to
the decision classes.
"""

from repro.core import GKBMS
from repro.scenario import (
    DOCUMENT_DESIGN,
    build_system_model,
    build_world_model,
)


def build_architecture() -> GKBMS:
    gkbms = GKBMS()
    gkbms.register_standard_library()
    build_world_model(gkbms)
    build_system_model(gkbms)
    gkbms.import_design(DOCUMENT_DESIGN)
    gkbms.processor.tell_link("Papers", "models", "Document")
    gkbms.execute(
        "DecMoveDown", {"hierarchy": "Papers"}, tool="MoveDownMapper",
        params={"only": ["Invitations"],
                "names": {"Invitations": "InvitationRel"}},
    )
    return gkbms


def test_fig_1_1_architecture(benchmark):
    gkbms = benchmark(build_architecture)
    nav = gkbms.navigator()

    # the three life-cycle levels of the architecture are populated
    assert "Meeting" in nav.status_view("requirements")
    assert "Papers" in nav.status_view("design")
    assert "InvitationRel" in nav.status_view("implementation")

    # layers are interrelated: system embedded in world, design models
    # world, implementation implements design
    proc = gkbms.processor
    assert proc.attributes_of("MeetingRecord", label="models")
    assert proc.attributes_of("Papers", label="models")
    assert nav.interrelations("InvitationRel")["implements"] == ["Invitations"]

    # assistants (tools) are registered and reachable from decisions
    assert "MoveDownMapper" in gkbms.tools.names()
    matches = gkbms.decisions.applicable_decisions("Papers")
    assert any("MoveDownMapper" in tools for _dc, _r, tools in matches)

    # the GKBMS documented the cross-level decision
    assert len(gkbms.ledger) == 1

    print("\nFig 1-1 levels:")
    for level in ("requirements", "design", "implementation"):
        print(f"  {level}: {nav.status_view(level)}")
