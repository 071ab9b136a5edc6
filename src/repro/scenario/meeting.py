"""The meeting-organisation scenario, end to end.

Replays section 2.1 against a :class:`~repro.core.gkbms.GKBMS`:

1. world model (CML): meetings as real-world activities with time;
2. system model (CML): the information system's view, embedded in the
   world model;
3. conceptual design (TaxisDL): the document hierarchy ``Papers`` with
   subclass ``Invitations`` (set-valued ``receiver``), plus the
   transactions and a script;
4. the decision history: browse/focus (fig 2-1), move-down mapping
   (fig 2-2), normalisation and key substitution (fig 2-3), the
   late arrival of ``Minutes`` and the selective backtracking of the
   key decision (fig 2-4), and the remapping that completes the design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.gkbms import GKBMS
from repro.decisions.ledger import LedgerRecord
from repro.timecalc.allen import AllenRelation
from repro.timecalc.calculus import AllenCalculus

#: The TaxisDL document model of section 2.1 (before Minutes).
DOCUMENT_DESIGN = """
entity class Persons
end

entity class Papers with
  date : Date
  author : Persons
end

entity class Invitations isa Papers with
  sender : Persons
  receiver : set of Persons
end

transaction class SendInvitation with
  in inv : Invitations
  pre Known(inv.sender)
  post A(inv, sent, yes)
end

transaction class RecordReply with
  in inv : Invitations
  pre A(inv, sent, yes)
end

script OrganiseMeeting with
  step SendInvitation
  step RecordReply
end
"""

#: The second subclass whose mapping exposes the key inconsistency.
MINUTES_EXTENSION = """
entity class Minutes isa Papers with
  recorder : Persons
end
"""

#: The checkable content of the developer's key-substitution assumption.
ONLY_INVITATIONS = (
    "forall c/TDL_EntityClass "
    "(Isa(c, Papers) ==> (c = Papers or c = Invitations))"
)

WORLD_FRAMES = """
TELL Meeting IN CML_Activity END
TELL Agent IN CML_WorldClass END
TELL Document IN CML_WorldClass END
TELL Agenda IN CML_WorldClass ISA Document END
TELL Project IN CML_WorldClass END
"""

SYSTEM_FRAMES = """
TELL MeetingRecord IN CML_SystemClass END
TELL DocumentRecord IN CML_SystemClass END
TELL ParticipantRecord IN CML_SystemClass END
"""


def build_world_model(gkbms: GKBMS) -> List[str]:
    """Populate the CML world model: meetings as activities in a real
    world with time (the Allen network orders the meeting phases)."""
    created = [p.pid for p in gkbms.objects.tell_all(WORLD_FRAMES)]
    calculus = AllenCalculus()
    calculus.assert_relation("invite", "meet", [AllenRelation.BEFORE])
    calculus.assert_relation("meet", "minute", [AllenRelation.BEFORE,
                                                AllenRelation.MEETS])
    calculus.check_consistency()
    gkbms.world_time = calculus  # type: ignore[attr-defined]
    return created


def build_system_model(gkbms: GKBMS) -> List[str]:
    """Embed the system model in the world model: each system class
    `models` a world class."""
    created = [p.pid for p in gkbms.objects.tell_all(SYSTEM_FRAMES)]
    proc = gkbms.processor
    for system, world in (
        ("MeetingRecord", "Meeting"),
        ("DocumentRecord", "Document"),
        ("ParticipantRecord", "Agent"),
    ):
        proc.tell_link(system, "models", world)
    return created


@dataclass
class MeetingScenario:
    """Drives the full story; step methods return decision records so
    callers (tests, benches, examples) can inspect each stage."""

    gkbms: GKBMS = field(default_factory=GKBMS)
    records: Dict[str, LedgerRecord] = field(default_factory=dict)

    def setup(self) -> "MeetingScenario":
        """World + system models, design import, standard library."""
        self.gkbms.register_standard_library()
        build_world_model(self.gkbms)
        build_system_model(self.gkbms)
        self.gkbms.import_design(DOCUMENT_DESIGN)
        # the design models the world's documents
        self.gkbms.processor.tell_link("Papers", "models", "Document")
        return self

    # ------------------------------------------------------------------
    # fig 2-1: browse, focus, menu
    # ------------------------------------------------------------------

    def browse_unmapped(self) -> List[str]:
        """Unmapped TaxisDL objects (what the text browser shows)."""
        proc = self.gkbms.processor
        mapped = set()
        for record in self.gkbms.ledger.active():
            for name in record.outputs:
                source = self.gkbms.mapped_from(name)
                if source:
                    mapped.add(source)
        return sorted(
            name for name in proc.instances_of("TDL_EntityClass")
            if name not in mapped
        )

    def menu_for(self, focus: str):
        """Applicable decisions/tools for a focus (fig 2-1)."""
        return self.gkbms.decisions.applicable_decisions(focus)

    # ------------------------------------------------------------------
    # fig 2-2: move-down
    # ------------------------------------------------------------------

    def map_hierarchy(self, strategy: str = "move-down") -> LedgerRecord:
        """Execute the chosen mapping strategy (fig 2-2)."""
        if strategy == "move-down":
            record = self.gkbms.execute(
                "DecMoveDown", {"hierarchy": "Papers"}, tool="MoveDownMapper",
                params={"only": ["Invitations"],
                        "names": {"Invitations": "InvitationRel"}},
                rationale="focus on the mapping of entity structures in "
                          "the document data model",
            )
        elif strategy == "distribute":
            record = self.gkbms.execute(
                "DecDistribute", {"hierarchy": "Papers"},
                tool="DistributeMapper",
            )
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.records["map"] = record
        return record

    # ------------------------------------------------------------------
    # fig 2-3: normalisation, then key substitution
    # ------------------------------------------------------------------

    def normalize(self) -> LedgerRecord:
        """The normalisation decision of fig 2-3."""
        record = self.gkbms.execute(
            "DecNormalize", {"relation": "InvitationRel"}, tool="Normalizer",
            params={
                "base_name": "InvitationRel2",
                "detail_name": "InvReceivRel",
                "selector_name": "InvitationsPaperIC",
                "constructor_name": "ConsInvitation",
            },
            rationale="InvitationType contains a set-valued attribute",
        )
        self.records["normalize"] = record
        return record

    def substitute_key(self) -> LedgerRecord:
        """The key-substitution (choice) decision of fig 2-3."""
        self.gkbms.assume("OnlyInvitationsArePapers", ONLY_INVITATIONS)
        record = self.gkbms.execute(
            "DecKeySubstitution", {"relation": "InvitationRel2"},
            tool="KeySubstituter",
            params={"key": ("date", "author")},
            assumptions=["OnlyInvitationsArePapers"],
            rationale="make the system more user-friendly: replace the "
                      "artificial paperkey by date, author",
        )
        self.records["keys"] = record
        return record

    # ------------------------------------------------------------------
    # fig 2-4: Minutes arrives, backtrack the key decision
    # ------------------------------------------------------------------

    def add_minutes(self) -> List[str]:
        """Extend the design with Minutes (fig 2-4 trigger)."""
        return self.gkbms.extend_design(MINUTES_EXTENSION)

    def backtrack_keys(self):
        """Selectively backtrack the key decision (fig 2-4)."""
        reports = self.gkbms.backtracker.retract_for_assumption(
            "OnlyInvitationsArePapers"
        )
        self.records["backtrack"] = reports  # type: ignore[assignment]
        return reports

    def map_minutes(self) -> LedgerRecord:
        """Map the late-arriving Minutes subclass."""
        record = self.gkbms.execute(
            "DecMoveDown", {"hierarchy": "Papers"}, tool="MoveDownMapper",
            params={"only": ["Minutes"],
                    "names": {"Minutes": "MinutesRel",
                              "ConsPapers": "ConsPapersAll"}},
            rationale="the mapping of Minutes, the second subclass of "
                      "Papers, is considered",
        )
        self.records["minutes"] = record
        return record

    # ------------------------------------------------------------------

    def run_to_fig_2_2(self) -> "MeetingScenario":
        """Advance the story to the fig 2-2 state."""
        self.setup()
        self.map_hierarchy()
        return self

    def run_to_fig_2_3(self) -> "MeetingScenario":
        """Advance the story to the fig 2-3 state."""
        self.run_to_fig_2_2()
        self.normalize()
        self.substitute_key()
        return self

    def run_to_fig_2_4(self) -> "MeetingScenario":
        """Advance the story to the fig 2-4 state."""
        self.run_to_fig_2_3()
        self.add_minutes()
        self.backtrack_keys()
        self.map_minutes()
        return self

    def run_all(self) -> "MeetingScenario":
        """The whole section 2.1 story."""
        return self.run_to_fig_2_4()
