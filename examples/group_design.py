"""Group decision support: argumentation + reason maintenance.

Multiple developers argue about how to map a hierarchy; the winning
position is executed and the issue resolved against the documented
decision (section 3.3.3 / [HI88]).  A reason maintenance system loaded
from the decision history then shows how retracting one decision
propagates — first flat (Doyle-style), then partitioned by GKBMS
abstraction, the combination the paper proposes for scalability.

Run:  python examples/group_design.py
"""

from repro.core.group import ArgumentationBase
from repro.core.rms import DecisionRMS, PartitionedDecisionRMS
from repro.scenario import MeetingScenario


def main() -> None:
    scenario = MeetingScenario().setup()
    gkbms = scenario.gkbms

    # --- the group argues -------------------------------------------------
    base = ArgumentationBase(gkbms)
    issue = base.raise_issue(
        "jarke", "how should the Papers hierarchy be mapped?", about="Papers"
    )
    move_down = base.take_position(
        issue.iid, "rose", "move-down: one relation per leaf",
        decision_class="DecMoveDown",
    )
    distribute = base.take_position(
        issue.iid, "jeusfeld", "distribute: one relation per class",
        decision_class="DecDistribute",
    )
    base.argue(move_down.pid, "jarke",
               "the hierarchy is shallow, views are cheap", supports=True)
    base.argue(move_down.pid, "rose",
               "instance queries stay single-relation", supports=True)
    base.argue(distribute.pid, "jarke",
               "splitting attributes over relations complicates updates",
               supports=False)

    print("== argumentation thread ==")
    print(base.render(issue.iid))

    # --- the preferred position is executed and resolves the issue --------
    preferred = base.preferred_position(issue.iid)
    print(f"\npreferred position: {preferred.pid} -> {preferred.decision_class}")
    record = scenario.map_hierarchy("move-down")
    base.resolve(preferred.pid, record.did)
    print(f"issue status: {base.issues[issue.iid].status} "
          f"(resolved by {record.did})")

    # --- the rest of the history ------------------------------------------
    scenario.normalize()
    scenario.substitute_key()

    # --- reason maintenance over the decision history ---------------------
    print("\n== flat JTMS over the decision history ==")
    flat = DecisionRMS()
    flat.load(gkbms.ledger.records)
    print(f"believed design objects: {len(flat.believed_objects())}")
    fell_out = flat.retract_decision(scenario.records["normalize"].did)
    print(f"retracting the normalisation takes out: {sorted(fell_out)}")

    print("\n== partitioned RMS (GKBMS abstraction) ==")
    partitioned = PartitionedDecisionRMS()
    partitioned.load(gkbms.ledger.records)
    print(f"partition sizes: {partitioned.partition_sizes()}")
    fell_out = partitioned.retract_decision(scenario.records["normalize"].did)
    print(f"same retraction, same consequences: {sorted(fell_out)}")


if __name__ == "__main__":
    main()
