"""Quickstart: a minimal tour of the GKBMS public API.

Builds a tiny design, registers the standard tool/decision library,
executes one mapping decision, and shows the three things the GKBMS is
for: tool selection, documentation, and explanation.

Run:  python examples/quickstart.py
"""

from repro.core import GKBMS


def main() -> None:
    # 1. a GKBMS with the prototype's kernel knowledge
    gkbms = GKBMS()
    gkbms.register_standard_library()

    # 2. a small TaxisDL design (conceptual level)
    gkbms.import_design(
        """
        entity class Persons
        end

        entity class Documents with
          title : Persons
          owner : Persons
        end

        entity class Reports isa Documents with
          reviewer : Persons
        end
        """
    )

    # 3. ex ante: which decisions/tools apply to the focused object?
    print("== tool selection for focus 'Documents' ==")
    for dc, roles, tools in gkbms.decisions.applicable_decisions("Documents"):
        print(f"  {dc.name:<18} roles={roles} tools={tools}")

    # 4. execute the most specific mapping decision with its tool
    record = gkbms.execute(
        "DecMoveDown", {"hierarchy": "Documents"}, tool="MoveDownMapper",
        rationale="leaves only: Reports is the single concrete class",
    )
    print("\n== executed decision ==")
    print(f"  {record.did}: {record.decision_class} -> {record.output_roles}")

    # 5. the generated DBPL code frames
    print("\n== code frames ==")
    print(gkbms.code_frames())

    # 6. ex post: documentation as a dependency graph + explanation
    print("\n== dependency graph ==")
    print(gkbms.dependency_graph().to_ascii())
    print("\n== explanation ==")
    print(gkbms.explainer().explain_object(record.output_roles["relations"][0]))

    # 7. and the implementation actually runs
    database = gkbms.build_database()
    with database.transaction():
        database.relation("ReportRel").insert(
            {"paperkey": database.fresh_surrogate(), "title": "t1",
             "owner": "ada", "reviewer": "bob"}
        )
    print("\n== live query over the generated module ==")
    print(database.rows("ConsDocuments"))


if __name__ == "__main__":
    main()
