"""The GKBMS as a long-lived documentation service.

Shows the ex-post role of the GKBMS across sessions: run the scenario,
save the whole state to disk, reload it in a "new session", query the
restored history with query classes, and continue working (discharging
an obligation, mapping a transaction) — ids, clocks and versions all
continue seamlessly.

Run:  python examples/documentation_service.py
"""

import os
import tempfile

from repro import QueryCatalog
from repro.core.persistence import load_from_file, save_to_file
from repro.scenario import MeetingScenario


def main() -> None:
    # --- session 1: the scenario happens, then everyone goes home -------
    scenario = MeetingScenario().run_all()
    path = os.path.join(tempfile.mkdtemp(), "meeting-gkbms.json")
    save_to_file(scenario.gkbms, path)
    print(f"session 1: documented {len(scenario.gkbms.ledger)} "
          f"decisions, saved to {path} "
          f"({os.path.getsize(path)} bytes)")

    # --- session 2: a different developer picks the project up ----------
    gkbms = load_from_file(path)
    print(f"\nsession 2: restored at clock t{gkbms.clock}")

    # query classes over the restored documentation
    queries = QueryCatalog(gkbms.processor)
    queries.define(
        "UnjustifiedImplementation", "x", "DBPL_Object",
        "not Known(x.justification)",
    )
    queries.define(
        "NormalizedRelations", "r", "NormalizedDBPL_Rel", "Known(r.implements)",
    )
    print("normalized relations:", queries.extent("NormalizedRelations"))
    print("implementation objects lacking a justifying decision:",
          queries.extent("UnjustifiedImplementation"))

    # the restored history explains itself
    print("\nwhy does InvitationRel2 exist?")
    print(gkbms.explainer().explain_object("InvitationRel2"))

    # work continues: discharge the open obligation, map a transaction
    for obligation in gkbms.decisions.open_obligations():
        gkbms.decisions.sign(obligation.oid, "second developer")
        print(f"\nsigned obligation {obligation.name} ({obligation.oid})")
    record = gkbms.execute(
        "DecMapTransaction", {"transaction": "SendInvitation"},
        tool="TransactionMapper",
    )
    print(f"new decision in session 2: {record.did} -> {record.output_roles}")

    config = gkbms.versions().configure("implementation")
    print(f"\nfinal configuration: {config}")
    assert config.complete and config.consistent


if __name__ == "__main__":
    main()
