"""Perf-3 — RMS scaling with and without GKBMS abstraction (3.3.3).

"since current RMS can handle only fairly small dependency networks
efficiently [DEKL86], we are studying their combination with the
abstraction mechanisms of the GKBMS."

Workload: synthetic decision histories of growing size, organised in
scopes (one scope per mapped subsystem; decisions chain within a scope,
with sparse cross-scope inputs).  Compared: one flat JTMS over the
whole history vs one JTMS per scope with interface propagation.
Expected shape: flat relabelling cost grows with the *whole* network on
every retraction, the partitioned RMS only touches the affected scopes
— the gap widens with history size, which is the paper's argument.
"""

import pytest

from repro.core.rms import DecisionRMS, PartitionedDecisionRMS
from repro.decisions import LedgerRecord

SCOPES = 8
SIZES = [4, 16, 48]  # decisions per scope


def synthetic_history(per_scope: int):
    """Chains of decisions in SCOPES scopes; every 4th decision also
    consumes the *first* object of the previous scope (a stable
    interface, so retracting mid-chain decisions has scope-local
    consequences — the abstraction the paper wants to exploit)."""
    records = []
    counter = 0
    for scope in range(SCOPES):
        previous_output = f"seed_s{scope}"
        for step in range(per_scope):
            counter += 1
            inputs = {"input": previous_output}
            if step % 4 == 3 and scope > 0:
                inputs["extra"] = f"obj_s{scope - 1}_d0"
            output = f"obj_s{scope}_d{step}"
            records.append(LedgerRecord(
                did=f"dec_s{scope}_d{step}",
                tick=counter,
                decision_class=f"scope{scope}",
                inputs=inputs,
                outputs=[output],
            ))
            previous_output = output
    return records


def flat_workload(records):
    rms = DecisionRMS()
    rms.load(records)
    # retract one early decision per scope (the expensive case)
    for scope in range(SCOPES):
        rms.retract_decision(f"dec_s{scope}_d1")
    return rms


def partitioned_workload(records):
    rms = PartitionedDecisionRMS(scope_of=lambda r: r.decision_class)
    rms.load(records)
    for scope in range(SCOPES):
        rms.retract_decision(f"dec_s{scope}_d1")
    return rms


@pytest.mark.parametrize("per_scope", SIZES)
@pytest.mark.parametrize("variant", ["flat", "partitioned"])
def test_perf_rms_scaling(benchmark, variant, per_scope):
    records = synthetic_history(per_scope)
    workload = flat_workload if variant == "flat" else partitioned_workload
    rms = benchmark(workload, records)
    # both variants agree on what fell out of belief
    assert not rms.is_current(f"obj_s0_d{per_scope - 1}")


def test_rms_variants_agree():
    records = synthetic_history(8)
    flat = flat_workload(records)
    partitioned = partitioned_workload(records)
    assert flat.believed_objects() == partitioned.believed_objects()


def test_partitioned_touches_fewer_nodes():
    records = synthetic_history(32)
    flat = DecisionRMS()
    flat.load(records)
    partitioned = PartitionedDecisionRMS(scope_of=lambda r: r.decision_class)
    partitioned.load(records)
    flat.jtms.stats["visits"] = 0
    for jtms in partitioned.partitions.values():
        jtms.stats["visits"] = 0
    flat.retract_decision("dec_s0_d1")
    partitioned.retract_decision("dec_s0_d1")
    flat_visits = flat.jtms.stats["visits"]
    part_visits = partitioned.total_visits()
    assert part_visits < flat_visits
    print(f"\nPerf-3 justification visits for one retraction "
          f"(32/scope, 8 scopes): flat={flat_visits}, "
          f"partitioned={part_visits}")
