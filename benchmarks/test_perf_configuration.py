"""Perf-5 — configuration derivation cost vs history length (3.3.2).

"A frequent operation on a GKB will be the configuration of a complete
derivation structure and its subsequent projection on one level, e.g.,
'configure the latest complete DBPL database program system version'."

Workload: decision histories of growing length (N independent entity
hierarchies, each mapped by move-down; every third mapping is
backtracked and remapped to exercise version exclusion).  Measured:
deriving the latest complete implementation configuration.  Expected
shape: derivation cost grows with history length, stays interactive at
prototype scale, and the derived configuration always excludes the
retracted versions and is complete.
"""

import pytest

from repro.core import GKBMS

SIZES = [4, 10, 22]


def build_history(hierarchies: int) -> GKBMS:
    gkbms = GKBMS()
    gkbms.register_standard_library()
    blocks = []
    for index in range(hierarchies):
        blocks.append(
            f"entity class Base{index} with\n"
            f"  owner : Base{index}\n"
            f"end\n"
            f"entity class Leaf{index} isa Base{index} with\n"
            f"  detail : Base{index}\n"
            f"end\n"
        )
    gkbms.import_design("\n".join(blocks))
    records = []
    for index in range(hierarchies):
        records.append(gkbms.execute(
            "DecMoveDown", {"hierarchy": f"Base{index}"},
            tool="MoveDownMapper",
        ))
    for index in range(0, hierarchies, 3):
        gkbms.backtracker.retract(records[index].did)
        gkbms.replayer.replay(records[index])
    return gkbms


@pytest.fixture(scope="module")
def histories():
    return {size: build_history(size) for size in SIZES}


@pytest.mark.parametrize("size", SIZES)
def test_perf_configuration(benchmark, histories, size):
    gkbms = histories[size]

    def derive():
        vm = gkbms.versions()
        return vm.configure("implementation")

    config = benchmark(derive)
    assert config.complete
    # every hierarchy contributes its leaf relation
    assert sum(1 for name in config.objects if name.endswith("Rel")) == size
    # retracted versions excluded
    assert not any("~" in name for name in config.objects)


def test_configuration_reflects_retraction():
    gkbms = build_history(4)
    vm = gkbms.versions()
    before = vm.configure("implementation")
    record = gkbms.ledger.records[-1]
    if record.is_active:
        gkbms.backtracker.retract(record.did)
    after = gkbms.versions().configure("implementation")
    assert len(after.objects) < len(before.objects)
    assert not after.complete
    assert set(record.inputs.values()) <= set(after.missing)
    print(f"\nPerf-5 config size before={len(before.objects)} "
          f"after retraction={len(after.objects)}; "
          f"missing={after.missing}")
