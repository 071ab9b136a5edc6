"""Nested tellings (savepoints), rollback fidelity and the closure caches.

The paper's selective backtracking presupposes that an *aborted* unit
of work leaves no trace: these tests pin down that a telling rollback
undoes creates, retractions and validity clips exactly, that nested
tellings roll back independently of their parents, and that a rollback
patches the closure caches like any other change without ever
revalidating a stale memo (the trap: a mid-telling cache entry must not
come back to life when a later, unrelated bump lands on the same
counter value).
"""

import pytest

from repro.conceptbase import ConceptBase
from repro.errors import ConsistencyError, PropositionError
from repro.propositions import PropositionProcessor


@pytest.fixture
def proc():
    processor = PropositionProcessor()
    processor.define_class("Doc")
    return processor


class TestSavepoints:
    def test_savepoint_commit_merges_into_parent(self, proc):
        with proc.telling() as outer:
            proc.tell_individual("a")
            with proc.telling() as inner:
                proc.tell_individual("b")
            assert [p.pid for p in inner.created] == ["b"]
        assert [p.pid for p in outer.created] == ["a", "b"]
        assert proc.exists("a") and proc.exists("b")

    def test_savepoint_rollback_preserves_outer(self, proc):
        with proc.telling():
            proc.tell_individual("kept")
            with pytest.raises(PropositionError):
                with proc.telling():
                    proc.tell_individual("doomed")
                    raise PropositionError("boom")
            assert proc.exists("kept")
            assert not proc.exists("doomed")
        assert proc.exists("kept")
        assert not proc.exists("doomed")

    def test_three_levels_mixed(self, proc):
        with proc.telling():
            proc.tell_individual("l1")
            with proc.telling():
                proc.tell_individual("l2")
                with pytest.raises(RuntimeError):
                    with proc.telling():
                        proc.tell_individual("l3")
                        raise RuntimeError("innermost dies")
                assert not proc.exists("l3")
            assert proc.exists("l2")
        assert proc.exists("l1") and proc.exists("l2")
        assert not proc.exists("l3")

    def test_listener_fires_once_with_full_batch(self, proc):
        batches = []
        proc.on_commit(batches.append)
        with proc.telling():
            proc.tell_individual("a")
            with proc.telling():
                proc.tell_individual("b")
        assert len(batches) == 1
        assert [p.pid for p in batches[0]] == ["a", "b"]

    def test_rolled_back_savepoint_hidden_from_listener(self, proc):
        batches = []
        proc.on_commit(batches.append)
        with proc.telling():
            proc.tell_individual("a")
            with pytest.raises(RuntimeError):
                with proc.telling():
                    proc.tell_individual("b")
                    raise RuntimeError("abort savepoint")
        assert [p.pid for p in batches[0]] == ["a"]

    def test_outer_rollback_undoes_committed_savepoint(self, proc):
        with pytest.raises(RuntimeError):
            with proc.telling():
                with proc.telling():
                    proc.tell_individual("b")
                assert proc.exists("b")
                raise RuntimeError("outer dies")
        assert not proc.exists("b")

    def test_depth_and_repr(self, proc):
        telling = proc.telling()
        assert "closed" in repr(telling)
        with telling:
            assert telling.depth == 1
            proc.tell_individual("a")
            text = repr(telling)
            assert "depth=1" in text and "created=1" in text and "active" in text
            with proc.telling() as inner:
                assert inner.depth == 2
        assert "closed" in repr(telling)

    def test_in_telling_flag(self, proc):
        assert not proc.in_telling
        with proc.telling():
            assert proc.in_telling
            with proc.telling():
                assert proc.in_telling
        assert not proc.in_telling


class TestRollbackFidelity:
    def test_rollback_restores_retract(self, proc):
        proc.tell_individual("d1", in_class="Doc")
        proc.tell_link("d1", "title", "Doc")
        before = proc.store.rows()
        with pytest.raises(RuntimeError):
            with proc.telling():
                proc.retract("d1")
                assert not proc.exists("d1")
                raise RuntimeError("abort")
        assert proc.store.rows() == before
        assert proc.is_instance_of("d1", "Doc")

    def test_rollback_restores_clip(self, proc):
        prop = proc.tell_individual("v")
        before = proc.store.rows()
        with pytest.raises(RuntimeError):
            with proc.telling():
                proc.clip_validity(prop.pid, 10)
                raise RuntimeError("abort")
        assert proc.store.rows() == before
        assert proc.get("v").time.contains_point(10**9)

    def test_rollback_restores_mixed_sequence(self, proc):
        proc.tell_individual("d1", in_class="Doc")
        before = proc.store.rows()
        with pytest.raises(RuntimeError):
            with proc.telling():
                proc.tell_individual("d2", in_class="Doc")
                proc.retract("d1")
                proc.tell_link("d2", "title", "Doc")
                raise RuntimeError("abort")
        assert proc.store.rows() == before


class TestEpochRestore:
    def test_rollback_patches_caches_without_invalidation(self, proc):
        """A rollback is maintained change by change: every family
        answers as before the telling, no family is thrown away, and the
        sub-epochs only move forward."""
        proc.define_class("A")
        proc.define_class("B")
        proc.define_class("C")
        proc.tell_individual("y", in_class="A")
        proc.tell_link("B", "note", "C", pid="B.note")

        def families():
            return (
                proc.generalizations("A"),
                proc.specializations("B"),
                proc.classes_of("y"),
                proc.instances_of("B"),
                proc.is_class("y"),
                [p.pid for p in proc.attribute_classes("A")],
            )

        before = families()
        epochs = (proc._isa_epoch, proc._instanceof_epoch)
        invalidations = proc.stats["closure_invalidations"]
        with pytest.raises(RuntimeError):
            with proc.telling():
                proc.tell_isa("A", "B")
                proc.tell_instanceof("y", "C")
                proc.tell_link("A", "note", "C", pid="A.note")
                during = families()
                raise RuntimeError("abort")
        assert during != before
        assert families() == before
        assert proc.stats["closure_invalidations"] == invalidations
        after = (proc._isa_epoch, proc._instanceof_epoch)
        assert all(now >= then for now, then in zip(after, epochs))

    def test_rollback_does_not_leave_stale_closure_cache(self, proc):
        """The satellite's cache-correctness trap: a closure memoised
        *during* a rolled-back telling must not be revalidated when a
        later isa tell bumps the counter back onto the same value."""
        proc.define_class("A")
        proc.define_class("B")
        proc.define_class("C")
        with pytest.raises(RuntimeError):
            with proc.telling():
                proc.tell_isa("A", "B")
                # Memoise under the mid-telling epoch.
                assert proc.generalizations("A") == {"A", "B"}
                raise RuntimeError("abort")
        # Same counter value as mid-telling, different isa network:
        proc.tell_isa("A", "C")
        assert proc.generalizations("A") == {"A", "C"}
        assert "B" not in proc.specializations("B") - {"B"}

    def test_rollback_keeps_pre_telling_caches_warm(self, proc):
        proc.define_class("A")
        proc.define_class("B")
        proc.tell_isa("A", "B")
        assert proc.generalizations("A") == {"A", "B"}  # warm the cache
        hits_before = proc.stats["closure_hits"]
        with pytest.raises(RuntimeError):
            with proc.telling():
                proc.tell_individual("x")  # no isa change at all
                raise RuntimeError("abort")
        assert proc.generalizations("A") == {"A", "B"}
        assert proc.stats["closure_hits"] > hits_before

    def test_savepoint_rollback_epochs_inside_outer_telling(self, proc):
        proc.define_class("A")
        proc.define_class("B")
        proc.define_class("C")
        with proc.telling():
            proc.tell_isa("A", "B")
            with pytest.raises(RuntimeError):
                with proc.telling():
                    proc.tell_isa("B", "C")
                    assert proc.generalizations("A") == {"A", "B", "C"}
                    raise RuntimeError("abort savepoint")
            # The outer telling's own isa tell must survive the inner
            # rollback, and the closure must drop only the inner link.
            assert proc.generalizations("A") == {"A", "B"}
        assert proc.generalizations("A") == {"A", "B"}


class TestConceptBaseTransaction:
    @pytest.fixture
    def cb(self):
        base = ConceptBase()
        base.define_metaclass("TDL_EntityClass")
        base.tell("TELL Person IN TDL_EntityClass END")
        base.tell(
            """
            TELL Invitation IN TDL_EntityClass WITH
              attribute sender : Person
            END
            """
        )
        base.tell("TELL bob IN Person END")
        return base

    def test_transaction_commits_consistent_batch(self, cb):
        cb.add_constraint("Invitation", "HasSender", "Known(self.sender)")
        cb.enforce_on_commit()
        with cb.transaction():
            cb.tell(
                """
                TELL inv1 IN Invitation WITH
                  sender sender : bob
                END
                """
            )
        assert cb.propositions.exists("inv1")

    def test_transaction_rolls_back_on_consistency_failure(self, cb):
        cb.add_constraint("Invitation", "HasSender", "Known(self.sender)")
        cb.enforce_on_commit()
        with pytest.raises(ConsistencyError):
            with cb.transaction():
                cb.tell("TELL inv2 IN Invitation END")
        assert not cb.propositions.exists("inv2")

    def test_telling_keeps_legacy_commit_semantics(self, cb):
        """`telling()` still leaves a rejected batch committed so the
        caller can inspect and repair it — only `transaction()` adds the
        automatic rollback."""
        cb.add_constraint("Invitation", "HasSender", "Known(self.sender)")
        cb.enforce_on_commit()
        with pytest.raises(ConsistencyError):
            with cb.telling():
                cb.tell("TELL inv3 IN Invitation END")
        assert cb.propositions.exists("inv3")

    def test_transaction_nests(self, cb):
        with cb.transaction():
            cb.tell("TELL outer_obj IN Invitation END")
            with pytest.raises(RuntimeError):
                with cb.transaction():
                    cb.tell("TELL inner_obj IN Invitation END")
                    raise RuntimeError("abort")
            assert not cb.propositions.exists("inner_obj")
        assert cb.propositions.exists("outer_obj")
