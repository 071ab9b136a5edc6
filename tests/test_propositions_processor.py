"""Tests for the proposition processor: closures, retraction, tellings."""

import pytest

from repro.errors import PropositionError, UnknownPropositionError
from repro.propositions import Pattern, PropositionProcessor
from repro.timecalc import Interval


@pytest.fixture
def proc():
    p = PropositionProcessor()
    p.define_class("Paper")
    p.define_class("Invitation", isa=["Paper"])
    p.define_class("Minutes", isa=["Paper"])
    p.define_class("Person")
    p.tell_link("Paper", "author", "Person", pid="Paper.author",
                of_class="Attribute")
    p.tell_link("Invitation", "sender", "Person", pid="Invitation.sender",
                of_class="Attribute")
    return p


class TestClosures:
    def test_generalizations(self, proc):
        assert "Paper" in proc.generalizations("Invitation")
        assert "Invitation" in proc.generalizations("Invitation")
        assert "Invitation" not in proc.generalizations("Invitation", strict=True)

    def test_specializations(self, proc):
        subs = proc.specializations("Paper")
        assert {"Invitation", "Minutes", "Paper"} <= subs

    def test_classes_of_includes_superclasses(self, proc):
        proc.tell_individual("inv1", in_class="Invitation")
        classes = proc.classes_of("inv1")
        assert {"Invitation", "Paper", "Proposition"} <= classes

    def test_instances_of_closes_over_isa(self, proc):
        proc.tell_individual("inv1", in_class="Invitation")
        proc.tell_individual("min1", in_class="Minutes")
        assert proc.instances_of("Paper") == {"inv1", "min1"}
        assert proc.instances_of("Paper", direct=True) == set()

    def test_individual_named_instanceof_classifies_nothing(self, proc):
        """An individual called ``instanceof`` carries that label but is
        no classification link: it is not its own instance."""
        proc.tell_individual("instanceof", in_class="Paper")
        assert proc.instances_of("instanceof") == set()
        assert "instanceof" not in proc.classes_of("instanceof")
        assert "instanceof" in proc.instances_of("Paper")

    def test_is_instance_of(self, proc):
        proc.tell_individual("inv1", in_class="Invitation")
        assert proc.is_instance_of("inv1", "Paper")
        assert proc.is_instance_of("inv1", "Proposition")
        assert not proc.is_instance_of("inv1", "Person")

    def test_multiple_classification(self, proc):
        proc.define_class("Urgent")
        proc.tell_individual("inv1", in_class="Invitation")
        proc.tell_instanceof("inv1", "Urgent")
        assert {"Invitation", "Urgent"} <= proc.classes_of("inv1")


class TestAttributes:
    def test_attributes_of_excludes_reserved(self, proc):
        attrs = proc.attributes_of("Invitation")
        assert [a.label for a in attrs] == ["sender"]

    def test_attribute_classes_inherited(self, proc):
        labels = {a.label for a in proc.attribute_classes("Invitation")}
        assert labels == {"author", "sender"}
        # Minutes only inherits author
        labels = {a.label for a in proc.attribute_classes("Minutes")}
        assert labels == {"author"}

    def test_links_instantiating(self, proc):
        proc.tell_individual("inv1", in_class="Invitation")
        proc.tell_individual("bob", in_class="Person")
        lk = proc.tell_link("inv1", "sender", "bob", of_class="Invitation.sender")
        instances = proc.links_instantiating("Invitation.sender")
        assert [p.pid for p in instances] == [lk.pid]

    def test_classification_of_link(self, proc):
        proc.tell_individual("inv1", in_class="Invitation")
        proc.tell_individual("bob", in_class="Person")
        lk = proc.tell_link("inv1", "sender", "bob", of_class="Invitation.sender")
        assert "Invitation.sender" in proc.classification_of_link(lk.pid)


class TestRetraction:
    def test_retract_cascades_to_dependents(self, proc):
        proc.tell_individual("inv1", in_class="Invitation")
        proc.tell_individual("bob", in_class="Person")
        proc.tell_link("inv1", "sender", "bob", of_class="Invitation.sender")
        removed = proc.retract("inv1")
        removed_pids = {p.pid for p in removed}
        assert "inv1" in removed_pids
        assert len(removed_pids) >= 3  # node + instanceof + sender link + its classification
        assert not proc.exists("inv1")
        assert proc.exists("bob")

    def test_retract_without_cascade_raises_when_referenced(self, proc):
        proc.tell_individual("inv1", in_class="Invitation")
        with pytest.raises(PropositionError):
            proc.retract("inv1", cascade=False)

    def test_retract_unknown(self, proc):
        with pytest.raises(UnknownPropositionError):
            proc.retract("nothing")

    def test_retract_bumps_epoch(self, proc):
        proc.tell_individual("x")
        before = proc.epoch
        proc.retract("x")
        assert proc.epoch > before

    def test_clip_validity(self, proc):
        proc.tell_individual("v", time=Interval.since(0))
        clipped = proc.clip_validity("v", 100)
        assert clipped.time.contains_point(50)
        assert not clipped.time.contains_point(100)

    def test_clip_before_start_raises(self, proc):
        proc.tell_individual("v", time=Interval.since(50))
        with pytest.raises(PropositionError):
            proc.clip_validity("v", 10)


class TestTelling:
    def test_successful_telling_commits(self, proc):
        with proc.telling() as t:
            proc.tell_individual("a")
            proc.tell_individual("b")
        assert len(t.created) == 2
        assert proc.exists("a") and proc.exists("b")

    def test_failed_telling_rolls_back(self, proc):
        with pytest.raises(PropositionError):
            with proc.telling():
                proc.tell_individual("a")
                raise PropositionError("boom")
        assert not proc.exists("a")

    def test_commit_listener_sees_batch(self, proc):
        batches = []
        proc.on_commit(batches.append)
        with proc.telling():
            proc.tell_individual("a")
        assert len(batches) == 1
        assert [p.pid for p in batches[0]] == ["a"]

    def test_nested_telling_is_a_savepoint(self, proc):
        with proc.telling() as outer:
            proc.tell_individual("kept")
            with pytest.raises(PropositionError):
                with proc.telling():
                    proc.tell_individual("doomed")
                    raise PropositionError("boom")
            assert not proc.exists("doomed")
            assert proc.exists("kept")
        assert proc.exists("kept")
        assert [p.pid for p in outer.created] == ["kept"]


class TestIntrospection:
    def test_summary(self, proc):
        counts = proc.summary()
        assert counts["individuals"] > 0
        assert counts["isa"] > 0
        assert counts["attribute"] >= 2

    def test_fresh_pid_unique(self, proc):
        pids = {proc.fresh_pid() for _ in range(5)}
        assert len(pids) == 5

    def test_len(self, proc):
        assert len(proc) == len(list(proc.store))

    def test_retrieve_proposition_patterns(self, proc):
        results = list(
            proc.retrieve_proposition(Pattern(source="Invitation", label="sender"))
        )
        assert [p.pid for p in results] == ["Invitation.sender"]
