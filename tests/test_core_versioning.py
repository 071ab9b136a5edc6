"""Tests for version/configuration management and navigation."""

import pytest

from repro.errors import VersionError
from repro.scenario import MeetingScenario


@pytest.fixture(scope="module")
def full():
    """The completed scenario (fig 2-4 state) — module-scoped because
    it is read-only in these tests."""
    return MeetingScenario().run_all()


@pytest.fixture
def fig_2_3():
    return MeetingScenario().run_to_fig_2_3()


class TestVersions:
    def test_versions_of_revised_object(self, fig_2_3):
        vm = fig_2_3.gkbms.versions()
        nodes = vm.versions_of("InvitationRel2")
        assert len(nodes) == 2
        base, revision = nodes
        assert base.name == "InvitationRel2"
        assert "~" in revision.name
        # while the key decision stands, the revision is current
        assert not base.active
        assert revision.active
        assert vm.current("InvitationRel2") == revision.name

    def test_versions_after_backtrack(self, full):
        vm = full.gkbms.versions()
        nodes = vm.versions_of("InvitationRel2")
        # the key revision was backtracked: base version is active again
        base = nodes[0]
        assert base.active
        assert vm.current("InvitationRel2") == "InvitationRel2"

    def test_alternatives_are_choice_versions(self, full):
        vm = full.gkbms.versions()
        alternatives = vm.alternatives("InvitationRel2")
        assert len(alternatives) == 1
        assert alternatives[0].decision == full.records["keys"].did

    def test_unknown_object(self, full):
        with pytest.raises(VersionError):
            full.gkbms.versions().versions_of("Ghost")

    def test_unversioned_object_single_node(self, full):
        vm = full.gkbms.versions()
        nodes = vm.versions_of("MinutesRel")
        assert len(nodes) == 1
        assert nodes[0].active


class TestConfigurations:
    def test_vertical_configuration(self, full):
        vm = full.gkbms.versions()
        grouped = vm.vertical_configuration("InvitationRel2")
        assert "Papers" in grouped.get("design", [])
        assert "InvitationRel2" in grouped.get("implementation", [])

    def test_configure_implementation(self, full):
        vm = full.gkbms.versions()
        config = vm.configure("implementation")
        assert config.complete
        assert "InvitationRel2" in config.objects
        assert "MinutesRel" in config.objects
        # version bookkeeping objects are not components
        assert not any("~" in name for name in config.objects)

    def test_open_obligations_make_inconsistent(self, full):
        vm = full.gkbms.versions()
        config = vm.configure("implementation")
        # KeysCorrect of the normalisation decision is still open
        assert not config.consistent
        assert any("KeysCorrect" in issue for issue in config.issues)

    def test_discharged_obligations_clean_configuration(self):
        scenario = MeetingScenario().run_all()
        gkbms = scenario.gkbms
        for obligation in gkbms.decisions.open_obligations():
            gkbms.decisions.sign(obligation.oid, "jarke")
        config = gkbms.versions().configure("implementation")
        assert config.consistent

    def test_design_level_configuration(self, full):
        config = full.gkbms.versions().configure("design")
        assert "Papers" in config.objects
        assert "Minutes" in config.objects


class TestDerivationLattice:
    def test_edge_kinds(self, full):
        edges = full.gkbms.versions().derivation_lattice()
        kinds = {kind for _s, kind, _t in edges}
        assert {"mapping", "refinement", "choice"} <= kinds

    def test_choice_edge_targets_version(self, full):
        edges = full.gkbms.versions().derivation_lattice()
        choice_targets = [t for _s, kind, t in edges if kind == "choice"]
        assert any("~" in t for t in choice_targets)

    def test_render(self, full):
        text = full.gkbms.versions().render_lattice()
        assert "mapping" in text


class TestNavigation:
    def test_status_views(self, full):
        nav = full.gkbms.navigator()
        assert "Papers" in nav.status_view("design")
        assert "InvitationRel2" in nav.status_view("implementation")
        assert "Meeting" in nav.status_view("requirements")

    def test_interrelations(self, full):
        nav = full.gkbms.navigator()
        rel = nav.interrelations("InvitationRel")
        assert rel["implements"] == ["Invitations"]
        rel2 = nav.interrelations("Invitations")
        assert "InvitationRel" in rel2["implemented_by"]

    def test_justification_prefers_active(self, full):
        nav = full.gkbms.navigator()
        did = nav.justification_of("InvitationRel2")
        assert did == full.records["normalize"].did

    def test_causal_chain_reaches_design(self, full):
        nav = full.gkbms.navigator()
        chain = nav.causal_chain("InvitationRel2")
        objects = {obj for _d, obj in chain}
        assert "InvitationRel" in objects
        assert "Papers" in objects

    def test_derived_from(self, full, fig_2_3):
        for scenario in (fig_2_3, full):
            derived = scenario.gkbms.navigator().derived_from("Papers")
            assert "InvitationRel2" in derived
            # only design objects: the tools and assumptions the
            # decisions name are not derived from Papers
            assert not {"MoveDownMapper", "Normalizer", "KeySubstituter",
                        "OnlyInvitationsArePapers"} & set(derived)
        # the backtracked key decision's versions are no longer derived
        derived = full.gkbms.navigator().derived_from("Papers")
        assert not set(full.records["keys"].outputs) & set(derived)

    def test_timeline_ordered(self, full):
        nav = full.gkbms.navigator()
        ticks = [event.tick for event in nav.timeline()]
        assert ticks == sorted(ticks)

    def test_history_of_object(self, full):
        nav = full.gkbms.navigator()
        history = nav.history_of("InvitationRel")
        kinds = [event.kind for event in history]
        assert "created" in kinds and "used" in kinds

    def test_retraction_in_timeline(self, full):
        nav = full.gkbms.navigator()
        keys_did = full.records["keys"].did
        events = [e for e in nav.timeline() if e.kind == "retracted"]
        assert any(e.decision == keys_did for e in events)

    def test_browser_menu_drives_decision(self):
        scenario = MeetingScenario().setup()
        nav = scenario.gkbms.navigator()
        browser = nav.browser()
        browser.focus_on("Invitations")
        text = browser.render_menu()
        assert "DecMoveDown" in text
        assert "explore" in text
        record = browser.select(["DecMoveDown", "MoveDownMapper"])
        assert record.decision_class == "DecMoveDown"

    def test_browser_explore_actions(self, full):
        nav = full.gkbms.navigator()
        browser = nav.browser()
        browser.focus_on("InvitationRel2")
        history = browser.select(["explore", "history"])
        assert history  # non-empty list of events


class TestExplanation:
    def test_explain_object(self, full):
        text = full.gkbms.explainer().explain_object("InvitationRel2")
        assert "justified by" in text
        assert "Normalizer" in text
        assert "rationale" in text

    def test_explain_decision(self, full):
        did = full.records["normalize"].did
        text = full.gkbms.explainer().explain_decision(did)
        assert "DecNormalize" in text
        assert "from relation = InvitationRel" in text

    def test_trace_to_design(self, full):
        text = full.gkbms.explainer().trace("InvitationRel2")
        assert "Papers" in text

    def test_why_retracted(self, full):
        text = full.gkbms.explainer().why_retracted(full.records["keys"].did)
        assert "OnlyInvitationsArePapers" in text

    def test_why_retracted_standing_decision(self, full):
        text = full.gkbms.explainer().why_retracted(full.records["map"].did)
        assert "stands" in text

    def test_unknown_object(self, full):
        from repro.errors import GKBMSError

        with pytest.raises(GKBMSError):
            full.gkbms.explainer().explain_object("Ghost")
