"""Closure-cache correctness: cached == uncached on every edge.

The epoch-validated memo caches of the proposition processor must be
observationally invisible: a processor with ``optimise=True`` answers
every closure query exactly like the ``optimise=False`` ablation, across
creates, retracts, validity clipping, telling rollback and workspace
(de)activation.  The randomized driver replays identical operation
sequences against both and compares the full query surface after every
step.
"""

import os
import random
import subprocess
import sys

import pytest

from repro.conceptbase import ConceptBase
from repro.errors import AxiomViolation, PropositionError
from repro.propositions import PropositionProcessor, WorkspaceStore
from repro.propositions.axioms import KERNEL_PIDS
from repro.propositions.proposition import INSTANCEOF, Pattern
from repro.timecalc.interval import Interval


def make_pair():
    return PropositionProcessor(optimise=True), PropositionProcessor(optimise=False)


def assert_same_answers(cached, uncached, names):
    """The whole closure-query surface agrees on the given names."""
    for name in names:
        assert cached.generalizations(name) == uncached.generalizations(name)
        assert cached.specializations(name) == uncached.specializations(name)
        assert cached.classes_of(name) == uncached.classes_of(name)
        assert cached.is_class(name) == uncached.is_class(name)
        assert cached.instances_of(name) == uncached.instances_of(name)
        assert cached.instances_of(name, direct=True) == uncached.instances_of(
            name, direct=True
        )
        assert ([p.pid for p in cached.attribute_classes(name)]
                == [p.pid for p in uncached.attribute_classes(name)])
    for name in names[:4]:
        for cls in names[:4]:
            assert cached.is_instance_of(name, cls) == uncached.is_instance_of(
                name, cls
            )


# ---------------------------------------------------------------------------
# Directed invalidation edges
# ---------------------------------------------------------------------------


class TestInvalidationEdges:
    def test_create_invalidates_isa_closure(self):
        proc = PropositionProcessor()
        proc.define_class("A")
        proc.define_class("B")
        assert "A" not in proc.generalizations("B")  # warm the cache
        proc.tell_isa("B", "A")
        assert "A" in proc.generalizations("B")
        assert "B" in proc.specializations("A")

    def test_retract_invalidates_closures(self):
        proc = PropositionProcessor()
        proc.define_class("A")
        proc.define_class("B")
        link = proc.tell_isa("B", "A")
        proc.tell_individual("x", in_class="B")
        assert "x" in proc.instances_of("A")  # warm
        assert "A" in proc.classes_of("x")
        proc.retract(link.pid)
        assert "x" not in proc.instances_of("A")
        assert "A" not in proc.classes_of("x")

    def test_isa_retract_shrinks_every_ancestor_extension(self):
        """Cutting ``Leaf ISA Mid`` takes ``Leaf``'s instance out of the
        extension of ``Mid`` and of ``Mid``'s generalization ``Top``."""
        pair = make_pair()
        links = []
        for proc in pair:
            proc.define_class("Top")
            proc.define_class("Mid", isa=["Top"])
            proc.define_class("Leaf")
            links.append(proc.tell_isa("Leaf", "Mid").pid)
            proc.tell_individual("x", in_class="Leaf")
        cached, uncached = pair
        assert "x" in cached.instances_of("Top")  # warm
        assert "x" in cached.instances_of("Mid")
        for proc, pid in zip(pair, links):
            proc.retract(pid)
        assert "x" not in cached.instances_of("Mid")
        assert "x" not in cached.instances_of("Top")
        assert_same_answers(cached, uncached, ["Top", "Mid", "Leaf", "x"])

    def test_attribute_tell_preserves_isa_cache(self):
        """Fine granularity: a plain attribute create keeps the
        specialization closures warm (no invalidation, only hits)."""
        proc = PropositionProcessor()
        proc.define_class("A")
        proc.define_class("B", isa=["A"])
        proc.tell_individual("x", in_class="B")
        proc.tell_individual("y", in_class="B")
        proc.generalizations("B")
        baseline = dict(proc.stats)
        proc.tell_link("x", "likes", "y")
        proc.generalizations("B")
        assert proc.stats["closure_invalidations"] == baseline["closure_invalidations"]
        assert proc.stats["closure_hits"] > baseline["closure_hits"]

    def test_instanceof_tell_preserves_isa_cache_but_not_classes(self):
        """Without incremental maintenance (the PR 2 baseline) an
        instanceof tell rebuilds the classification families while the
        isa family stays warm."""
        proc = PropositionProcessor(incremental=False)
        proc.define_class("A")
        proc.tell_individual("x")
        proc.generalizations("A")          # warm isa family
        proc.classes_of("x")               # warm classification family
        invalidations = proc.stats["closure_invalidations"]
        hits = proc.stats["closure_hits"]
        proc.tell_instanceof("x", "A")     # classification change only
        assert "A" in proc.classes_of("x")
        proc.generalizations("A")
        # the isa family survived (served from cache) ...
        assert proc.stats["closure_hits"] > hits
        # ... while the classification family was rebuilt.
        assert proc.stats["closure_invalidations"] > invalidations

    def test_instanceof_tell_delta_maintains_classes(self):
        """With incremental maintenance (the default) the same tell
        updates the classification caches in place: correct answers,
        zero invalidations, delta counters moving instead."""
        proc = PropositionProcessor()
        proc.define_class("A")
        proc.tell_individual("x")
        proc.generalizations("A")
        proc.classes_of("x")
        invalidations = proc.stats["closure_invalidations"]
        proc.tell_instanceof("x", "A")
        assert "A" in proc.classes_of("x")
        assert proc.stats["closure_invalidations"] == invalidations
        assert proc.stats["closure_delta_applied"] > 0

    def test_retract_one_of_two_classifications(self):
        """``x`` is classified into ``A`` and into ``B ISA A``: losing
        the ``B`` link takes it out of ``B``'s extents and keeps it in
        ``A``'s; losing the ``A`` link too takes it out of ``A``'s."""
        pair = make_pair()
        links = []
        for proc in pair:
            proc.define_class("A")
            proc.define_class("B", isa=["A"])
            proc.tell_individual("x")
            links.append({cls: proc.tell_instanceof("x", cls).pid
                          for cls in ("A", "B")})
        cached, uncached = pair
        assert "x" in cached.instances_of("A")  # warm
        assert "x" in cached.instances_of("B")
        assert "x" in cached.instances_of("B", direct=True)
        for proc, pids in zip(pair, links):
            proc.retract(pids["B"])
        assert "x" not in cached.instances_of("B")
        assert "x" not in cached.instances_of("B", direct=True)
        assert "x" in cached.instances_of("A")
        assert_same_answers(cached, uncached, ["A", "B", "x"])
        for proc, pids in zip(pair, links):
            proc.retract(pids["A"])
        assert "x" not in cached.instances_of("A")
        assert_same_answers(cached, uncached, ["A", "B", "x"])

    def test_clip_validity_invalidates(self):
        proc = PropositionProcessor()
        proc.define_class("A")
        proc.tell_individual("x")
        link = proc.tell_instanceof("x", "A", time=Interval.since(0))
        assert "x" in proc.instances_of("A")  # warm
        proc.clip_validity(link.pid, 10)
        assert "x" in proc.instances_of("A")  # at=None unaffected
        assert "x" not in proc.instances_of("A", at=20)
        assert "x" in proc.instances_of("A", at=5)

    def test_rollback_invalidates(self):
        proc = PropositionProcessor()
        proc.define_class("A")
        proc.define_class("B")
        with pytest.raises(RuntimeError):
            with proc.telling():
                proc.tell_isa("B", "A")
                assert "A" in proc.generalizations("B")  # warm mid-telling
                raise RuntimeError("abort")
        assert "A" not in proc.generalizations("B")
        assert "B" not in proc.specializations("A")

    def test_workspace_deactivation_invalidates(self):
        store = WorkspaceStore()
        proc = PropositionProcessor(store=store)
        proc.define_class("A")
        store.add_workspace("scratch")
        store.set_current("scratch")
        proc.define_class("B", isa=["A"])
        proc.tell_individual("x", in_class="B")
        assert "x" in proc.instances_of("A")  # warm
        assert "A" in proc.generalizations("B")
        store.deactivate("scratch")
        assert "x" not in proc.instances_of("A")
        assert proc.generalizations("B") == {"B"}
        store.activate("scratch")
        assert "x" in proc.instances_of("A")
        assert "A" in proc.generalizations("B")

    def test_stats_count_hits_and_misses(self):
        proc = PropositionProcessor()
        proc.define_class("A")
        proc.define_class("B", isa=["A"])
        before = proc.stats["closure_misses"]
        proc.generalizations("B")
        proc.generalizations("B")
        proc.generalizations("B")
        assert proc.stats["closure_misses"] >= before + 1
        assert proc.stats["closure_hits"] >= 2

    def test_unoptimised_processor_never_caches(self):
        proc = PropositionProcessor(optimise=False)
        proc.define_class("A")
        proc.generalizations("A")
        proc.generalizations("A")
        assert proc.stats["closure_hits"] == 0
        assert proc.stats["closure_misses"] == 0


# ---------------------------------------------------------------------------
# Randomized equivalence
# ---------------------------------------------------------------------------


def apply_to_both(pair, op):
    """Run ``op`` against both processors; outcomes must agree."""
    outcomes = []
    for proc in pair:
        try:
            op(proc)
            outcomes.append(None)
        except (AxiomViolation, PropositionError) as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("seed", [1, 7, 23, 99])
def test_randomized_tell_retract_equivalence(seed):
    rng = random.Random(seed)
    pair = make_pair()
    classes = []
    individuals = []
    retractable = []
    reclassified = []  # individuals told into a second class

    def new_class(proc, name, sups):
        proc.define_class(name, isa=sups)

    for step in range(100):
        roll = rng.random()
        if roll < 0.20 or not classes:
            name = f"C{step}"
            sups = rng.sample(classes, k=min(len(classes), rng.randrange(3)))
            apply_to_both(pair, lambda p: new_class(p, name, list(sups)))
            classes.append(name)
        elif roll < 0.36:
            name = f"i{step}"
            cls = rng.choice(classes)
            apply_to_both(pair, lambda p: p.tell_individual(name, in_class=cls))
            individuals.append(name)
        elif roll < 0.48 and len(classes) >= 2:
            sub, sup = rng.sample(classes, 2)
            apply_to_both(pair, lambda p: p.tell_isa(sub, sup))
        elif roll < 0.60 and len(individuals) >= 2:
            source, destination = rng.sample(individuals, 2)
            label = rng.choice(["likes", "knows", "owns"])
            pid = f"l{step}"
            apply_to_both(
                pair,
                lambda p: p.tell_link(source, label, destination, pid=pid),
            )
            retractable.append(pid)
        elif roll < 0.68 and retractable:
            victim = rng.choice(retractable)
            retractable.remove(victim)

            def retract(p):
                if victim in p.store:
                    removed = p.retract(victim)
                    assert all(r.pid not in KERNEL_PIDS for r in removed)

            apply_to_both(pair, retract)
        elif roll < 0.74 and individuals:
            victim = rng.choice(individuals)
            individuals.remove(victim)
            if victim in reclassified:
                reclassified.remove(victim)
            apply_to_both(
                pair, lambda p: p.retract(victim) if victim in p.store else None
            )
        elif roll < 0.83 and individuals:
            # classify an existing individual into a(nother) class
            name = rng.choice(individuals)
            cls = rng.choice(classes)
            apply_to_both(pair, lambda p: p.tell_instanceof(name, cls))
            reclassified.append(name)
            assert_same_answers(pair[0], pair[1], [name, *classes])
        elif roll < 0.92 and individuals:
            # retract one classification link, preferring an individual
            # that holds more than one
            name = rng.choice(reclassified or individuals)
            if name in reclassified:
                reclassified.remove(name)
            pick = rng.random()

            def retract_classification(p):
                found = sorted(
                    (q.destination, q.pid)
                    for q in p.store.retrieve(
                        Pattern(source=name, label=INSTANCEOF))
                    if q.is_link
                )
                if found:
                    p.retract(found[int(pick * len(found))][1])

            apply_to_both(pair, retract_classification)
            assert_same_answers(pair[0], pair[1], [name, *classes])
        else:
            # telling rollback: created propositions must vanish again
            name = f"r{step}"

            def failed_telling(p):
                try:
                    with p.telling():
                        p.tell_individual(name, in_class=rng.choice(classes)
                                          if classes else None)
                        raise KeyboardInterrupt  # any non-axiom error
                except KeyboardInterrupt:
                    pass

            seed_state = rng.getstate()
            for proc in pair:
                rng.setstate(seed_state)  # same random class for both
                failed_telling(proc)
            assert name not in pair[0].store and name not in pair[1].store
        if step % 10 == 0:
            sample = (classes + individuals)[-8:]
            assert_same_answers(pair[0], pair[1], sample)

    cached, uncached = pair
    assert {p.pid for p in cached.store} == {p.pid for p in uncached.store}
    assert_same_answers(cached, uncached, classes[-10:] + individuals[-10:])
    assert cached.summary() == uncached.summary()


@pytest.mark.parametrize("seed", [3, 11])
def test_randomized_clip_and_retract_equivalence(seed):
    rng = random.Random(seed)
    pair = make_pair()
    for proc in pair:
        proc.define_class("Doc")
        proc.define_class("Note", isa=["Doc"])
    links = []
    for index in range(20):
        name = f"d{index}"
        cls = rng.choice(["Doc", "Note"])
        apply_to_both(
            pair,
            lambda p: p.tell_individual(
                name, in_class=cls, time=Interval.since(index)
            ),
        )
        links.append(f"p{index}")
    for _ in range(12):
        if rng.random() < 0.5 and links:
            victim = rng.choice(links)

            def clip(p):
                for prop in list(p.store):
                    if prop.is_instanceof and prop.source == victim.replace("p", "d"):
                        try:
                            p.clip_validity(prop.pid, rng.randrange(5, 40))
                        except PropositionError:
                            pass

            state = rng.getstate()
            for proc in pair:
                rng.setstate(state)
                clip(proc)
        at = rng.randrange(0, 40)
        assert (pair[0].instances_of("Doc", at=at)
                == pair[1].instances_of("Doc", at=at))
        assert pair[0].instances_of("Doc") == pair[1].instances_of("Doc")


# ---------------------------------------------------------------------------
# Inherited attributes come back in one canonical order
# ---------------------------------------------------------------------------

#: ``Alpha`` inherits a ``sender`` attribute class from each of four
#: generalizations, so the class a told ``x.sender`` link instantiates
#: is whichever of them ``attribute_classes`` lists first.
DIAMOND_FRAMES = [
    "TELL Person IN SimpleClass END",
    "TELL bob IN Person END",
    *(f"TELL {name} IN SimpleClass WITH\n  attribute sender : Person\nEND"
      for name in ("Epsilon", "Gamma", "Beta", "Delta")),
    "TELL Alpha IN SimpleClass ISA Gamma, Epsilon, Beta, Delta END",
    "TELL x IN Alpha WITH\n  attribute sender : bob\nEND",
]


def diamond_base():
    cb = ConceptBase()
    for frame in DIAMOND_FRAMES:
        cb.tell(frame)
    return cb


def test_inherited_attributes_in_canonical_order():
    """The class itself first, then its generalizations by name, each
    class's own attributes by pid — the same in both cache regimes."""
    cb = diamond_base()
    proc = cb.propositions
    proc.tell_link("Alpha", "sender", "Person", pid="Alpha.sender2")
    proc.tell_link("Alpha", "sender", "Person", pid="Alpha.sender1")
    expected = ["Alpha.sender1", "Alpha.sender2", "Beta.sender",
                "Delta.sender", "Epsilon.sender", "Gamma.sender"]
    assert [p.pid for p in proc.attribute_classes("Alpha", "sender")] == expected
    uncached = PropositionProcessor(store=proc.store, optimise=False,
                                    bootstrap=False)
    assert [p.pid for p in uncached.attribute_classes("Alpha", "sender")] == expected


def test_attribute_class_walk_lists_each_class_once():
    """Each class of ``x`` lists its inherited attribute classes too, so
    the per-class lists repeat them; the walk keeps each one's first
    place only, and the first match a told link takes is unchanged."""
    proc = diamond_base().propositions
    classes = proc.classes_of("x")
    per_class = [prop.pid for cls in sorted(classes)
                 for prop in proc.attribute_classes(cls)]
    walk = [prop.pid for prop in proc.attribute_classes_of(classes)]
    assert len(per_class) == 9
    assert walk == list(dict.fromkeys(per_class))
    assert walk == ["Beta.sender", "Delta.sender", "Epsilon.sender",
                    "Gamma.sender", "Attribute"]
    senders = [prop.pid for prop in proc.attribute_classes_of(classes, "sender")]
    assert senders == [pid for pid in walk if proc.get(pid).label == "sender"]
    assert senders[0] == "Beta.sender"


def test_told_link_classification_independent_of_hash_seed():
    """A told link's attribute class does not depend on the
    interpreter's string-hash seed."""
    script = (
        "from tests.test_closure_cache import diamond_base\n"
        "cb = diamond_base()\n"
        "print(sorted(cb.propositions.classification_of_link('x.sender')))\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    answers = {}
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]))
        done = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        answers[seed] = done.stdout.strip()
    assert answers["0"] == answers["2"] == "['Beta.sender']"
