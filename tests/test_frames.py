import random
from collections import Counter

import pytest
from oracles import naive_singleton_checks, product_of_chains
from test_algebra import m2_heyting

from mvpolar import (
    CapabilityError,
    CompatibilityReport,
    Concept,
    Context,
    EnrichedContext,
    InputError,
    MvRelation,
    MvSet,
    boolean_algebra,
    compatible_box_closure,
    compatible_diamond_closure,
    enumerate_concepts,
    goedel_chain,
    lukasiewicz_chain,
)
from mvpolar.canonical import build_surrogate, canonical_parts, chain_modal_lattice, diamond_modal_lattice
from mvpolar.sampling import random_compatible_frame, random_context, random_relation

L3 = lukasiewicz_chain(3)
B = boolean_algebra()


def half_context():
    return Context.from_rows(L3, ["a"], ["x"], [[1]])


def diag_context():
    return Context.from_rows(B, ["a1", "a2"], ["x1", "x2"], [[1, 0], [0, 1]])


def test_all_zero_box_relation_fails_compatibility():
    base = half_context()
    frame = EnrichedContext(base, r_box=MvRelation.constant(L3, ["a"], ["x"], 0))
    report = frame.check_compatibility()
    assert not report.box_ok and report.diamond_checks is None
    first = report.failures()[0]
    assert (first.image, first.closure) == ((0,), (1,))
    assert "unstable" in report.describe()
    with pytest.raises(CapabilityError):
        frame.box_op(enumerate_concepts(base)[0])


def test_vacuous_compatibility_when_no_relations():
    frame = EnrichedContext(half_context())
    assert frame.check_compatibility().ok
    assert frame.check_compatibility().describe() == "compatible"


def test_incidence_itself_is_box_compatible_and_acts_as_identity():
    for base in (half_context(), diag_context()):
        frame = EnrichedContext(base, r_box=base.incidence)
        assert frame.check_compatibility().ok
        for c in enumerate_concepts(base):
            assert frame.box_op(c) == c


def test_transposed_incidence_is_diamond_compatible_and_acts_as_identity():
    for base in (half_context(), diag_context()):
        frame = EnrichedContext(base, r_diamond=base.incidence.transpose())
        assert frame.check_compatibility().ok
        for c in enumerate_concepts(base):
            assert frame.diamond_op(c) == c


def test_box_closure_repairs_the_all_zero_relation():
    base = half_context()
    repaired = compatible_box_closure(base, MvRelation.constant(L3, ["a"], ["x"], 0))
    assert repaired.rows == ((1,),)
    assert EnrichedContext(base, r_box=repaired).check_compatibility().ok


def test_closures_fix_compatible_relations():
    rng = random.Random(3)
    for _ in range(20):
        base = random_context(rng, L3, rng.randint(1, 3), rng.randint(1, 3))
        raw_box = random_relation(rng, L3, base.objects, base.attributes)
        raw_dia = random_relation(rng, L3, base.attributes, base.objects)
        box = compatible_box_closure(base, raw_box)
        dia = compatible_diamond_closure(base, raw_dia)
        frame = EnrichedContext(base, r_box=box, r_diamond=dia)
        assert frame.check_compatibility().ok
        assert compatible_box_closure(base, box).rows == box.rows
        assert compatible_diamond_closure(base, dia).rows == dia.rows
        for i in range(len(base.objects)):
            for j in range(len(base.attributes)):
                assert L3.leq(raw_box.at(i, j), box.at(i, j))


def test_box_preserves_meets_and_top_on_sampled_frames():
    rng = random.Random(17)
    for _ in range(15):
        frame = random_compatible_frame(rng, L3, rng.randint(1, 3), rng.randint(1, 3))
        lat = enumerate_concepts(frame.base)
        boxed = [lat.index_of(frame.box_op(c)) for c in lat]
        assert boxed[lat.top_index] == lat.top_index
        for i in range(len(lat)):
            for j in range(len(lat)):
                assert lat.meet(boxed[i], boxed[j]) == boxed[lat.meet(i, j)]


def test_diamond_preserves_joins_and_bottom_on_sampled_frames():
    rng = random.Random(18)
    for _ in range(15):
        frame = random_compatible_frame(rng, L3, rng.randint(1, 3), rng.randint(1, 3))
        lat = enumerate_concepts(frame.base)
        opened = [lat.index_of(frame.diamond_op(c)) for c in lat]
        assert opened[lat.bottom_index] == lat.bottom_index
        for i in range(len(lat)):
            for j in range(len(lat)):
                assert lat.join(opened[i], opened[j]) == opened[lat.join(i, j)]


def test_missing_relation_raises_capability_error():
    frame = EnrichedContext(half_context())
    c = enumerate_concepts(half_context())[0]
    for op in (frame.box_op, frame.diamond_op, frame.rhd_op, frame.lhd_op):
        with pytest.raises(CapabilityError):
            op(c)


def test_relation_shape_validation():
    base = diag_context()
    square = MvRelation.constant(B, base.objects, base.objects, 1)
    with pytest.raises(InputError):
        EnrichedContext(base, r_box=square)
    with pytest.raises(InputError):
        EnrichedContext(base, r_rhd=MvRelation.constant(B, base.objects, base.attributes, 1))
    wrong_algebra = MvRelation.constant(L3, base.objects, base.attributes, 1)
    with pytest.raises(InputError):
        EnrichedContext(base, r_box=wrong_algebra)


def test_rhd_with_identity_relation():
    base = diag_context()
    frame = EnrichedContext(base, r_rhd=MvRelation.identity(B, base.objects))
    lat = enumerate_concepts(base)
    c = lat[lat.index_of(base.concept_of(MvSet(B, base.objects, (1, 0))))]
    raw = frame.rhd_raw(c)
    assert raw.carrier == tuple(base.objects) and raw.degrees == (1, 0)
    assert frame.rhd_op(c) == c


def test_lhd_with_identity_relation():
    base = diag_context()
    frame = EnrichedContext(base, r_lhd=MvRelation.identity(B, base.attributes))
    c = base.concept_from_intent(MvSet(B, base.attributes, (1, 0)))
    raw = frame.lhd_raw(c)
    assert raw.carrier == tuple(base.attributes) and raw.degrees == (1, 0)
    assert frame.lhd_op(c) == c


def test_rhd_raw_frozen_value():
    base = half_context()
    frame = EnrichedContext(base, r_rhd=MvRelation(L3, ["a"], ["a"], ((1,),)))
    c = Concept(MvSet(L3, ["a"], (2,)), MvSet(L3, ["x"], (1,)))
    assert frame.rhd_raw(c).degrees == (1,)
    assert frame.rhd_op(c).extent.degrees == (1,)


def test_repr_mentions_carried_relations():
    base = half_context()
    rel = MvRelation(L3, ["a"], ["x"], ((1,),))
    text = repr(EnrichedContext(base, r_box=rel))
    assert "r_box" in text


COMPAT_ALGEBRAS = {
    "B": B,
    "L3": L3,
    "L5": lukasiewicz_chain(5),
    "G4": goedel_chain(4),
    "L3xB": product_of_chains(L3, B),
    "M2": m2_heyting(),
}


def naive_report(frame):
    """The compatibility report built by closing every alpha-image."""
    base = frame.base
    return CompatibilityReport(
        None if frame.r_box is None else naive_singleton_checks(base, frame.r_box, "r_box"),
        None if frame.r_diamond is None else naive_singleton_checks(base, frame.r_diamond.transpose(), "r_diamond"),
    )


def failure_kind(report, top):
    failures = report.failures()
    if not failures:
        return "pass"
    # Over a residuated lattice an unstable alpha-image forces an unstable
    # top image of the same row or column: the shortcut relies on this.
    failing_at_top = {(c.relation, c.side, c.element) for c in failures if c.alpha == top}
    assert all((c.relation, c.side, c.element) in failing_at_top for c in failures)
    return "top only" if len(failing_at_top) == len(failures) else "below top too"


def test_singleton_checks_match_closing_every_alpha():
    seen = Counter()
    for label, alg in COMPAT_ALGEBRAS.items():
        rng = random.Random(f"compat-{label}")
        kinds = Counter()
        for k in range(80):
            base = random_context(rng, alg, rng.randint(1, 4), rng.randint(1, 4))
            r_box = random_relation(rng, alg, base.objects, base.attributes)
            r_dia = random_relation(rng, alg, base.attributes, base.objects)
            if k % 3:
                r_box, r_dia = compatible_box_closure(base, r_box), compatible_diamond_closure(base, r_dia)
            if k % 3 == 2:
                # One entry redrawn: usually only a few images become unstable.
                rows = [list(row) for row in r_box.rows]
                rows[rng.randrange(len(rows))][rng.randrange(len(rows[0]))] = rng.randrange(alg.size)
                r_box = MvRelation(alg, base.objects, base.attributes, rows)
            frame = EnrichedContext(base, r_box=r_box, r_diamond=r_dia)
            want = naive_report(frame)
            assert frame.compatibility == want, label
            assert frame.compatibility.describe() == want.describe(), label
            kinds[failure_kind(want, alg.top)] += 1
        assert kinds["pass"] and kinds["pass"] < 80, (label, kinds)
        seen.update(kinds)
    assert seen["top only"] and seen["below top too"]


def test_surrogate_singleton_checks_match_closing_every_alpha():
    for lattice in (chain_modal_lattice(3), diamond_modal_lattice()):
        for alg in (B, L3, goedel_chain(4)):
            frame = build_surrogate(canonical_parts(lattice, alg)).frame
            want = naive_report(frame)
            assert frame.compatibility == want and want.ok
            zero = MvRelation.constant(alg, frame.base.objects, frame.base.attributes, alg.bottom)
            broken = EnrichedContext(frame.base, r_box=zero, r_diamond=frame.r_diamond)
            assert broken.compatibility == naive_report(broken)
            assert broken.compatibility.describe() == naive_report(broken).describe()
