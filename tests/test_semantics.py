import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpolar import (
    BOT,
    TOP,
    CapabilityError,
    ComplexAlgebra,
    Concept,
    Context,
    EnrichedContext,
    InputError,
    Model,
    MvRelation,
    MvSet,
    ResourceError,
    UsageError,
    atom,
    boolean_algebra,
    goedel_chain,
    box,
    conj,
    description_degree,
    dia,
    disj,
    enumerate_concepts,
    evaluate,
    lukasiewicz_chain,
    membership_degree,
    parse_formula,
    parse_sequent,
    sequent_true,
    sequent_valid,
    soundness_suite,
    truth_witness,
)
from mvpolar.sampling import make_rng, random_compatible_frame, random_formula
from mvpolar.syntax import Sequent
from oracles import naive_sequent_valid, product_of_chains

B = boolean_algebra()
L3 = lukasiewicz_chain(3)
G4 = goedel_chain(4)
p, q = atom("p"), atom("q")


def diag_context():
    return Context.from_rows(B, ["a1", "a2"], ["x1", "x2"], [[1, 0], [0, 1]])


def diag_model():
    base = diag_context()
    frame = EnrichedContext(
        base,
        r_box=base.incidence,
        r_diamond=base.incidence.transpose(),
    )
    val = {
        "p": base.concept_of(MvSet(B, base.objects, (1, 0))),
        "q": base.concept_of(MvSet(B, base.objects, (0, 1))),
    }
    return Model(frame, val)


def test_constant_denotations():
    m = diag_model()
    t = evaluate(m, TOP)
    b = evaluate(m, BOT)
    assert t.extent.degrees == (1, 1) and t.intent.degrees == (0, 0)
    assert b.extent.degrees == (0, 0) and b.intent.degrees == (1, 1)


def test_conjunction_meets_extents_and_disjunction_meets_intents():
    m = diag_model()
    c = evaluate(m, conj(p, q))
    d = evaluate(m, disj(p, q))
    assert c.extent.degrees == (0, 0) and c.intent.degrees == (1, 1)
    assert d.extent.degrees == (1, 1) and d.intent.degrees == (0, 0)


def test_identity_modalities_leave_atoms_alone():
    m = diag_model()
    assert evaluate(m, box(p)) == evaluate(m, p)
    assert evaluate(m, dia(q)) == evaluate(m, q)


def test_unknown_atom_is_a_usage_error():
    with pytest.raises(UsageError):
        evaluate(diag_model(), atom("zebra"))


def test_model_rejects_bad_valuations():
    base = diag_context()
    frame = EnrichedContext(base)
    good = base.concept_of(MvSet(B, base.objects, (1, 0)))
    with pytest.raises(InputError):
        Model(frame, {"p": (good.extent, good.intent)})
    unstable = Concept(MvSet(B, base.objects, (1, 0)), MvSet(B, base.attributes, (1, 1)))
    with pytest.raises(InputError):
        Model(frame, {"p": unstable})
    other = Context.from_rows(B, ["z"], ["w"], [[1]])
    foreign = other.concept_of(MvSet(B, ["z"], (1,)))
    with pytest.raises(InputError):
        Model(frame, {"p": foreign})


def test_membership_and_description_degrees():
    m = diag_model()
    assert membership_degree(m, "a1", p) == 1
    assert membership_degree(m, "a2", p) == 0
    assert description_degree(m, "x1", p) == 1
    assert description_degree(m, "x2", p) == 0
    with pytest.raises(UsageError):
        membership_degree(m, "nobody", p)


def test_truth_witness_frozen():
    m = diag_model()
    w = truth_witness(m, parse_sequent("p |- q"))
    assert w == {"object": "a1", "lhs_degree": 1, "rhs_degree": 0}
    assert truth_witness(m, parse_sequent("p & q |- p")) is None
    assert sequent_true(m, parse_sequent("p |- p | q"))
    assert not sequent_true(m, parse_sequent("top |- p"))


def all_zero_box_frame():
    base = diag_context()
    return EnrichedContext(
        base,
        r_box=MvRelation.constant(B, base.objects, base.attributes, 0),
        r_diamond=base.incidence.transpose(),
    )


def test_all_zero_box_collapses_everything_below_top():
    frame = all_zero_box_frame()
    assert frame.check_compatibility().ok
    lat = enumerate_concepts(frame.base)
    for i, c in enumerate(lat):
        want = lat.top_index if i == lat.top_index else lat.bottom_index
        assert lat.index_of(frame.box_op(c)) == want


def test_sequent_valid_frozen_countermodel():
    frame = all_zero_box_frame()
    verdict = sequent_valid(frame, parse_sequent("p |- box p"))
    assert not verdict
    assert verdict.lattice_size == 4 and verdict.valuations_checked == 2
    assert verdict.countermodel["p"].extent.degrees == (0, 1)
    again = sequent_valid(frame, parse_sequent("p |- box p"))
    assert again == verdict


def test_sequent_valid_accepts_lattice_axioms():
    frame = all_zero_box_frame()
    for text in ("p & q |- p", "p |- p | q", "bot |- p", "box p & box q |- box (p & q)"):
        verdict = sequent_valid(frame, parse_sequent(text))
        assert verdict.valid and verdict.countermodel is None
    assert sequent_valid(frame, parse_sequent("p & q |- p")).valuations_checked == 16


def test_sequent_valid_budget():
    frame = all_zero_box_frame()
    with pytest.raises(ResourceError):
        sequent_valid(frame, parse_sequent("p & q |- rhd_free | r"), budget=10)


def test_complex_algebra_tables_and_capability_gaps():
    frame = all_zero_box_frame()
    ca = ComplexAlgebra(frame)
    assert len(ca) == 4
    assert ca.maps["box"] == (0, 0, 0, 3)
    assert ca.maps["rhd"] is None and ca.maps["lhd"] is None
    with pytest.raises(CapabilityError):
        ca.eval_indexed(parse_formula("rhd p"), {"p": 0})


def test_budget_is_checked_before_the_relations():
    base = diag_context()
    frame = EnrichedContext(base, r_box=base.incidence, r_diamond=base.incidence.transpose())
    with pytest.raises(ResourceError):
        sequent_valid(frame, parse_sequent("rhd p & q |- r"), budget=10)


def test_capability_error_names_the_first_relation_reached():
    frame = all_zero_box_frame()
    for text, missing in (
        ("rhd p |- lhd p", "r_rhd"),
        ("lhd p |- rhd p", "r_lhd"),
        ("p & rhd lhd q |- p", "r_rhd"),
        ("p |- q & lhd (rhd p)", "r_lhd"),
    ):
        with pytest.raises(CapabilityError, match=f"this frame carries no {missing}$"):
            sequent_valid(frame, parse_sequent(text))


def test_eval_indexed_refuses_an_unassigned_atom():
    ca = ComplexAlgebra(all_zero_box_frame())
    with pytest.raises(UsageError, match="no valuation for atom 'q'"):
        ca.eval_indexed(parse_formula("p & box q"), {"p": 0})
    with pytest.raises(UsageError, match="no valuation for atom 'p'"):
        ca.sequent_holds(parse_sequent("p |- q"), {"q": 0})


DIFFERENTIAL_SEQUENTS = (
    "top |- bot",
    "top |- top",
    "p |- q",
    "q |- box p",
    "p & q |- p",
    "top |- p",
    "p |- bot",
    "bot |- box p",
    "p | q |- top",
    "box top |- dia bot",
    "box p & box p |- dia box p",
    "(p & q) | (p & q) |- p & (q | p)",
    "rhd p |- lhd q",
    "dia p |- box p",
    "rhd (p | q) |- rhd p & rhd q",
    "lhd lhd p |- p",
    "box (p & q) |- box p & box q",
    "dia q |- box (p | q)",
    "p & q & r |- p | r",
    "rhd r |- lhd (p & dia q)",
)


def differential_frames():
    algebras = ((B, 2, 3), (L3, 2, 3), (G4, 2, 2), (product_of_chains(L3, B), 2, 2))
    for seed in range(2):
        for algebra, n_objects, n_attributes in algebras:
            yield random_compatible_frame(
                random.Random(seed), algebra, n_objects, n_attributes, with_rhd=True, with_lhd=True
            )


def test_compiled_search_matches_the_naive_scan():
    invalid = 0
    for frame in differential_frames():
        for text in DIFFERENTIAL_SEQUENTS:
            sequent = parse_sequent(text)
            verdict = sequent_valid(frame, sequent)
            assert verdict == naive_sequent_valid(frame, sequent), text
            invalid += not verdict.valid
    assert invalid > 20


HYPOTHESIS_FRAMES = tuple(differential_frames())[:4] + (
    random_compatible_frame(random.Random(5), L3, 2, 2, with_rhd=False, with_lhd=True),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, len(HYPOTHESIS_FRAMES) - 1), st.integers(0, 2**32), st.integers(0, 4))
def test_compiled_search_matches_the_naive_scan_on_random_sequents(which, seed, depth):
    frame = HYPOTHESIS_FRAMES[which]
    rng = make_rng(seed)
    sequent = Sequent(random_formula(rng, ("p", "q"), depth), random_formula(rng, ("p", "q"), depth))
    try:
        want = naive_sequent_valid(frame, sequent)
    except CapabilityError as exc:
        with pytest.raises(CapabilityError, match=f"^{exc}$"):
            sequent_valid(frame, sequent)
    else:
        assert sequent_valid(frame, sequent) == want


def test_indexed_and_pointwise_evaluation_agree():
    rng = random.Random(99)
    for _ in range(25):
        frame = random_compatible_frame(
            rng,
            L3 if rng.random() < 0.5 else B,
            rng.randint(1, 3),
            rng.randint(1, 3),
            with_rhd=True,
            with_lhd=True,
        )
        ca = ComplexAlgebra(frame)
        lat = ca.lattice
        names = ("p", "q")
        for _ in range(6):
            assignment = {n: rng.randrange(len(lat)) for n in names}
            model = Model(frame, {n: lat[i] for n, i in assignment.items()})
            f = random_formula(make_rng(rng.randrange(10**6)), names, max_depth=5)
            direct = evaluate(model, f)
            assert lat.index_of(direct) == ca.eval_indexed(f, assignment)


def test_soundness_suite_passes_on_sampled_frames():
    rng = random.Random(41)
    frame = random_compatible_frame(rng, L3, 2, 2)
    report = soundness_suite(frame)
    assert report.ran and report.ok
    kinds = [r.kind for r in report.results]
    assert kinds.count("axiom") == 11 and kinds.count("rule") == 2
    assert "overall: PASS" in report.to_text()


def test_soundness_suite_refuses_incompatible_frames():
    base = Context.from_rows(L3, ["a"], ["x"], [[1]])
    frame = EnrichedContext(
        base,
        r_box=MvRelation.constant(L3, ["a"], ["x"], 0),
        r_diamond=base.incidence.transpose(),
    )
    report = soundness_suite(frame)
    assert not report.ran and not report.ok
    assert "unstable" in report.reason
    assert "refused" in report.to_text()


def test_soundness_suite_needs_both_relations():
    base = diag_context()
    with pytest.raises(CapabilityError):
        soundness_suite(EnrichedContext(base, r_box=base.incidence))
    with pytest.raises(CapabilityError):
        soundness_suite(EnrichedContext(base, r_diamond=base.incidence.transpose()))
