"""Acceptance suite: one test per shipped guarantee, each with a time bound.

Every test prints a single PASS line on success so a verbose run reads as
a checklist.  Expected values are either computed by an independent oracle
inside the test or frozen from hand calculations.
"""

import itertools
import json
import random
import time

import pytest

from mvpolar import (
    ComplexAlgebra,
    Context,
    EnrichedContext,
    InputError,
    MvRelation,
    MvSet,
    axiom_catalogue,
    boolean_algebra,
    enumerate_concepts,
    goedel_chain,
    lukasiewicz_chain,
    parse_formula,
    parse_sequent,
    print_formula,
    sequent_valid,
    singleton,
    soundness_suite,
    subsethood,
    validate_algebra,
)
from mvpolar.canonical import (
    ModalLattice,
    build_surrogate,
    canonical_parts,
    chain_modal_lattice,
    diamond_modal_lattice,
    lemma_suite,
)
from mvpolar.market import (
    basket_category,
    box_refinement_analysis,
    firm_category,
    load_arena,
    typicality_analysis,
)
from mvpolar.sampling import make_rng, random_compatible_frame, random_context, random_formula
from oracles import brute_force_concepts, naive_surrogate_rows

B = boolean_algebra()
L3 = lukasiewicz_chain(3)
G3 = goedel_chain(3)
ALGEBRAS = (B, L3, G3)


def finish(number, elapsed, bound, label):
    assert elapsed < bound, f"criterion {number} took {elapsed:.2f}s, bound {bound}s"
    print(f"PASS criterion {number:02d}: {label} ({elapsed:.2f}s)")


def test_criterion_01_algebra_laws_and_residuation():
    start = time.monotonic()
    for kind in ("lukasiewicz", "goedel"):
        for n in range(2, 8):
            alg = (lukasiewicz_chain if kind == "lukasiewicz" else goedel_chain)(n)
            report = validate_algebra(alg)
            assert report.ok and len(report.checks) == 23
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        assert (alg.otimes(a, b) <= c) == (a <= alg.residuum(b, c))
    assert validate_algebra(B).ok
    finish(1, time.monotonic() - start, 1.0, "residuated chain laws, n = 2..7")


def test_criterion_02_galois_adjunction_exhaustive():
    start = time.monotonic()
    objects, attributes = ("a1", "a2"), ("x1", "x2")
    cells = list(itertools.product(range(3), repeat=4))
    sides = list(itertools.product(range(3), repeat=2))
    for c in cells:
        ctx = Context(MvRelation(L3, objects, attributes, ((c[0], c[1]), (c[2], c[3]))))
        for fd in sides:
            f = MvSet(L3, objects, fd)
            up_f = ctx.up(f)
            for ud in sides:
                u = MvSet(L3, attributes, ud)
                assert subsethood(f, ctx.down(u)) == subsethood(u, up_f)
    finish(2, time.monotonic() - start, 30.0, "Galois adjunction, exhaustive over the 3-chain")


def test_criterion_03_singleton_decomposition():
    start = time.monotonic()
    alg = lukasiewicz_chain(4)
    for size in (1, 2, 3):
        carrier = tuple(f"z{k}" for k in range(size))
        for degrees in itertools.product(range(4), repeat=size):
            f = MvSet(alg, carrier, degrees)
            parts = [singleton(alg, carrier, f.value(z), z) for z in carrier]
            rebuilt = parts[0]
            for part in parts[1:]:
                rebuilt = rebuilt.join(part)
            assert rebuilt == f
    finish(3, time.monotonic() - start, 1.0, "every degree map is a join of singletons")


def test_criterion_04_concept_enumeration_matches_brute_force():
    start = time.monotonic()
    half = Context.from_rows(L3, ["a"], ["x"], [[1]])
    assert [(c.extent.degrees, c.intent.degrees) for c in enumerate_concepts(half)] == [
        ((1,), (2,)),
        ((2,), (1,)),
    ]
    diag = Context.from_rows(B, ["a1", "a2"], ["x1", "x2"], [[1, 0], [0, 1]])
    assert [c.extent.degrees for c in enumerate_concepts(diag)] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    rng = random.Random(404)
    for k in range(200):
        ctx = random_context(rng, ALGEBRAS[k % 3], rng.randint(1, 3), rng.randint(1, 3))
        got = [(c.extent.degrees, c.intent.degrees) for c in enumerate_concepts(ctx)]
        want = [(c.extent.degrees, c.intent.degrees) for c in brute_force_concepts(ctx)]
        assert got == want
    finish(4, time.monotonic() - start, 60.0, "enumeration equals brute force on 200 seeded contexts")


def test_criterion_05_modal_operations_preserve_lattice_structure():
    start = time.monotonic()
    rng = random.Random(505)
    for k in range(200):
        frame = random_compatible_frame(rng, ALGEBRAS[k % 3], rng.randint(1, 3), rng.randint(1, 3))
        ca = ComplexAlgebra(frame)
        lat = ca.lattice
        box_t, dia_t = ca.maps["box"], ca.maps["dia"]
        assert box_t[lat.top_index] == lat.top_index
        assert dia_t[lat.bottom_index] == lat.bottom_index
        for i in range(len(lat)):
            for j in range(i, len(lat)):
                assert lat.meet(box_t[i], box_t[j]) == box_t[lat.meet(i, j)]
                assert lat.join(dia_t[i], dia_t[j]) == dia_t[lat.join(i, j)]
    finish(5, time.monotonic() - start, 120.0, "box/diamond preserve meets+top and joins+bottom, 200 frames")


def test_criterion_06_axioms_valid_on_sampled_frames():
    start = time.monotonic()
    axioms = axiom_catalogue()
    assert len(axioms) == 11
    rng = random.Random(606)
    for k in range(100):
        frame = random_compatible_frame(rng, ALGEBRAS[k % 3], rng.randint(1, 3), rng.randint(1, 3))
        report = soundness_suite(frame)
        assert report.ran and report.ok, report.to_text()
    finish(6, time.monotonic() - start, 120.0, "all 11 axioms and both rules hold on 100 sampled frames")


def test_criterion_07_incidence_relations_give_identity_modalities():
    start = time.monotonic()
    rng = random.Random(707)
    for k in range(50):
        ctx = random_context(rng, ALGEBRAS[k % 3], rng.randint(1, 3), rng.randint(1, 3))
        frame = EnrichedContext(ctx, r_box=ctx.incidence, r_diamond=ctx.incidence.transpose())
        assert frame.check_compatibility().ok
        for c in enumerate_concepts(ctx):
            assert frame.box_op(c) == c
            assert frame.diamond_op(c) == c
    finish(7, time.monotonic() - start, 10.0, "incidence-valued relations act as identity, 50 contexts")


def normal_modality_pairs(skeleton: ModalLattice):
    """All (box, dia) pairs the lattice validator accepts, by brute force."""
    names = skeleton.elements
    ident = {e: e for e in names}
    boxes, dias = [], []
    for images in itertools.product(names, repeat=len(names)):
        cand = dict(zip(names, images))
        try:
            ModalLattice(names, skeleton.leq, cand, ident)
            boxes.append(cand)
        except InputError:
            pass
        try:
            ModalLattice(names, skeleton.leq, ident, cand)
            dias.append(cand)
        except InputError:
            pass
    return boxes, dias


def test_criterion_08_transform_lemmas_across_all_small_lattices():
    start = time.monotonic()
    skeletons = {
        "chain1": chain_modal_lattice(1),
        "chain2": chain_modal_lattice(2),
        "chain3": chain_modal_lattice(3),
        "chain4": chain_modal_lattice(4),
        "diamond": diamond_modal_lattice(),
    }
    expected_pairs = {"chain1": 1, "chain2": 4, "chain3": 36, "chain4": 400, "diamond": 256}
    for label, skeleton in skeletons.items():
        boxes, dias = normal_modality_pairs(skeleton)
        assert len(boxes) * len(dias) == expected_pairs[label]
        for box_map in boxes:
            for dia_map in dias:
                lat = ModalLattice(skeleton.elements, skeleton.leq, box_map, dia_map)
                parts = canonical_parts(lat, L3)
                report = lemma_suite(parts)
                assert report.ok, f"{label}: {report.to_text()}"
                if label == "chain1":
                    with pytest.raises(InputError):
                        build_surrogate(parts)
                else:
                    sur = build_surrogate(parts)
                    assert sur.diamond_forms_agree and sur.box_forms_agree
                    degrees = ([f.degrees for f in sur.filters], [i.degrees for i in sur.ideals])
                    rows = (sur.incidence.rows, sur.r_box.rows, sur.r_diamond.rows)
                    assert degrees + rows == naive_surrogate_rows(lat, L3), label
    finish(8, time.monotonic() - start, 120.0, "transform and sum lemmas on every lattice of up to 4 elements")


def test_criterion_09_canonical_frames_are_compatible():
    start = time.monotonic()
    for lattice in (chain_modal_lattice(2), diamond_modal_lattice()):
        for alg in (B, L3):
            sur = build_surrogate(canonical_parts(lattice, alg))
            assert sur.compatibility.ok
            assert sur.diamond_forms_agree and sur.box_forms_agree
    finish(9, time.monotonic() - start, 10.0, "canonical surrogate frames pass the compatibility check")


def test_criterion_10_parser_printer_round_trip():
    start = time.monotonic()
    rng = make_rng(1010)
    for _ in range(1000):
        f = random_formula(rng, ("p", "q", "r", "s"), max_depth=8)
        assert parse_formula(print_formula(f)) == f
    finish(10, time.monotonic() - start, 1.0, "1000 seeded formulas survive print-then-parse")


def test_criterion_11_market_analyses_hit_the_half_degrees(tmp_path):
    start = time.monotonic()
    payload = {
        "labels": {"I": "activity"},
        "algebra": {"kind": "lukasiewicz", "size": 3},
        "objects": ["a", "b"],
        "attributes": ["x", "y"],
        "I": [[2, 1], [1, 0]],
        "R_box": [[2, 1], [1, 0]],
        "R_rhd": [[2, 1], [2, 2]],
    }
    path = tmp_path / "arena.json"
    path.write_text(json.dumps(payload))
    arena = load_arena(str(path))
    half = 1

    firm = firm_category(arena, "a")
    assert firm.extent.degrees == (2, half)

    basket = basket_category(arena, {"x": 1, "y": 2})
    assert basket.extent.degrees == (half, 0)

    typ = typicality_analysis(arena, "rhd_over_concept", firm)
    assert typ.listings[0].entries[1] == ("b", half, "1/2")

    refinement = box_refinement_analysis(arena, "a")
    assert refinement.listings[1].entries[1] == ("b", half, "1/2")
    finish(11, time.monotonic() - start, 1.0, "worked competition examples give the four 1/2 degrees")


def test_criterion_12_box_reflexivity_fails_with_countermodel():
    start = time.monotonic()
    base = Context.from_rows(B, ["a1", "a2"], ["x1", "x2"], [[1, 0], [0, 1]])
    frame = EnrichedContext(base, r_box=MvRelation.constant(B, base.objects, base.attributes, 0))
    verdict = sequent_valid(frame, parse_sequent("p |- box p"))
    assert not verdict.valid
    assert verdict.lattice_size == 4 and verdict.valuations_checked == 2
    assert verdict.countermodel["p"].extent.degrees == (0, 1)
    assert sequent_valid(frame, parse_sequent("box p & box q |- box (p & q)")).valid
    finish(12, time.monotonic() - start, 1.0, "p |- box p is refuted with a concrete countermodel")
