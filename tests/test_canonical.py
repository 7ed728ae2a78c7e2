import itertools
import random

import pytest
from oracles import naive_filters, naive_ideals
from test_acceptance import normal_modality_pairs

from mvpolar import (
    InputError,
    ResourceError,
    UsageError,
    boolean_algebra,
    evaluate,
    goedel_chain,
    lukasiewicz_chain,
    membership_degree,
    parse_formula,
)
from mvpolar.canonical import (
    ModalLattice,
    MvFilter,
    MvIdeal,
    box_inverse,
    build_surrogate,
    canonical_model,
    canonical_parts,
    chain_modal_lattice,
    diamond_inverse,
    diamond_modal_lattice,
    enumerate_filters,
    enumerate_ideals,
    eval_in_lattice,
    lemma_suite,
)

B = boolean_algebra()
L3 = lukasiewicz_chain(3)
G4 = goedel_chain(4)


def pentagon_modal_lattice(box=None, dia=None):
    """e0 < e1 < e2 < e4 and e0 < e3 < e4, with e3 incomparable to e1 and e2."""
    up = {0: {0, 1, 2, 3, 4}, 1: {1, 2, 4}, 2: {2, 4}, 3: {3, 4}, 4: {4}}
    names = [f"e{i}" for i in range(5)]
    ident = {e: e for e in names}
    leq = [[j in up[i] for j in range(5)] for i in range(5)]
    return ModalLattice(names, leq, box or ident, dia or ident)


def moved_chain():
    return chain_modal_lattice(
        3, box={"e0": "e0", "e1": "e0", "e2": "e2"}, dia={"e0": "e0", "e1": "e2", "e2": "e2"}
    )


def small_lattices():
    return (
        chain_modal_lattice(2),
        chain_modal_lattice(3),
        diamond_modal_lattice(),
        pentagon_modal_lattice(),
        pentagon_modal_lattice(
            box={"e0": "e0", "e1": "e0", "e2": "e2", "e3": "e0", "e4": "e4"},
            dia={"e0": "e0", "e1": "e2", "e2": "e2", "e3": "e4", "e4": "e4"},
        ),
        moved_chain(),
    )


def test_poset_validation():
    with pytest.raises(InputError, match="reflexive"):
        ModalLattice(["a"], [[False]], {"a": "a"}, {"a": "a"})
    with pytest.raises(InputError, match="antisymmetric"):
        ModalLattice(
            ["a", "b"], [[True, True], [True, True]], {"a": "a", "b": "b"}, {"a": "a", "b": "b"}
        )
    with pytest.raises(InputError, match="transitive"):
        ModalLattice(
            ["a", "b", "c"],
            [[True, True, False], [False, True, True], [False, False, True]],
            {e: e for e in "abc"},
            {e: e for e in "abc"},
        )
    with pytest.raises(InputError, match="join|meet"):
        ModalLattice(
            ["a", "b"], [[True, False], [False, True]], {"a": "a", "b": "b"}, {"a": "a", "b": "b"}
        )
    with pytest.raises(InputError):
        ModalLattice(["a", "a"], [[True, True], [True, True]], {"a": "a"}, {"a": "a"})
    with pytest.raises(InputError):
        ModalLattice(["a"], [[True, True]], {"a": "a"}, {"a": "a"})


def test_modality_validation():
    with pytest.raises(InputError, match="top to top"):
        chain_modal_lattice(2, box={"e0": "e1", "e1": "e0"})
    with pytest.raises(InputError, match="bottom to bottom"):
        chain_modal_lattice(2, dia={"e0": "e1", "e1": "e1"})
    with pytest.raises(InputError, match="meet"):
        diamond_modal_lattice(box={"e0": "e3", "e1": "e1", "e2": "e2", "e3": "e3"})
    with pytest.raises(InputError, match="join"):
        diamond_modal_lattice(dia={"e0": "e0", "e1": "e1", "e2": "e2", "e3": "e0"})
    with pytest.raises(InputError):
        chain_modal_lattice(2, box={"e0": "e0"})
    with pytest.raises(InputError):
        chain_modal_lattice(2, box={"e0": "e0", "e1": "e1", "zz": "e0"})
    with pytest.raises(InputError):
        chain_modal_lattice(2, box={"e0": "weird", "e1": "e1"})
    with pytest.raises(InputError):
        chain_modal_lattice(2, atoms=("nope",))
    with pytest.raises(InputError):
        chain_modal_lattice(0)


def test_lattice_accessors():
    lat = diamond_modal_lattice()
    assert len(lat) == 4
    assert lat.bottom_index == 0 and lat.top_index == 3
    assert lat.index("e2") == 2
    with pytest.raises(UsageError):
        lat.index("e9")
    assert lat.join_table[1][2] == 3 and lat.meet_table[1][2] == 0


def naive_diamond_inverse(f):
    """a maps to the join of f(b) over all b with dia(b) <= a."""
    lat, alg = f.lattice, f.algebra
    out = []
    for a in range(len(lat)):
        value = alg.bottom
        for b in range(len(lat)):
            if lat.leq[lat.dia_map[b]][a]:
                value = alg.join(value, f.degrees[b])
        out.append(value)
    return tuple(out)


def naive_box_inverse(i):
    """a maps to the join of i(b) over all b with a <= box(b)."""
    lat, alg = i.lattice, i.algebra
    out = []
    for a in range(len(lat)):
        value = alg.bottom
        for b in range(len(lat)):
            if lat.leq[a][lat.box_map[b]]:
                value = alg.join(value, i.degrees[b])
        out.append(value)
    return tuple(out)


def test_enumeration_matches_naive_definition():
    for lat in small_lattices():
        for alg in (B, L3, G4):
            assert [f.degrees for f in enumerate_filters(lat, alg)] == naive_filters(lat, alg)
            assert [i.degrees for i in enumerate_ideals(lat, alg)] == naive_ideals(lat, alg)
            assert enumerate_filters(lat, alg) == tuple(MvFilter(lat, alg, d) for d in naive_filters(lat, alg))
            assert enumerate_ideals(lat, alg) == tuple(MvIdeal(lat, alg, d) for d in naive_ideals(lat, alg))


def test_inverse_transforms_match_their_defining_joins():
    for lat in small_lattices():
        for alg in (B, L3, G4):
            for f in enumerate_filters(lat, alg):
                assert diamond_inverse(f).degrees == naive_diamond_inverse(f)
            for i in enumerate_ideals(lat, alg):
                assert box_inverse(i).degrees == naive_box_inverse(i)


def test_dual_swaps_the_tables_and_is_an_involution():
    for lat in small_lattices():
        dual = lat.dual()
        assert dual is lat.dual()
        assert dual.meet_table == lat.join_table and dual.join_table == lat.meet_table
        assert dual.box_map == lat.dia_map and dual.dia_map == lat.box_map
        assert (dual.top_index, dual.bottom_index) == (lat.bottom_index, lat.top_index)
        back = dual.dual()
        assert back.elements == lat.elements and back.leq == lat.leq
        assert back.meet_table == lat.meet_table and back.join_table == lat.join_table
        assert back.box_map == lat.box_map and back.dia_map == lat.dia_map
        assert (back.top_index, back.bottom_index) == (lat.top_index, lat.bottom_index)


def test_frozen_filter_counts():
    two = chain_modal_lattice(2)
    assert len(enumerate_filters(two, L3)) == 3
    assert [f.degrees for f in enumerate_filters(two, L3) if f.proper] == [(0, 2)]
    assert len(enumerate_filters(two, B)) == 2
    assert [i.degrees for i in enumerate_ideals(two, L3) if i.proper] == [(2, 0)]
    assert len([f for f in enumerate_filters(diamond_modal_lattice(), L3) if f.proper]) == 5


def test_filter_and_ideal_validation():
    two = chain_modal_lattice(2)
    with pytest.raises(InputError):
        MvFilter(two, L3, (0, 1))
    with pytest.raises(InputError):
        MvFilter(two, L3, (2,))
    with pytest.raises(InputError):
        MvIdeal(two, L3, (1, 0))
    f = MvFilter(two, L3, (2, 2))
    assert not f.proper and f.value("e0") == 2


def test_identity_modalities_fix_the_transforms():
    for lat in (chain_modal_lattice(3), diamond_modal_lattice()):
        for f in enumerate_filters(lat, L3):
            assert diamond_inverse(f).degrees == f.degrees
        for i in enumerate_ideals(lat, L3):
            assert box_inverse(i).degrees == i.degrees


def test_enumeration_budget():
    with pytest.raises(ResourceError):
        enumerate_filters(chain_modal_lattice(7), lukasiewicz_chain(10))


def test_enumeration_budget_boundary():
    three = chain_modal_lattice(3)
    assert [f.degrees for f in enumerate_filters(three, L3, budget=27)] == naive_filters(three, L3)
    assert [i.degrees for i in enumerate_ideals(three, L3, budget=27)] == naive_ideals(three, L3)
    message = "^27 candidate maps over 3 elements exceed the budget of 26$"
    with pytest.raises(ResourceError, match=message):
        enumerate_filters(three, L3, budget=26)
    with pytest.raises(ResourceError, match=message):
        enumerate_ideals(three, L3, budget=26)


def monotone_chain_map(rng, length, target, pinned_top):
    """Random monotone map between chains sending top to top (or bottom to bottom)."""
    values = sorted(rng.randrange(target) for _ in range(length - 1))
    return values + [target - 1] if pinned_top else [0] + values


def grid_modal_lattice(rng, m, n, top_first=False):
    """The product of an m-chain and an n-chain with random normal maps.

    box(a, b) = (min(p(a), q(b)), min(r(a), t(b))) for monotone p, q, r, t
    fixing top preserves meets; dia is the same with max and bottom.
    With top_first the elements are listed from top to bottom.
    """
    points = sorted(itertools.product(range(m), range(n)), reverse=top_first)
    names = [f"e{a}{b}" for a, b in points]
    leq = [[a <= c and b <= d for c, d in points] for a, b in points]

    def normal(pick, pinned_top):
        p, q = monotone_chain_map(rng, m, m, pinned_top), monotone_chain_map(rng, n, m, pinned_top)
        r, t = monotone_chain_map(rng, m, n, pinned_top), monotone_chain_map(rng, n, n, pinned_top)
        return {f"e{a}{b}": f"e{pick(p[a], q[b])}{pick(r[a], t[b])}" for a, b in points}

    return ModalLattice(names, leq, normal(min, True), normal(max, False))


def random_normal_lattice(rng, skeleton):
    """skeleton with a box and a dia drawn from all its normal maps."""
    boxes, dias = normal_modality_pairs(skeleton)
    return ModalLattice(skeleton.elements, skeleton.leq, rng.choice(boxes), rng.choice(dias))


def test_backtracking_enumeration_matches_naive_on_larger_lattices():
    rng = random.Random(608)
    pentagon = pentagon_modal_lattice()
    cases = [
        (grid_modal_lattice(rng, 2, 3), (B, L3, G4)),
        (grid_modal_lattice(rng, 2, 3, top_first=True), (B, L3, G4)),
        (grid_modal_lattice(rng, 3, 3), (B, L3, G4)),
        (grid_modal_lattice(rng, 3, 3, top_first=True), (B, L3, G4)),
        (random_normal_lattice(rng, pentagon), (B, L3, G4)),
    ]
    assert cases[1][0].top_index == 0 and cases[3][0].bottom_index == 8
    for lat, algebras in cases:
        for alg in algebras:
            assert [f.degrees for f in enumerate_filters(lat, alg)] == naive_filters(lat, alg)
            assert [i.degrees for i in enumerate_ideals(lat, alg)] == naive_ideals(lat, alg)


def test_boolean_two_chain_surrogate_frozen():
    sur = build_surrogate(canonical_parts(chain_modal_lattice(2), B))
    assert len(sur.filters) == 1 and len(sur.ideals) == 1
    assert sur.incidence.rows == ((0,),)
    assert sur.r_box.rows == ((0,),) and sur.r_diamond.rows == ((0,),)
    assert sur.diamond_forms_agree and sur.box_forms_agree
    assert sur.compatibility.ok


def test_surrogates_agree_and_are_compatible():
    cases = [
        (chain_modal_lattice(3), L3),
        (diamond_modal_lattice(), L3),
        (diamond_modal_lattice(), B),
        (moved_chain(), L3),
    ]
    for lat, alg in cases:
        sur = build_surrogate(canonical_parts(lat, alg))
        assert sur.diamond_forms_agree and sur.box_forms_agree
        assert sur.compatibility.ok
        assert sur.r_box.source == sur.frame.base.objects
        assert sur.r_diamond.source == sur.frame.base.attributes


def test_one_chain_has_no_canonical_frame():
    with pytest.raises(InputError, match="proper"):
        build_surrogate(canonical_parts(chain_modal_lattice(1), L3))


def test_lemma_suite_passes_where_expected():
    for lat in (chain_modal_lattice(2), chain_modal_lattice(3), diamond_modal_lattice()):
        for alg in (B, L3):
            report = lemma_suite(canonical_parts(lat, alg))
            assert report.ok
            assert len(report.checks) == 10
            assert sum(1 for c in report.checks if c.required) == 8
            assert "overall (required items): PASS" in report.to_text()


def test_properness_checks_are_informative_only():
    lat = chain_modal_lattice(2, box={"e0": "e1", "e1": "e1"})
    report = lemma_suite(canonical_parts(lat, L3))
    assert report.ok
    by_name = {c.name: c for c in report.checks}
    broken = by_name["box-inverse preserves properness"]
    assert not broken.ok and not broken.required
    assert broken.failure_count > 0 and broken.witnesses
    assert "fail (informative)" in report.to_text()


def test_canonical_model_requires_atoms():
    sur = build_surrogate(canonical_parts(chain_modal_lattice(2), L3))
    with pytest.raises(InputError, match="atoms"):
        canonical_model(sur)


TRUTH_FORMS = (
    "top",
    "bot",
    "e1",
    "box e1",
    "dia e1",
    "e1 & e2",
    "e1 | e2",
    "box (e1 & e2)",
    "dia (e1 | e2)",
    "box dia e1",
    "e1 & box e2",
    "dia e1 | box (e1 | e2)",
)


@pytest.mark.parametrize(
    "lattice,algebra",
    [
        (chain_modal_lattice(3, atoms=("e0", "e1", "e2")), L3),
        (chain_modal_lattice(2, atoms=("e0", "e1")), B),
        (
            chain_modal_lattice(
                3,
                box={"e0": "e0", "e1": "e0", "e2": "e2"},
                dia={"e0": "e0", "e1": "e2", "e2": "e2"},
                atoms=("e0", "e1", "e2"),
            ),
            L3,
        ),
        (diamond_modal_lattice(atoms=("e1", "e2")), L3),
        (
            diamond_modal_lattice(
                box={"e0": "e2", "e1": "e3", "e2": "e2", "e3": "e3"},
                dia={"e0": "e0", "e1": "e3", "e2": "e2", "e3": "e3"},
                atoms=("e1", "e2"),
            ),
            L3,
        ),
    ],
)
def test_truth_lemma_fragment(lattice, algebra):
    sur = build_surrogate(canonical_parts(lattice, algebra))
    model = canonical_model(sur)
    ident = {a: a for a in lattice.atoms}
    for text in TRUTH_FORMS:
        formula = parse_formula(text)
        if any(a not in lattice.atoms for a in formula.atoms()):
            continue
        k = lattice.index(eval_in_lattice(lattice, formula, ident))
        concept = evaluate(model, formula)
        assert concept.extent.degrees == tuple(f.degrees[k] for f in sur.filters)
        assert concept.intent.degrees == tuple(i.degrees[k] for i in sur.ideals)
        first = sur.frame.base.objects[0]
        assert membership_degree(model, first, formula) == sur.filters[0].degrees[k]


def test_eval_in_lattice_rejects_what_it_cannot_interpret():
    lat = chain_modal_lattice(2, atoms=("e1",))
    assert eval_in_lattice(lat, parse_formula("box e1 & top"), {"e1": "e1"}) == "e1"
    assert eval_in_lattice(lat, parse_formula("bot | e1"), {"e1": "e0"}) == "e0"
    with pytest.raises(UsageError):
        eval_in_lattice(lat, parse_formula("rhd e1"), {"e1": "e1"})
    with pytest.raises(UsageError):
        eval_in_lattice(lat, parse_formula("zz"), {"e1": "e1"})
