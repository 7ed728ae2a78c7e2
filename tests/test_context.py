import random

import pytest

from mvpolar import (
    ConceptLattice,
    Context,
    MvSet,
    ResourceError,
    UsageError,
    boolean_algebra,
    enumerate_concepts,
    goedel_chain,
    lukasiewicz_chain,
    subsethood,
)
from mvpolar.sampling import random_context
from oracles import (
    algebra_upper_covers,
    all_degree_tuples,
    brute_force_concepts,
    meet_closure_concepts,
    pairwise_order,
    product_of_chains,
    scan_covers,
)

L3 = lukasiewicz_chain(3)
B = boolean_algebra()


def half_context():
    return Context.from_rows(L3, ["a"], ["x"], [[1]])


def diag_context():
    return Context.from_rows(B, ["a1", "a2"], ["x1", "x2"], [[1, 0], [0, 1]])


def test_up_down_frozen_on_half_context():
    ctx = half_context()
    crisp = MvSet(L3, ["a"], (2,))
    assert ctx.up(crisp).degrees == (1,)
    assert ctx.down(MvSet(L3, ["x"], (1,))).degrees == (2,)


def test_galois_adjunction_sampled():
    rng = random.Random(11)
    for _ in range(30):
        ctx = random_context(rng, L3, rng.randint(1, 3), rng.randint(1, 3))
        for _ in range(10):
            f = MvSet(L3, ctx.objects, [rng.randrange(3) for _ in ctx.objects])
            u = MvSet(L3, ctx.attributes, [rng.randrange(3) for _ in ctx.attributes])
            assert subsethood(f, ctx.down(u)) == subsethood(u, ctx.up(f))


def test_half_context_has_exactly_two_concepts():
    lattice = enumerate_concepts(half_context())
    pairs = [(c.extent.degrees, c.intent.degrees) for c in lattice]
    assert pairs == [((1,), (2,)), ((2,), (1,))]


def test_diagonal_context_is_the_four_diamond():
    lattice = enumerate_concepts(diag_context())
    assert [c.extent.degrees for c in lattice] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert lattice.bottom_index == 0 and lattice.top_index == 3
    assert sorted(lattice.covers()) == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_cached_top_and_bottom_match_the_order_scan():
    alg = product_of_chains(L3, B)
    rng = random.Random(7)
    for _ in range(20):
        ctx = random_context(rng, alg, rng.randint(1, 3), rng.randint(1, 3))
        lattice = enumerate_concepts(ctx)
        n = len(lattice)
        assert lattice.bottom_index == next(i for i in range(n) if all(lattice.order[i]))
        assert lattice.top_index == next(i for i in range(n) if all(row[i] for row in lattice.order))


def test_all_one_context_has_a_single_concept():
    ctx = Context.from_rows(L3, ["a", "b"], ["x"], [[2], [2]])
    lattice = enumerate_concepts(ctx)
    assert len(lattice) == 1
    assert lattice[0].extent.degrees == (2, 2)


def test_enumeration_matches_brute_force_on_seeded_contexts():
    rng = random.Random(5)
    algebras = (B, L3, goedel_chain(3))
    for k in range(40):
        alg = algebras[k % 3]
        ctx = random_context(rng, alg, rng.randint(1, 3), rng.randint(1, 3))
        got = [(c.extent.degrees, c.intent.degrees) for c in enumerate_concepts(ctx)]
        want = [(c.extent.degrees, c.intent.degrees) for c in brute_force_concepts(ctx)]
        assert got == want


def test_concept_of_closes_any_seed():
    ctx = half_context()
    c = ctx.concept_of(MvSet(L3, ["a"], (0,)))
    assert (c.extent.degrees, c.intent.degrees) == ((1,), (2,))
    c2 = ctx.concept_from_intent(MvSet(L3, ["x"], (0,)))
    assert (c2.extent.degrees, c2.intent.degrees) == ((2,), (1,))


def test_is_stable():
    ctx = half_context()
    assert ctx.is_stable("extent", MvSet(L3, ["a"], (1,)))
    assert not ctx.is_stable("extent", MvSet(L3, ["a"], (0,)))
    assert ctx.is_stable("intent", MvSet(L3, ["x"], (2,)))
    with pytest.raises(UsageError):
        ctx.is_stable("sideways", MvSet(L3, ["a"], (1,)))


def test_lattice_order_and_operations_are_lattice_laws():
    rng = random.Random(23)
    for _ in range(10):
        ctx = random_context(rng, L3, rng.randint(1, 3), rng.randint(1, 3))
        lat = enumerate_concepts(ctx)
        n = len(lat)
        for i in range(n):
            assert lat.leq(i, i)
            for j in range(n):
                if lat.leq(i, j) and lat.leq(j, i):
                    assert i == j
                m, jn = lat.meet(i, j), lat.join(i, j)
                assert lat.leq(m, i) and lat.leq(m, j)
                assert lat.leq(i, jn) and lat.leq(j, jn)
                for k in range(n):
                    if lat.leq(k, i) and lat.leq(k, j):
                        assert lat.leq(k, m)
                    if lat.leq(i, k) and lat.leq(j, k):
                        assert lat.leq(jn, k)


def test_extents_closed_under_pointwise_meet():
    rng = random.Random(31)
    for _ in range(10):
        ctx = random_context(rng, L3, 2, 2)
        lat = enumerate_concepts(ctx)
        extents = {c.extent.degrees for c in lat}
        for e1 in extents:
            for e2 in extents:
                met = tuple(L3.meet(a, b) for a, b in zip(e1, e2))
                assert met in extents


def test_index_of_rejects_foreign_concepts():
    lat = enumerate_concepts(diag_context())
    other = enumerate_concepts(half_context())[0]
    with pytest.raises(UsageError):
        lat.index_of(other)


def test_budget_exhaustion():
    ctx = diag_context()
    with pytest.raises(ResourceError):
        enumerate_concepts(ctx, budget=2)


# The index order of the product is not its lattice order: (0, top) and
# (1, 0) get indices 1 and 2 and are incomparable.
WALK_ALGEBRAS = (B, L3, goedel_chain(4), lukasiewicz_chain(5), product_of_chains(L3, B))


def edge_contexts(alg):
    """One object, one attribute, all-top and all-bottom incidence."""
    rng = random.Random(alg.size)
    yield random_context(rng, alg, 1, 3)
    yield random_context(rng, alg, 3, 1)
    yield random_context(rng, alg, 1, 1)
    for value in (alg.top, alg.bottom):
        yield Context.from_rows(alg, ["a1", "a2", "a3"], ["x1", "x2"], [[value] * 2] * 3)


def walk_contexts():
    rng = random.Random(41)
    for alg in WALK_ALGEBRAS:
        yield from ((alg, ctx) for ctx in edge_contexts(alg))
        for _ in range(12):
            yield alg, random_context(rng, alg, rng.randint(1, 4), rng.randint(1, 4))


def test_walk_matches_the_meet_closure_covers_scan_and_pairwise_order():
    for alg, ctx in walk_contexts():
        lattice = enumerate_concepts(ctx)
        got = [(c.extent.degrees, c.intent.degrees) for c in lattice]
        assert got == meet_closure_concepts(ctx)
        if alg.size ** len(ctx.objects) <= 1024:
            assert got == [(c.extent.degrees, c.intent.degrees) for c in brute_force_concepts(ctx)]
        order = pairwise_order(alg, [ext for ext, _ in got])
        assert lattice.order == order
        assert lattice.covers() == scan_covers(order)


def count_down_closures(monkeypatch):
    calls = []
    down = Context._down_degrees
    monkeypatch.setattr(Context, "_down_degrees", lambda ctx, intent: calls.append(intent) or down(ctx, intent))
    return calls


def test_walk_closes_one_seed_per_object_and_algebra_cover(monkeypatch):
    calls = count_down_closures(monkeypatch)
    for alg, ctx in walk_contexts():
        calls.clear()
        lattice = enumerate_concepts(ctx)
        steps = sum(len(algebra_upper_covers(alg, v)) for c in lattice for v in c.extent.degrees)
        assert len(calls) <= 1 + steps


def test_order_table_is_built_only_when_read(monkeypatch):
    built = []
    original = ConceptLattice.order
    monkeypatch.setattr(ConceptLattice, "order", property(lambda lat: built.append(1) or original.fget(lat)))
    lattice = enumerate_concepts(random_context(random.Random(3), L3, 4, 4))
    lattice.covers(), lattice.to_dot()
    assert built == []
    assert lattice.leq(lattice.bottom_index, lattice.top_index) and built


def test_budget_boundary_is_the_concept_count():
    ctx = random_context(random.Random(9), lukasiewicz_chain(5), 3, 3)
    count = len(enumerate_concepts(ctx))
    assert len(enumerate_concepts(ctx, budget=count)) == count
    with pytest.raises(ResourceError) as err:
        enumerate_concepts(ctx, budget=count - 1)
    assert str(err.value) == f"concept enumeration exceeded the budget of {count - 1} concepts"


def test_budget_stops_the_walk_early(monkeypatch):
    ctx = random_context(random.Random(1), lukasiewicz_chain(5), 8, 8)
    budget = 10
    calls = count_down_closures(monkeypatch)
    with pytest.raises(ResourceError):
        enumerate_concepts(ctx, budget=budget)
    # At most budget + 1 concepts are found, and each found concept closes
    # at most one seed per object (a chain has one upper cover per value).
    assert len(calls) <= 1 + (budget + 1) * len(ctx.objects)


def test_dot_export():
    dot = enumerate_concepts(diag_context()).to_dot()
    assert dot.count("label=") == 4
    assert "->" in dot and dot.startswith("digraph")


def test_context_rejects_exotic_sides():
    with pytest.raises(Exception):
        Context.from_rows(L3, [], ["x"], [])
