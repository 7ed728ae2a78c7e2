import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpolar import (
    InputError,
    MvRelation,
    MvSet,
    UsageError,
    boolean_algebra,
    lift0,
    lift1,
    lukasiewicz_chain,
    singleton,
    subsethood,
    validate_algebra,
)
from oracles import all_degree_tuples, product_of_chains, slow_subsethood

L3 = lukasiewicz_chain(3)
B = boolean_algebra()
AB = ("a", "b")


def test_mvset_construction_and_lookup():
    f = MvSet(L3, AB, (2, 1))
    assert f.value("a") == 2 and f.value("b") == 1
    assert f.as_dict() == {"a": 2, "b": 1}
    with pytest.raises(UsageError):
        f.value("c")


def test_mvset_validation():
    with pytest.raises(InputError):
        MvSet(L3, (), ())
    with pytest.raises(InputError):
        MvSet(L3, ("a", "a"), (0, 0))
    with pytest.raises(InputError):
        MvSet(L3, AB, (0,))
    with pytest.raises(UsageError):
        MvSet(L3, AB, (0, 7))


def test_pointwise_ops_and_order():
    f = MvSet(L3, AB, (2, 0))
    g = MvSet(L3, AB, (1, 1))
    assert f.meet(g).degrees == (1, 0)
    assert f.join(g).degrees == (2, 1)
    assert not f.leq(g) and f.meet(g).leq(f)
    constant = MvSet.constant(L3, AB, 2)
    assert f.leq(constant)


def test_mismatched_worlds_rejected():
    f = MvSet(L3, AB, (1, 1))
    g = MvSet(L3, ("a", "c"), (1, 1))
    h = MvSet(B, AB, (1, 1))
    for other in (g, h):
        with pytest.raises(UsageError):
            f.meet(other)
    with pytest.raises(UsageError):
        subsethood(f, g)


def test_subsethood_frozen_values():
    f = MvSet(L3, AB, (2, 1))
    g = MvSet(L3, AB, (1, 2))
    # (2 -> 1) meet (1 -> 2) = 1 meet 2 = 1
    assert subsethood(f, g) == 1
    assert subsethood(g, f) == 1
    assert subsethood(f, f) == 2
    assert subsethood(MvSet.constant(L3, AB, 0), g) == 2


def test_subsethood_equals_oracle_exhaustively():
    for fd in all_degree_tuples(L3, 2):
        for gd in all_degree_tuples(L3, 2):
            f = MvSet(L3, AB, fd)
            g = MvSet(L3, AB, gd)
            assert subsethood(f, g) == slow_subsethood(L3, fd, gd)


def test_singleton():
    s = singleton(L3, AB, 1, "b")
    assert s.degrees == (0, 1)
    with pytest.raises(UsageError):
        singleton(L3, AB, 1, "z")


def test_singleton_join_reconstruction():
    for degrees in all_degree_tuples(L3, 2):
        f = MvSet(L3, AB, degrees)
        parts = [singleton(L3, AB, f.degrees[k], z) for k, z in enumerate(AB)]
        acc = parts[0]
        for p in parts[1:]:
            acc = acc.join(p)
        assert acc == f


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=2, max_size=2), st.lists(st.integers(0, 2), min_size=2, max_size=2))
def test_subsethood_internalizes_order(fd, gd):
    f = MvSet(L3, AB, tuple(fd))
    g = MvSet(L3, AB, tuple(gd))
    assert (subsethood(f, g) == L3.top) == f.leq(g)


def test_relation_basics():
    R = MvRelation(L3, AB, ("x", "y"), [[2, 0], [1, 1]])
    assert R.at(0, 1) == 0
    assert R.value("b", "x") == 1
    assert R.transpose().at(1, 0) == 0
    with pytest.raises(UsageError):
        R.value("z", "x")
    with pytest.raises(InputError):
        MvRelation(L3, AB, ("x",), [[1], [2], [0]])


def test_identity_relation():
    D = MvRelation.identity(L3, AB)
    assert D.at(0, 0) == 2 and D.at(0, 1) == 0


def test_lift_frozen_values():
    R = MvRelation(L3, AB, ("x", "y"), [[2, 0], [1, 1]])
    f = MvSet(L3, AB, (2, 1))
    # lift1: x maps to (2 -> 2) meet (1 -> 1) = 2; y maps to (2 -> 0) meet (1 -> 1) = 0
    assert lift1(R, f).degrees == (2, 0)
    u = MvSet(L3, ("x", "y"), (1, 2))
    # lift0: a maps to (1 -> 2) meet (2 -> 0) = 0; b maps to (1 -> 1) meet (2 -> 1) = 1
    assert lift0(R, u).degrees == (0, 1)


def test_lifts_are_antitone():
    R = MvRelation(L3, AB, ("x", "y"), [[2, 0], [1, 1]])
    for fd in all_degree_tuples(L3, 2):
        for gd in all_degree_tuples(L3, 2):
            f, g = MvSet(L3, AB, fd), MvSet(L3, AB, gd)
            if f.leq(g):
                assert lift1(R, g).leq(lift1(R, f))


def test_lift0_is_lift1_of_the_transpose():
    L3xB = product_of_chains(L3, B)
    assert validate_algebra(L3xB).ok
    for alg in (L3, L3xB):
        for rows in itertools.product(all_degree_tuples(alg, 2), repeat=2):
            R = MvRelation(alg, AB, ("x", "y"), rows)
            Rt = R.transpose()
            assert Rt.rows == R.columns and Rt.columns == R.rows
            for ud in all_degree_tuples(alg, 2):
                u = MvSet(alg, ("x", "y"), ud)
                assert lift0(R, u) == lift1(Rt, u)


def test_lift_carrier_checks():
    R = MvRelation(L3, AB, ("x", "y"), [[2, 0], [1, 1]])
    with pytest.raises(UsageError):
        lift1(R, MvSet(L3, ("x", "y"), (0, 0)))
    with pytest.raises(UsageError):
        lift0(R, MvSet(L3, AB, (0, 0)))
    with pytest.raises(UsageError):
        lift1(R, MvSet(B, AB, (1, 0)))


def test_two_valued_embedding_through_identity():
    # over the Boolean algebra the identity relation recovers classical behavior
    carrier = ("a", "b", "c")
    D = MvRelation.identity(B, carrier)
    full = MvSet.constant(B, carrier, 1)
    assert lift0(D, full).degrees == (0, 0, 0)
    for degrees in all_degree_tuples(B, 3):
        f = MvSet(B, carrier, degrees)
        lifted = lift1(D, f)
        # x gets 1 exactly when every element of f other than x is absent
        want = tuple(
            1 if all(degrees[k] == 0 or carrier[k] == x for k in range(3)) else 0
            for x in carrier
        )
        assert lifted.degrees == want
