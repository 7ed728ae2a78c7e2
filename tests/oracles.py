"""Independent slow reference implementations used to cross-check the fast paths.

Everything here recomputes results straight from the defining formulas,
with no reuse of the library's enumeration or tabulation code beyond
the primitive algebra operations.
"""

import itertools

from mvpolar import Concept, Model, MvSet, ValidityVerdict, custom_algebra, enumerate_concepts, sequent_true
from mvpolar.frames import SingletonCheck


def all_degree_tuples(algebra, length):
    return itertools.product(range(algebra.size), repeat=length)


def product_of_chains(first, second):
    """Componentwise product of two algebras as a custom algebra.

    The pair (x, y) gets index x * second.size + y, so the index order is
    not the lattice order: (0, top) and (1, 0) are incomparable.
    """
    pairs = list(itertools.product(range(first.size), range(second.size)))
    index = {p: k for k, p in enumerate(pairs)}

    def table(name):
        t1, t2 = getattr(first, name), getattr(second, name)
        return [[index[(t1[a][c], t2[b][d])] for c, d in pairs] for a, b in pairs]

    return custom_algebra(
        len(pairs),
        join=table("join_table"),
        meet=table("meet_table"),
        otimes=table("otimes_table"),
        residuum=table("residuum_table"),
    )


def brute_force_concepts(ctx):
    """Every stable pair, found by closing each of the |alg|^|A| extents."""
    algebra = ctx.algebra
    out = []
    seen = set()
    for degrees in all_degree_tuples(algebra, len(ctx.objects)):
        f = MvSet(algebra, ctx.objects, degrees)
        up = ctx.up(f)
        down = ctx.down(up)
        if down.degrees == degrees and degrees not in seen:
            seen.add(degrees)
            out.append(Concept(f, up))
    return sorted(out, key=lambda c: c.extent.degrees)


def meet_closure_concepts(ctx):
    """(extent, intent) pairs, sorted by extent, from the all-pairs meet closure.

    The basic extents alpha -> column and the top extent's closure are
    closed under pairwise pointwise meets until nothing new appears.
    """
    alg = ctx.algebra
    res = alg.residuum_table
    meet = alg.meet_table
    found = {tuple(res[alpha][v] for v in column) for alpha in range(alg.size) for column in ctx.incidence.columns}
    found.add(ctx._down_degrees(ctx._up_degrees((alg.top,) * len(ctx.objects))))
    queue = sorted(found)
    while queue:
        t = queue.pop()
        for s in list(found):
            m = tuple(meet[a][b] for a, b in zip(t, s))
            if m not in found:
                found.add(m)
                queue.append(m)
    return [(ext, ctx._up_degrees(ext)) for ext in sorted(found)]


def pairwise_order(algebra, extents):
    """order[i][j]: extents[i] <= extents[j] at every object, one pair at a time."""
    return tuple(
        tuple(all(algebra.leq(a, b) for a, b in zip(e, f)) for f in extents) for e in extents
    )


def scan_covers(order):
    """Covering pairs (i, j) by scanning every k for something strictly between."""
    n = len(order)
    return tuple(
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j
        and order[i][j]
        and not any(k != i and k != j and order[i][k] and order[k][j] for k in range(n))
    )


def algebra_upper_covers(algebra, v):
    """The values w > v with no value strictly between, from leq alone."""
    above = [w for w in range(algebra.size) if w != v and algebra.leq(v, w)]
    return [w for w in above if not any(u != w and algebra.leq(u, w) for u in above)]


def slow_subsethood(algebra, f_degrees, g_degrees):
    out = algebra.top
    for a, b in zip(f_degrees, g_degrees):
        out = algebra.meet(out, algebra.residuum(a, b))
    return out


def slow_box_extent(frame, intent):
    """Degrees of the box concept's extent, by the double loop."""
    algebra = frame.base.algebra
    rel = frame.r_box
    out = []
    for i in range(len(frame.base.objects)):
        v = algebra.top
        for j in range(len(frame.base.attributes)):
            v = algebra.meet(v, algebra.residuum(intent.degrees[j], rel.at(i, j)))
        out.append(v)
    return tuple(out)


def slow_diamond_intent(frame, extent):
    algebra = frame.base.algebra
    rel = frame.r_diamond
    out = []
    for j in range(len(frame.base.attributes)):
        v = algebra.top
        for i in range(len(frame.base.objects)):
            v = algebra.meet(v, algebra.residuum(extent.degrees[i], rel.at(j, i)))
        out.append(v)
    return tuple(out)


def naive_sequent_valid(frame, sequent):
    """Validity by checking every valuation, in lexicographic order, with sequent_true on a Model."""
    lattice = enumerate_concepts(frame.base)
    atoms = sequent.atoms()
    checked = 0
    for combo in itertools.product(range(len(lattice)), repeat=len(atoms)):
        checked += 1
        valuation = {name: lattice[i] for name, i in zip(atoms, combo)}
        if not sequent_true(Model(frame, valuation), sequent):
            return ValidityVerdict(False, valuation, checked, len(lattice))
    return ValidityVerdict(True, None, checked, len(lattice))


def naive_singleton_checks(base, relation, name):
    """Compatibility checks of one relation, closing every alpha-scaled column and row.

    relation is shaped objects x attributes (pass r_diamond transposed).
    """
    alg = base.algebra
    res = alg.residuum_table
    checks = []
    for alpha in range(alg.size):
        for j, column in enumerate(relation.columns):
            image = tuple(res[alpha][v] for v in column)
            closure = base._down_degrees(base._up_degrees(image))
            checks.append(
                SingletonCheck(name, "extent", alpha, base.attributes[j], closure == image, image, closure)
            )
        for i in range(len(base.objects)):
            image = tuple(res[alpha][v] for v in relation.rows[i])
            closure = base._up_degrees(base._down_degrees(image))
            checks.append(
                SingletonCheck(name, "intent", alpha, base.objects[i], closure == image, image, closure)
            )
    return tuple(checks)


def naive_filters(lattice, algebra):
    out = []
    n = len(lattice)
    for degrees in itertools.product(range(algebra.size), repeat=n):
        if degrees[lattice.top_index] != algebra.top:
            continue
        if all(
            degrees[lattice.meet_table[i][j]] == algebra.meet(degrees[i], degrees[j])
            for i in range(n)
            for j in range(n)
        ):
            out.append(degrees)
    return out


def naive_ideals(lattice, algebra):
    out = []
    n = len(lattice)
    for degrees in itertools.product(range(algebra.size), repeat=n):
        if degrees[lattice.bottom_index] != algebra.top:
            continue
        if all(
            degrees[lattice.join_table[i][j]] == algebra.meet(degrees[i], degrees[j])
            for i in range(n)
            for j in range(n)
        ):
            out.append(degrees)
    return out


def naive_surrogate_rows(lattice, algebra):
    """Incidence, r_box and r_diamond rows of the canonical frame, summed over
    the proper filters x proper ideals only.

    A filter is proper when it sends bottom to 0, an ideal when it sends top
    to 0.  The incidence at (f, i) is the join over a of f(a) (x) i(a);
    r_box at (f, i) is the join of i(a) (x) f(box a), and r_diamond at (i, f)
    the join of f(a) (x) i(dia a).
    """
    n = len(lattice)
    filters = [f for f in naive_filters(lattice, algebra) if f[lattice.bottom_index] == algebra.bottom]
    ideals = [i for i in naive_ideals(lattice, algebra) if i[lattice.top_index] == algebra.bottom]

    def total(x, y):
        value = algebra.bottom
        for a in range(n):
            value = algebra.join(value, algebra.otimes(x[a], y[a]))
        return value

    def through(x, modal):
        return tuple(x[modal[a]] for a in range(n))

    incidence = tuple(tuple(total(f, i) for i in ideals) for f in filters)
    box = tuple(tuple(total(i, through(f, lattice.box_map)) for i in ideals) for f in filters)
    diamond = tuple(tuple(total(f, through(i, lattice.dia_map)) for f in filters) for i in ideals)
    return filters, ideals, incidence, box, diamond
