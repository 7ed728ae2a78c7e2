"""Canonical-frame machinery over finite modal lattices.

A ModalLattice stands in for the algebra of formulas: a finite bounded
lattice with a meet-and-top preserving box map and a join-and-bottom
preserving diamond map.  Filters valued in a truth algebra are
enumerated by a depth-first search over the elements in index order
that drops a prefix as soon as it breaks a meet; the output is every
filter, in lexicographic order.  The inverse diamond transform is
computed by its defining join, and the canonical frame over the proper
filter/ideal pairs is built from the displayed sum formulas.  Both
displayed forms of each canonical relation are computed independently
and compared.

canonical_parts enumerates the filters and the ideals once and computes
both displayed forms over all of them.  lemma_suite and build_surrogate
both take that bundle as their one input, so a caller running both does
each piece of work once.

Every ideal-side construction is the filter-side one run on the order
dual, ModalLattice.dual(): an ideal is a filter of the dual, the box
transform is the dual's diamond transform, and the box relation of the
canonical frame is the dual's diamond relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .algebra import TruthAlgebra
from .context import Concept, Context
from .errors import InputError, ResourceError, UsageError
from .frames import EnrichedContext
from .mvsets import MvRelation, MvSet
from .semantics import Model
from .syntax import Formula

DEFAULT_ENUMERATION_BUDGET = 1_000_000


class ModalLattice:
    """Finite bounded lattice with normal box and diamond maps."""

    __slots__ = (
        "elements", "leq", "join_table", "meet_table", "box_map", "dia_map", "atoms",
        "top_index", "bottom_index", "_index", "_dual",
    )

    def __init__(
        self,
        elements: Sequence[str],
        leq: Sequence[Sequence[bool]],
        box: Mapping[str, str],
        dia: Mapping[str, str],
        atoms: Sequence[str] = (),
    ):
        names = tuple(elements)
        if not names or len(set(names)) != len(names) or not all(isinstance(e, str) and e for e in names):
            raise InputError("lattice elements must be distinct nonempty names")
        n = len(names)
        rows = tuple(tuple(bool(v) for v in row) for row in leq)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise InputError(f"leq must be a {n}x{n} matrix")
        self.elements = names
        self.leq = rows
        self._index = {e: i for i, e in enumerate(names)}
        self._validate_poset()
        self.join_table = self._bounds_table(upper=True)
        self.meet_table = self._bounds_table(upper=False)
        self.top_index = next(i for i in range(n) if all(row[i] for row in rows))
        self.bottom_index = next(i for i in range(n) if all(rows[i]))
        self._dual = None
        self.box_map = self._normalize_map("box", box)
        self.dia_map = self._normalize_map("dia", dia)
        self.atoms = tuple(atoms)
        for a in self.atoms:
            if a not in self._index:
                raise InputError(f"designated atom {a!r} is not a lattice element")
        self._validate_modalities()

    def _validate_poset(self):
        n = len(self.elements)
        leq = self.leq
        for i in range(n):
            if not leq[i][i]:
                raise InputError(f"leq is not reflexive at {self.elements[i]!r}")
        for i in range(n):
            for j in range(n):
                if i != j and leq[i][j] and leq[j][i]:
                    raise InputError(f"leq is not antisymmetric on {self.elements[i]!r}, {self.elements[j]!r}")
                if leq[i][j]:
                    for k in range(n):
                        if leq[j][k] and not leq[i][k]:
                            raise InputError(
                                f"leq is not transitive through {self.elements[j]!r}"
                            )

    def _bounds_table(self, upper: bool):
        n = len(self.elements)
        leq = self.leq
        table = []
        for i in range(n):
            row = []
            for j in range(n):
                if upper:
                    bounds = [k for k in range(n) if leq[i][k] and leq[j][k]]
                    best = [u for u in bounds if all(leq[u][k] for k in bounds)]
                else:
                    bounds = [k for k in range(n) if leq[k][i] and leq[k][j]]
                    best = [u for u in bounds if all(leq[k][u] for k in bounds)]
                if len(best) != 1:
                    kind = "join" if upper else "meet"
                    raise InputError(
                        f"elements {self.elements[i]!r} and {self.elements[j]!r} have no {kind}"
                    )
                row.append(best[0])
            table.append(tuple(row))
        return tuple(table)

    def _normalize_map(self, name: str, mapping: Mapping[str, str]):
        out = []
        for e in self.elements:
            if e not in mapping:
                raise InputError(f"{name} map misses element {e!r}")
            target = mapping[e]
            if target not in self._index:
                raise InputError(f"{name} map sends {e!r} to unknown element {target!r}")
            out.append(self._index[target])
        if len(mapping) != len(self.elements):
            extra = sorted(set(mapping) - set(self.elements))
            raise InputError(f"{name} map mentions unknown elements {extra}")
        return tuple(out)

    def _validate_modalities(self):
        n = len(self.elements)
        box, dia = self.box_map, self.dia_map
        if box[self.top_index] != self.top_index:
            raise InputError("box must send top to top")
        if dia[self.bottom_index] != self.bottom_index:
            raise InputError("dia must send bottom to bottom")
        for i in range(n):
            for j in range(n):
                if box[self.meet_table[i][j]] != self.meet_table[box[i]][box[j]]:
                    raise InputError(
                        f"box does not preserve the meet of {self.elements[i]!r} and {self.elements[j]!r}"
                    )
                if dia[self.join_table[i][j]] != self.join_table[dia[i]][dia[j]]:
                    raise InputError(
                        f"dia does not preserve the join of {self.elements[i]!r} and {self.elements[j]!r}"
                    )

    def dual(self) -> "ModalLattice":
        """The order dual: leq transposed, box and dia swapped (built once)."""
        if self._dual is None:
            names = self.elements
            self._dual = ModalLattice(
                names,
                tuple(zip(*self.leq)),
                {e: names[k] for e, k in zip(names, self.dia_map)},
                {e: names[k] for e, k in zip(names, self.box_map)},
                self.atoms,
            )
        return self._dual

    def __len__(self):
        return len(self.elements)

    def index(self, element: str) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise UsageError(f"{element!r} is not a lattice element") from None

    def __repr__(self):
        return f"ModalLattice({list(self.elements)})"


def chain_modal_lattice(n: int, box: Optional[Mapping[str, str]] = None, dia=None, atoms=()) -> ModalLattice:
    """Chain e0 < e1 < ... with identity modalities unless given."""
    if n < 1:
        raise InputError("a chain needs at least one element")
    names = [f"e{i}" for i in range(n)]
    leq = [[i <= j for j in range(n)] for i in range(n)]
    ident = {e: e for e in names}
    return ModalLattice(names, leq, box if box is not None else ident, dia if dia is not None else ident, atoms)


def diamond_modal_lattice(box: Optional[Mapping[str, str]] = None, dia=None, atoms=()) -> ModalLattice:
    """Four elements: e0 below incomparable e1, e2 below e3."""
    names = ["e0", "e1", "e2", "e3"]
    leq = [
        [True, True, True, True],
        [False, True, False, True],
        [False, False, True, True],
        [False, False, False, True],
    ]
    ident = {e: e for e in names}
    return ModalLattice(names, leq, box if box is not None else ident, dia if dia is not None else ident, atoms)


def _is_filter(lattice: ModalLattice, algebra: TruthAlgebra, degrees) -> bool:
    if degrees[lattice.top_index] != algebra.top:
        return False
    meet = lattice.meet_table
    n = len(lattice)
    for i in range(n):
        for j in range(i, n):
            if degrees[meet[i][j]] != algebra.meet(degrees[i], degrees[j]):
                return False
    return True


@dataclass(frozen=True)
class _MeetPreservingMap:
    """Meet-and-top preserving map from _order (the lattice or its dual) into the algebra."""

    lattice: ModalLattice
    algebra: TruthAlgebra
    degrees: tuple

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(self.algebra.check_value(v) for v in self.degrees))
        if len(self.degrees) != len(self.lattice):
            raise InputError(f"{self._kind} degrees must cover every lattice element")
        if not _is_filter(self._order, self.algebra, self.degrees):
            raise InputError(self._invalid)

    @classmethod
    def _accepted(cls, lattice: ModalLattice, algebra: TruthAlgebra, degrees: tuple):
        """Wrap degrees that _filter_degrees has already accepted, without checking them again."""
        out = object.__new__(cls)
        object.__setattr__(out, "lattice", lattice)
        object.__setattr__(out, "algebra", algebra)
        object.__setattr__(out, "degrees", degrees)
        return out

    @property
    def proper(self) -> bool:
        return self.degrees[self._order.bottom_index] == self.algebra.bottom

    def value(self, element: str) -> int:
        return self.degrees[self.lattice.index(element)]


class MvFilter(_MeetPreservingMap):
    """Meet-and-top preserving map from the lattice into the algebra."""

    _kind = "filter"
    _invalid = "the map is not a filter: it must preserve meets and top"

    @property
    def _order(self) -> ModalLattice:
        return self.lattice


class MvIdeal(_MeetPreservingMap):
    """Map sending joins to meets with value 1 on bottom: a filter of lattice.dual()."""

    _kind = "ideal"
    _invalid = "the map is not an ideal: it must send joins to meets and bottom to 1"

    @property
    def _order(self) -> ModalLattice:
        return self.lattice.dual()


def _filter_degrees(order: ModalLattice, algebra: TruthAlgebra, budget: int):
    """Degree tuples of the filters of order, in lexicographic order.

    Depth-first over the elements in index order, with top pinned to the
    algebra's top.  Each meet condition (i, j, i ^ j) is checked as soon
    as the largest of its three indices is assigned, so a prefix that
    already breaks one is dropped with all its extensions.
    """
    n, size = len(order), algebra.size
    total = size ** n
    if total > budget:
        raise ResourceError(
            f"{total} candidate maps over {n} elements exceed the budget of {budget}"
        )
    meet, alg_meet = order.meet_table, algebra.meet_table
    due = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            k = meet[i][j]
            due[max(i, j, k)].append((i, j, k))
    choices = [(algebra.top,) if a == order.top_index else range(size) for a in range(n)]
    degrees = [0] * n
    pending = [iter(choices[0])] + [None] * (n - 1)
    found = []
    a = 0
    while a >= 0:
        for v in pending[a]:
            degrees[a] = v
            if all(degrees[k] == alg_meet[degrees[i]][degrees[j]] for i, j, k in due[a]):
                break
        else:
            a -= 1
            continue
        if a == n - 1:
            found.append(tuple(degrees))
        else:
            a += 1
            pending[a] = iter(choices[a])
    return found


def enumerate_filters(
    lattice: ModalLattice, algebra: TruthAlgebra, budget: int = DEFAULT_ENUMERATION_BUDGET
):
    """All filters, in lexicographic order of their degree tuples."""
    return tuple(MvFilter._accepted(lattice, algebra, d) for d in _filter_degrees(lattice, algebra, budget))


def enumerate_ideals(
    lattice: ModalLattice, algebra: TruthAlgebra, budget: int = DEFAULT_ENUMERATION_BUDGET
):
    """All ideals (the filters of the dual), in lexicographic order of their degree tuples."""
    return tuple(MvIdeal._accepted(lattice, algebra, d) for d in _filter_degrees(lattice.dual(), algebra, budget))


def _diamond_inverse_degrees(order: ModalLattice, algebra: TruthAlgebra, degrees) -> tuple:
    n = len(order)
    dia, leq = order.dia_map, order.leq
    return tuple(algebra.join_all(degrees[b] for b in range(n) if leq[dia[b]][a]) for a in range(n))


def diamond_inverse(f: MvFilter) -> MvFilter:
    """Maps a to the join of f(b) over all b with dia(b) below a."""
    return MvFilter(f.lattice, f.algebra, _diamond_inverse_degrees(f.lattice, f.algebra, f.degrees))


def box_inverse(i: MvIdeal) -> MvIdeal:
    """Maps a to the join of i(b) over all b with a below box(b): the diamond-inverse on the dual."""
    return MvIdeal(i.lattice, i.algebra, _diamond_inverse_degrees(i.lattice.dual(), i.algebra, i.degrees))


def _sum(algebra: TruthAlgebra, x, y) -> int:
    return algebra.join_all(map(algebra.otimes, x, y))


def _displayed_forms(order: ModalLattice, algebra: TruthAlgebra, maps, co_maps):
    """The diamond relation of order's canonical frame in both displayed forms.

    maps are the degree tuples of filters of order and co_maps those of
    filters of its dual.  Returns the diamond-inverse of each map and the
    rows (one per co-map c, one entry per map m) of the direct form, the
    join over a of m(a) (x) c(dia a), and of the routed form, the join
    over a of dia-inverse(m)(a) (x) c(a).  Run on the dual with the roles
    of maps and co-maps swapped, it gives the box relation.
    """
    dia = order.dia_map
    inverses = [_diamond_inverse_degrees(order, algebra, m) for m in maps]
    direct, routed = [], []
    for c in co_maps:
        c_dia = tuple(c[k] for k in dia)
        direct.append([_sum(algebra, m, c_dia) for m in maps])
        routed.append([_sum(algebra, g, c) for g in inverses])
    return inverses, direct, routed


@dataclass(frozen=True)
class CanonicalParts:
    """The work lemma_suite and build_surrogate share for one lattice and algebra.

    Every filter and ideal, the displayed forms of the diamond relation
    (rows per ideal, entries per filter) and those of the box relation
    (rows per filter, entries per ideal), each as _displayed_forms
    returns them.  Every entry depends only on its filter/ideal pair, so
    the surrogate reads its proper block out of these.
    """

    lattice: ModalLattice
    algebra: TruthAlgebra
    filters: tuple
    ideals: tuple
    diamond_forms: tuple
    box_forms: tuple


def canonical_parts(
    lattice: ModalLattice, algebra: TruthAlgebra, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> CanonicalParts:
    """Enumerate the filters and the ideals once and compute both displayed forms over them."""
    filters = enumerate_filters(lattice, algebra, budget)
    ideals = enumerate_ideals(lattice, algebra, budget)
    fd = [f.degrees for f in filters]
    idd = [i.degrees for i in ideals]
    return CanonicalParts(
        lattice,
        algebra,
        filters,
        ideals,
        _displayed_forms(lattice, algebra, fd, idd),
        _displayed_forms(lattice.dual(), algebra, idd, fd),
    )


@dataclass(frozen=True)
class CanonicalSurrogate:
    """Canonical frame over the proper filter/ideal pairs of a lattice."""

    lattice: ModalLattice
    algebra: TruthAlgebra
    filters: tuple
    ideals: tuple
    frame: EnrichedContext
    diamond_forms_agree: bool
    box_forms_agree: bool

    @property
    def incidence(self) -> MvRelation:
        return self.frame.base.incidence

    @property
    def r_box(self) -> MvRelation:
        return self.frame.r_box

    @property
    def r_diamond(self) -> MvRelation:
        return self.frame.r_diamond

    @property
    def compatibility(self):
        return self.frame.compatibility


def _block(rows, row_keys, column_keys):
    return [[rows[r][c] for c in column_keys] for r in row_keys]


def build_surrogate(parts: CanonicalParts) -> CanonicalSurrogate:
    """Canonical frame from the displayed sum formulas.

    Objects are the proper filters, attributes the proper ideals.  Each
    canonical relation is computed in both displayed forms (the direct
    sum and the one routed through the inverse transform); the surrogate
    records whether they agree everywhere.  Both forms are read out of
    parts, restricted to the proper rows and columns.
    """
    lattice, algebra = parts.lattice, parts.algebra
    fk = [k for k, f in enumerate(parts.filters) if f.proper]
    ik = [k for k, i in enumerate(parts.ideals) if i.proper]
    if not fk or not ik:
        raise InputError("the lattice has no proper filters or no proper ideals")
    filters = tuple(parts.filters[k] for k in fk)
    ideals = tuple(parts.ideals[k] for k in ik)
    incidence_rows = [[_sum(algebra, f.degrees, i.degrees) for i in ideals] for f in filters]
    _, dia_direct, dia_routed = parts.diamond_forms
    _, box_direct, box_routed = parts.box_forms
    dia_rows, dia_alt = _block(dia_direct, ik, fk), _block(dia_routed, ik, fk)
    box_rows, box_alt = _block(box_direct, fk, ik), _block(box_routed, fk, ik)

    f_names = [f"f{k}" for k in range(len(filters))]
    i_names = [f"i{k}" for k in range(len(ideals))]
    base = Context(MvRelation(algebra, f_names, i_names, incidence_rows))
    frame = EnrichedContext(
        base,
        r_box=MvRelation(algebra, f_names, i_names, box_rows),
        r_diamond=MvRelation(algebra, i_names, f_names, dia_rows),
    )
    return CanonicalSurrogate(
        lattice,
        algebra,
        filters,
        ideals,
        frame,
        dia_rows == dia_alt,
        box_rows == box_alt,
    )


def canonical_model(surrogate: CanonicalSurrogate) -> Model:
    """Model whose valuation reads each designated atom off the filters and ideals."""
    lattice = surrogate.lattice
    if not lattice.atoms:
        raise InputError("the lattice designates no atoms")
    algebra = surrogate.algebra
    f_names = surrogate.frame.base.objects
    i_names = surrogate.frame.base.attributes
    valuation = {}
    for p in lattice.atoms:
        k = lattice.index(p)
        extent = MvSet(algebra, f_names, tuple(f.degrees[k] for f in surrogate.filters))
        intent = MvSet(algebra, i_names, tuple(i.degrees[k] for i in surrogate.ideals))
        valuation[p] = Concept(extent, intent)
    return Model(surrogate.frame, valuation)


def eval_in_lattice(lattice: ModalLattice, formula: Formula, assignment: Mapping[str, str]) -> str:
    """Interpret a formula as a lattice element under an atom assignment."""

    def go(f: Formula) -> int:
        if f.op == "atom":
            try:
                return lattice.index(assignment[f.name])
            except KeyError:
                raise UsageError(f"no assignment for atom {f.name!r}") from None
        if f.op == "top":
            return lattice.top_index
        if f.op == "bot":
            return lattice.bottom_index
        if f.op == "and":
            return lattice.meet_table[go(f.args[0])][go(f.args[1])]
        if f.op == "or":
            return lattice.join_table[go(f.args[0])][go(f.args[1])]
        if f.op == "box":
            return lattice.box_map[go(f.args[0])]
        if f.op == "dia":
            return lattice.dia_map[go(f.args[0])]
        raise UsageError(f"the lattice carries no interpretation for {f.op!r}")

    return lattice.elements[go(formula)]


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    required: bool
    ok: bool
    failure_count: int = 0
    witnesses: tuple = ()


@dataclass(frozen=True)
class LemmaReport:
    lattice: ModalLattice
    algebra: TruthAlgebra
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks if c.required)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            tag = "PASS" if c.ok else ("FAIL" if c.required else "fail (informative)")
            lines.append(f"{tag:18} {c.name}" + (f"  [{c.failure_count} witnesses]" if c.failure_count else ""))
        lines.append(f"overall (required items): {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


_WITNESS_CAP = 10


class _Tally:
    def __init__(self, name: str, required: bool):
        self.name = name
        self.required = required
        self.count = 0
        self.witnesses = []

    def hit(self, witness: dict):
        self.count += 1
        if len(self.witnesses) < _WITNESS_CAP:
            self.witnesses.append(witness)

    def done(self) -> LemmaCheck:
        return LemmaCheck(self.name, self.required, self.count == 0, self.count, tuple(self.witnesses))


_FILTER_LEMMAS = (
    "filters preserve order",
    "filter closed under diamond-inverse",
    "diamond-inverse preserves properness",
    "pointwise diamond bound",
    "diamond sum identity",
)
_IDEAL_LEMMAS = (
    "ideals reverse order",
    "ideal closed under box-inverse",
    "box-inverse preserves properness",
    "pointwise box bound",
    "box sum identity",
)


def _lemma_half(order: ModalLattice, algebra: TruthAlgebra, maps, co_maps, forms, names, label, co_label):
    """Order, closure, properness, bound and sum checks of the diamond-inverse
    on the filters (maps) of order; co_maps are the filters of its dual and
    forms the displayed forms over them.  Run on the dual with the ideals as
    maps, it gives the box half."""
    n = len(order)
    leq, dia, elements = order.leq, order.dia_map, order.elements
    monotone, closed, proper, bound, sums = (_Tally(name, k != 2) for k, name in enumerate(names))
    maps = [m.degrees for m in maps]
    co_maps = [c.degrees for c in co_maps]
    inverses, direct, routed = forms
    for d, g in zip(maps, inverses):
        pairs = ((a, b) for a in range(n) for b in range(n) if leq[a][b] and not algebra.leq(d[a], d[b]))
        below = next(pairs, None)
        if below is not None:
            monotone.hit({label: d, "below": elements[below[0]], "above": elements[below[1]]})
        if not _is_filter(order, algebra, g):
            closed.hit({label: d, "image": g})
        elif d[order.bottom_index] == algebra.bottom and g[order.bottom_index] != algebra.bottom:
            proper.hit({label: d, "image": g})
        for a in range(n):
            if not algebra.leq(d[a], g[dia[a]]):
                bound.hit({label: d, "element": elements[a]})
                break
    for c, direct_row, routed_row in zip(co_maps, direct, routed):
        for d, x, y in zip(maps, direct_row, routed_row):
            if x != y:
                sums.hit({label: d, co_label: c, "direct": x, "routed": y})
    return monotone, closed, proper, bound, sums


def lemma_suite(parts: CanonicalParts) -> LemmaReport:
    """Exhaustive checks of the transform and sum lemmas on one lattice.

    Properness preservation is reported informatively: it is only
    guaranteed for algebras of formulas, and arbitrary finite lattices
    can break it without contradicting anything.
    """
    lattice, algebra = parts.lattice, parts.algebra
    filters, ideals = parts.filters, parts.ideals
    f = _lemma_half(lattice, algebra, filters, ideals, parts.diamond_forms, _FILTER_LEMMAS, "filter", "ideal")
    i = _lemma_half(lattice.dual(), algebra, ideals, filters, parts.box_forms, _IDEAL_LEMMAS, "ideal", "filter")
    checks = (f[0], i[0], f[1], f[2], i[1], i[2], f[3], i[3], f[4], i[4])
    return LemmaReport(lattice, algebra, tuple(t.done() for t in checks))
