"""Many-valued sets and relations over finite ordered carriers.

Carriers are ordered tuples of string identifiers; degrees are dense
tuples of algebra indices aligned with the carrier.  The two relational
lifts turn a relation U x W into operators between the set sides:
lift1 maps subsets of U to subsets of W, lift0 maps subsets of W back
to subsets of U.  Both are the one residuated-meet kernel
residuated_meets, run over the relation's columns or over its rows;
the Galois maps of a context use the same kernel.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .algebra import TruthAlgebra
from .errors import InputError, UsageError


def _normalize_carrier(carrier: Sequence[str]):
    carrier = tuple(carrier)
    if not carrier:
        raise InputError("carrier must be nonempty")
    for name in carrier:
        if not isinstance(name, str) or not name:
            raise InputError(f"carrier element {name!r} is not a nonempty string")
    if len(set(carrier)) != len(carrier):
        raise InputError("carrier has duplicate element names")
    return carrier


def _normalize_degrees(algebra: TruthAlgebra, count: int, degrees: Sequence[int], what: str):
    degrees = tuple(degrees)
    if len(degrees) != count:
        raise InputError(f"{what} needs {count} degrees, got {len(degrees)}")
    for v in degrees:
        algebra.check_value(v)
    return degrees


class MvSet:
    """A total map from a finite carrier into a truth algebra."""

    __slots__ = ("algebra", "carrier", "degrees")

    def __init__(self, algebra: TruthAlgebra, carrier: Sequence[str], degrees: Sequence[int]):
        self.algebra = algebra
        self.carrier = _normalize_carrier(carrier)
        self.degrees = _normalize_degrees(algebra, len(self.carrier), degrees, "MvSet")

    @classmethod
    def constant(cls, algebra: TruthAlgebra, carrier: Sequence[str], value: int) -> "MvSet":
        carrier = tuple(carrier)
        return cls(algebra, carrier, (value,) * len(carrier))

    def index_of(self, element: str) -> int:
        try:
            return self.carrier.index(element)
        except ValueError:
            raise UsageError(f"element {element!r} is not in the carrier") from None

    def value(self, element: str) -> int:
        return self.degrees[self.index_of(element)]

    def as_dict(self) -> dict:
        return dict(zip(self.carrier, self.degrees))

    def _check_same_world(self, other: "MvSet", op: str):
        if self.carrier != other.carrier:
            raise UsageError(f"{op} needs identical carriers")
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise UsageError(f"{op} needs values from the same algebra")

    def meet(self, other: "MvSet") -> "MvSet":
        self._check_same_world(other, "pointwise meet")
        table = self.algebra.meet_table
        return MvSet(self.algebra, self.carrier, tuple(table[a][b] for a, b in zip(self.degrees, other.degrees)))

    def join(self, other: "MvSet") -> "MvSet":
        self._check_same_world(other, "pointwise join")
        table = self.algebra.join_table
        return MvSet(self.algebra, self.carrier, tuple(table[a][b] for a, b in zip(self.degrees, other.degrees)))

    def leq(self, other: "MvSet") -> bool:
        """Pointwise order: self(z) <= other(z) everywhere."""
        self._check_same_world(other, "pointwise comparison")
        meet = self.algebra.meet_table
        return all(meet[a][b] == a for a, b in zip(self.degrees, other.degrees))

    def __eq__(self, other):
        if not isinstance(other, MvSet):
            return NotImplemented
        return (
            self.carrier == other.carrier
            and self.degrees == other.degrees
            and (self.algebra is other.algebra or self.algebra == other.algebra)
        )

    def __hash__(self):
        return hash((self.carrier, self.degrees))

    def __repr__(self):
        inside = ", ".join(f"{w}:{v}" for w, v in zip(self.carrier, self.degrees))
        return f"MvSet({inside})"


def singleton(algebra: TruthAlgebra, carrier: Sequence[str], alpha: int, element: str) -> MvSet:
    """The map sending element to alpha and everything else to bottom."""
    carrier = tuple(carrier)
    algebra.check_value(alpha)
    if element not in carrier:
        raise UsageError(f"element {element!r} is not in the carrier")
    bottom = algebra.bottom
    return MvSet(algebra, carrier, tuple(alpha if w == element else bottom for w in carrier))


def subsethood(f: MvSet, g: MvSet) -> int:
    """Degree to which f is included in g: the meet of pointwise residua."""
    f._check_same_world(g, "subsethood")
    res = f.algebra.residuum_table
    return f.algebra.meet_all(res[a][b] for a, b in zip(f.degrees, g.degrees))


def residuated_meets(algebra: TruthAlgebra, degrees: Sequence[int], vectors) -> tuple:
    """For each vector v, the meet over k of degrees[k] -> v[k]."""
    res = algebra.residuum_table
    meet = algebra.meet_table
    top = algebra.top
    arrows = [res[d] for d in degrees]
    out = []
    for v in vectors:
        acc = top
        for arrow, x in zip(arrows, v):
            acc = meet[acc][arrow[x]]
        out.append(acc)
    return tuple(out)


class MvRelation:
    """A total map from source x target into a truth algebra, stored by rows
    and, for the lifts over the source, by columns."""

    __slots__ = ("algebra", "source", "target", "rows", "columns")

    def __init__(self, algebra: TruthAlgebra, source, target, rows):
        self.algebra = algebra
        self.source = _normalize_carrier(source)
        self.target = _normalize_carrier(target)
        rows = tuple(rows)
        if len(rows) != len(self.source):
            raise InputError(f"relation needs {len(self.source)} rows, got {len(rows)}")
        self.rows = tuple(
            _normalize_degrees(algebra, len(self.target), row, "MvRelation row") for row in rows
        )
        self.columns = tuple(zip(*self.rows))

    @classmethod
    def identity(cls, algebra: TruthAlgebra, carrier: Sequence[str]) -> "MvRelation":
        """The two-valued diagonal: top on the diagonal, bottom elsewhere."""
        carrier = tuple(carrier)
        top, bottom = algebra.top, algebra.bottom
        n = len(carrier)
        return cls(algebra, carrier, carrier, tuple(
            tuple(top if i == j else bottom for j in range(n)) for i in range(n)
        ))

    @classmethod
    def constant(cls, algebra, source, target, value: int) -> "MvRelation":
        source, target = tuple(source), tuple(target)
        return cls(algebra, source, target, ((value,) * len(target),) * len(source))

    def at(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def value(self, source_element: str, target_element: str) -> int:
        try:
            i = self.source.index(source_element)
            j = self.target.index(target_element)
        except ValueError as exc:
            raise UsageError(f"unknown relation coordinate: {exc}") from None
        return self.rows[i][j]

    def transpose(self) -> "MvRelation":
        t = object.__new__(MvRelation)
        t.algebra, t.source, t.target = self.algebra, self.target, self.source
        t.rows, t.columns = self.columns, self.rows
        return t

    def __eq__(self, other):
        if not isinstance(other, MvRelation):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.rows == other.rows
            and (self.algebra is other.algebra or self.algebra == other.algebra)
        )

    def __hash__(self):
        return hash((self.source, self.target, self.rows))

    def __repr__(self):
        return f"MvRelation({len(self.source)}x{len(self.target)})"


def _check_lift(R: MvRelation, s: MvSet, expected: tuple, what: str):
    if s.carrier != expected:
        raise UsageError(f"{what} needs an MvSet over the matching carrier")
    if s.algebra is not R.algebra and s.algebra != R.algebra:
        raise UsageError(f"{what} needs values from the relation's algebra")


def lift1(R: MvRelation, f: MvSet) -> MvSet:
    """x in target maps to the meet over a of f(a) -> R(a, x)."""
    _check_lift(R, f, R.source, "lift1")
    return MvSet(R.algebra, R.target, residuated_meets(R.algebra, f.degrees, R.columns))


def lift0(R: MvRelation, u: MvSet) -> MvSet:
    """a in source maps to the meet over x of u(x) -> R(a, x)."""
    _check_lift(R, u, R.target, "lift0")
    return MvSet(R.algebra, R.source, residuated_meets(R.algebra, u.degrees, R.rows))
