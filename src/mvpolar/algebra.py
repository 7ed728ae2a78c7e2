"""Finite residuated truth algebras.

Truth values are integer indices into a finite carrier; index 0 is the
bottom element and index size-1 is the top, which is also the unit of the
monoid operation otimes.  Built-in chains (boolean, lukasiewicz, goedel)
order the indices naturally; custom algebras may carry any finite lattice
order through explicit join/meet tables.  All arithmetic is exact table
lookup, so every law can be checked exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import InputError, UsageError

CHAIN_KINDS = ("boolean", "lukasiewicz", "goedel")


def _normalize_table(name: str, table: Sequence[Sequence[int]], size: int):
    if len(table) != size:
        raise InputError(f"{name} table must have {size} rows, got {len(table)}")
    rows = []
    for row in table:
        row = tuple(row)
        if len(row) != size:
            raise InputError(f"{name} table rows must have {size} entries")
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < size:
                raise InputError(f"{name} table entry {v!r} is not an index in 0..{size - 1}")
        rows.append(row)
    return tuple(rows)


class TruthAlgebra:
    """A finite commutative residuated lattice given by operation tables.

    The constructor only checks shapes; validate_algebra checks the laws.
    """

    __slots__ = ("kind", "size", "join_table", "meet_table", "otimes_table", "residuum_table")

    def __init__(self, kind, size, join, meet, otimes, residuum):
        if not isinstance(size, int) or size < 1:
            raise InputError(f"algebra size must be a positive integer, got {size!r}")
        self.kind = kind
        self.size = size
        self.join_table = _normalize_table("join", join, size)
        self.meet_table = _normalize_table("meet", meet, size)
        self.otimes_table = _normalize_table("otimes", otimes, size)
        self.residuum_table = _normalize_table("residuum", residuum, size)

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return self.size - 1

    def check_value(self, v: int) -> int:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < self.size:
            raise UsageError(f"{v!r} is not a value of this {self.size}-element algebra")
        return v

    def join(self, a: int, b: int) -> int:
        return self.join_table[a][b]

    def meet(self, a: int, b: int) -> int:
        return self.meet_table[a][b]

    def otimes(self, a: int, b: int) -> int:
        return self.otimes_table[a][b]

    def residuum(self, a: int, b: int) -> int:
        return self.residuum_table[a][b]

    def leq(self, a: int, b: int) -> bool:
        return self.meet_table[a][b] == a

    def join_all(self, values: Iterable[int]) -> int:
        out = 0
        table = self.join_table
        for v in values:
            out = table[out][v]
        return out

    def meet_all(self, values: Iterable[int]) -> int:
        out = self.size - 1
        table = self.meet_table
        for v in values:
            out = table[out][v]
        return out

    def format_value(self, v: int) -> str:
        """Human-readable rendering: rationals on chains, #index otherwise."""
        self.check_value(v)
        if self.kind in CHAIN_KINDS and self.size >= 2:
            return str(Fraction(v, self.size - 1))
        return f"#{v}"

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, TruthAlgebra):
            return NotImplemented
        return (
            self.size == other.size
            and self.join_table == other.join_table
            and self.meet_table == other.meet_table
            and self.otimes_table == other.otimes_table
            and self.residuum_table == other.residuum_table
        )

    def __hash__(self):
        return hash((self.size, self.otimes_table, self.residuum_table))

    def __repr__(self):
        return f"TruthAlgebra(kind={self.kind!r}, size={self.size})"


def _chain_lattice_tables(n):
    join = [[max(a, b) for b in range(n)] for a in range(n)]
    meet = [[min(a, b) for b in range(n)] for a in range(n)]
    return join, meet


def lukasiewicz_chain(n: int) -> TruthAlgebra:
    if n < 2:
        raise InputError("chains need at least 2 elements")
    top = n - 1
    join, meet = _chain_lattice_tables(n)
    otimes = [[max(0, a + b - top) for b in range(n)] for a in range(n)]
    residuum = [[min(top, top - a + b) for b in range(n)] for a in range(n)]
    return TruthAlgebra("lukasiewicz", n, join, meet, otimes, residuum)


def goedel_chain(n: int) -> TruthAlgebra:
    if n < 2:
        raise InputError("chains need at least 2 elements")
    top = n - 1
    join, meet = _chain_lattice_tables(n)
    otimes = [[min(a, b) for b in range(n)] for a in range(n)]
    residuum = [[top if a <= b else b for b in range(n)] for a in range(n)]
    return TruthAlgebra("goedel", n, join, meet, otimes, residuum)


def boolean_algebra() -> TruthAlgebra:
    g = goedel_chain(2)
    return TruthAlgebra("boolean", 2, g.join_table, g.meet_table, g.otimes_table, g.residuum_table)


def construct_chain(kind: str, n: int) -> TruthAlgebra:
    if kind not in CHAIN_KINDS:
        raise InputError(f"unknown chain kind {kind!r}; expected one of {CHAIN_KINDS}")
    if not isinstance(n, int) or n < 2:
        raise InputError(f"chains need at least 2 elements, got {n!r}")
    if kind == "boolean":
        if n != 2:
            raise InputError("the boolean algebra has exactly 2 elements")
        return boolean_algebra()
    if kind == "lukasiewicz":
        return lukasiewicz_chain(n)
    return goedel_chain(n)


def custom_algebra(size, join, meet, otimes, residuum) -> TruthAlgebra:
    """Shape-checked custom tables; run validate_algebra before trusting them."""
    return TruthAlgebra("custom", size, join, meet, otimes, residuum)


@dataclass(frozen=True)
class LawCheck:
    law: str
    holds: bool
    counterexample: Optional[tuple]

    def describe(self) -> str:
        if self.holds:
            return f"{self.law}: pass"
        return f"{self.law}: FAIL at {self.counterexample}"


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.holds for c in self.checks)

    def failures(self):
        return tuple(c for c in self.checks if not c.holds)

    def to_text(self) -> str:
        return "\n".join(c.describe() for c in self.checks)


def validate_algebra(algebra: TruthAlgebra) -> ValidationReport:
    """Check every residuated-lattice law on the given tables.

    Counterexamples are lexicographically minimal in the index order.
    """
    n = algebra.size
    jn = algebra.join_table
    mt = algebra.meet_table
    ot = algebra.otimes_table
    rs = algebra.residuum_table
    rng = range(n)
    top = n - 1
    checks = []

    def law(name, counterexample):
        checks.append(LawCheck(name, counterexample is None, counterexample))

    def first1(pred):
        return next(((a,) for a in rng if not pred(a)), None)

    def first2(pred):
        return next(((a, b) for a in rng for b in rng if not pred(a, b)), None)

    def first3(pred):
        return next(
            ((a, b, c) for a in rng for b in rng for c in rng if not pred(a, b, c)), None
        )

    def leq(a, b):
        return mt[a][b] == a

    law("join idempotent", first1(lambda a: jn[a][a] == a))
    law("join commutative", first2(lambda a, b: jn[a][b] == jn[b][a]))
    law("join associative", first3(lambda a, b, c: jn[jn[a][b]][c] == jn[a][jn[b][c]]))
    law("meet idempotent", first1(lambda a: mt[a][a] == a))
    law("meet commutative", first2(lambda a, b: mt[a][b] == mt[b][a]))
    law("meet associative", first3(lambda a, b, c: mt[mt[a][b]][c] == mt[a][mt[b][c]]))
    law("absorption join over meet", first2(lambda a, b: jn[a][mt[a][b]] == a))
    law("absorption meet over join", first2(lambda a, b: mt[a][jn[a][b]] == a))
    law("join and meet induce the same order", first2(lambda a, b: (mt[a][b] == a) == (jn[a][b] == b)))
    law("bottom is the join unit", first1(lambda a: jn[0][a] == a))
    law("top is the meet unit", first1(lambda a: mt[top][a] == a))
    law("otimes commutative", first2(lambda a, b: ot[a][b] == ot[b][a]))
    law("otimes associative", first3(lambda a, b, c: ot[ot[a][b]][c] == ot[a][ot[b][c]]))
    law("top is the otimes unit", first1(lambda a: ot[top][a] == a))
    law("residuation", first3(lambda a, b, c: leq(ot[a][b], c) == leq(a, rs[b][c])))
    law("residuum of top is the identity", first1(lambda a: rs[top][a] == a))
    law(
        "otimes distributes over join on the left",
        first3(lambda a, b, c: ot[a][jn[b][c]] == jn[ot[a][b]][ot[a][c]]),
    )
    law(
        "otimes distributes over join on the right",
        first3(lambda a, b, c: ot[jn[a][b]][c] == jn[ot[a][c]][ot[b][c]]),
    )
    law("otimes annihilates bottom", first1(lambda a: ot[a][0] == 0))
    law(
        "residuum turns first-argument joins into meets",
        first3(lambda a, b, c: rs[jn[a][b]][c] == mt[rs[a][c]][rs[b][c]]),
    )
    law(
        "residuum preserves second-argument meets",
        first3(lambda a, b, c: rs[a][mt[b][c]] == mt[rs[a][b]][rs[a][c]]),
    )
    law("residuum from bottom is top", first1(lambda a: rs[0][a] == top))
    law("residuum into top is top", first1(lambda a: rs[a][top] == top))
    return ValidationReport(tuple(checks))


def aggregate(algebra: TruthAlgebra, kind: str, values: Iterable[int]) -> int:
    """Fold a finite multiset of values; empty join is 0, empty meet is 1."""
    folds = {"join": algebra.join_all, "meet": algebra.meet_all}
    if kind not in folds:
        raise UsageError(f"aggregate kind must be 'join' or 'meet', got {kind!r}")
    return folds[kind](algebra.check_value(v) for v in values)
