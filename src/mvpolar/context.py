"""Formal contexts over a truth algebra and their concept lattices.

A context is a triple (objects, attributes, incidence); the incidence
degrees live in the shared algebra.  up/down are the two Galois maps,
a concept is a pair fixed by their round trips, and enumerate_concepts
lists the whole lattice by closing the basic extents under pointwise
meets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .algebra import TruthAlgebra
from .errors import InputError, ResourceError, UsageError
from .mvsets import MvRelation, MvSet, lift0, lift1, residuated_meets, singleton

DEFAULT_CONCEPT_BUDGET = 100_000


@dataclass(frozen=True)
class Concept:
    """A stable pair: extent over the objects, intent over the attributes."""

    extent: MvSet
    intent: MvSet

    def leq(self, other: "Concept") -> bool:
        return self.extent.leq(other.extent)

    def __repr__(self):
        return f"Concept(extent={self.extent.degrees}, intent={self.intent.degrees})"


class Context:
    """A formal context wrapping an incidence MvRelation objects x attributes."""

    __slots__ = ("incidence",)

    def __init__(self, incidence: MvRelation):
        self.incidence = incidence

    @classmethod
    def from_rows(cls, algebra: TruthAlgebra, objects, attributes, rows) -> "Context":
        return cls(MvRelation(algebra, objects, attributes, rows))

    @property
    def algebra(self) -> TruthAlgebra:
        return self.incidence.algebra

    @property
    def objects(self):
        return self.incidence.source

    @property
    def attributes(self):
        return self.incidence.target

    # Fast tuple-level closures shared by enumeration, compatibility checks
    # and relation repair.  Public callers use the MvSet interface below.
    def _up_degrees(self, ext: Sequence[int]) -> tuple:
        return residuated_meets(self.algebra, ext, self.incidence.columns)

    def _down_degrees(self, intn: Sequence[int]) -> tuple:
        return residuated_meets(self.algebra, intn, self.incidence.rows)

    def up(self, f: MvSet) -> MvSet:
        return lift1(self.incidence, f)

    def down(self, u: MvSet) -> MvSet:
        return lift0(self.incidence, u)

    def is_stable(self, side: str, s: MvSet) -> bool:
        """True iff the round trip through the Galois maps fixes s."""
        if side == "extent":
            if s.carrier != self.objects:
                raise UsageError("extent stability needs an MvSet over the objects")
            return self._down_degrees(self._up_degrees(s.degrees)) == s.degrees
        if side == "intent":
            if s.carrier != self.attributes:
                raise UsageError("intent stability needs an MvSet over the attributes")
            return self._up_degrees(self._down_degrees(s.degrees)) == s.degrees
        raise UsageError(f"side must be 'extent' or 'intent', got {side!r}")

    def concept_of(self, seed: MvSet) -> Concept:
        """Close an object-side seed into the concept (seed^up^down, seed^up)."""
        if seed.carrier != self.objects:
            raise UsageError("concept_of needs a seed over the objects")
        intent = self._up_degrees(seed.degrees)
        extent = self._down_degrees(intent)
        alg = self.algebra
        return Concept(MvSet(alg, self.objects, extent), MvSet(alg, self.attributes, intent))

    def concept_from_intent(self, seed: MvSet) -> Concept:
        """Close an attribute-side seed into the concept (seed^down, seed^down^up)."""
        if seed.carrier != self.attributes:
            raise UsageError("concept_from_intent needs a seed over the attributes")
        extent = self._down_degrees(seed.degrees)
        intent = self._up_degrees(extent)
        alg = self.algebra
        return Concept(MvSet(alg, self.objects, extent), MvSet(alg, self.attributes, intent))

    def __repr__(self):
        return f"Context({len(self.objects)} objects x {len(self.attributes)} attributes)"


class ConceptLattice:
    """All concepts of a context in a fixed order, with operation tables.

    Concepts are sorted by their extent degree tuples, so indices, the
    order table and the meet/join tables are deterministic.
    """

    def __init__(self, context: Context, concepts: Sequence[Concept]):
        self.context = context
        self.concepts = tuple(concepts)
        self._by_extent = {c.extent.degrees: i for i, c in enumerate(self.concepts)}
        self._by_intent = {c.intent.degrees: i for i, c in enumerate(self.concepts)}
        n = len(self.concepts)
        meet_tab = context.algebra.meet_table
        exts = [c.extent.degrees for c in self.concepts]
        self.order = tuple(
            tuple(all(meet_tab[a][b] == a for a, b in zip(exts[i], exts[j])) for j in range(n))
            for i in range(n)
        )
        top = context.algebra.top
        self.top_index = self._by_extent[(top,) * len(context.objects)]
        self.bottom_index = self._by_intent[(top,) * len(context.attributes)]
        self._meet_table = None
        self._join_table = None

    def __len__(self):
        return len(self.concepts)

    def __iter__(self):
        return iter(self.concepts)

    def __getitem__(self, i: int) -> Concept:
        return self.concepts[i]

    def index_of(self, concept: Concept) -> int:
        try:
            return self._by_extent[concept.extent.degrees]
        except KeyError:
            raise UsageError("not a concept of this lattice") from None

    def leq(self, i: int, j: int) -> bool:
        return self.order[i][j]

    def _pointwise_meet_table(self, vectors, index) -> tuple:
        """Entry (i, j) is the index of the pointwise meet of vectors i and j."""
        meet_tab = self.context.algebra.meet_table
        return tuple(
            tuple(index[tuple(meet_tab[a][b] for a, b in zip(u, v))] for v in vectors)
            for u in vectors
        )

    @property
    def meet_table(self):
        """Concept meets: the meet of two concepts has the pointwise meet of their extents."""
        if self._meet_table is None:
            self._meet_table = self._pointwise_meet_table(
                [c.extent.degrees for c in self.concepts], self._by_extent
            )
        return self._meet_table

    @property
    def join_table(self):
        """Concept joins: the join of two concepts has the pointwise meet of their intents."""
        if self._join_table is None:
            self._join_table = self._pointwise_meet_table(
                [c.intent.degrees for c in self.concepts], self._by_intent
            )
        return self._join_table

    def meet(self, i: int, j: int) -> int:
        return self.meet_table[i][j]

    def join(self, i: int, j: int) -> int:
        return self.join_table[i][j]

    def covers(self):
        """Covering pairs (i, j): i < j with nothing strictly between."""
        n = len(self.concepts)
        order = self.order
        out = []
        for i in range(n):
            for j in range(n):
                if i == j or not order[i][j]:
                    continue
                if any(
                    k != i and k != j and order[i][k] and order[k][j] for k in range(n)
                ):
                    continue
                out.append((i, j))
        return tuple(out)

    def to_dot(self) -> str:
        """DOT rendering: nodes carry the degree vectors, edges the covers."""
        lines = ["digraph concepts {", "  rankdir=BT;", "  node [shape=box];"]
        for i, c in enumerate(self.concepts):
            ext = ",".join(str(v) for v in c.extent.degrees)
            intn = ",".join(str(v) for v in c.intent.degrees)
            lines.append(f'  c{i} [label="[{ext}] / [{intn}]"];')
        for i, j in self.covers():
            lines.append(f"  c{i} -> c{j};")
        lines.append("}")
        return "\n".join(lines)


def enumerate_concepts(ctx: Context, budget: int = DEFAULT_CONCEPT_BUDGET) -> ConceptLattice:
    """List every concept of the context exactly once.

    Basic extents are the down-closures of attribute singletons; their
    pointwise meets, which are extents already, exhaust all extents.
    Exceeding the budget raises instead of truncating.
    """
    alg = ctx.algebra
    res = alg.residuum_table
    meet_tab = alg.meet_table
    n_obj = len(ctx.objects)

    found = set()
    for alpha in range(alg.size):
        for column in ctx.incidence.columns:
            found.add(tuple(res[alpha][v] for v in column))
    top_seed = (alg.top,) * n_obj
    found.add(ctx._down_degrees(ctx._up_degrees(top_seed)))

    if len(found) > budget:
        raise ResourceError(f"concept enumeration exceeded the budget of {budget} concepts")

    queue = sorted(found)
    while queue:
        t = queue.pop()
        for s in list(found):
            m = tuple(meet_tab[a][b] for a, b in zip(t, s))
            if m not in found:
                found.add(m)
                queue.append(m)
                if len(found) > budget:
                    raise ResourceError(
                        f"concept enumeration exceeded the budget of {budget} concepts"
                    )

    concepts = []
    for ext in sorted(found):
        intn = ctx._up_degrees(ext)
        concepts.append(
            Concept(MvSet(alg, ctx.objects, ext), MvSet(alg, ctx.attributes, intn))
        )
    return ConceptLattice(ctx, concepts)
