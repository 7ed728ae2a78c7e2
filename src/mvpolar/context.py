"""Formal contexts over a truth algebra and their concept lattices.

A context is a triple (objects, attributes, incidence); the incidence
degrees live in the shared algebra.  up/down are the two Galois maps,
and a concept is a pair fixed by their round trips.  enumerate_concepts
walks the lattice upwards from the bottom concept by upper neighbours:
the closure is monotone, so raising one object of an extent to one
algebra cover of its degree and closing reaches every concept above it,
and the minimal such closures are its upper covers.  One walk therefore
gives the concepts and the cover pairs; the order table and the
meet/join tables are built only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .algebra import TruthAlgebra
from .errors import InputError, ResourceError, UsageError
from .mvsets import MvRelation, MvSet, lift0, lift1, residuated_meets, singleton

DEFAULT_CONCEPT_BUDGET = 100_000

# The bits of each byte value, lowest first, for unpacking bitset rows.
_BYTE_BITS = tuple(tuple(bool(b >> k & 1) for k in range(8)) for b in range(256))


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
    """All concepts of a context in a fixed order, with their covers and tables.

    Concepts are sorted by their extent degree tuples, so indices, covers,
    the order table and the meet/join tables are deterministic.  The cover
    pairs come from the enumeration; the order and meet/join tables are
    built on first use.
    """

    def __init__(self, context: Context, concepts: Sequence[Concept], covers: Sequence[tuple]):
        self.context = context
        self.concepts = tuple(concepts)
        self._covers = tuple(covers)
        self._by_extent = {c.extent.degrees: i for i, c in enumerate(self.concepts)}
        self._by_intent = {c.intent.degrees: i for i, c in enumerate(self.concepts)}
        top = context.algebra.top
        self.top_index = self._by_extent[(top,) * len(context.objects)]
        self.bottom_index = self._by_intent[(top,) * len(context.attributes)]
        self._order = None
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

    @property
    def order(self):
        """order[i][j] is True when the extent of concept i lies below that of j.

        Per object x, above[alpha] has bit j set when alpha <= extent_j[x];
        row i is the AND over the objects of above[extent_i[x]].
        """
        if self._order is None:
            alg = self.context.algebra
            meet_tab = alg.meet_table
            exts = [c.extent.degrees for c in self.concepts]
            n = len(exts)
            rows = [(1 << n) - 1] * n
            for x in range(len(self.context.objects)):
                at = [0] * alg.size
                for j, ext in enumerate(exts):
                    at[ext[x]] |= 1 << j
                above = [0] * alg.size
                for alpha in range(alg.size):
                    for v in range(alg.size):
                        if meet_tab[alpha][v] == alpha:
                            above[alpha] |= at[v]
                rows = [row & above[ext[x]] for row, ext in zip(rows, exts)]
            width = (n + 7) // 8
            self._order = tuple(
                tuple(chain.from_iterable(map(_BYTE_BITS.__getitem__, row.to_bytes(width, "little"))))[:n]
                for row in rows
            )
        return self._order

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
        """Covering pairs (i, j), sorted: i < j with nothing strictly between."""
        return self._covers

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


def _algebra_steps(alg: TruthAlgebra):
    """Per value v: its upper covers in the algebra, and reach[v][w], the
    number of those covers that lie below w."""
    meet = alg.meet_table
    values = range(alg.size)
    strictly_above = [[w for w in values if w != v and meet[v][w] == v] for v in values]
    steps = [
        tuple(w for w in above if not any(u != w and meet[u][w] == u for u in above))
        for above in strictly_above
    ]
    reach = [[sum(meet[a][w] == a for a in steps[v]) for w in values] for v in values]
    return steps, reach


def enumerate_concepts(ctx: Context, budget: int = DEFAULT_CONCEPT_BUDGET) -> ConceptLattice:
    """List every concept of the context exactly once, with its upper covers.

    The walk starts at the bottom concept, whose extent is down(top...top),
    and visits each concept E once.  For every object x and every upper
    cover alpha of E[x] in the algebra it closes the seed "E with x raised
    to alpha".  These candidates are exactly the concepts that can be upper
    covers of E: the closure is monotone, so a concept F above E, which
    exceeds E at some x and there lies above some cover alpha of E[x], lies
    above that seed and hence above its closure.  The upper covers of E
    are therefore the candidates that are minimal among the candidates,
    and every concept is reached from the bottom along covers.

    A candidate C lies above the candidate of seed (y, beta) exactly when
    beta <= C[y].  So C is minimal when every seed below it closes to C
    itself: the count of seeds below C, summed over y from the algebra's
    cover table, equals the count of seeds that produced C.

    The seed's intent is intent(E)[y] meet (alpha -> I(x, y)), since raising
    E[x] to alpha only shrinks x's residuum terms, so each candidate costs
    one down-closure.  Exceeding the budget raises as soon as one concept
    too many is found, instead of truncating.
    """
    alg = ctx.algebra
    res = alg.residuum_table
    meet = alg.meet_table
    rows = ctx.incidence.rows
    steps, reach = _algebra_steps(alg)

    def over_budget(found):
        if len(found) > budget:
            raise ResourceError(f"concept enumeration exceeded the budget of {budget} concepts")

    bottom = ctx._down_degrees((alg.top,) * len(ctx.attributes))
    intents = {bottom: ctx._up_degrees(bottom)}
    over_budget(intents)
    walk = [bottom]
    pairs = []
    for ext in walk:
        intent = intents[ext]
        seeds = {}
        for x, v in enumerate(ext):
            for alpha in steps[v]:
                arrow = res[alpha]
                seed_intent = tuple(meet[u][arrow[i]] for u, i in zip(intent, rows[x]))
                candidate = ctx._down_degrees(seed_intent)
                if candidate in seeds:
                    seeds[candidate][1] += 1
                else:
                    seeds[candidate] = [seed_intent, 1]
        for candidate, (seed_intent, count) in seeds.items():
            if sum(reach[a][b] for a, b in zip(ext, candidate)) != count:
                continue
            pairs.append((ext, candidate))
            if candidate not in intents:
                intents[candidate] = seed_intent
                over_budget(intents)
                walk.append(candidate)

    extents = sorted(intents)
    index = {ext: i for i, ext in enumerate(extents)}
    concepts = [
        Concept(MvSet(alg, ctx.objects, ext), MvSet(alg, ctx.attributes, intents[ext]))
        for ext in extents
    ]
    covers = sorted((index[lower], index[upper]) for lower, upper in pairs)
    return ConceptLattice(ctx, concepts, covers)
