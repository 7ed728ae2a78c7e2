"""Contexts enriched with modal relations, and the operators they induce.

r_box (objects x attributes) and r_diamond (attributes x objects) must be
compatible with the incidence: every singleton image under the two lifts
has to be a stable set.  Compatibility is computed once at construction;
box_op and diamond_op refuse to run when it failed.  r_rhd and r_lhd carry
no such condition: their operators compute a raw degree map and close it.

The singleton image for alpha is a row or column scaled by alpha -> (.).
Over a residuated lattice that scaling keeps extents extents and intents
intents, so each row and column is closed once as itself (alpha = top)
and the other alpha-images are closed only where that one is unstable.
The precondition is the residuated-lattice laws, which the JSON loaders
enforce and enumerate_concepts relies on as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .context import Concept, Context
from .errors import CapabilityError, InputError
from .mvsets import MvRelation, MvSet, lift0, lift1


@dataclass(frozen=True)
class SingletonCheck:
    """Stability of one singleton image: alpha scaled into a row or column."""

    relation: str
    side: str
    alpha: int
    element: str
    stable: bool
    image: tuple
    closure: tuple


@dataclass(frozen=True)
class CompatibilityReport:
    box_checks: Optional[tuple]
    diamond_checks: Optional[tuple]

    @property
    def box_ok(self) -> bool:
        return self.box_checks is None or all(c.stable for c in self.box_checks)

    @property
    def diamond_ok(self) -> bool:
        return self.diamond_checks is None or all(c.stable for c in self.diamond_checks)

    @property
    def ok(self) -> bool:
        return self.box_ok and self.diamond_ok

    def failures(self):
        out = []
        for group in (self.box_checks, self.diamond_checks):
            if group:
                out.extend(c for c in group if not c.stable)
        return tuple(out)

    def describe(self) -> str:
        if self.ok:
            return "compatible"
        first = self.failures()[0]
        return (
            f"{len(self.failures())} unstable singleton image(s); first: "
            f"{first.relation} {first.side} side, alpha={first.alpha}, "
            f"element={first.element}, image={first.image}, closure={first.closure}"
        )


def _check_relation_singletons(base: Context, relation: MvRelation, name: str):
    """Scaled columns must be stable extents, scaled rows stable intents.

    For a relation shaped objects x attributes the column through x is an
    object-side map and the row through a is an attribute-side map; the
    diamond relation is shaped the other way around, so the caller passes
    it transposed and only the labels differ.

    Each column and row is closed once as itself, the image for alpha =
    top.  Where that image is stable, so is every alpha-image, and those
    are reported with the image as its own closure without closing them:
    alpha -> meet_y (B(y) -> I(x, y)) = meet_y ((alpha (x) B(y)) -> I(x, y)),
    so alpha scales every extent into an extent, and likewise every
    intent.  Where the top image is not stable, every other alpha-image
    is closed and the top image keeps the closure already computed.
    """
    alg = base.algebra
    res = alg.residuum_table
    sides = (
        ("extent", base.attributes, relation.columns, lambda d: base._down_degrees(base._up_degrees(d))),
        ("intent", base.objects, relation.rows, lambda d: base._up_degrees(base._down_degrees(d))),
    )
    top_scale = res[alg.top]
    top_closures = []
    for _, _, lines, close in sides:
        images = [tuple(top_scale[v] for v in line) for line in lines]
        top_closures.append([(image, close(image)) for image in images])
    checks = []
    for alpha in range(alg.size):
        scale = res[alpha]
        for (side, labels, lines, close), at_top in zip(sides, top_closures):
            for label, line, (top_image, top_closure) in zip(labels, lines, at_top):
                image = tuple(scale[v] for v in line)
                if top_closure == top_image:
                    closure = image
                elif alpha == alg.top:
                    closure = top_closure
                else:
                    closure = close(image)
                checks.append(SingletonCheck(name, side, alpha, label, closure == image, image, closure))
    return tuple(checks)


class EnrichedContext:
    """A context plus any subset of the four modal relations."""

    __slots__ = ("base", "r_box", "r_diamond", "r_rhd", "r_lhd", "compatibility")

    def __init__(
        self,
        base: Context,
        r_box: Optional[MvRelation] = None,
        r_diamond: Optional[MvRelation] = None,
        r_rhd: Optional[MvRelation] = None,
        r_lhd: Optional[MvRelation] = None,
    ):
        objects, attributes = base.objects, base.attributes
        _expect_shape(base, r_box, "r_box", objects, attributes)
        _expect_shape(base, r_diamond, "r_diamond", attributes, objects)
        _expect_shape(base, r_rhd, "r_rhd", objects, objects)
        _expect_shape(base, r_lhd, "r_lhd", attributes, attributes)
        self.base = base
        self.r_box = r_box
        self.r_diamond = r_diamond
        self.r_rhd = r_rhd
        self.r_lhd = r_lhd
        self.compatibility = CompatibilityReport(
            _check_relation_singletons(base, r_box, "r_box") if r_box is not None else None,
            _check_relation_singletons(base, r_diamond.transpose(), "r_diamond")
            if r_diamond is not None
            else None,
        )

    def check_compatibility(self) -> CompatibilityReport:
        return self.compatibility

    def _require(self, slot: str, need_compatible: bool = False) -> MvRelation:
        rel = getattr(self, slot)
        if rel is None:
            raise CapabilityError(f"this frame carries no {slot}")
        if need_compatible:
            ok = self.compatibility.box_ok if slot == "r_box" else self.compatibility.diamond_ok
            if not ok:
                raise CapabilityError(f"{slot} failed the compatibility check")
        return rel

    def box_op(self, c: Concept) -> Concept:
        """Extent is lift0(r_box, intent); its up-closure is the intent."""
        rel = self._require("r_box", need_compatible=True)
        extent = lift0(rel, c.intent)
        return Concept(extent, self.base.up(extent))

    def diamond_op(self, c: Concept) -> Concept:
        """Intent is lift0(r_diamond, extent); its down-closure is the extent."""
        rel = self._require("r_diamond", need_compatible=True)
        intent = lift0(rel, c.extent)
        return Concept(self.base.down(intent), intent)

    def rhd_raw(self, c: Concept) -> MvSet:
        """Raw object-side degrees: b maps to the meet of extent(b') -> r_rhd(b', b)."""
        rel = self._require("r_rhd")
        return lift1(rel, c.extent)

    def rhd_op(self, c: Concept) -> Concept:
        return self.base.concept_of(self.rhd_raw(c))

    def lhd_raw(self, c: Concept) -> MvSet:
        """Raw attribute-side degrees: y maps to the meet of intent(z) -> r_lhd(z, y)."""
        rel = self._require("r_lhd")
        return lift1(rel, c.intent)

    def lhd_op(self, c: Concept) -> Concept:
        return self.base.concept_from_intent(self.lhd_raw(c))

    def __repr__(self):
        slots = [s for s in ("r_box", "r_diamond", "r_rhd", "r_lhd") if getattr(self, s) is not None]
        return f"EnrichedContext({self.base!r}, relations={slots})"


def _expect_shape(base: Context, rel: Optional[MvRelation], name: str, source, target):
    if rel is None:
        return
    if rel.source != source or rel.target != target:
        raise InputError(
            f"{name} must be shaped {len(source)}x{len(target)} over the matching carriers"
        )
    if rel.algebra is not base.algebra and rel.algebra != base.algebra:
        raise InputError(f"{name} must share the base context's algebra")


def compatible_box_closure(base: Context, rel: MvRelation) -> MvRelation:
    """Smallest pointwise enlargement of rel that is compatible as r_box.

    Columns are replaced by their extent closures and rows by their intent
    closures until nothing moves.  Closures only raise entries, so the
    iteration terminates; scaled singleton images of the result are then
    themselves closures, which makes the result compatible.
    """
    _expect_shape(base, rel, "r_box", base.objects, base.attributes)
    rows = [list(r) for r in rel.rows]
    n_obj, n_att = len(base.objects), len(base.attributes)
    changed = True
    while changed:
        changed = False
        for j in range(n_att):
            col = tuple(rows[i][j] for i in range(n_obj))
            closed = base._down_degrees(base._up_degrees(col))
            if closed != col:
                for i in range(n_obj):
                    rows[i][j] = closed[i]
                changed = True
        for i in range(n_obj):
            row = tuple(rows[i])
            closed = base._up_degrees(base._down_degrees(row))
            if closed != row:
                rows[i] = list(closed)
                changed = True
    return MvRelation(base.algebra, base.objects, base.attributes, tuple(tuple(r) for r in rows))


def compatible_diamond_closure(base: Context, rel: MvRelation) -> MvRelation:
    """Mirror of compatible_box_closure for a relation shaped attributes x objects."""
    _expect_shape(base, rel, "r_diamond", base.attributes, base.objects)
    closed = compatible_box_closure(base, rel.transpose())
    return closed.transpose()
