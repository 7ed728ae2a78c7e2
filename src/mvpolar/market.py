"""Competition analysis over arenas of firms and product markets.

An arena is an enriched context read with market glasses on: objects
are firms, attributes are product markets, and the incidence degree
says how active a firm is on a market.  Raw decimal data is quantized
onto a Lukasiewicz chain once, at ingestion, and the rounding is
logged so every report can carry it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .context import Concept
from .errors import InputError, UsageError
from .fileio import frame_from_dict, load_json
from .frames import EnrichedContext
from .mvsets import MvSet, singleton

_RELATION_KEYS = ("I", "R_box", "R_diamond", "R_rhd", "R_lhd")


@dataclass(frozen=True)
class Arena:
    frame: EnrichedContext
    labels: Mapping[str, str] = field(default_factory=dict)
    quantization: Optional[dict] = None
    warnings: tuple = ()

    @property
    def algebra(self):
        return self.frame.base.algebra

    @property
    def firms(self):
        return self.frame.base.objects

    @property
    def markets(self):
        return self.frame.base.attributes

    def notes(self) -> tuple:
        out = []
        if self.quantization:
            q = self.quantization
            out.append(
                "quantized {changed} of {total} raw values onto a {n}-element chain"
                " (max rounding error {err:.6g})".format(
                    changed=q["values_changed"], total=q["values_total"], n=q["chain_size"], err=q["max_error"]
                )
            )
        out.extend(self.warnings)
        for slot in _RELATION_KEYS:
            if slot in self.labels:
                out.append(f'{slot} is read as "{self.labels[slot]}"')
        return tuple(out)


def _quantize_matrix(rows, n: int, what: str, log: dict):
    out = []
    for row in rows:
        new_row = []
        for v in row:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise InputError(f"{what} entries must be numbers in [0, 1]")
            if not 0.0 <= v <= 1.0:
                raise InputError(f"{what} entry {v!r} is outside [0, 1]")
            idx = math.floor(v * (n - 1) + 0.5)
            err = abs(v - idx / (n - 1))
            log["values_total"] += 1
            if err > 0:
                log["values_changed"] += 1
                log["max_error"] = max(log["max_error"], err)
            new_row.append(idx)
        out.append(new_row)
    return out


def load_arena(path: str) -> Arena:
    """Read an arena file, quantizing decimal matrices when asked to.

    A frame whose r_box or r_diamond fails the compatibility check still
    loads; the failure becomes a warning and the corresponding analyses
    raise when invoked.
    """
    data = load_json(path)
    if not isinstance(data, Mapping):
        raise InputError("an arena must be a JSON object")
    labels = data.get("labels")
    if not isinstance(labels, Mapping):
        raise InputError('an arena file needs a "labels" object')
    unknown = sorted(set(labels) - set(_RELATION_KEYS))
    if unknown:
        raise InputError(f"labels mention unknown relation slots {unknown}")
    labels = {k: str(v) for k, v in labels.items()}

    quant_log = None
    if "quantize" in data:
        spec = data["quantize"]
        if not isinstance(spec, Mapping) or "chain_size" not in spec:
            raise InputError('"quantize" needs a "chain_size" entry')
        n = spec["chain_size"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 2:
            raise InputError('"chain_size" must be an integer of at least 2')
        if "algebra" in data and data["algebra"] != {"kind": "lukasiewicz", "size": n}:
            raise InputError("a quantized arena fixes its algebra to the lukasiewicz chain of chain_size")
        quant_log = {"chain_size": n, "values_total": 0, "values_changed": 0, "max_error": 0.0}
        data = dict(data)
        data["algebra"] = {"kind": "lukasiewicz", "size": n}
        for key in _RELATION_KEYS:
            if key in data:
                data[key] = _quantize_matrix(data[key], n, key, quant_log)

    frame = frame_from_dict(data, os.path.dirname(path) or ".")
    warnings = []
    report = frame.compatibility
    if frame.r_box is not None and not report.box_ok:
        warnings.append("R_box failed the compatibility check; box analyses are disabled")
    if frame.r_diamond is not None and not report.diamond_ok:
        warnings.append("R_diamond failed the compatibility check; diamond analyses are disabled")
    return Arena(frame, labels, quant_log, tuple(warnings))


def firm_category(arena: Arena, firm: str) -> Concept:
    """Concept generated by one firm: extent degree at b is the greatest
    extent to which b is at least as active as the firm on every market."""
    base = arena.frame.base
    seed = singleton(arena.algebra, base.objects, arena.algebra.top, firm)
    return base.concept_of(seed)


def market_category(arena: Arena, market: str) -> Concept:
    """Concept generated by one product market; extent at a is I(a, market)."""
    base = arena.frame.base
    seed = singleton(arena.algebra, base.attributes, arena.algebra.top, market)
    return base.concept_from_intent(seed)


def basket_category(arena: Arena, weights: Mapping[str, int]) -> Concept:
    """Concept of the producers catering to a weighted basket of markets."""
    base = arena.frame.base
    degrees = [arena.algebra.bottom] * len(base.attributes)
    index = {name: k for k, name in enumerate(base.attributes)}
    for market, v in weights.items():
        if market not in index:
            raise UsageError(f"unknown market {market!r}")
        degrees[index[market]] = arena.algebra.check_value(v)
    return base.concept_from_intent(MvSet(arena.algebra, base.attributes, degrees))


@dataclass(frozen=True)
class DegreeListing:
    title: str
    formula: str
    reading: str
    entries: tuple


@dataclass(frozen=True)
class AnalysisReport:
    query: dict
    listings: tuple
    notes: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "query": self.query,
            "listings": [
                {
                    "title": l.title,
                    "formula": l.formula,
                    "reading": l.reading,
                    "entries": [{"element": n, "degree": d, "value": s} for n, d, s in l.entries],
                }
                for l in self.listings
            ],
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        lines = ["query: " + " ".join(f"{k}={v}" for k, v in self.query.items())]
        for l in self.listings:
            lines.append("")
            lines.append(f"{l.title}  ({l.reading})")
            lines.append(f"  formula: {l.formula}")
            width = max((len(n) for n, _, _ in l.entries), default=0)
            for n, d, s in l.entries:
                lines.append(f"  {n:<{width}}  {s}")
        if self.notes:
            lines.append("")
            for note in self.notes:
                lines.append(f"note: {note}")
        return "\n".join(lines)


def _listing(algebra, title, formula, reading, mv: MvSet) -> DegreeListing:
    entries = tuple(
        (name, mv.degrees[k], algebra.format_value(mv.degrees[k])) for k, name in enumerate(mv.carrier)
    )
    return DegreeListing(title, formula, reading, entries)


def concept_report(
    arena: Arena, query: dict, concept: Concept, extent_side: tuple, intent_side: tuple
) -> AnalysisReport:
    """Extent over firms and intent over markets; each side is a (formula, reading) pair."""
    listings = (
        _listing(arena.algebra, "extent over firms", *extent_side, concept.extent),
        _listing(arena.algebra, "intent over markets", *intent_side, concept.intent),
    )
    return AnalysisReport(query, listings, arena.notes())


TYPICALITY_KINDS = ("rhd_over_concept", "lhd_over_concept")


def typicality_analysis(arena: Arena, kind: str, seed: Concept) -> AnalysisReport:
    """Degrees to which each firm (or market) is typical for a seed concept."""
    if kind not in TYPICALITY_KINDS:
        raise UsageError(f"kind must be one of {TYPICALITY_KINDS}")
    frame = arena.frame
    base = frame.base
    alg = arena.algebra
    query = {
        "operation": "typicality_analysis",
        "kind": kind,
        "seed_extent": list(seed.extent.degrees),
        "seed_intent": list(seed.intent.degrees),
    }
    if kind == "rhd_over_concept":
        raw = frame.rhd_raw(seed)
        closed = base.concept_of(raw)
        listings = (
            _listing(
                alg,
                "typicality degrees over firms",
                "meet over firms b' of (extent(b') -> R_rhd(b', b))",
                "how strategically typical each producer is for the seed category",
                raw,
            ),
            _listing(alg, "closed concept, extent", "object closure of the raw degrees", "firms", closed.extent),
            _listing(alg, "closed concept, intent", "upper derivative of the closed extent", "markets", closed.intent),
        )
        stable = base.is_stable("extent", raw)
    else:
        raw = frame.lhd_raw(seed)
        closed = base.concept_from_intent(raw)
        listings = (
            _listing(
                alg,
                "typicality degrees over markets",
                "meet over markets z of (intent(z) -> R_lhd(z, y))",
                "how typical each product market is for the seed category",
                raw,
            ),
            _listing(alg, "closed concept, extent", "lower derivative of the closed intent", "firms", closed.extent),
            _listing(alg, "closed concept, intent", "attribute closure of the raw degrees", "markets", closed.intent),
        )
        stable = base.is_stable("intent", raw)
    notes = arena.notes() + ((f"the raw degree map is {'already' if stable else 'not'} stable",))
    return AnalysisReport(query, listings, notes)


def box_refinement_analysis(arena: Arena, firm: str) -> AnalysisReport:
    """Degrees to which each firm matches a target firm's activity profile
    through the refinement relation."""
    frame = arena.frame
    base = frame.base
    alg = arena.algebra
    target = firm_category(arena, firm)
    boxed = frame.box_op(target)
    listings = (
        _listing(
            alg,
            "target activity profile",
            f"I({firm}, x) per market x",
            "how active the target firm is on each market",
            target.intent,
        ),
        _listing(
            alg,
            "refinement degrees over firms",
            f"meet over markets x of (I({firm}, x) -> R_box(b, x))",
            f"how far each firm is at least as active as {firm} relative to the target group",
            boxed.extent,
        ),
        _listing(alg, "refined concept, intent", "upper derivative of the refinement degrees", "markets", boxed.intent),
    )
    query = {"operation": "box_refinement_analysis", "firm": firm}
    return AnalysisReport(query, listings, arena.notes())
