"""Seeded job streams for the four workloads.

Every job is one ``mvpolar`` command line together with what the checker
needs to confirm its answer.  All inputs come from one ``random.Random``
seeded by the workload seed, so the same seed writes the same files.  No
two jobs of a stream share an input file's content: a cache that outlives
one ``cli.main`` call must not make a later job cheaper than it would be
in a fresh process.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import closure

# Chains as (kind, size); "goedel"/"lukasiewicz" inline specs need size >= 2.
CHAIN_SPECS = {
    "B": {"kind": "boolean", "size": 2},
    "L3": {"kind": "lukasiewicz", "size": 3},
    "L4": {"kind": "lukasiewicz", "size": 4},
    "L5": {"kind": "lukasiewicz", "size": 5},
    "G3": {"kind": "goedel", "size": 3},
    "G4": {"kind": "goedel", "size": 4},
    "G5": {"kind": "goedel", "size": 5},
}


@dataclass
class Job:
    """One CLI call: its argv, the exit code it must return, and check data."""

    kind: str
    argv: list
    want_code: Optional[int]
    data: dict = field(default_factory=dict)


class Workspace:
    """Writes numbered JSON input files into one directory."""

    def __init__(self, root: Path):
        self.root = root
        self.root.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def write(self, obj) -> str:
        self.count += 1
        path = self.root / f"in{self.count:06d}.json"
        path.write_text(json.dumps(obj))
        return str(path)


# ---------------------------------------------------------------- algebras


def product_algebra(components, perm=None) -> dict:
    """Custom-algebra spec of a product of chains, optionally relabelled.

    ``components`` is a sequence of (kind, size) chains; the element
    (x1, ..., xk) gets the mixed-radix index, so (0, ..., 0) is 0 and the
    top is size - 1.  ``perm`` relabels the inner indices 1..size-2, which
    gives an isomorphic algebra with different table content.
    """
    sizes = [n for _, n in components]
    elems = list(itertools.product(*[range(n) for n in sizes]))
    size = len(elems)
    index = {e: k for k, e in enumerate(elems)}
    label = list(range(size)) if perm is None else [0] + list(perm) + [size - 1]
    ops = [closure.chain_ops(kind, n) for kind, n in components]
    tables = {name: [[0] * size for _ in range(size)] for name in ("join", "meet", "otimes", "residuum")}
    for a, ea in enumerate(elems):
        for b, eb in enumerate(elems):
            for t, name in enumerate(("join", "meet", "otimes", "residuum")):
                v = index[tuple(op[t](x, y) for op, x, y in zip(ops, ea, eb))]
                tables[name][label[a]][label[b]] = label[v]
    return {"kind": "custom", "size": size, **tables}


def _matrix(rng: random.Random, size: int, rows: int, cols: int):
    return [[rng.randrange(size) for _ in range(cols)] for _ in range(rows)]


def _names(prefix: str, n: int):
    return [f"{prefix}{i + 1}" for i in range(n)]


def _context_dict(spec: dict, rows) -> dict:
    return {
        "algebra": spec,
        "objects": _names("a", len(rows)),
        "attributes": _names("x", len(rows[0])),
        "I": rows,
    }


def _frame_dict(prog, rng: random.Random, spec: dict, n_obj: int, n_att: int) -> dict:
    """A compatible frame with all four relations, drawn by the program's sampler."""
    alg = prog.fileio.algebra_from_dict(spec)
    while True:
        try:
            frame = prog.sampling.random_compatible_frame(rng, alg, n_obj, n_att, with_rhd=True, with_lhd=True)
            break
        except prog.errors.ResourceError:
            continue
    base = frame.base
    return {
        "algebra": spec,
        "objects": list(base.objects),
        "attributes": list(base.attributes),
        "I": [list(r) for r in base.incidence.rows],
        "R_box": [list(r) for r in frame.r_box.rows],
        "R_diamond": [list(r) for r in frame.r_diamond.rows],
        "R_rhd": [list(r) for r in frame.r_rhd.rows],
        "R_lhd": [list(r) for r in frame.r_lhd.rows],
    }


# ---------------------------------------------------------------- sequents

# Valid on every frame whose box and diamond relations are compatible: lattice
# laws, normality of box/dia, and antitonicity of rhd/lhd.
THEOREMS_2 = (
    "p & q |- q & p",
    "box p & box q |- box (p & q)",
    "box (p & q) |- box p",
    "dia (p | q) |- dia p | dia q",
    "dia p |- dia (p | q)",
    "rhd (p | q) |- rhd p",
    "lhd (p | q) |- lhd q",
    "rhd p & lhd q |- rhd (p & q) & lhd (p & q)",
    "p & top |- p | box q",
    "dia bot | p |- p & (q | top)",
)
THEOREMS_3 = (
    "(p & q) | (p & r) |- p & (q | r)",
    "p | (q & r) |- (p | q) & (p | r)",
    "box p & box q & box r |- box (p & r)",
    "dia (p | q | r) |- dia p | dia q | dia r",
    "rhd (p | q | r) |- rhd q & rhd (p | q)",
    "lhd (p | r) & box q |- lhd (p | q | r) | box (q & top)",
)
# Refuted on every frame with at least two concepts: the left side is top once
# q (or the constant) is top, and the right side is bottom once r is bottom.
REFUTABLE_2 = (
    "box p | q |- bot",
    "top |- dia q & p",
    "rhd p | q |- p & bot",
    "q | lhd p |- lhd q & p",
)
REFUTABLE_3 = (
    "box p | q |- r & dia p",
    "dia (p & r) | q |- r & box q",
    "p | rhd q |- r & lhd (p | q)",
    "q | lhd (p & r) |- box (p | q) & r",
    "lhd p | top |- r & (p | q)",
    "q |- r & (rhd p | dia q)",
)


# ---------------------------------------------------------------- lattice

# (algebra, objects, attributes, fewest concepts, most concepts, output):
# contexts are redrawn until their concept count falls in the slot's narrow
# range, so every cycle meets the same mix of sizes, from about 50 to 450
# concepts.  Cost grows with about the cube of the concept count.  Most
# slots are small, so the median call falls inside a dense group of similar
# calls; six slots of about the same cost sit at the 90th percentile; two
# heavy slots come once per cycle.
LATTICE_SLOTS = (
    ("B", 11, 11, 58, 70, "text"), ("L3", 6, 6, 48, 56, "json"), ("G3", 7, 7, 66, 80, "dot"),
    ("L4", 5, 5, 46, 56, "text"), ("G4", 6, 6, 78, 92, "json"), ("G5", 5, 5, 45, 54, "dot"),
    ("CUSTOM", 4, 4, 78, 92, "text"), ("L3", 7, 7, 70, 84, "json"), ("B", 10, 10, 45, 55, "dot"),
    ("G3", 7, 7, 50, 60, "text"), ("L4", 5, 5, 60, 72, "json"), ("G4", 6, 6, 60, 72, "dot"),
    ("L4", 6, 5, 68, 80, "text"), ("B", 12, 12, 75, 90, "json"), ("G5", 5, 5, 58, 68, "dot"),
    ("L3", 6, 6, 58, 68, "text"), ("CUSTOM", 4, 4, 60, 72, "json"), ("B", 11, 11, 72, 86, "dot"),
    ("G4", 6, 6, 66, 78, "text"), ("L3", 6, 6, 50, 60, "json"), ("G3", 7, 7, 56, 66, "dot"),
    ("G5", 5, 5, 50, 60, "text"), ("B", 10, 10, 50, 60, "json"), ("L4", 5, 5, 50, 60, "dot"),
    ("L3", 7, 7, 60, 70, "text"), ("G4", 6, 6, 56, 66, "json"),
    ("L5", 5, 5, 90, 108, "text"), ("B", 13, 13, 92, 108, "json"), ("L3", 8, 8, 100, 118, "dot"),
    ("G3", 8, 8, 125, 145, "text"), ("L4", 6, 6, 130, 150, "json"), ("G5", 6, 6, 128, 148, "dot"),
    ("L5", 5, 6, 150, 170, "text"), ("B", 14, 14, 140, 160, "dot"),
    ("CUSTOM", 5, 5, 220, 240, "text"), ("G5", 7, 7, 220, 240, "text"), ("L3", 9, 9, 180, 200, "json"),
    ("G3", 9, 9, 190, 210, "dot"), ("L5", 5, 6, 160, 175, "json"), ("G4", 7, 7, 150, 165, "dot"),
    ("CUSTOM", 6, 5, 350, 370, "text"), ("L5", 6, 6, 420, 450, "json"),
)
LATTICE_MODES = ("text", "json", "dot")
LATTICE_CUSTOM = (("lukasiewicz", 3), ("goedel", 2))


def _lattice_spec(key: str) -> dict:
    if key == "CUSTOM":
        return product_algebra(LATTICE_CUSTOM)
    return CHAIN_SPECS[key]


def _sized_matrix(rng: random.Random, spec: dict, n_obj: int, n_att: int, lo: int, hi: int):
    t = closure.Tables(spec)
    while True:
        rows = _matrix(rng, spec["size"], n_obj, n_att)
        count = closure.count_extents(t, rows, hi)
        if count is not None and count >= lo:
            return rows


def lattice_jobs(prog, rng: random.Random, ws: Workspace):
    for k in itertools.count():
        key, n_obj, n_att, lo, hi, mode = LATTICE_SLOTS[k % len(LATTICE_SLOTS)]
        spec = _lattice_spec(key)
        rows = _sized_matrix(rng, spec, n_obj, n_att, lo, hi)
        path = ws.write(_context_dict(spec, rows))
        yield Job("lattice", ["lattice", "--context", path, "--out", mode], 0, {"spec": spec, "rows": rows, "mode": mode})


# ---------------------------------------------------------------- validity

# (algebra, objects, attributes, fewest concepts, most concepts): compatible
# frames redrawn until their concept count is in the narrow range, 19 to 46
# concepts; three-atom sequents and the axiom suite get the smaller frames.
VALIDITY_FRAMES_2 = (("L3", 6, 6, 40, 46), ("G3", 6, 6, 40, 46), ("L4", 4, 5, 40, 46), ("G4", 5, 5, 40, 46))
VALIDITY_FRAMES_3 = (("L3", 5, 5, 19, 21), ("G3", 5, 5, 19, 21), ("G4", 4, 5, 19, 21), ("L3", 4, 5, 19, 21))
VALIDITY_FRAMES_AXIOMS = (
    ("L3", 5, 5, 26, 30), ("G3", 5, 5, 26, 30), ("G4", 5, 5, 26, 30), ("L4", 4, 5, 26, 30),
)
SAMPLE_ALGEBRAS = ("goedel:3", "lukasiewicz:3")
# One cycle of the validity stream, as (kind, index) pairs: every sequent of
# the four pools, the first three-atom theorems once more, the axiom suite
# four times and the sampled suite twice.  A position keeps its sequent and
# frame shape from cycle to cycle, so the cost of each position stays put;
# about as many calls are cheaper than the axiom-suite group as are dearer,
# so the median falls inside that group, and the 90th percentile falls
# among the three-atom theorems.
VALIDITY_CYCLE = tuple(
    [("thm2", i) for i in range(len(THEOREMS_2))]
    + [("ref2", i) for i in range(len(REFUTABLE_2))]
    + [("thm3", i) for i in range(len(THEOREMS_3))]
    + [("ref3", i) for i in range(len(REFUTABLE_3))]
    + [("axioms", i) for i in range(len(VALIDITY_FRAMES_AXIOMS))]
    + [("thm3", i) for i in range(3)]
    + [("samples", i) for i in range(len(SAMPLE_ALGEBRAS))]
)


def _sized_frame(prog, rng: random.Random, spec: dict, n_obj: int, n_att: int, lo: int, hi: int) -> dict:
    t = closure.Tables(spec)
    while True:
        frame = _frame_dict(prog, rng, spec, n_obj, n_att)
        count = closure.count_extents(t, frame["I"], hi)
        if count is not None and count >= lo:
            return frame


def validity_jobs(prog, rng: random.Random, ws: Workspace):
    pools = {"thm2": THEOREMS_2, "thm3": THEOREMS_3, "ref2": REFUTABLE_2, "ref3": REFUTABLE_3}
    for k in itertools.count():
        kind, index = VALIDITY_CYCLE[k % len(VALIDITY_CYCLE)]
        if kind == "samples":
            samples = 3
            argv = [
                "axioms", "--samples", str(samples), "--seed", str(rng.randrange(1 << 30)),
                "--algebra", SAMPLE_ALGEBRAS[index], "--objects", "3", "--attributes", "3",
            ]
            yield Job("axioms-samples", argv, 0, {"samples": samples})
            continue
        shapes = {"axioms": VALIDITY_FRAMES_AXIOMS, "thm3": VALIDITY_FRAMES_3, "ref3": VALIDITY_FRAMES_3}.get(
            kind, VALIDITY_FRAMES_2
        )
        key, n_obj, n_att, lo, hi = shapes[k % len(VALIDITY_CYCLE) % len(shapes)]
        frame = _sized_frame(prog, rng, CHAIN_SPECS[key], n_obj, n_att, lo, hi)
        path = ws.write(frame)
        if kind == "axioms":
            mode = ("text", "json")[index % 2]
            yield Job("axioms-frame", ["axioms", "--frame", path, "--out", mode], 0, {"mode": mode})
            continue
        yield _valid_job(path, frame, pools[kind][index], kind.startswith("thm"))


def _valid_job(path: str, frame: dict, sequent: str, theorem: bool) -> Job:
    """Theorems must come out valid; refutable sequents invalid on >= 2 concepts."""
    refutable = not theorem and closure.has_two_concepts(frame)
    return Job(
        "valid",
        ["valid", "--frame", path, "--sequent", sequent],
        1 if refutable else 0,
        {"frame": frame, "sequent": sequent},
    )


# ---------------------------------------------------------------- canonical


def _chain_leq(n):
    return [[i <= j for j in range(n)] for i in range(n)]


def _product_leq(a, b):
    elems = [(x, y) for x in range(a) for y in range(b)]
    return [[ex <= fx and ey <= fy for (fx, fy) in elems] for (ex, ey) in elems]


DIAMOND_LEQ = _product_leq(2, 2)
# Pentagon N5: 0 < a < b < 1 and 0 < c < 1, c incomparable with a and b.
PENTAGON_LEQ = [
    [True, True, True, True, True],
    [False, True, True, False, True],
    [False, False, True, False, True],
    [False, False, False, True, True],
    [False, False, False, False, True],
]
CANONICAL_LATTICES = {
    "chain4": _chain_leq(4), "chain5": _chain_leq(5), "chain6": _chain_leq(6),
    "chain7": _chain_leq(7), "chain8": _chain_leq(8),
    "2x3": _product_leq(2, 3), "2x4": _product_leq(2, 4), "3x3": _product_leq(3, 3),
    "diamond": DIAMOND_LEQ, "pentagon": PENTAGON_LEQ,
}
# (lattice, algebra): every pair keeps |A|^|L| candidate maps small enough
# that a job takes well under a second.
CANONICAL_SLOTS = (
    ("chain4", "L5"), ("2x3", "G3"), ("pentagon", "L4"), ("chain6", "G3"),
    ("diamond", "G5"), ("chain5", "L4"), ("2x4", "L3"), ("chain7", "G3"),
    ("chain4", "G4"), ("pentagon", "G4"), ("3x3", "L3"), ("chain5", "G3"),
    ("diamond", "L4"), ("2x3", "L4"), ("chain8", "L3"), ("chain6", "L3"),
    ("chain4", "G3"), ("diamond", "L3"), ("pentagon", "L3"), ("chain7", "L3"),
)


def lattice_bounds(leq, upper: bool):
    """Join (upper) or meet table of a finite lattice given by its order."""
    n = len(leq)
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if upper:
                cands = [k for k in range(n) if leq[i][k] and leq[j][k]]
                table[i][j] = next(u for u in cands if all(leq[u][k] for k in cands))
            else:
                cands = [k for k in range(n) if leq[k][i] and leq[k][j]]
                table[i][j] = next(u for u in cands if all(leq[k][u] for k in cands))
    return table


def lattice_top(leq) -> int:
    return next(i for i in range(len(leq)) if all(row[i] for row in leq))


def lattice_bottom(leq) -> int:
    return next(i for i in range(len(leq)) if all(leq[i]))


def random_normal_map(rng: random.Random, leq, preserve_meets: bool):
    """A random map preserving meets and top (box) or joins and bottom (dia).

    Randomised depth-first search over the elements in a fixed order; each
    choice is kept only while every fully assigned meet (join) is preserved.
    """
    n = len(leq)
    table = lattice_bounds(leq, upper=not preserve_meets)
    fixed = lattice_top(leq) if preserve_meets else lattice_bottom(leq)
    out = [None] * n
    out[fixed] = fixed
    order = [i for i in range(n) if i != fixed]

    def ok():
        for i in range(n):
            for j in range(n):
                m = table[i][j]
                if None not in (out[i], out[j], out[m]) and out[m] != table[out[i]][out[j]]:
                    return False
        return True

    def go(pos):
        if pos == len(order):
            return True
        i = order[pos]
        for v in rng.sample(range(n), n):
            out[i] = v
            if ok() and go(pos + 1):
                return True
        out[i] = None
        return False

    if not go(0):  # pragma: no cover - the identity always qualifies
        raise RuntimeError("no normal map found")
    return out


def canonical_jobs(prog, rng: random.Random, ws: Workspace):
    for k in itertools.count():
        shape, key = CANONICAL_SLOTS[k % len(CANONICAL_SLOTS)]
        leq = CANONICAL_LATTICES[shape]
        names = [f"e{i}" for i in range(len(leq))]
        box = random_normal_map(rng, leq, preserve_meets=True)
        dia = random_normal_map(rng, leq, preserve_meets=False)
        lattice = {
            "elements": names,
            "leq": leq,
            "box": {names[i]: names[box[i]] for i in range(len(names))},
            "dia": {names[i]: names[dia[i]] for i in range(len(names))},
        }
        spec = CHAIN_SPECS[key]
        mode = ("text", "json")[k % 2]
        algebra = f"{spec['kind']}:{spec['size']}"
        argv = ["canonical", "--lattice", ws.write(lattice), "--algebra", algebra, "--out", mode]
        # The checker rebuilds the canonical frame to decide between exit 0
        # and exit 1 (an incompatible frame), so want_code stays open.
        data = {"leq": leq, "spec": spec, "box": box, "dia": dia, "mode": mode}
        yield Job("canonical", argv, None, data)


# ---------------------------------------------------------------- interactive

# The axiom suite, the heaviest tiny job, fills a sixth of the cycle, so the
# 90th percentile falls inside its group rather than on the edge of it.
INTERACTIVE_CYCLE = (
    "algebra", "check", "arena", "valid", "lattice", "check-long",
    "axioms", "arena", "valid-long", "arena", "lattice", "axioms",
)
ARENA_OPS = ("firm", "market", "basket", "typicality-firm", "typicality-market", "box-refinement")
TINY_SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3))
TINY_ALGEBRAS = ("B", "L3", "G3", "L4")
# 84 = lcm(12, 7, 4): one period meets every kind with every shape.
INTERACTIVE_PERIOD = 84
PRODUCT_CHAINS = ("lukasiewicz", "goedel")


def _long_formula(prog, rng: random.Random, atoms, depth: int) -> str:
    return str(prog.sampling.random_formula(rng, atoms, depth))


def _long_theorem(prog, rng: random.Random, atoms) -> str:
    """A & B |- A for two random formulas: valid in any lattice."""
    a = _long_formula(prog, rng, atoms, 6)
    b = _long_formula(prog, rng, atoms, 6)
    return f"({a}) & ({b}) |- {a}"


def interactive_jobs(prog, rng: random.Random, ws: Workspace):
    for k in itertools.count():
        # Kind, shape, algebra and variant are fixed by the position in the
        # cycle; only the random content changes from cycle to cycle.
        pos = k % INTERACTIVE_PERIOD
        kind = INTERACTIVE_CYCLE[pos % len(INTERACTIVE_CYCLE)]
        turn = pos // len(INTERACTIVE_CYCLE)
        tiny_key = TINY_ALGEBRAS[pos % len(TINY_ALGEBRAS)]
        n_obj, n_att = TINY_SHAPES[pos % len(TINY_SHAPES)]
        if kind == "algebra":
            comps = [(PRODUCT_CHAINS[turn % 2], 2 + turn % 2), (PRODUCT_CHAINS[turn // 2 % 2], 2 + turn // 2 % 2)]
            size = comps[0][1] * comps[1][1]
            perm = rng.sample(range(1, size - 1), size - 2)
            spec = product_algebra(comps, perm)
            mode = ("text", "json")[turn % 2]
            yield Job("algebra", ["algebra", "--algebra", ws.write(spec), "--out", mode], 0, {"mode": mode})
        elif kind in ("check", "check-long"):
            frame = _frame_dict(prog, rng, CHAIN_SPECS[tiny_key], n_obj, n_att)
            model = dict(frame, V=closure.random_valuation(rng, frame, ("p", "q", "r")))
            if kind == "check-long":
                sequent, holds = _long_theorem(prog, rng, ("p", "q", "r")), True
            elif turn % 2:
                sequent, holds = THEOREMS_3[turn % len(THEOREMS_3)], True
            else:
                sequent, holds = "top | box p |- bot & dia q", not closure.has_two_concepts(frame)
            argv = ["check", "--model", ws.write(model), "--sequent", sequent]
            yield Job("check", argv, 0 if holds else 1, {"frame": frame})
        elif kind in ("valid", "valid-long"):
            frame = _frame_dict(prog, rng, CHAIN_SPECS[tiny_key], n_obj, n_att)
            path = ws.write(frame)
            if kind == "valid-long":
                yield _valid_job(path, frame, _long_theorem(prog, rng, ("p", "q")), True)
            elif turn % 2:
                yield _valid_job(path, frame, THEOREMS_2[turn % len(THEOREMS_2)], True)
            else:
                yield _valid_job(path, frame, REFUTABLE_3[turn % len(REFUTABLE_3)], False)
        elif kind == "axioms":
            frame = _frame_dict(prog, rng, CHAIN_SPECS[tiny_key], n_obj, n_att)
            mode = ("text", "json")[turn % 2]
            yield Job("axioms-frame", ["axioms", "--frame", ws.write(frame), "--out", mode], 0, {"mode": mode})
        elif kind == "lattice":
            spec = CHAIN_SPECS[tiny_key]
            rows = _matrix(rng, spec["size"], min(n_obj + 1, 4), min(n_att + 1, 4))
            mode = LATTICE_MODES[turn % len(LATTICE_MODES)]
            path = ws.write(_context_dict(spec, rows))
            argv = ["lattice", "--context", path, "--out", mode]
            yield Job("lattice", argv, 0, {"spec": spec, "rows": rows, "mode": mode})
        else:
            op = ARENA_OPS[(turn + pos) % len(ARENA_OPS)]
            yield _arena_job(prog, rng, ws, op, tiny_key, n_obj + 1, n_att + 1, turn)


def _arena_job(prog, rng: random.Random, ws: Workspace, op: str, key: str, n_firms: int, n_markets: int, turn: int):
    quantized = key.startswith("L") and turn % 2 == 0
    frame = _frame_dict(prog, rng, CHAIN_SPECS[key], n_firms, n_markets)
    firms = _names("firm", n_firms)
    markets = _names("mkt", n_markets)
    arena = dict(frame, objects=firms, attributes=markets)
    arena["labels"] = {"I": "activity level", "R_box": "refinement", "R_rhd": "strategic similarity"}
    if quantized:
        top = CHAIN_SPECS[key]["size"] - 1
        del arena["algebra"]
        arena["quantize"] = {"chain_size": top + 1}
        for slot in ("I", "R_box", "R_diamond", "R_rhd", "R_lhd"):
            arena[slot] = [
                [round((v + rng.uniform(-0.3, 0.3)) / top, 4) if 0 < v < top else v / top for v in row]
                for row in frame[slot]
            ]
    firm = rng.choice(firms)
    market = rng.choice(markets)
    weights = {m: rng.randrange(CHAIN_SPECS[key]["size"]) for m in rng.sample(markets, min(2, n_markets))}
    mode = ("text", "json")[turn % 2]
    argv = ["arena", "--arena", ws.write(arena), "--out", mode] + {
        "firm": ["--op", "firm", "--firm", firm],
        "market": ["--op", "market", "--market", market],
        "basket": ["--op", "basket", "--weights", json.dumps(weights)],
        "typicality-firm": ["--op", "typicality", "--firm", firm],
        "typicality-market": ["--op", "typicality", "--market", market, "--kind", "lhd_over_concept"],
        "box-refinement": ["--op", "box-refinement", "--firm", firm],
    }[op]
    seed = {"firm": firm, "market": market, "basket": weights}.get(op)
    return Job("arena", argv, 0, {"op": op, "frame": frame, "seed": seed, "mode": mode})


# ---------------------------------------------------------------- lists

# Jobs per cycle of each stream: every cycle repeats the same mix of kinds
# and sizes, so per-cycle throughputs are comparable.
CYCLES = {
    "lattice": len(LATTICE_SLOTS),
    "validity": len(VALIDITY_CYCLE),
    "canonical": len(CANONICAL_SLOTS),
    "interactive": INTERACTIVE_PERIOD,
}

GENERATORS = {
    "lattice": lattice_jobs,
    "validity": validity_jobs,
    "canonical": canonical_jobs,
    "interactive": interactive_jobs,
}


def job_streams(prog, workload: str, seed: int, ws: Workspace, warmup: int):
    """Warm-up jobs (a list, from their own stream) and the endless timed stream.

    Timed jobs are generated one at a time, between calls and outside the
    timed region, so a run never runs out of fresh inputs.
    """
    gen = GENERATORS[workload]
    warm = list(itertools.islice(gen(prog, random.Random(f"{workload}-warmup-{seed}"), ws), warmup))
    return warm, gen(prog, random.Random(f"{workload}-{seed}"), ws)
