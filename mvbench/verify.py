"""Answer checks, each by a path independent of the code that answered.

``check(job, code, out, prog, oracles)`` returns ``(reason, counts)``:
``reason`` is None when the answer is right and a one-line explanation
otherwise; ``counts`` holds the work counts the answer itself shows
(concepts, cover pairs, valuations), which the traced run compares with
the counts its spans read.

- Lattices: the brute-force oracle of the test suite when the context is
  small, else the closure argument below; covers from upper neighbours.
- Invalid verdicts: the countermodel is replayed through the reference
  evaluator ``semantics.evaluate``.
- Everything else: verdicts fixed by theory (theorems hold on every
  compatible frame, the canonical lemmas on every modal lattice) and
  counts the checker recomputes itself.
"""

from __future__ import annotations

import json
import re

from .closure import Tables, close, down, up
from .inputs import lattice_bottom, lattice_bounds, lattice_top

# Contexts with at most this many candidate extents are checked against the
# brute-force oracle; larger ones by the closure argument in _lattice.
ORACLE_LIMIT = 1024


class Mismatch(Exception):
    pass


def _need(cond: bool, what: str):
    if not cond:
        raise Mismatch(what)


def check(job, code, out: str, prog, oracles):
    try:
        want = job.want_code if job.want_code is not None else EXPECTED_CODE[job.kind](job)
        _need(code == want, f"exit code {code}, expected {want}")
        return None, CHECKS[job.kind](job, out, prog, oracles)
    except Mismatch as e:
        return f"{job.kind}: {e}", {}
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return f"{job.kind}: unreadable answer ({type(e).__name__}: {e})", {}


# ---------------------------------------------------------------- lattice

_TEXT_CONCEPT = re.compile(r"^(\d+): Concept\(extent=\(([^)]*)\), intent=\(([^)]*)\)\)$")
_DOT_NODE = re.compile(r'^  c(\d+) \[label="\[([^]]*)\] / \[([^]]*)\]"\];$')
_DOT_EDGE = re.compile(r"^  c(\d+) -> c(\d+);$")


def _ints(text: str) -> tuple:
    return tuple(int(v) for v in text.replace(",", " ").split())


def parse_lattice(mode: str, out: str):
    """(extents, intents, covers or None) from any of the three output modes."""
    if mode == "json":
        payload = json.loads(out)
        concepts = payload["concepts"]
        covers = {tuple(p) for p in payload["covers"]}
        return [tuple(c["extent"]) for c in concepts], [tuple(c["intent"]) for c in concepts], covers
    exts, ints, covers = [], [], set()
    lines = out.splitlines()
    if mode == "text":
        _need(lines[-1] == f"{len(lines) - 1} concepts", "text listing does not end with its concept count")
        lines = lines[:-1]
    for k, line in enumerate(lines):
        node = (_TEXT_CONCEPT if mode == "text" else _DOT_NODE).match(line)
        if node:
            _need(int(node.group(1)) == len(exts), f"concept {len(exts)} is numbered out of order")
            exts.append(_ints(node.group(2)))
            ints.append(_ints(node.group(3)))
        elif mode == "dot" and _DOT_EDGE.match(line):
            covers.add(tuple(int(g) for g in _DOT_EDGE.match(line).groups()))
        else:
            _need(mode == "dot" and (k < 3 or line == "}"), f"unexpected line {line!r}")
    return exts, ints, (covers if mode != "text" else None)


def upper_covers(t: Tables, rows, exts) -> set:
    """Covering pairs from upper neighbours.

    Every concept strictly above E lies above the closure of E raised at
    one object x to some degree above E[x]; the minimal such closures are
    exactly the upper covers of E.
    """
    index = {e: k for k, e in enumerate(exts)}
    leq = t.leq
    out = set()
    for k, e in enumerate(exts):
        cands = set()
        for x, v in enumerate(e):
            for alpha in range(t.size):
                if alpha != v and leq(v, alpha):
                    seed = e[:x] + (alpha,) + e[x + 1:]
                    cands.add(close(t, rows, seed))
        for c in cands:
            if not any(d != c and all(leq(a, b) for a, b in zip(d, c)) for d in cands):
                _need(c in index, f"closure {c} is missing from the listing")
                out.add((k, index[c]))
    return out


def _lattice(job, out, prog, oracles):
    spec, rows, mode = job.data["spec"], job.data["rows"], job.data["mode"]
    t = Tables(spec)
    exts, ints, covers = parse_lattice(mode, out)
    if t.size ** len(rows) <= ORACLE_LIMIT:
        ctx = prog.fileio.context_from_dict({"algebra": spec, "objects": [f"a{i + 1}" for i in range(len(rows))],
                                             "attributes": [f"x{j + 1}" for j in range(len(rows[0]))], "I": rows})
        want = oracles.brute_force_concepts(ctx)
        _need(exts == [c.extent.degrees for c in want], "extents differ from the brute-force oracle")
        _need(ints == [c.intent.degrees for c in want], "intents differ from the brute-force oracle")
    else:
        # Every extent is a meet of basic extents (the empty meet is the
        # all-top vector), so a listing of stable extents that holds the
        # all-top vector and is closed under meets with the basic extents
        # is the whole lattice.
        _need(all(a < b for a, b in zip(exts, exts[1:])), "extents are not distinct and sorted")
        for e, u in zip(exts, ints):
            _need(up(t, rows, e) == u and down(t, rows, u) == e, f"unstable pair {e} / {u}")
        found = set(exts)
        _need((t.top,) * len(rows) in found, "the top extent is missing")
        basics = {tuple(t.res[a][row[j]] for row in rows) for a in range(t.size) for j in range(len(rows[0]))}
        meet = t.meet
        for e in exts:
            for b in basics:
                _need(tuple(meet[x][y] for x, y in zip(e, b)) in found, f"meet of {e} with a basic extent is missing")
    counts = {"concepts": len(exts)}
    if covers is not None:
        _need(covers == upper_covers(t, rows, exts), "covers differ from the upper neighbours")
        counts["cover_pairs"] = len(covers)
    return counts


# ---------------------------------------------------------------- validity


def _valid(job, out, prog, oracles):
    if job.want_code == 0:
        _need(out.strip() == "valid", f"expected 'valid', got {out.strip()[:60]!r}")
        return {}
    payload = json.loads(out)
    _need(payload["verdict"] == "invalid", "verdict is not 'invalid'")
    sequent = prog.syntax.parse_sequent(job.data["sequent"])
    frame = prog.fileio.frame_from_dict(job.data["frame"])
    base = frame.base
    alg = base.algebra
    counter = payload["countermodel"]
    _need(set(counter) == set(sequent.atoms()), "countermodel does not assign exactly the sequent's atoms")
    valuation = {
        name: prog.context.Concept(
            prog.mvsets.MvSet(alg, base.objects, c["extent"]), prog.mvsets.MvSet(alg, base.attributes, c["intent"])
        )
        for name, c in counter.items()
    }
    try:
        model = prog.semantics.Model(frame, valuation)
    except prog.errors.MvpolarError as e:
        raise Mismatch(f"countermodel is not a valuation: {e}") from None
    lhs = prog.semantics.evaluate(model, sequent.lhs).extent.degrees
    rhs = prog.semantics.evaluate(model, sequent.rhs).extent.degrees
    t = Tables(job.data["frame"]["algebra"])
    _need(not all(t.leq(a, b) for a, b in zip(lhs, rhs)), "replayed countermodel satisfies the sequent")
    checked, size = payload["valuations_checked"], payload["lattice_size"]
    _need(1 <= checked <= size ** len(counter), "valuations_checked is out of range")
    return {"valuations": checked}


def _axioms_frame(job, out, prog, oracles):
    if job.data["mode"] == "json":
        results = json.loads(out)
        _need(len(results) == 13 and all(r["ok"] for r in results), "not all 13 axioms and rules pass")
    else:
        lines = out.splitlines()
        _need(lines[-1] == "overall: PASS" and sum(line.startswith("PASS") for line in lines) == 13,
              "not all 13 axioms and rules pass")
    return {}


def _axioms_samples(job, out, prog, oracles):
    _need(out.strip() == f"{job.data['samples']} sampled frames: all axioms and rules hold", "sampled suite failed")
    return {}


# ---------------------------------------------------------------- canonical


def proper_maps(leq, size: int, filters: bool) -> list:
    """Proper filters (or ideals) of a lattice into a chain, by backtracking.

    A filter sends top to the chain's top and meets to minima; an ideal
    sends bottom to top and joins to minima.  Proper ones send the other
    bound to 0.
    """
    n = len(leq)
    table = lattice_bounds(leq, upper=not filters)
    top, bottom = lattice_top(leq), lattice_bottom(leq)
    one, zero = (top, bottom) if filters else (bottom, top)
    if one == zero:
        return []
    d = [None] * n
    d[one], d[zero] = size - 1, 0
    free = [i for i in range(n) if i not in (one, zero)]
    out = []

    def consistent():
        return all(
            d[table[i][j]] is None or d[table[i][j]] == min(d[i], d[j])
            for i in range(n) if d[i] is not None for j in range(n) if d[j] is not None
        )

    def go(pos):
        if not consistent():
            return
        if pos == len(free):
            out.append(tuple(d))
            return
        for v in range(size):
            d[free[pos]] = v
            go(pos + 1)
        d[free[pos]] = None

    go(0)
    return out


def canonical_answer(job) -> tuple:
    """(proper filters, proper ideals, compatible) of the canonical frame.

    The frame is rebuilt from the displayed sum formulas: objects are the
    proper filters, attributes the proper ideals, and each relation is the
    join over lattice elements of f(.) otimes i(.) with box or dia applied
    on one side.  Compatibility is then the stability of every scaled row
    and column under the checker's closures.
    """
    if "answer" in job.data:
        return job.data["answer"]
    leq, spec, box, dia = job.data["leq"], job.data["spec"], job.data["box"], job.data["dia"]
    t = Tables(spec)
    otimes = t.otimes
    fs, ids = proper_maps(leq, t.size, True), proper_maps(leq, t.size, False)
    n = len(leq)

    def total(f, g):  # the join over a chain is the maximum
        return max(otimes[f[a]][g[a]] for a in range(n))

    compatible = None
    if fs and ids:
        inc = [[total(f, i) for i in ids] for f in fs]
        r_box = [[total([f[box[a]] for a in range(n)], i) for i in ids] for f in fs]
        r_dia_t = [[total(f, [i[dia[a]] for a in range(n)]) for i in ids] for f in fs]
        compatible = _stable_images(t, inc, r_box) and _stable_images(t, inc, r_dia_t)
    job.data["answer"] = (len(fs), len(ids), compatible)
    return job.data["answer"]


def _stable_images(t: Tables, inc, rel) -> bool:
    """Scaled columns of rel are extents and scaled rows are intents of inc."""
    res = t.res
    for alpha in range(t.size):
        for j in range(len(rel[0])):
            col = tuple(res[alpha][row[j]] for row in rel)
            if close(t, inc, col) != col:
                return False
        for row in rel:
            image = tuple(res[alpha][v] for v in row)
            if up(t, inc, down(t, inc, image)) != image:
                return False
    return True


def _canonical_code(job) -> int:
    return 1 if canonical_answer(job)[2] is False else 0


_FRAME_LINE = re.compile(r"^canonical frame: (\d+) proper filters x (\d+) proper ideals$")


def _canonical(job, out, prog, oracles):
    n_filters, n_ideals, compatible = canonical_answer(job)
    if job.data["mode"] == "json" or compatible is False:
        payload = json.loads(out)
        _need(all(c["ok"] for c in payload["lemma_checks"] if c["required"]), "a required lemma fails")
        sur = payload["surrogate"]
        _need(sur["forms_agree"], "the displayed forms disagree")
        found = (sur["proper_filters"], sur["proper_ideals"], sur["compatible"])
    else:
        lines = out.splitlines()
        _need("overall (required items): PASS" in lines, "a required lemma fails")
        _need("displayed forms agree: yes" in lines, "the displayed forms disagree")
        counts = next(tuple(int(g) for g in m.groups()) for m in map(_FRAME_LINE.match, lines) if m)
        found = counts + ("compatibility: PASS" in lines,)
    _need(found == (n_filters, n_ideals, compatible), f"filters, ideals, compatible {found}, expected "
          f"{(n_filters, n_ideals, compatible)}")
    return {}


# ---------------------------------------------------------------- interactive


def _algebra(job, out, prog, oracles):
    if job.data["mode"] == "json":
        payload = json.loads(out)
        _need(payload["ok"] is True and payload["laws_checked"] > 0, "laws do not hold")
    else:
        _need(re.match(r"^\d+ laws hold for ", out) is not None, "laws do not hold")
    return {}


def _check(job, out, prog, oracles):
    if job.want_code == 0:
        _need(out.strip() == "true", f"expected 'true', got {out.strip()[:60]!r}")
        return {}
    # The sequent is top |- bot: the first object whose bottom-extent degree
    # is below top breaks it.
    frame = job.data["frame"]
    t = Tables(frame["algebra"])
    bottom = down(t, frame["I"], (t.top,) * len(frame["attributes"]))
    k = next(i for i, v in enumerate(bottom) if v != t.top)
    w = json.loads(out)["witness"]
    _need((w["object"], w["lhs_degree"], w["rhs_degree"]) == (frame["objects"][k], t.top, bottom[k]), "wrong witness")
    return {}


_LISTINGS = {"firm": 2, "market": 2, "basket": 2, "typicality-firm": 3, "typicality-market": 3, "box-refinement": 3}


def _arena(job, out, prog, oracles):
    op, frame = job.data["op"], job.data["frame"]
    if job.data["mode"] == "text":
        _need(out.startswith("query: operation="), "text report has no query line")
        return {}
    listings = json.loads(out)["listings"]
    _need(len(listings) == _LISTINGS[op], f"{len(listings)} listings for {op}")
    t = Tables(frame["algebra"])
    rows = frame["I"]
    n_obj, n_att = len(rows), len(rows[0])
    if op == "firm":
        k = int(job.data["seed"][len("firm"):]) - 1
        intent = up(t, rows, tuple(t.top if i == k else 0 for i in range(n_obj)))
        extent = down(t, rows, intent)
    elif op in ("market", "basket"):
        if op == "market":
            seed = {job.data["seed"]: t.top}
        else:
            seed = job.data["seed"]
        extent = down(t, rows, tuple(seed.get(f"mkt{j + 1}", 0) for j in range(n_att)))
        intent = up(t, rows, extent)
    else:
        return {}
    got = tuple(tuple(e["degree"] for e in listing["entries"]) for listing in listings)
    _need(got == (extent, intent), f"{op} concept differs from the checker's closure")
    return {}


# Jobs whose exit code the checker works out itself after the run.
EXPECTED_CODE = {"canonical": _canonical_code}

CHECKS = {
    "lattice": _lattice,
    "valid": _valid,
    "axioms-frame": _axioms_frame,
    "axioms-samples": _axioms_samples,
    "canonical": _canonical,
    "algebra": _algebra,
    "check": _check,
    "arena": _arena,
}
