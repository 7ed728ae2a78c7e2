"""The checker's own Galois closures, independent of the program.

Tables are rebuilt here from an algebra spec (the chain formulas, or the
tables of a custom spec), so no answer is checked with the code that
produced it.
"""

from __future__ import annotations

import random


def chain_ops(kind: str, n: int):
    """(join, meet, otimes, residuum) of the n-element chain of a kind.

    Lukasiewicz uses the truncated sum and difference; Goedel and boolean
    use minimum and the Goedel implication.
    """
    top = n - 1
    if kind == "lukasiewicz":
        return (max, min, lambda a, b: max(0, a + b - top), lambda a, b: min(top, top - a + b))
    return (max, min, min, lambda a, b: top if a <= b else b)


class Tables:
    """meet, otimes and residuum tables of one algebra spec, with its top."""

    def __init__(self, spec: dict):
        kind, n = spec["kind"], spec["size"]
        if kind == "custom":
            self.meet, self.otimes, self.res = (
                [list(r) for r in spec[name]] for name in ("meet", "otimes", "residuum")
            )
        else:
            _, meet, otimes, res = chain_ops(kind, n)
            self.meet, self.otimes, self.res = (
                [[op(a, b) for b in range(n)] for a in range(n)] for op in (meet, otimes, res)
            )
        self.size = n
        self.top = n - 1

    def leq(self, a: int, b: int) -> bool:
        return self.meet[a][b] == a


def up(t: Tables, rows, ext) -> tuple:
    """Intent of an object-side degree vector."""
    meet, res = t.meet, t.res
    out = []
    for j in range(len(rows[0])):
        v = t.top
        for i, row in enumerate(rows):
            v = meet[v][res[ext[i]][row[j]]]
        out.append(v)
    return tuple(out)


def down(t: Tables, rows, intn) -> tuple:
    """Extent of an attribute-side degree vector."""
    meet, res = t.meet, t.res
    out = []
    for row in rows:
        v = t.top
        for j, x in enumerate(row):
            v = meet[v][res[intn[j]][x]]
        out.append(v)
    return tuple(out)


def close(t: Tables, rows, ext) -> tuple:
    return down(t, rows, up(t, rows, ext))


def count_extents(t: Tables, rows, limit: int):
    """Number of concepts, or None once it exceeds limit.

    Every extent is a meet of basic extents (the scaled columns
    res[alpha][I(., x)]), the empty meet being the all-top vector, so
    closing the all-top vector under meets with the basic extents finds
    them all.
    """
    meet = t.meet
    basics = {tuple(t.res[a][row[j]] for row in rows) for a in range(t.size) for j in range(len(rows[0]))}
    top = (t.top,) * len(rows)
    found = {top}
    todo = [top]
    while todo:
        e = todo.pop()
        for b in basics:
            m = tuple(meet[x][y] for x, y in zip(e, b))
            if m not in found:
                if len(found) == limit:
                    return None
                found.add(m)
                todo.append(m)
    return len(found)


def has_two_concepts(context: dict) -> bool:
    """A context has one concept exactly when every incidence degree is top.

    The all-top vector is always an extent (the down-set of the bottom
    intent), and the row meets form the bottom extent; they coincide only
    when every entry is top.
    """
    top = context["algebra"]["size"] - 1
    return any(v != top for row in context["I"] for v in row)


def random_valuation(rng: random.Random, frame: dict, atoms) -> dict:
    """Stable extents for the given atoms, closed from random seeds."""
    t = Tables(frame["algebra"])
    rows = frame["I"]
    return {a: {"extent": list(close(t, rows, [rng.randrange(t.size) for _ in rows]))} for a in atoms}
