"""Models, formula evaluation, sequent truth and validity.

Two evaluation routes are kept deliberately separate.  `evaluate` walks
the formula tree and recomputes every concept from the definitions; it
is the reference implementation.  `ComplexAlgebra` tabulates the lattice
operations and the modal maps once, and `_Program` compiles a formula or
a sequent once into a flat post-order list of lookups in those tables
over concept indices.  The validity search runs that list for each
assignment of the outer atoms, with the innermost atom's values as one
column, so each connective costs a pass over a column in C rather than
one Python-level lookup per valuation.  Tests compare the two routes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import getitem
from typing import Mapping, Optional

from .context import Concept, ConceptLattice, enumerate_concepts
from .errors import CapabilityError, InputError, ResourceError, UsageError
from .frames import EnrichedContext
from .mvsets import MvSet
from .syntax import Formula, Sequent, axiom_catalogue

DEFAULT_VALUATION_BUDGET = 1_000_000


class Model:
    """An enriched context together with a concept for every atom."""

    __slots__ = ("frame", "valuation")

    def __init__(self, frame: EnrichedContext, valuation: Mapping[str, Concept]):
        base = frame.base
        checked = {}
        for name, c in valuation.items():
            if not isinstance(c, Concept):
                raise InputError(f"valuation of {name!r} is not a concept")
            if c.extent.algebra != base.algebra or c.extent.carrier != base.objects:
                raise InputError(f"valuation of {name!r} lives on the wrong object set")
            if base.up(c.extent) != c.intent or base.down(c.intent) != c.extent:
                raise InputError(f"valuation of {name!r} is not a stable pair")
            checked[name] = c
        self.frame = frame
        self.valuation = checked

    def __repr__(self):
        return f"Model({self.frame!r}, atoms={sorted(self.valuation)})"


def evaluate(model: Model, formula: Formula, _memo: Optional[dict] = None) -> Concept:
    """The concept a formula denotes, computed from the definitions."""
    memo = {} if _memo is None else _memo
    if formula in memo:
        return memo[formula]
    base = model.frame.base
    op = formula.op
    if op == "atom":
        try:
            out = model.valuation[formula.name]
        except KeyError:
            raise UsageError(f"no valuation for atom {formula.name!r}") from None
    elif op == "top":
        ext = MvSet.constant(base.algebra, base.objects, base.algebra.top)
        out = Concept(ext, base.up(ext))
    elif op == "bot":
        intn = MvSet.constant(base.algebra, base.attributes, base.algebra.top)
        out = Concept(base.down(intn), intn)
    elif op == "and":
        lhs = evaluate(model, formula.args[0], memo)
        rhs = evaluate(model, formula.args[1], memo)
        ext = lhs.extent.meet(rhs.extent)
        out = Concept(ext, base.up(ext))
    elif op == "or":
        lhs = evaluate(model, formula.args[0], memo)
        rhs = evaluate(model, formula.args[1], memo)
        intn = lhs.intent.meet(rhs.intent)
        out = Concept(base.down(intn), intn)
    elif op == "box":
        out = model.frame.box_op(evaluate(model, formula.args[0], memo))
    elif op == "dia":
        out = model.frame.diamond_op(evaluate(model, formula.args[0], memo))
    elif op == "rhd":
        out = model.frame.rhd_op(evaluate(model, formula.args[0], memo))
    elif op == "lhd":
        out = model.frame.lhd_op(evaluate(model, formula.args[0], memo))
    else:
        raise UsageError(f"unknown connective {op!r}")
    memo[formula] = out
    return out


def membership_degree(model: Model, obj: str, formula: Formula) -> int:
    """Degree to which an object belongs to the formula's extent."""
    return evaluate(model, formula).extent.value(obj)


def description_degree(model: Model, attr: str, formula: Formula) -> int:
    """Degree to which an attribute describes the formula's concept."""
    return evaluate(model, formula).intent.value(attr)


def truth_witness(model: Model, sequent: Sequent) -> Optional[dict]:
    """None when the sequent holds, else the first object that breaks it."""
    memo: dict = {}
    lhs = evaluate(model, sequent.lhs, memo).extent
    rhs = evaluate(model, sequent.rhs, memo).extent
    alg = lhs.algebra
    for k, name in enumerate(lhs.carrier):
        a, b = lhs.degrees[k], rhs.degrees[k]
        if alg.meet(a, b) != a:
            return {"object": name, "lhs_degree": a, "rhs_degree": b}
    return None


def sequent_true(model: Model, sequent: Sequent) -> bool:
    """Whether the left extent is pointwise below the right extent."""
    return truth_witness(model, sequent) is None


class ComplexAlgebra:
    """Concept lattice of a frame with the modal maps tabulated.

    Formulas are evaluated on concept indices: `_Program` compiles them
    once into a flat list of lookups in these tables, and the validity
    search runs that list a whole column of the innermost atom at a time.
    """

    _OPS = (("box", "r_box", True), ("dia", "r_diamond", True), ("rhd", "r_rhd", False), ("lhd", "r_lhd", False))

    def __init__(self, frame: EnrichedContext, lattice: Optional[ConceptLattice] = None):
        self.frame = frame
        self.lattice = enumerate_concepts(frame.base) if lattice is None else lattice
        self.maps = {}
        fns = {"box": frame.box_op, "dia": frame.diamond_op, "rhd": frame.rhd_op, "lhd": frame.lhd_op}
        for op, slot, need in self._OPS:
            try:
                frame._require(slot, need_compatible=need)
            except CapabilityError:
                self.maps[op] = None
                continue
            fn = fns[op]
            self.maps[op] = tuple(self.lattice.index_of(fn(c)) for c in self.lattice)

    def __len__(self):
        return len(self.lattice)

    def _unary(self, op: str):
        table = self.maps[op]
        if table is None:
            slot, need = next((s, n) for o, s, n in self._OPS if o == op)
            self.frame._require(slot, need_compatible=need)
        return table

    def eval_indexed(self, formula: Formula, assignment: Mapping[str, int]) -> int:
        """Concept index of the formula under an atom-to-index assignment."""
        program = _Program(self, assignment)
        return program.run(program.formula(formula), assignment)

    def sequent_holds(self, sequent: Sequent, assignment: Mapping[str, int]) -> bool:
        program = _Program(self, assignment)
        return program.run(program.entailment(sequent), assignment)


# Step kinds.  A scalar step stores one concept index; a row step maps
# one column through a table row; a pair step looks up two columns
# entry by entry.
_SCALAR, _ROW, _PAIR = range(3)


def _run(steps, vals):
    for kind, dst, table, a, b in steps:
        if kind == _SCALAR:
            vals[dst] = table[vals[a]] if b is None else table[vals[a]][vals[b]]
        elif kind == _ROW:
            row = table if b is None else table[vals[b]]
            vals[dst] = tuple(map(row.__getitem__, vals[a]))
        else:
            vals[dst] = tuple(map(getitem, map(table.__getitem__, vals[a]), vals[b]))


class _Program:
    """Formulas compiled into one flat post-order program over concept indices.

    Each distinct subformula gets one slot, so formulas are hashed only
    here.  Visiting a connective checks its relation before its
    arguments, and an atom outside `known` is refused when reached, in
    the order a recursive evaluation would meet them.  A slot that
    depends on the atom `inner` holds a column: one concept index per
    value of that atom, in index order.  Steps that depend on no other
    atom are `fixed` and run once; the rest are `varying` and run once
    per assignment of the other atoms.
    """

    def __init__(self, algebra: ComplexAlgebra, known, inner: Optional[str] = None):
        self.algebra = algebra
        self.known = known
        self.inner = inner
        self.slots: dict = {}
        self.initial: list = []
        self.column: list = []
        self.varies: list = []
        self.atom_slots: dict = {}
        self.fixed: list = []
        self.varying: list = []

    def _slot(self, value, column: bool, varies: bool) -> int:
        self.initial.append(value)
        self.column.append(column)
        self.varies.append(varies)
        return len(self.initial) - 1

    def _step(self, kind, table, a, b=None) -> int:
        column = self.column[a] or (b is not None and self.column[b])
        varies = self.varies[a] or (b is not None and self.varies[b])
        dst = self._slot(None, column, varies)
        (self.varying if varies else self.fixed).append((kind, dst, table, a, b))
        return dst

    def _binary(self, table, a: int, b: int, symmetric: bool = True) -> int:
        if self.column[a] and self.column[b]:
            return self._step(_PAIR, table, a, b)
        if self.column[a]:
            return self._step(_ROW, table if symmetric else tuple(zip(*table)), a, b)
        if self.column[b]:
            return self._step(_ROW, table, b, a)
        return self._step(_SCALAR, table, a, b)

    def formula(self, f: Formula) -> int:
        slot = self.slots.get(f)
        if slot is not None:
            return slot
        lattice = self.algebra.lattice
        op = f.op
        if op == "atom":
            if f.name not in self.known:
                raise UsageError(f"no valuation for atom {f.name!r}")
            if f.name == self.inner:
                slot = self._slot(range(len(lattice)), True, False)
            else:
                slot = self.atom_slots[f.name] = self._slot(None, False, True)
        elif op == "top":
            slot = self._slot(lattice.top_index, False, False)
        elif op == "bot":
            slot = self._slot(lattice.bottom_index, False, False)
        elif op in ("and", "or"):
            table = lattice.meet_table if op == "and" else lattice.join_table
            slot = self._binary(table, self.formula(f.args[0]), self.formula(f.args[1]))
        else:
            table = self.algebra._unary(op)
            arg = self.formula(f.args[0])
            slot = self._step(_ROW if self.column[arg] else _SCALAR, table, arg)
        self.slots[f] = slot
        return slot

    def entailment(self, sequent: Sequent) -> int:
        """Slot of the truth value of lhs <= rhs in the lattice order."""
        lhs = self.formula(sequent.lhs)
        rhs = self.formula(sequent.rhs)
        return self._binary(self.algebra.lattice.order, lhs, rhs, symmetric=False)

    def start(self) -> list:
        """Slot values after the fixed steps; the other atoms' slots are still empty."""
        vals = list(self.initial)
        _run(self.fixed, vals)
        return vals

    def run(self, slot: int, assignment: Mapping[str, int]):
        """Value of a slot under a scalar assignment (no inner atom)."""
        vals = self.start()
        for name, s in self.atom_slots.items():
            vals[s] = assignment[name]
        _run(self.varying, vals)
        return vals[slot]


@dataclass(frozen=True)
class ValidityVerdict:
    valid: bool
    countermodel: Optional[dict]
    valuations_checked: int
    lattice_size: int

    def __bool__(self):
        return self.valid


def sequent_valid(
    frame: EnrichedContext,
    sequent: Sequent,
    budget: int = DEFAULT_VALUATION_BUDGET,
    algebra: Optional[ComplexAlgebra] = None,
) -> ValidityVerdict:
    """Check the sequent under every valuation of its atoms.

    Valuations are scanned in lexicographic order over the lattice's
    concept indices, so the reported countermodel is deterministic: it is
    the first one in that order.
    """
    ca = ComplexAlgebra(frame) if algebra is None else algebra
    atoms = sequent.atoms()
    size = len(ca.lattice)
    total = size ** len(atoms)
    if total > budget:
        raise ResourceError(
            f"{total} valuations of {len(atoms)} atoms over {size} concepts exceed the budget of {budget}"
        )
    program = _Program(ca, atoms, atoms[-1] if atoms else None)
    verdict = program.entailment(sequent)
    column = program.column[verdict]
    vals = program.start()
    outer_slots = [program.atom_slots[name] for name in atoms[:-1]]
    width = size if atoms else 1
    for k, combo in enumerate(itertools.product(range(size), repeat=len(outer_slots))):
        for slot, v in zip(outer_slots, combo):
            vals[slot] = v
        _run(program.varying, vals)
        holds = vals[verdict] if column else (vals[verdict],)
        if all(holds):
            continue
        x = holds.index(False)
        counter = {name: ca.lattice[i] for name, i in zip(atoms, combo + (x,))}
        return ValidityVerdict(False, counter, k * width + x + 1, size)
    return ValidityVerdict(True, None, total, size)


@dataclass(frozen=True)
class RuleResult:
    name: str
    kind: str
    ok: bool
    detail: Optional[dict] = None


@dataclass(frozen=True)
class SoundnessReport:
    ran: bool
    reason: str
    results: tuple = ()

    @property
    def ok(self) -> bool:
        return self.ran and all(r.ok for r in self.results)

    def to_text(self) -> str:
        if not self.ran:
            return f"soundness suite refused to run: {self.reason}"
        lines = []
        for r in self.results:
            lines.append(f"{'PASS' if r.ok else 'FAIL'}  {r.kind:5}  {r.name}")
        lines.append(f"overall: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def soundness_suite(frame: EnrichedContext, budget: int = DEFAULT_VALUATION_BUDGET) -> SoundnessReport:
    """Check every axiom and the two monotonicity rules on one frame.

    Frames whose relations fail the compatibility check get a report with
    ran=False: the modal operations are not concept-valued there, so
    passing or failing would be meaningless.
    """
    frame._require("r_box")
    frame._require("r_diamond")
    report = frame.compatibility
    if not report.ok:
        return SoundnessReport(False, report.describe())
    ca = ComplexAlgebra(frame)
    results = []
    for seq in axiom_catalogue():
        verdict = sequent_valid(frame, seq, budget=budget, algebra=ca)
        detail = None
        if not verdict.valid:
            detail = {name: repr(c) for name, c in verdict.countermodel.items()}
        results.append(RuleResult(str(seq), "axiom", verdict.valid, detail))
    size = len(ca.lattice)
    order = ca.lattice.order
    for op, label in (("box", "box preserves entailment"), ("dia", "dia preserves entailment")):
        table = ca.maps[op]
        bad = None
        for i in range(size):
            for j in range(size):
                if order[i][j] and not order[table[i]][table[j]]:
                    bad = {"below": repr(ca.lattice[i]), "above": repr(ca.lattice[j])}
                    break
            if bad:
                break
        results.append(RuleResult(label, "rule", bad is None, bad))
    return SoundnessReport(True, "", tuple(results))
