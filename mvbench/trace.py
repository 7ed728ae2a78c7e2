"""Span recorder wrapped around the public entry points of each module.

``install`` replaces every binding of each wrapped object across the
loaded ``mvpolar.*`` modules (module globals, re-exports and class
attributes) and returns an undo list; a wrapped name that no longer
exists raises, so a rename cannot silently drop a layer.  Spans live in
memory: name, start, end, parent span and job id.  Counts are read from
arguments and return values only.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


CONTEXTS_KEPT = 32


class Recorder:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, job, counts]
        self.stack = []
        self.job = -1
        self.contexts = []  # Context objects seen, for the closure probe
        self.first_seen = set()
        self._alive = []

    def begin_job(self, job: int):
        self.job = job
        self.first_seen.clear()
        self._alive.clear()

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.job, None])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def keep_context(self, ctx):
        if len(self.contexts) < CONTEXTS_KEPT:
            self.contexts.append(ctx)

    def first_access(self, obj, key: str) -> bool:
        """True the first time a lazy property is read on obj in this job."""
        tag = (id(obj), key)
        if tag in self.first_seen:
            return False
        self.first_seen.add(tag)
        self._alive.append(obj)  # keeps id(obj) from being reused within the job
        return True

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job, counts in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]


def _counts_len(key):
    return lambda rec, args, out: {key: len(out)}


def _count_valuations(rec, args, out):
    return {"valuations": out.valuations_checked}


def _count_candidates(key):
    def count(rec, args, out):
        lattice, algebra = args[0], args[1]
        return {"candidate_maps": algebra.size ** len(lattice), key: len(out)}

    return count


def _count_singletons(rec, args, out):
    report = args[0].compatibility
    rec.keep_context(args[0].base)
    return {"singleton_checks": sum(len(g) for g in (report.box_checks, report.diamond_checks) if g)}


def _capture_context(rec, args, out):
    rec.keep_context(args[0])
    return {"concepts": len(out)}


def _one(rec, args, out):
    return {"calls": 1}


# (span name, module, attribute path, counter).  A counter of "lazy" marks a
# cached property: only its first read on an object in a job is a span.
TARGETS = (
    ("context.enum", "mvpolar.context", "enumerate_concepts", _capture_context),
    ("context.tables", "mvpolar.context", "ConceptLattice.__init__", None),
    ("context.tables", "mvpolar.context", "ConceptLattice.meet_table", "lazy"),
    ("context.tables", "mvpolar.context", "ConceptLattice.join_table", "lazy"),
    ("context.covers", "mvpolar.context", "ConceptLattice.covers", _counts_len("cover_pairs")),
    ("semantics.complex_algebra", "mvpolar.semantics", "ComplexAlgebra.__init__", None),
    ("semantics.valid", "mvpolar.semantics", "sequent_valid", _count_valuations),
    ("semantics.soundness", "mvpolar.semantics", "soundness_suite", None),
    ("semantics.evaluate", "mvpolar.semantics", "evaluate", None),
    ("canonical.filters", "mvpolar.canonical", "enumerate_filters", _count_candidates("filters_found")),
    ("canonical.ideals", "mvpolar.canonical", "enumerate_ideals", _count_candidates("ideals_found")),
    ("canonical.lemma", "mvpolar.canonical", "lemma_suite", None),
    ("canonical.surrogate", "mvpolar.canonical", "build_surrogate", None),
    ("frames.compat", "mvpolar.frames", "EnrichedContext.__init__", _count_singletons),
    ("sampling.frame", "mvpolar.sampling", "random_compatible_frame", _one),
    ("algebra.validate", "mvpolar.algebra", "validate_algebra", _one),
    ("syntax.parse", "mvpolar.syntax", "parse_sequent", _one),
    ("fileio.load", "mvpolar.fileio", "algebra_from_spec", _one),
    ("fileio.load", "mvpolar.fileio", "load_context", _one),
    ("fileio.load", "mvpolar.fileio", "load_frame", _one),
    ("fileio.load", "mvpolar.fileio", "load_model", _one),
    ("fileio.load", "mvpolar.fileio", "load_modal_lattice", _one),
    ("market.analysis", "mvpolar.market", "load_arena", _one),
    ("market.analysis", "mvpolar.market", "firm_category", _one),
    ("market.analysis", "mvpolar.market", "market_category", _one),
    ("market.analysis", "mvpolar.market", "basket_category", _one),
    ("market.analysis", "mvpolar.market", "typicality_analysis", _one),
    ("market.analysis", "mvpolar.market", "box_refinement_analysis", _one),
)


def _wrap(rec: Recorder, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if counter is not None:
            rec.spans[idx][5] = counter(rec, args, out)
        return out

    return wrapper


def _wrap_lazy(rec: Recorder, name: str, prop: property, key: str) -> property:
    fget = prop.fget

    def getter(obj):
        if not rec.first_access(obj, key):
            return fget(obj)
        idx = rec.open(name)
        try:
            return fget(obj)
        finally:
            rec.close(idx)

    return property(getter, prop.fset, prop.fdel, prop.__doc__)


def install(rec: Recorder):
    """Wrap every target; returns the (holder, attribute, original) undo list."""
    undo = []
    modules = [m for k, m in list(sys.modules.items()) if k == "mvpolar" or k.startswith("mvpolar.")]
    for name, module_name, path, counter in TARGETS:
        module = sys.modules.get(module_name)
        if module is None:
            raise RuntimeError(f"traced module {module_name} is not loaded")
        head, _, attr = path.rpartition(".")
        if head:
            holder = getattr(module, head, None)
            if holder is None or attr not in vars(holder):
                raise RuntimeError(f"traced name {module_name}.{path} no longer exists")
            original = vars(holder)[attr]
            if counter == "lazy":
                wrapped = _wrap_lazy(rec, name, original, path)
            else:
                wrapped = _wrap(rec, name, original, counter)
            undo.append((holder, attr, original))
            setattr(holder, attr, wrapped)
            continue
        if not hasattr(module, attr):
            raise RuntimeError(f"traced name {module_name}.{path} no longer exists")
        original = getattr(module, attr)
        wrapped = _wrap(rec, name, original, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapped)
    return undo


def uninstall(undo):
    for holder, attr, original in reversed(undo):
        setattr(holder, attr, original)


# ---------------------------------------------------------------- layers

TIME_METRICS = {
    "context.enum_s": "context.enum",
    "context.covers_s": "context.covers",
    "context.tables_s": "context.tables",
    "semantics.complex_algebra_s": "semantics.complex_algebra",
    "semantics.valid_s": "semantics.valid",
    "semantics.soundness_s": "semantics.soundness",
    "semantics.evaluate_s": "semantics.evaluate",
    "canonical.filters_s": "canonical.filters",
    "canonical.ideals_s": "canonical.ideals",
    "canonical.lemma_s": "canonical.lemma",
    "canonical.surrogate_s": "canonical.surrogate",
    "frames.compat_s": "frames.compat",
    "sampling.frame_s": "sampling.frame",
    "algebra.validate_s": "algebra.validate",
    "syntax.parse_s": "syntax.parse",
    "fileio.load_s": "fileio.load",
    "market.analysis_s": "market.analysis",
    "cli.self_s": "cli",
}
COUNT_METRICS = {
    "context.concepts": (("context.enum",), "concepts"),
    "context.cover_pairs": (("context.covers",), "cover_pairs"),
    "semantics.valuations": (("semantics.valid",), "valuations"),
    "canonical.candidate_maps": (("canonical.filters", "canonical.ideals"), "candidate_maps"),
    "canonical.filters_found": (("canonical.filters",), "filters_found"),
    "canonical.ideals_found": (("canonical.ideals",), "ideals_found"),
    "frames.singleton_checks": (("frames.compat",), "singleton_checks"),
    "sampling.frames": (("sampling.frame",), "calls"),
    "algebra.validate_calls": (("algebra.validate",), "calls"),
    "syntax.parse_calls": (("syntax.parse",), "calls"),
    "fileio.load_calls": (("fileio.load",), "calls"),
    "market.analysis_calls": (("market.analysis",), "calls"),
}


def layer_metrics(rec: Recorder) -> dict:
    """(value, unit) per layer metric: self seconds and counts summed over
    the traced jobs, and the ratios derived from them."""
    self_s = rec.self_times()
    by_span: dict = {}
    for span, t in zip(rec.spans, self_s):
        by_span[span[0]] = by_span.get(span[0], 0.0) + t
    out = {metric: (by_span.get(span, 0.0), "s") for metric, span in TIME_METRICS.items()}
    for metric, (names, key) in COUNT_METRICS.items():
        out[metric] = (sum((s[5] or {}).get(key, 0) for s in rec.spans if s[0] in names), "count")
    value = {k: v for k, (v, _) in out.items()}
    out["context.enum_us_per_concept"] = (_ratio(value["context.enum_s"] * 1e6, value["context.concepts"]), "us")
    out["semantics.us_per_valuation"] = (_ratio(value["semantics.valid_s"] * 1e6, value["semantics.valuations"]), "us")
    found = value["canonical.filters_found"] + value["canonical.ideals_found"]
    out["canonical.filter_yield"] = (_ratio(found, value["canonical.candidate_maps"]), "ratio")
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def job_counts(rec: Recorder, job: int) -> dict:
    """Counts one job's answer also shows: concepts, cover pairs and, for a
    top-level validity check, valuations."""
    out = {}
    for name, start, end, parent, j, counts in rec.spans:
        if j != job or not counts:
            continue
        if name in ("context.enum", "context.covers"):
            for key, value in counts.items():
                out[key] = out.get(key, 0) + value
        elif name == "semantics.valid" and parent >= 0 and rec.spans[parent][0] == "cli":
            out["valuations"] = counts["valuations"]
    return out
