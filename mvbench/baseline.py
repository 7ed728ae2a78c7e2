"""Probes run by the traced run beside its spans.

``closure_probe`` times single ``Context.concept_of`` calls.  ``rows``
regenerates the ROADMAP baseline-table rows that finish within about a
minute, each on the workload whose layer it times.  The L5 10x10 row
(about 210 s at the seed commit) is left out: it cannot run on every
check.  Contexts and frames come from ``random.Random(1)``, which
reproduces the table's 428 and 1320 concepts.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

BASELINE_SEED = 1
PROBE_SEEDS = 8


def closure_probe(prog, contexts, seed: int) -> float:
    """Median microseconds of one concept_of on random seeds of the given contexts."""
    rng = random.Random(f"closure-{seed}")
    times = []
    for ctx in contexts:
        alg = ctx.algebra
        for _ in range(PROBE_SEEDS):
            seed_set = prog.mvsets.MvSet(alg, ctx.objects, [rng.randrange(alg.size) for _ in ctx.objects])
            start = perf_counter()
            ctx.concept_of(seed_set)
            times.append(perf_counter() - start)
    return statistics.median(times) * 1e6 if times else 0.0


def _lattice_rows(prog):
    out = []
    for label, algebra, n in (("L3 10x10", prog.algebra.lukasiewicz_chain(3), 10),
                              ("L5 8x8", prog.algebra.lukasiewicz_chain(5), 8)):
        ctx = prog.sampling.random_context(random.Random(BASELINE_SEED), algebra, n, n)
        start = perf_counter()
        lattice = prog.context.enumerate_concepts(ctx)
        enum_s = perf_counter() - start
        start = perf_counter()
        lattice.meet_table, lattice.join_table
        tables_s = perf_counter() - start
        start = perf_counter()
        covers = lattice.covers()
        covers_s = perf_counter() - start
        out.append({"row": f"enumerate_concepts, {label}", "concepts": len(lattice), "enum_s": enum_s,
                    "meet_join_tables_s": tables_s, "covers_s": covers_s, "cover_pairs": len(covers)})
    return out


def _validity_rows(prog):
    frame = prog.sampling.random_compatible_frame(random.Random(BASELINE_SEED), prog.algebra.lukasiewicz_chain(3), 4, 4)
    algebra = prog.semantics.ComplexAlgebra(frame)
    algebra.lattice.meet_table, algebra.lattice.join_table
    out = []
    for label, text in (("3 atoms", "p & q & r |- p | r"), ("3 atoms, with top", "p & q & r |- (p | r) & top")):
        sequent = prog.syntax.parse_sequent(text)
        runs = []
        for _ in range(3):
            start = perf_counter()
            verdict = prog.semantics.sequent_valid(frame, sequent, algebra=algebra)
            runs.append(perf_counter() - start)
        out.append({"row": f"sequent_valid, L3 4x4 frame, {label}", "sequent": text, "concepts": len(algebra),
                    "valuations": verdict.valuations_checked,
                    "us_per_valuation": statistics.median(runs) * 1e6 / verdict.valuations_checked})
    return out


def _canonical_rows(prog):
    lattice = prog.canonical.chain_modal_lattice(7)
    algebra = prog.algebra.lukasiewicz_chain(5)
    start = perf_counter()
    filters = prog.canonical.enumerate_filters(lattice, algebra)
    return [{"row": "enumerate_filters, chain7 over L5", "candidate_maps": algebra.size ** len(lattice),
             "filters": len(filters), "seconds": perf_counter() - start}]


ROWS = {"lattice": _lattice_rows, "validity": _validity_rows, "canonical": _canonical_rows}


def rows(workload: str, prog) -> list:
    return ROWS[workload](prog) if workload in ROWS else []
