"""Command-line surface.

Exit codes: 0 when the command's question is answered positively (laws
hold, sequent true/valid, suites pass), 1 when it is answered negatively
(a machine-readable witness object is printed first), 2 on input or
usage errors (an error object goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .algebra import validate_algebra
from .canonical import build_surrogate, canonical_parts, lemma_suite
from .context import enumerate_concepts
from .errors import InputError, MvpolarError, UsageError
from .fileio import algebra_from_spec, load_context, load_frame, load_model, load_modal_lattice
from .market import (
    AnalysisReport,
    basket_category,
    box_refinement_analysis,
    concept_report,
    firm_category,
    load_arena,
    market_category,
    typicality_analysis,
)
from .sampling import DEFAULT_SEED, make_rng, random_compatible_frame
from .semantics import sequent_valid, soundness_suite, truth_witness
from .syntax import parse_sequent


def _print_json(obj):
    print(json.dumps(obj, sort_keys=True, indent=2))


def _concept_json(c):
    return {"extent": list(c.extent.degrees), "intent": list(c.intent.degrees)}


def _cmd_algebra(args) -> int:
    alg = algebra_from_spec(args.algebra)
    report = validate_algebra(alg)
    if report.ok:
        if args.out == "json":
            _print_json({"algebra": repr(alg), "laws_checked": len(report.checks), "ok": True})
        else:
            print(f"{len(report.checks)} laws hold for {alg!r}")
        return 0
    _print_json(
        {
            "ok": False,
            "failures": [
                {"law": c.law, "counterexample": list(c.counterexample)} for c in report.failures()
            ],
        }
    )
    return 1


def _cmd_lattice(args) -> int:
    ctx = load_context(args.context)
    lattice = enumerate_concepts(ctx, budget=args.budget)
    if args.out == "dot":
        print(lattice.to_dot())
    elif args.out == "json":
        _print_json(
            {
                "concepts": [_concept_json(c) for c in lattice],
                "covers": [list(pair) for pair in lattice.covers()],
            }
        )
    else:
        for i, c in enumerate(lattice):
            print(f"{i}: {c!r}")
        print(f"{len(lattice)} concepts")
    return 0


def _cmd_check(args) -> int:
    model = load_model(args.model)
    sequent = parse_sequent(args.sequent)
    witness = truth_witness(model, sequent)
    if witness is None:
        print("true")
        return 0
    alg = model.frame.base.algebra
    _print_json(
        {
            "holds": False,
            "sequent": str(sequent),
            "witness": {
                "object": witness["object"],
                "lhs_degree": witness["lhs_degree"],
                "rhs_degree": witness["rhs_degree"],
                "lhs_value": alg.format_value(witness["lhs_degree"]),
                "rhs_value": alg.format_value(witness["rhs_degree"]),
            },
        }
    )
    return 1


def _cmd_valid(args) -> int:
    frame = load_frame(args.frame)
    sequent = parse_sequent(args.sequent)
    verdict = sequent_valid(frame, sequent, budget=args.budget)
    if verdict.valid:
        print("valid")
        return 0
    _print_json(
        {
            "verdict": "invalid",
            "sequent": str(sequent),
            "lattice_size": verdict.lattice_size,
            "valuations_checked": verdict.valuations_checked,
            "countermodel": {name: _concept_json(c) for name, c in verdict.countermodel.items()},
        }
    )
    return 1


def _soundness_json(report):
    return [
        {"name": r.name, "kind": r.kind, "ok": r.ok, "detail": r.detail} for r in report.results
    ]


def _cmd_axioms(args) -> int:
    if (args.frame is None) == (args.samples is None):
        raise UsageError("give exactly one of --frame or --samples")
    if args.frame is not None:
        report = soundness_suite(load_frame(args.frame), budget=args.budget)
        if not report.ran:
            raise InputError(report.reason)
        if report.ok:
            print(report.to_text() if args.out == "text" else json.dumps(_soundness_json(report), sort_keys=True, indent=2))
            return 0
        _print_json({"ok": False, "results": _soundness_json(report)})
        return 1
    alg = algebra_from_spec(args.algebra)
    rng = make_rng(args.seed)
    failures = []
    for k in range(args.samples):
        frame = random_compatible_frame(rng, alg, args.objects, args.attributes)
        report = soundness_suite(frame, budget=args.budget)
        if not report.ok:
            failures.append({"sample": k, "results": _soundness_json(report)})
    if not failures:
        print(f"{args.samples} sampled frames: all axioms and rules hold")
        return 0
    _print_json({"ok": False, "failures": failures})
    return 1


def _cmd_canonical(args) -> int:
    lattice = load_modal_lattice(args.lattice)
    alg = algebra_from_spec(args.algebra)
    parts = canonical_parts(lattice, alg, budget=args.budget)
    report = lemma_suite(parts)
    surrogate = None
    surrogate_note = ""
    try:
        surrogate = build_surrogate(parts)
    except InputError as e:
        surrogate_note = str(e)
    ok = report.ok
    lines = [report.to_text()]
    payload = {
        "lemma_checks": [
            {
                "name": c.name,
                "required": c.required,
                "ok": c.ok,
                "failure_count": c.failure_count,
            }
            for c in report.checks
        ]
    }
    if surrogate is not None:
        comp_ok = surrogate.compatibility.ok
        forms_ok = surrogate.diamond_forms_agree and surrogate.box_forms_agree
        ok = ok and comp_ok and forms_ok
        lines.append(
            f"canonical frame: {len(surrogate.filters)} proper filters x {len(surrogate.ideals)} proper ideals"
        )
        lines.append(f"displayed forms agree: {'yes' if forms_ok else 'NO'}")
        lines.append(f"compatibility: {'PASS' if comp_ok else 'FAIL'}")
        payload["surrogate"] = {
            "proper_filters": len(surrogate.filters),
            "proper_ideals": len(surrogate.ideals),
            "forms_agree": forms_ok,
            "compatible": comp_ok,
        }
    else:
        lines.append(f"canonical frame not built: {surrogate_note}")
        payload["surrogate"] = None
    if ok:
        print("\n".join(lines) if args.out == "text" else json.dumps(payload, sort_keys=True, indent=2))
        return 0
    payload["ok"] = False
    _print_json(payload)
    return 1


def _report_out(report: AnalysisReport, out: str) -> int:
    if out == "json":
        _print_json(report.to_json_dict())
    else:
        print(report.to_text())
    return 0


def _cmd_arena(args) -> int:
    arena = load_arena(args.arena)
    op = args.op
    if op == "firm":
        if args.firm is None:
            raise UsageError("--op firm needs --firm")
        c = firm_category(arena, args.firm)
        report = concept_report(
            arena,
            {"operation": "firm_category", "firm": args.firm},
            c,
            (
                f"meet over markets x of (I({args.firm}, x) -> I(b, x))",
                "how far each firm b is at least as active as the given firm on every market",
            ),
            (f"I({args.firm}, x)", "how active the given firm is on each market"),
        )
    elif op == "market":
        if args.market is None:
            raise UsageError("--op market needs --market")
        c = market_category(arena, args.market)
        report = concept_report(
            arena,
            {"operation": "market_category", "market": args.market},
            c,
            (f"I(a, {args.market})", "how active each firm is on the given market"),
            (
                f"meet over firms a of (I(a, {args.market}) -> I(a, y))",
                "how far each market y is served by every producer of the given one",
            ),
        )
    elif op == "basket":
        if not args.weights:
            raise UsageError("--op basket needs --weights")
        try:
            weights = json.loads(args.weights)
        except json.JSONDecodeError as e:
            raise InputError(f"--weights is not valid JSON: {e}") from None
        if not isinstance(weights, dict):
            raise InputError("--weights must be a JSON object of market -> degree index")
        c = basket_category(arena, weights)
        report = concept_report(
            arena,
            {"operation": "basket_category", "weights": weights},
            c,
            (
                "meet over markets x of (weight(x) -> I(a, x))",
                "how far each firm caters to the whole basket",
            ),
            ("upper derivative of the basket extent", "the basket's closed market profile"),
        )
    elif op == "typicality":
        if (args.firm is None) == (args.market is None):
            raise UsageError("--op typicality needs exactly one of --firm or --market as the seed")
        if args.firm is not None:
            seed = firm_category(arena, args.firm)
        else:
            seed = market_category(arena, args.market)
        report = typicality_analysis(arena, args.kind, seed)
    elif op == "box-refinement":
        if args.firm is None:
            raise UsageError("--op box-refinement needs --firm")
        report = box_refinement_analysis(arena, args.firm)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown arena operation {op!r}")
    return _report_out(report, args.out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mvpolar", description="many-valued concept lattices and modal analyses")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("algebra", help="validate a truth algebra")
    p.add_argument("--algebra", required=True, help='inline spec like "lukasiewicz:5" or a JSON file path')
    p.add_argument("--out", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_algebra)

    p = sub.add_parser("lattice", help="enumerate the concepts of a context")
    p.add_argument("--context", required=True)
    p.add_argument("--out", choices=("text", "json", "dot"), default="text")
    p.add_argument("--budget", type=int, default=100_000)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("check", help="check a sequent on one model")
    p.add_argument("--model", required=True)
    p.add_argument("--sequent", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("valid", help="check a sequent under every valuation on a frame")
    p.add_argument("--frame", required=True)
    p.add_argument("--sequent", required=True)
    p.add_argument("--budget", type=int, default=1_000_000)
    p.set_defaults(func=_cmd_valid)

    p = sub.add_parser("axioms", help="run the soundness suite on a frame or on sampled frames")
    p.add_argument("--frame")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--algebra", default="lukasiewicz:3")
    p.add_argument("--objects", type=int, default=2)
    p.add_argument("--attributes", type=int, default=2)
    p.add_argument("--budget", type=int, default=1_000_000)
    p.add_argument("--out", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("canonical", help="lemma suite and canonical frame of a modal lattice")
    p.add_argument("--lattice", required=True)
    p.add_argument("--algebra", required=True)
    p.add_argument("--budget", type=int, default=1_000_000)
    p.add_argument("--out", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("arena", help="competition analyses over an arena file")
    p.add_argument("--arena", required=True)
    p.add_argument("--op", required=True, choices=("firm", "market", "basket", "typicality", "box-refinement"))
    p.add_argument("--firm")
    p.add_argument("--market")
    p.add_argument("--weights", help="JSON object mapping markets to degree indices")
    p.add_argument("--kind", choices=("rhd_over_concept", "lhd_over_concept"), default="rhd_over_concept")
    p.add_argument("--out", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_arena)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MvpolarError as e:
        sys.stderr.write(json.dumps({"error": type(e).__name__, "message": str(e)}, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
