"""Command line front end.

Verbs: eval, check, member, closure, synthesize, verify-paper.  Exit codes:
0 success or PASS, 1 a valid run with a negative outcome (counterexample,
non-membership, failed verification), 2 usage or parse errors, 3 internal
consistency violations (decider versus oracle, or a lasso that fails replay).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Sequence

from . import __version__
from .algebra import Element, format_element, parse_element
from .decide import Equation, Lasso, QuasiQuery, cross_check, decide, replay
from .expressibility import (
    PrecompletenessReport,
    enumerate_closure,
    neg_delta_power_term,
    pairwise_distinct,
    preserves,
    synthesize_term,
    verify_precompleteness,
)
from .formulas import Formula, NamedFormula, ParseError, format_formula, parse
from .semantics import UnboundVariableError, evaluate, evaluate_closed

_DEFAULT_ORACLE_BOUND = 5
_BOUND_FROM_ENV = -1  # sentinel for "--oracle-bound with no value"


class InternalCheckError(Exception):
    """Decider, oracle and replay disagreed; a bug, not a user error."""


def _env_oracle_bound() -> int:
    raw = os.environ.get("MAGARI_ORACLE_BOUND", str(_DEFAULT_ORACLE_BOUND))
    try:
        bound = int(raw)
    except ValueError:
        raise ValueError(f"MAGARI_ORACLE_BOUND must be an integer, got {raw!r}") from None
    if bound < 0:
        raise ValueError(f"MAGARI_ORACLE_BOUND must be >= 0, got {bound}")
    return bound


def _resolve_bound(flag_value: int | None) -> int | None:
    if flag_value is None:
        return None
    if flag_value == _BOUND_FROM_ENV:
        return _env_oracle_bound()
    if flag_value < 0:
        raise ValueError(f"oracle bound must be >= 0, got {flag_value}")
    return flag_value


def _parse_equation(text: str) -> Equation:
    if text.count("=") != 1:
        raise ValueError(f"an equation needs exactly one '=': {text!r}")
    lhs, rhs = text.split("=")
    return Equation(parse(lhs), parse(rhs))


def _parse_assignments(pairs: Sequence[str] | None) -> dict[str, Element]:
    out: dict[str, Element] = {}
    for item in pairs or ():
        if "=" not in item:
            raise ValueError(f"assignment must look like var=ELEMENT, got {item!r}")
        name, _, text = item.partition("=")
        name = name.strip()
        if not name or not (name[0].isascii() and name[0].islower() and name[0].isalpha()):
            raise ValueError(f"bad variable name {name!r} in assignment {item!r}")
        out[name] = parse_element(text.strip())
    return out


def _load_signature(path: str) -> tuple[NamedFormula, ...]:
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if ":=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'name := formula'")
            name, _, body = stripped.partition(":=")
            entries.append(NamedFormula(name.strip(), parse(body)))
    return tuple(entries)


def _lasso_dict(lasso: Lasso) -> dict:
    assignment = {
        v: "".join(str(let[j]) for let in lasso.prefix) + f"({lasso.loop_letter[j]})"
        for j, v in enumerate(lasso.variables)
    }
    return {"violation_step": lasso.violation_step, "assignment": assignment}


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
        return
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for k, v in value.items():
                print(f"  {k}: {json.dumps(v) if isinstance(v, (dict, list)) else v}")
        elif isinstance(value, list):
            print(f"{key}:")
            for v in value:
                if isinstance(v, dict):
                    print("  - " + json.dumps(v))
                else:
                    print(f"  - {v}")
        else:
            print(f"{key}: {value}")


# === Commands ===


def _cmd_eval(args) -> int:
    started = time.perf_counter()
    formula = parse(args.formula)
    assignment = _parse_assignments(args.assign)
    value = evaluate(formula, assignment)
    _emit(
        {
            "command": "eval",
            "formula": format_formula(formula),
            "assignment": {v: format_element(e) for v, e in assignment.items()},
            "value": format_element(value),
            "duration_s": round(time.perf_counter() - started, 6),
            "version": __version__,
        },
        args.json,
    )
    return 0


def _cmd_check(args) -> int:
    started = time.perf_counter()
    hyps = tuple(_parse_equation(t) for t in args.hyp or ())
    concls = tuple(_parse_equation(t) for t in args.concl or ())
    query = QuasiQuery(hyps, concls)
    verdict = decide(query)

    report: dict = {
        "command": "check",
        "hypotheses": [f"{format_formula(e.lhs)} = {format_formula(e.rhs)}" for e in hyps],
        "conclusions": [f"{format_formula(e.lhs)} = {format_formula(e.rhs)}" for e in concls],
        "verdict": "Valid" if verdict.valid else "Counterexample",
    }
    if verdict.lasso is not None:
        if not replay(verdict.lasso, query):
            raise InternalCheckError("counterexample lasso failed exact replay")
        report["counterexample"] = _lasso_dict(verdict.lasso)

    bound = _resolve_bound(args.oracle_bound)
    if bound is not None:
        found, disagreement = cross_check(query, verdict, bound)
        report["oracle_bound"] = bound
        report["oracle_counterexample"] = (
            {v: format_element(e) for v, e in found.items()} if found is not None else None
        )
        if disagreement is not None:
            raise InternalCheckError(disagreement)

    report["duration_s"] = round(time.perf_counter() - started, 6)
    report["version"] = __version__
    _emit(report, args.json)
    return 0 if verdict.valid else 1


def _cmd_member(args) -> int:
    started = time.perf_counter()
    formula = parse(args.formula)
    inside = preserves(args.class_index, formula)
    _emit(
        {
            "command": "member",
            "class": args.class_index,
            "formula": format_formula(formula),
            "member": inside,
            "duration_s": round(time.perf_counter() - started, 6),
            "version": __version__,
        },
        args.json,
    )
    return 0 if inside else 1


def _cmd_closure(args) -> int:
    started = time.perf_counter()
    sigma = _load_signature(args.sigma)
    result = enumerate_closure(sigma, args.vars, args.depth, args.cap)
    _emit(
        {
            "command": "closure",
            "signature": [f"{e.name} := {format_formula(e.formula)}" for e in sigma],
            "vars": args.vars,
            "depth": args.depth,
            "cap": args.cap,
            "classes": [format_formula(f) for f in result.classes],
            "class_count": len(result.classes),
            "truncated": result.truncated,
            "duration_s": round(time.perf_counter() - started, 6),
            "version": __version__,
        },
        args.json,
    )
    return 0


def _cmd_synthesize(args) -> int:
    started = time.perf_counter()
    element = parse_element(args.element)
    term = synthesize_term(element)
    if evaluate_closed(term) != element:
        raise InternalCheckError("synthesized term does not evaluate back to the element")
    _emit(
        {
            "command": "synthesize",
            "element": format_element(element),
            "term": format_formula(term),
            "duration_s": round(time.perf_counter() - started, 6),
            "version": __version__,
        },
        args.json,
    )
    return 0


def _report_dict(r: PrecompletenessReport) -> dict:
    def verdict_str(v):
        if v is None:
            return None
        return "Valid" if v.valid else "Counterexample"

    return {
        "class": r.class_index,
        "formula": format_formula(r.formula),
        "outside_class": r.outside_class,
        "constant": format_element(r.constant) if r.constant is not None else None,
        "constant_differs": r.constant_differs,
        "negation_wrapper_in_class": r.negation_wrapper_in_class,
        "delta_wrapper_in_class": r.delta_wrapper_in_class,
        "negation_forward": verdict_str(r.negation_forward),
        "negation_backward": verdict_str(r.negation_backward),
        "delta_forward": verdict_str(r.delta_forward),
        "delta_backward": verdict_str(r.delta_backward),
        "oracle_agreed": r.oracle_agreed,
        "counterexamples": [_lasso_dict(l) for l in r.counterexamples],
        "passed": r.passed,
    }


def _cmd_verify_paper(args) -> int:
    started = time.perf_counter()
    if args.i_max < 1:
        raise ValueError(f"--i-max must be >= 1, got {args.i_max}")
    bound = _resolve_bound(args.oracle_bound)
    explicit = [parse(w) for w in args.witnesses.split(",")] if args.witnesses else None

    cells = []
    all_passed = True
    for i in range(1, args.i_max + 1):
        witnesses: list[Formula] = explicit if explicit is not None else [
            parse("!p"),
            parse("Dp"),
            neg_delta_power_term(i + 1),
        ]
        for w in witnesses:
            rep = verify_precompleteness(i, w, oracle_bound=bound)
            cells.append(_report_dict(rep))
            all_passed = all_passed and rep.passed

    separations = None
    if args.i_max >= 2:
        matrix = pairwise_distinct(args.i_max)
        separations = {f"{i},{j}": format_formula(t) for (i, j), t in sorted(matrix.items())}

    report = {
        "command": "verify-paper",
        "i_max": args.i_max,
        "oracle_bound": bound,
        "cells": cells,
        "separations": separations,
        "result": "PASS" if all_passed else "FAIL",
        "duration_s": round(time.perf_counter() - started, 6),
        "version": __version__,
    }
    if args.json:
        _emit(report, True)
    else:
        for cell in cells:
            line = f"i={cell['class']} witness={cell['formula']} {'PASS' if cell['passed'] else 'FAIL'}"
            print(line)
            if not cell["passed"]:
                for key in ("outside_class", "constant_differs", "negation_wrapper_in_class",
                            "delta_wrapper_in_class", "negation_forward", "negation_backward",
                            "delta_forward", "delta_backward", "oracle_agreed"):
                    print(f"  {key}: {cell[key]}")
                for lasso in cell["counterexamples"]:
                    print("  counterexample: " + json.dumps(lasso))
        if separations:
            print(f"pairwise separations: {len(separations)} confirmed")
        print(f"result: {report['result']}")
    return 0 if all_passed else 1


# === Entry points ===


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magari",
        description="Exact computation and decision procedures in the free Magari algebra "
        "of ultimately constant 0/1 sequences.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a formula under an element assignment")
    p.add_argument("formula")
    p.add_argument("--assign", action="append", metavar="VAR=ELEMENT",
                   help="bind a variable, e.g. p=010(1); repeatable")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check", help="decide a quasi-identity: hypotheses entail conclusions")
    p.add_argument("--hyp", action="append", metavar="LHS=RHS", help="hypothesis equation; repeatable")
    p.add_argument("--concl", action="append", metavar="LHS=RHS", required=True,
                   help="conclusion equation; repeatable")
    p.add_argument("--oracle-bound", nargs="?", type=int, const=_BOUND_FROM_ENV, default=None,
                   metavar="B", help="also run the exhaustive oracle up to prefix length B "
                   "(default from MAGARI_ORACLE_BOUND, else 5)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("member", help="test membership in a preserving class")
    p.add_argument("--class", dest="class_index", type=int, required=True, metavar="I")
    p.add_argument("formula")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("closure", help="enumerate semantic classes generated by a signature")
    p.add_argument("--sigma", required=True, metavar="FILE",
                   help="signature file, one 'name := formula' per line")
    p.add_argument("--vars", type=int, default=0)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--cap", type=int, default=64)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("synthesize", help="closed {0,D,!,&,|} term denoting an element")
    p.add_argument("element", help="element text, e.g. 010(1)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("verify-paper", help="verify the built-in precompleteness facts "
                       "for preserving classes 1..i_max")
    p.add_argument("--i-max", type=int, default=5)
    p.add_argument("--witnesses", metavar="F1,F2,...",
                   help="comma separated outside-class formulas; default per class i: "
                   "!p, Dp and the class-(i+1) constant term")
    p.add_argument("--oracle-bound", nargs="?", type=int, const=_BOUND_FROM_ENV, default=None, metavar="B")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
        return 0 if code == 0 else 2
    try:
        return args.func(args)
    except (ParseError, UnboundVariableError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return 2
    except (InternalCheckError, AssertionError) as e:
        print(f"internal consistency violation: {e}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
