"""Command line front end.

Verbs: eval, check, member, closure, synthesize, verify-paper.  Exit codes:
0 success or PASS, 1 a valid run with a negative outcome (counterexample,
non-membership, failed verification), 2 usage or parse errors and running out
of memory, 3 internal consistency violations: any AssertionError, such as a
disagreement that decide.check_verdict raises (decider versus oracle, or a
lasso that fails replay) in check and verify-paper alike.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from functools import cache
from typing import Sequence

from . import __version__
from .algebra import Element, format_element, parse_element
from .decide import Equation, Lasso, QuasiQuery, Verdict, check_verdict, decide
from .expressibility import (
    PrecompletenessReport,
    enumerate_closure,
    neg_delta_power_term,
    pairwise_distinct,
    preserves,
    synthesize_term,
    verify_precompleteness,
)
from .formulas import NamedFormula, ParseError, Var, format_formula, parse
from .semantics import UnboundVariableError, evaluate, evaluate_closed

_DEFAULT_ORACLE_BOUND = 5
_BOUND_FROM_ENV = object()  # const of a bare --oracle-bound; argparse would run a str const through int


def _resolve_bound(flag_value: int | object | None) -> int | None:
    """The --oracle-bound value: None when absent, MAGARI_ORACLE_BOUND (else 5) when bare."""
    source = "oracle bound"
    if flag_value is _BOUND_FROM_ENV:
        source = "MAGARI_ORACLE_BOUND"
        raw = os.environ.get(source, str(_DEFAULT_ORACLE_BOUND))
        try:
            flag_value = int(raw)
        except ValueError:
            raise ValueError(f"{source} must be an integer, got {raw!r}") from None
    if flag_value is not None and flag_value < 0:
        raise ValueError(f"{source} must be >= 0, got {flag_value}")
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
        try:
            named = parse(name) == Var(name)  # formulas alone defines an identifier
        except ParseError:
            named = False
        if not named:
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
            name, sep, body = stripped.partition(":=")
            if not sep or not name.strip():
                raise ValueError(f"{path}:{lineno}: expected 'name := formula'")
            try:
                entries.append(NamedFormula(name.strip(), parse(body)))
            except ParseError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
    return tuple(entries)


def _lasso_dict(lasso: Lasso) -> dict:
    assignment = {
        v: "".join(str(let[j]) for let in lasso.prefix) + f"({lasso.loop_letter[j]})"
        for j, v in enumerate(lasso.variables)
    }
    return {"violation_step": lasso.violation_step, "assignment": assignment}


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report))
    elif report["command"] == "verify-paper":
        _print_summary(report)
    else:
        _print_fields(report)


def _print_fields(report: dict) -> None:
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for k, v in value.items():
                print(f"  {k}: {json.dumps(v) if isinstance(v, (dict, list)) else v}")
        elif isinstance(value, list):
            print(f"{key}:")
            for v in value:
                print(f"  - {v}")
        else:
            print(f"{key}: {value}")


def _print_summary(report: dict) -> None:
    """verify-paper's text mode: one line per cell, the reasons of a failed one."""
    for cell in report["cells"]:
        print(f"i={cell['class']} witness={cell['formula']} {'PASS' if cell['passed'] else 'FAIL'}")
        if not cell["passed"]:
            for key in ("outside_class", "negation_wrapper_in_class",
                        "delta_wrapper_in_class", "negation_forward", "negation_backward",
                        "delta_forward", "delta_backward"):
                print(f"  {key}: {cell[key]}")
            for lasso in cell["counterexamples"]:
                print("  counterexample: " + json.dumps(lasso))
    if n := len(report["separations"] or ()):
        print(f"pairwise separations: {n * (n - 1)} confirmed")
    print(f"result: {report['result']}")


# === Commands ===
# Each returns its exit code and its own report fields; main adds the envelope.


def _cmd_eval(args) -> tuple[int, dict]:
    formula = parse(args.formula)
    assignment = _parse_assignments(args.assign)
    value = evaluate(formula, assignment)
    return 0, {
        "formula": format_formula(formula),
        "assignment": {v: format_element(e) for v, e in assignment.items()},
        "value": format_element(value),
    }


def _cmd_check(args) -> tuple[int, dict]:
    hyps = tuple(_parse_equation(t) for t in args.hyp or ())
    concls = tuple(_parse_equation(t) for t in args.concl or ())
    bound = _resolve_bound(args.oracle_bound)
    query = QuasiQuery(hyps, concls)
    verdict = decide(query)
    found = check_verdict(query, verdict, bound)

    report: dict = {
        "hypotheses": [f"{format_formula(e.lhs)} = {format_formula(e.rhs)}" for e in hyps],
        "conclusions": [f"{format_formula(e.lhs)} = {format_formula(e.rhs)}" for e in concls],
        "verdict": _json_value(verdict),
    }
    if verdict.lasso is not None:
        report["counterexample"] = _lasso_dict(verdict.lasso)
    if bound is not None:
        report["oracle_bound"] = bound
        report["oracle_counterexample"] = (
            {v: format_element(e) for v, e in found.items()} if found is not None else None
        )
    return (0 if verdict.valid else 1), report


def _cmd_member(args) -> tuple[int, dict]:
    formula = parse(args.formula)
    inside = preserves(args.class_index, formula)
    return (0 if inside else 1), {
        "class": args.class_index,
        "formula": format_formula(formula),
        "member": inside,
    }


def _cmd_closure(args) -> tuple[int, dict]:
    sigma = _load_signature(args.sigma)
    result = enumerate_closure(sigma, args.vars, args.depth, args.cap)
    return 0, {
        "signature": [f"{e.name} := {format_formula(e.formula)}" for e in sigma],
        "vars": args.vars,
        "depth": args.depth,
        "cap": args.cap,
        "classes": [format_formula(f) for f in result.classes],
        "class_count": len(result.classes),
        "truncated": result.truncated,
    }


def _cmd_synthesize(args) -> tuple[int, dict]:
    element = parse_element(args.element)
    term = synthesize_term(element)
    if evaluate_closed(term) != element:
        raise AssertionError("synthesized term does not evaluate back to the element")
    return 0, {"element": format_element(element), "term": format_formula(term)}


def _json_value(value):
    """A report field as JSON: formulas and elements as text, verdicts by name,
    a lasso tuple as a list of lasso dicts."""
    if value is None or isinstance(value, int):
        return value
    if isinstance(value, Verdict):
        return "Valid" if value.valid else "Counterexample"
    if isinstance(value, Element):
        return format_element(value)
    if isinstance(value, tuple):
        return [_lasso_dict(lasso) for lasso in value]
    return format_formula(value)


def _report_dict(r: PrecompletenessReport) -> dict:
    return {
        "class" if f.name == "class_index" else f.name: _json_value(getattr(r, f.name))
        for f in dataclasses.fields(r)
    }


def _cmd_verify_paper(args) -> tuple[int, dict]:
    if args.i_max < 1:
        raise ValueError(f"--i-max must be >= 1, got {args.i_max}")
    bound = _resolve_bound(args.oracle_bound)
    entries = args.witnesses.split(",") if args.witnesses is not None else []
    for n, w in enumerate(entries, 1):
        if not w.strip():
            raise ValueError(f"--witnesses entry {n} of {len(entries)} is empty in {args.witnesses!r}")
    explicit = [parse(w) for w in entries]

    cells = []
    for i in range(1, args.i_max + 1):
        for w in explicit or [parse("!p"), parse("Dp"), neg_delta_power_term(i + 1)]:
            cell_started = time.perf_counter()
            rep = verify_precompleteness(i, w, oracle_bound=bound)
            cells.append(_report_dict(rep) | {"duration_s": round(time.perf_counter() - cell_started, 6)})
    all_passed = all(cell["passed"] for cell in cells)

    separations = None
    if args.i_max >= 2:
        separations = {str(j): format_formula(t) for j, t in pairwise_distinct(args.i_max).items()}

    return (0 if all_passed else 1), {
        "i_max": args.i_max,
        "oracle_bound": bound,
        "cells": cells,
        "separations": separations,
        "result": "PASS" if all_passed else "FAIL",
    }


# === Entry points ===


@cache
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

    oracle_bound = dict(nargs="?", type=int, const=_BOUND_FROM_ENV, default=None, metavar="B",
                        help="also run the exhaustive oracle up to prefix length B "
                        "(default from MAGARI_ORACLE_BOUND, else 5)")

    p = sub.add_parser("check", help="decide a quasi-identity: hypotheses entail conclusions")
    p.add_argument("--hyp", action="append", metavar="LHS=RHS", help="hypothesis equation; repeatable")
    p.add_argument("--concl", action="append", metavar="LHS=RHS", required=True,
                   help="conclusion equation; repeatable")
    p.add_argument("--oracle-bound", **oracle_bound)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("member", help="test membership in a preserving class")
    p.add_argument("--class", dest="class_index", type=int, required=True, metavar="I")
    p.add_argument("formula")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("closure", help="enumerate semantic classes generated by a signature; "
                       "formulas share a class when their canonical minimal machines are equal")
    p.add_argument("--sigma", required=True, metavar="FILE",
                   help="signature file, one 'name := formula' per line")
    p.add_argument("--vars", type=int, default=0, metavar="N",
                   help="start from the first N of the variables p, q, r, ...")
    p.add_argument("--depth", type=int, default=3, help="rounds of superposition")
    p.add_argument("--cap", type=int, default=64, help="stop, flagged truncated, past this many classes")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("synthesize", help="closed {0,D,!,&,|} term denoting an element")
    p.add_argument("element", help="element text, e.g. 010(1)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("verify-paper", help="verify the built-in precompleteness facts "
                       "for preserving classes 1..i_max")
    p.add_argument("--i-max", type=int, default=5, help="check classes 1..I_MAX (default 5)")
    p.add_argument("--witnesses", metavar="F1,F2,...",
                   help="comma separated outside-class formulas; default per class i: "
                   "!p, Dp and the class-(i+1) constant term")
    p.add_argument("--oracle-bound", **oracle_bound)
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
        started = time.perf_counter()
        code, fields = args.func(args)
        envelope = {"duration_s": round(time.perf_counter() - started, 6), "version": __version__}
        _emit({"command": args.command} | fields | envelope, args.json)
        return code
    except (UnboundVariableError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"internal consistency violation: {e}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
