import gc
import random
import time

import pytest

from magari import (
    ONE,
    ZERO,
    And,
    Box,
    Const,
    Delta,
    ElementLit,
    Iff,
    Implies,
    Nabla,
    Not,
    Or,
    ParseError,
    Var,
    compile_roots,
    constant_fold,
    desugar,
    evaluate_closed,
    format_formula,
    free_vars,
    modal_depth,
    parse,
    parse_element,
    substitute,
)
from helpers import random_formula


def test_parse_basic_shapes():
    assert parse("p") == Var("p")
    assert parse("0") == Const(0)
    assert parse("1") == Const(1)
    assert parse("!p") == Not(Var("p"))
    assert parse("Dp") == Delta(Var("p"))
    assert parse("#p") == Box(Var("p"))
    assert parse("@p") == Nabla(Var("p"))
    assert parse("p & q") == And(Var("p"), Var("q"))
    assert parse("p | q") == Or(Var("p"), Var("q"))
    assert parse("p -> q") == Implies(Var("p"), Var("q"))
    assert parse("p <-> q") == Iff(Var("p"), Var("q"))


def test_parse_precedence_and_associativity():
    p, q, r = Var("p"), Var("q"), Var("r")
    assert parse("!p & q | r") == Or(And(Not(p), q), r)
    assert parse("p -> q -> r") == Implies(p, Implies(q, r))
    assert parse("(p -> q) -> r") == Implies(Implies(p, q), r)
    assert parse("p <-> q <-> r") == Iff(Iff(p, q), r)
    assert parse("p & q -> r | p") == Implies(And(p, q), Or(r, p))
    assert parse("DDp") == Delta(Delta(p))
    assert parse("!Dp") == Not(Delta(p))
    assert parse("D(p & q)") == Delta(And(p, q))
    assert parse("Dp & q") == And(Delta(p), q)


def test_parse_unicode_aliases():
    assert parse("¬p") == parse("!p")
    assert parse("Δp") == parse("Dp")
    assert parse("□p") == parse("#p")
    assert parse("∇p") == parse("@p")
    assert parse("p ∧ q") == parse("p & q")
    assert parse("p ∨ q") == parse("p | q")
    assert parse("p ⊃ q") == parse("p -> q")
    assert parse("p ∼ q") == parse("p <-> q")
    assert parse("p ↔ q") == parse("p <-> q")
    assert parse("p\u00a0&\u2003q  ") == parse("p & q")


def test_parse_identifiers():
    assert parse("foo_1 & x2") == And(Var("foo_1"), Var("x2"))
    with pytest.raises(ParseError):
        parse("P")
    with pytest.raises(ParseError):
        parse("pQ")


def test_parse_errors_carry_positions():
    rows = [
        ("p & ", "unexpected end of input", 4),
        ("p $ q", "unexpected character '$'", 2),
        ("(p & q", "expected ')'", 6),
        ("", "unexpected end of input", 0),
        ("p q", "unexpected trailing token 'q'", 2),
        ("p - q", "expected '->'", 2),
        ("p <- q", "expected '<->'", 2),
        ("pQ", "reserved or unknown token 'Q', variables are lowercase", 1),
        ("p é", "unexpected character 'é'", 2),
        ("p\u200bq", "unexpected character '\\u200b'", 1),
        ("  ", "unexpected end of input", 2),
        ("p & )", "expected a formula, got ')'", 4),
        ("()", "expected a formula, got ')'", 1),
        ("p)", "unexpected trailing token ')'", 1),
        ("1 0", "unexpected trailing token '0'", 2),
        ("(p q)", "expected ')'", 3),
        ("q <-> (p", "expected ')'", 8),
        ("!", "unexpected end of input", 1),
        ("D", "unexpected end of input", 1),
        ("(", "unexpected end of input", 1),
        ("p ∧ ", "unexpected end of input", 4),
    ]
    for text, message, position in rows:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (str(exc.value), exc.value.position) == (f"{message} (at position {position})", position), text


def test_parse_leaves_no_reference_cycles():
    # each cycle would wait for the collector, whose passes show as latency spikes
    gc.collect()
    gc.disable()
    try:
        for text in ("p & (q | Dr)", "p & ", "(p q)", "p)"):
            try:
                parse(text)
            except ParseError:
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_format_examples():
    assert format_formula(parse("D0")) == "D0"
    assert format_formula(parse("!p & q | r")) == "!p & q | r"
    assert format_formula(parse("(!p & q) | r")) == "!p & q | r"
    assert format_formula(parse("!(p & q) | r")) == "!(p & q) | r"
    assert format_formula(parse("p -> q -> r")) == "p -> q -> r"
    assert format_formula(parse("(p -> q) -> r")) == "(p -> q) -> r"
    assert format_formula(parse("D(p & q)")) == "D(p & q)"
    assert format_formula(parse("p & (q | r)")) == "p & (q | r)"
    assert format_formula(parse("#@p <-> !1")) == "#@p <-> !1"


def test_element_literal_prints_but_does_not_parse():
    lit = ElementLit(parse_element("10(1)"))
    assert format_formula(lit) == "[10(1)]"
    with pytest.raises(ParseError):
        parse("[10(1)]")


def test_print_parse_round_trip_random():
    rng = random.Random(101)
    for _ in range(1000):
        f = random_formula(rng, ["p", "q", "r"], rng.randint(1, 12))
        assert parse(format_formula(f)) == f


def test_free_vars_first_occurrence_order():
    assert free_vars(parse("q & p | q")) == ("q", "p")
    assert free_vars(parse("D0")) == ()
    assert free_vars(parse("x -> (y & x)")) == ("x", "y")


def test_substitute_is_simultaneous():
    f = parse("p -> q")
    g = substitute(f, {"p": parse("q"), "q": parse("p")})
    assert g == parse("q -> p")
    h = substitute(parse("p & p"), {"p": parse("Dq")})
    assert h == parse("Dq & Dq")
    # unbound names are left alone
    assert substitute(parse("p & r"), {"p": parse("0")}) == parse("0 & r")


def test_desugar_examples():
    p = Var("p")
    assert desugar(Box(p)) == And(p, Delta(p))
    assert desugar(parse("p <-> q")) == parse("(p -> q) & (q -> p)")
    nb = desugar(Nabla(p))
    b1 = And(p, Delta(p))
    b2 = And(Not(b1), Delta(Not(b1)))
    assert nb == And(Not(b2), Delta(Not(b2)))
    core = parse("D(p -> q) & !r | 0")
    assert desugar(core) == core
    assert desugar(desugar(parse("@#p <-> q"))) == desugar(parse("@#p <-> q"))


def test_modal_depth():
    assert modal_depth(parse("p & q")) == 0
    assert modal_depth(parse("DDp")) == 2
    assert modal_depth(parse("#Dp")) == 2
    assert modal_depth(parse("@p")) == 3
    assert modal_depth(parse("Dp <-> DDq")) == 2


def test_delta_nodes_counts_distinct_shared():
    assert compile_roots([parse("Dp")]).state_width == 1
    assert compile_roots([parse("Dp & Dp")]).state_width == 1
    assert compile_roots([parse("Dp & Dq")]).state_width == 2
    assert compile_roots([parse("#p")]).state_width == 1
    assert compile_roots([parse("@p")]).state_width == 3
    assert compile_roots([parse("p & q")]).state_width == 0
    # distinct up to AC and idempotence of & and |
    assert compile_roots([parse("D(p & q) & D(q & p)")]).state_width == 1
    assert compile_roots([parse("D(p | q | p) & D(q | p)")]).state_width == 1
    assert compile_roots([parse("D(p -> q) & D(q -> p)")]).state_width == 2
    # closed Delta subterms count too
    assert compile_roots([parse("D0 & DD0")]).state_width == 2
    assert compile_roots([parse("#D0 & @1")]).state_width == 5


def test_delta_nodes_is_linear_in_nested_nabla():
    start = time.perf_counter()
    assert compile_roots([parse("@" * 8 + "p")]).state_width == 24
    assert time.perf_counter() - start < 2.0


def test_constant_fold_closed_terms():
    assert constant_fold(Const(0)) == ElementLit(ZERO)
    assert constant_fold(Const(1)) == ElementLit(ONE)
    assert constant_fold(Not(Delta(Const(0)))) == ElementLit(parse_element("0(1)"))
    assert constant_fold(parse("D(D0)")) == ElementLit(parse_element("11(0)"))
    folded = constant_fold(parse("!D0 | DD0 & D0"))
    assert isinstance(folded, ElementLit)
    assert folded.element == evaluate_closed(parse("!D0 | DD0 & D0"))


def test_constant_fold_keeps_open_structure():
    f = constant_fold(parse("p & 1"))
    assert f == And(Var("p"), ElementLit(ONE))
    g = constant_fold(parse("Dp | !D0"))
    assert g == Or(Delta(Var("p")), ElementLit(parse_element("0(1)")))


def test_constant_fold_matches_evaluation_on_random_closed():
    rng = random.Random(103)
    for _ in range(300):
        f = random_formula(rng, [], rng.randint(1, 10))
        folded = constant_fold(f)
        assert isinstance(folded, ElementLit)
        assert folded.element == evaluate_closed(f)
