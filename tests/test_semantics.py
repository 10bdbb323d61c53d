import random

import pytest

from magari import (
    ONE,
    UnboundVariableError,
    canonicalize,
    coordinate,
    delta,
    evaluate,
    evaluate_closed,
    format_element,
    holds_equation,
    parse,
    parse_element,
    project,
)
from helpers import random_element, random_formula


def test_evaluate_examples():
    a = {"p": parse_element("10(1)")}
    assert evaluate(parse("Dp"), a) == parse_element("11(0)")
    assert evaluate(parse("!p"), a) == parse_element("01(0)")
    assert evaluate(parse("#p"), a) == parse_element("1(0)")
    assert evaluate(parse("@p"), a) == ONE
    assert format_element(evaluate_closed(parse("D(D0)"))) == "11(0)"
    assert evaluate_closed(parse("1")) == ONE


def test_evaluate_ignores_extra_bindings():
    a = {"p": ONE, "zz": parse_element("0(1)")}
    assert evaluate(parse("Dp"), a) == ONE


def test_unbound_variable_is_named():
    with pytest.raises(UnboundVariableError) as exc:
        evaluate(parse("p & q"), {"p": ONE})
    assert exc.value.name == "q"
    assert "q" in str(exc.value)
    assert isinstance(exc.value, ValueError)
    with pytest.raises(UnboundVariableError):
        evaluate_closed(parse("p"))


def test_iff_evaluates_as_double_implication():
    rng = random.Random(211)
    f = parse("p <-> q")
    g = parse("(p -> q) & (q -> p)")
    for _ in range(200):
        a = {"p": random_element(rng, 6), "q": random_element(rng, 6)}
        assert evaluate(f, a) == evaluate(g, a)


def test_loeb_equation_holds_on_random_assignments():
    rng = random.Random(223)
    lhs = parse("D(Dp -> p)")
    rhs = parse("Dp")
    for _ in range(300):
        a = {"p": random_element(rng, 8)}
        assert holds_equation(lhs, rhs, a)
        assert evaluate(lhs, a) == delta(a["p"])


def test_holds_equation_detects_failure():
    assert not holds_equation(parse("Dp"), parse("p"), {"p": parse_element("(0)")})
    assert holds_equation(parse("Dp"), parse("p"), {"p": ONE})


def test_truncation_consistency():
    # the first n output coordinates depend only on the first n input coordinates
    rng = random.Random(227)
    for _ in range(150):
        f = random_formula(rng, ["p", "q"], rng.randint(1, 9))
        n = rng.randint(1, 8)
        a = {"p": random_element(rng, 10), "q": random_element(rng, 10)}
        b = {}
        for name, e in a.items():
            bits = list(project(e, n + rng.randint(1, 4)))
            for k in range(n, len(bits)):
                bits[k] = rng.randint(0, 1)
            b[name] = canonicalize(bits, rng.randint(0, 1))
        assert project(evaluate(f, a), n) == project(evaluate(f, b), n)


def test_evaluate_is_coordinatewise_boolean_plus_delta():
    rng = random.Random(229)
    f = parse("(p -> q) & !p | Dq")
    for _ in range(100):
        a = {"p": random_element(rng, 6), "q": random_element(rng, 6)}
        out = evaluate(f, a)
        dq = delta(a["q"])
        for k in range(1, 12):
            p_k, q_k = coordinate(a["p"], k), coordinate(a["q"], k)
            expect = (((1 - p_k) | q_k) & (1 - p_k)) | coordinate(dq, k)
            assert coordinate(out, k) == expect


def test_evaluate_rejects_non_formulas():
    for bogus in ("p", None, ONE, (parse("p"),)):
        with pytest.raises(TypeError):
            evaluate(bogus, {"p": ONE})
