import itertools
import random

import pytest

from magari import (
    ONE,
    ZERO,
    Element,
    box,
    canonicalize,
    class_constant,
    coordinate,
    delta,
    delta_power_term,
    delta_reference,
    element_implies,
    evaluate_closed,
    elements_up_to,
    format_element,
    join,
    leq,
    meet,
    nabla,
    negate,
    parse_element,
    project,
)
from helpers import bits_and, bits_implies, bits_not, bits_or, box_reference, nabla_reference


def test_canonical_form_enforced():
    with pytest.raises(ValueError):
        Element((1,), 1)
    with pytest.raises(ValueError):
        Element((0, 0), 0)
    with pytest.raises(ValueError):
        Element((), 2)
    with pytest.raises(ValueError):
        Element((2,), 0)
    # last prefix bit differs from the tail
    assert Element((1, 0), 1).prefix == (1, 0)


def test_canonicalize_strips_redundant_suffix():
    assert canonicalize([1, 1, 0, 0, 0], 0) == Element((1, 1), 0)
    assert canonicalize([1, 1, 0], 0) == Element((1, 1), 0)
    assert canonicalize([1, 1], 1) == ONE
    assert canonicalize([], 0) == ZERO
    assert canonicalize([0, 1, 1], 1) == Element((0,), 1)


def test_coordinate_and_project():
    a = Element((1, 0, 1), 0)
    assert [coordinate(a, k) for k in range(1, 7)] == [1, 0, 1, 0, 0, 0]
    assert project(a, 5) == (1, 0, 1, 0, 0)
    assert project(ONE, 3) == (1, 1, 1)
    with pytest.raises(ValueError):
        coordinate(a, 0)
    with pytest.raises(ValueError):
        project(a, 0)


def test_element_text_round_trip():
    assert format_element(Element((1, 1), 0)) == "11(0)"
    assert format_element(ZERO) == "(0)"
    assert format_element(ONE) == "(1)"
    assert parse_element("110(0)") == Element((1, 1), 0)
    assert parse_element("1100(0)") == Element((1, 1), 0)
    assert parse_element("(1)") == ONE
    for text in ("110", "11(2)", "x1(0)", "", "(0"):
        with pytest.raises(ValueError):
            parse_element(text)
    for a in elements_up_to(5):
        assert parse_element(format_element(a)) == a


def test_elements_up_to_counts_and_canonical():
    small = elements_up_to(2)
    assert len(small) == 8
    assert small[0] == ZERO and small[1] == ONE
    assert len(elements_up_to(6)) == 128
    assert len(set(elements_up_to(6))) == 128
    for m in range(7):  # the order as product loops: prefix length, then bits, then tail
        expected = [
            Element(bits, tail)
            for n in range(m + 1)
            for bits in itertools.product((0, 1), repeat=n)
            for tail in (0, 1)
            if not bits or bits[-1] != tail
        ]
        assert elements_up_to(m) == expected
    with pytest.raises(ValueError):
        elements_up_to(-1)


def test_delta_example():
    assert delta(parse_element("110(0)")) == parse_element("111(0)")
    assert delta(ZERO) == parse_element("1(0)")
    assert delta(ONE) == ONE
    assert delta(parse_element("0(1)")) == parse_element("1(0)")


def test_delta_matches_reference_on_truncations():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(0, 10)
        bits = [rng.randint(0, 1) for _ in range(n)]
        tail = rng.randint(0, 1)
        a = canonicalize(bits, tail)
        for m in (1, 4, 9, 16):
            assert project(delta(a), m) == delta_reference(project(a, m))


def test_box_and_nabla_match_references():
    for a in elements_up_to(5):
        v = project(a, 12)
        assert project(box(a), 12) == box_reference(v)
        assert project(nabla(a), 12) == nabla_reference(v)
        # nabla collapses to the first coordinate
        assert nabla(a) == (ONE if coordinate(a, 1) == 1 else ZERO)


def test_boolean_ops_are_componentwise():
    rng = random.Random(11)
    pool = elements_up_to(4)
    for _ in range(400):
        a, b = rng.choice(pool), rng.choice(pool)
        u, v = project(a, 10), project(b, 10)
        assert project(meet(a, b), 10) == bits_and(u, v)
        assert project(join(a, b), 10) == bits_or(u, v)
        assert project(element_implies(a, b), 10) == bits_implies(u, v)
        assert project(negate(a), 10) == bits_not(u)


def test_boolean_laws_exhaustive_small():
    pool = elements_up_to(2)
    for a, b in itertools.product(pool, repeat=2):
        assert meet(a, b) == meet(b, a)
        assert join(a, b) == join(b, a)
        assert element_implies(a, b) == join(negate(a), b)
        assert leq(a, b) == (meet(a, b) == a)
    for a in pool:
        assert meet(a, negate(a)) == ZERO
        assert join(a, negate(a)) == ONE
        assert negate(negate(a)) == a


def test_distributivity_random():
    rng = random.Random(13)
    pool = elements_up_to(5)
    for _ in range(500):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))
        assert join(a, meet(b, c)) == meet(join(a, b), join(a, c))


def test_diagonal_identities_small():
    pool = elements_up_to(4)
    for a in pool:
        assert leq(delta(a), delta(delta(a)))
        assert delta(element_implies(delta(a), a)) == delta(a)
    for a, b in itertools.product(elements_up_to(3), repeat=2):
        assert leq(delta(element_implies(a, b)), element_implies(delta(a), delta(b)))
    assert delta(ONE) == ONE


def test_delta_monotone():
    for a, b in itertools.product(elements_up_to(3), repeat=2):
        if leq(a, b):
            assert leq(delta(a), delta(b))


def test_delta_power_families():
    def delta_power(i):
        return evaluate_closed(delta_power_term(i))

    assert delta_power(0) == ZERO
    assert delta_power(1) == parse_element("1(0)")
    assert delta_power(3) == parse_element("111(0)")
    assert class_constant(2) == parse_element("00(1)")
    for i in range(1, 7):
        a = delta_power(i - 1)
        assert delta(a) == delta_power(i)
        assert negate(delta_power(i)) == class_constant(i)


def test_project_is_homomorphism_for_delta():
    # truncating then running the reference equals running then truncating
    rng = random.Random(17)
    for _ in range(200):
        a = canonicalize([rng.randint(0, 1) for _ in range(rng.randint(0, 8))], rng.randint(0, 1))
        n = rng.randint(1, 12)
        assert delta_reference(project(a, n)) == project(delta(a), n)
