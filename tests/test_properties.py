"""Property tests: parser round trip, transducer lanes against exact
evaluation, and decider, oracle and replay agreeing."""

from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from magari import (
    ONE,
    ZERO,
    And,
    Box,
    Const,
    Delta,
    Equation,
    Iff,
    Implies,
    Nabla,
    Not,
    Or,
    QuasiQuery,
    Var,
    compile_roots,
    coordinate,
    cross_check,
    decide,
    evaluate,
    format_formula,
    parse,
    require_replay,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)


def formulas(names, max_leaves: int) -> st.SearchStrategy:
    """Parser-level formulas: every connective of the term language, no element literals."""
    leaves = st.one_of(st.builds(Const, st.sampled_from((0, 1))), st.builds(Var, names))

    def extend(children):
        return st.one_of(
            *(st.builds(cls, children) for cls in (Not, Delta, Box, Nabla)),
            *(st.builds(cls, children, children) for cls in (And, Or, Implies, Iff)),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


@PROPERTY
@given(formulas(st.sampled_from(("p", "q", "x1", "ab_c")), 12))
def test_parse_inverts_format(f):
    assert parse(format_formula(f)) == f


@PROPERTY
@given(st.lists(formulas(st.sampled_from(("p", "q", "r")), 8), min_size=1, max_size=3), st.integers(1, 6))
def test_transducer_lanes_match_evaluation(fs, k):
    # Bit l of every lane is letter l of the 8 letters over p, q, r, repeated
    # forever: the constant assignment a_l.  Memory starts all ones and then
    # follows each letter on its own.
    letters = list(product((0, 1), repeat=3))
    masks = {v: sum(let[i] << l for l, let in enumerate(letters)) for i, v in enumerate("pqr")}
    exact = [[evaluate(f, {v: ONE if b else ZERO for v, b in zip("pqr", let)}) for let in letters] for f in fs]
    t = compile_roots(fs)
    lanes = (255, tuple(masks[v] for v in t.variables))
    memory, pos = [255] * t.state_width, 1
    for j in range(1, k + 1):
        outs, memory = t.step(memory, pos, lanes)
        for lane, values in zip(outs, exact):
            assert [lane >> l & 1 for l in range(8)] == [coordinate(e, j) for e in values]
        pos = t.next_position(pos)


_SIDES = formulas(st.sampled_from(("p", "q")), 5)
_EQUATIONS = st.builds(Equation, _SIDES, _SIDES)
_QUERIES = st.builds(
    QuasiQuery,
    st.lists(_EQUATIONS, max_size=2).map(tuple),
    st.lists(_EQUATIONS, min_size=1, max_size=2).map(tuple),
)


@PROPERTY
@given(_QUERIES)
def test_decider_oracle_and_replay_agree(q):
    v = decide(q)
    require_replay(q, v)
    assert cross_check(q, v, 2)[1] is None
