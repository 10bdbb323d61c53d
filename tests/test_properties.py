"""Property tests: parser round trip, and decider, oracle and replay agreeing."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from magari import (
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
    cross_check,
    decide,
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
