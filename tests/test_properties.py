"""Property tests: parser round trip, transducer lanes against exact
evaluation, decider, oracle and replay agreeing, the oracle's delta kernel
against the reference delta, the decider against the reference decider, the
oracle against the reference oracle, and the CLI's exit codes."""

import contextlib
import dataclasses
import importlib
import io
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

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
    brute_force,
    check_verdict,
    compile_roots,
    compose_key,
    coordinate,
    decide,
    delta_reference,
    desugar,
    evaluate,
    format_formula,
    free_vars,
    machine_key,
    parse,
    replay,
    substitute,
    variable_keys,
)
from magari.cli import main
from magari.decide import _delta_scan

from helpers import (
    delta_cycle,
    random_formula,
    reference_compose_key,
    reference_decide,
    reference_first_hit,
    wide_refutation,
)

decide_module = importlib.import_module("magari.decide")  # magari.decide is the function

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
    memory = [255] * t.state_width
    for j in range(1, k + 1):
        outs, memory = t.step(memory, *lanes)
        for lane, values in zip(outs, exact):
            assert [lane >> l & 1 for l in range(8)] == [coordinate(e, j) for e in values]


@PROPERTY
@given(st.randoms(use_true_random=False), st.integers(1, 4), st.booleans(),
       st.one_of(st.none(), st.permutations(("p", "q", "r", "s"))))
def test_compile_expands_sugar_as_desugar_does(rng, n_roots, share, variables):
    # compile_roots expands #, @ and <-> where it meets them; the transducer is
    # the very one that compiling formulas.desugar's tree gives.  Sharing one
    # object under several variables is what enumerate_closure's substitute does.
    def draw(size):
        return random_formula(rng, ["p", "q", "r"], rng.randint(1, size), 8, sugar=3)

    fs = [draw(24) for _ in range(n_roots)]
    if share:
        shared = draw(8)
        fs = [substitute(f, {"p": shared, "q": shared}) for f in fs] + [shared]
    assert compile_roots(fs, variables) == compile_roots([desugar(f) for f in fs], variables)


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
    check_verdict(q, decide(q), 2)


_LANE_TYPES = (np.uint8, np.uint16, np.uint32, np.uint64)


@settings(PROPERTY, max_examples=20)  # each example covers all 112 widths and dtypes
@given(st.randoms(use_true_random=False))
def test_delta_scan_is_the_reference_delta_of_lane_coordinates(rng):
    # Bits 0..width of an oracle lane are coordinates 1..width+1, the last one
    # the tail.  Every width 1..62 in every dtype with room for the tail and a
    # spare bit; lanes with a drawn run of trailing ones, any lanes, 0 and top.
    for width in range(1, 63):
        top, full = (2 << width) - 1, (1 << width) - 1

        def coords(v):
            return tuple(int(v) >> j & 1 for j in range(width + 1))

        runs = [(rng.getrandbits(width + 1) << ones + 1 | (1 << ones) - 1) & top
                for ones in (rng.randint(0, width + 1) for _ in range(4))]
        values = [v for v in runs + [rng.getrandbits(width + 1) for _ in range(4)] + [0, top] if v != full]
        want = [delta_reference(coords(v)) for v in values]
        for lane in (t for t in _LANE_TYPES if np.iinfo(t).bits >= width + 2):
            got = _delta_scan(np.array(values, dtype=lane), width)
            assert got.dtype == lane and [coords(v) for v in got] == want
            scalars = [_delta_scan(lane(v), width) for v in values]
            assert all(type(v) is lane for v in scalars) and [coords(v) for v in scalars] == want
            assert _delta_scan(lane(top), width) == top
            for v in (lane(full), np.array([top, full], dtype=lane)):
                with pytest.raises(AssertionError, match="truncation width exceeded"):
                    _delta_scan(v, width)


@PROPERTY
@given(_QUERIES)
def test_loop_letter_is_the_lowest_that_replays(q):
    # Checked by exact evaluation alone: the lasso refutes q, and no lower loop
    # letter after the same prefix refutes it.
    lasso = decide(q).lasso
    if lasso is None:
        return
    assert replay(lasso, q)
    for lower in product((0, 1), repeat=len(lasso.variables)):
        if lower == lasso.loop_letter:
            break
        assert not replay(dataclasses.replace(lasso, loop_letter=lower), q)


def _chain(draw, cls, operands):
    """The operands joined by cls under a drawn bracketing."""
    if len(operands) == 1:
        return operands[0]
    cut = draw(st.integers(1, len(operands) - 1))
    return cls(_chain(draw, cls, operands[:cut]), _chain(draw, cls, operands[cut:]))


@st.composite
def _chain_equations(draw):
    """An & or | chain against a permutation of its operands with repeats,
    sometimes one fewer, both sides under one drawn wrapper."""
    cls = draw(st.sampled_from((And, Or)))
    ops = draw(st.lists(formulas(st.sampled_from(("p", "q")), 3), min_size=1, max_size=4))
    other = draw(st.permutations(ops)) + draw(st.lists(st.sampled_from(ops), max_size=2))
    if len(other) > 1 and draw(st.booleans()):
        del other[draw(st.integers(0, len(other) - 1))]
    wrap = draw(st.sampled_from((lambda f: f, Not, Delta, Box)))
    return Equation(wrap(_chain(draw, cls, ops)), wrap(_chain(draw, cls, other)))


# p or q pinned to 1^k(0) or 0^k(1), k up to 4: a prefix past the oracle's box
_PINS = st.builds(
    lambda v, k, neg: Equation(Var(v), parse("!" * neg + "D" * k + "0")),
    st.sampled_from(("p", "q")), st.integers(1, 4), st.booleans(),
)
_REFERENCE_QUERIES = st.builds(
    QuasiQuery,
    st.lists(st.one_of(_EQUATIONS, _PINS), max_size=1).map(tuple),
    st.lists(st.one_of(_EQUATIONS, _chain_equations()), min_size=1, max_size=2).map(tuple),
)


@PROPERTY
@given(_REFERENCE_QUERIES)
# p is forced to 111(0), so the only counterexample violates at step 4,
# with a prefix past the oracle box of the property above
@example(QuasiQuery((Equation(Var("p"), parse("DDD0")),), (Equation(Var("p"), Const(1)),)))
# a lasso whose path to SAFE is three steps long
@example(QuasiQuery(
    (Equation(parse("DDDq"), parse("1 <-> #(q <-> Dp)")),),
    (Equation(parse("#(q <-> !(p <-> q)) <-> (q <-> (r <-> p))"), parse("(D0 -> @r) & q")),
     Equation(parse("p -> p"), parse("@(D0 & 1)"))),
))
# a refutation found after a path search from an earlier violation failed
@example(QuasiQuery((Equation(parse("Dp"), parse("@q")),), (Equation(parse("#q"), parse("@0")),)))
# a path search from a configuration an earlier failed one marked hopeless
@example(QuasiQuery((Equation(parse("Dp"), parse("p -> @D0")),), (Equation(parse("DD(D0 -> D(p | p))"), parse("#p")),)))
def test_decide_matches_the_reference_decider(q):
    assert decide(q) == reference_decide(q)


@PROPERTY
@given(_REFERENCE_QUERIES)
# hypothesis sides equal up to AC: one node, dropped; the hit lies in the second slab
@example(QuasiQuery((Equation(parse("D(p & q)"), parse("D(q & (p & q))")),), (Equation(parse("p -> Dp"), Const(1)),)))
# p only in a one-node hypothesis, so no node evaluated depends on the first axis
@example(QuasiQuery((Equation(parse("p | q"), parse("q | p")),), (Equation(parse("q -> Dq"), Const(1)),)))
def test_brute_force_is_the_reference_oracle_across_slabs(q):
    # a first slab of one first-axis index puts slab boundaries inside every box
    with mock.patch.object(decide_module, "_SLAB_LANES", 1):
        assert brute_force(q, 1) == reference_first_hit(q, 1)


@PROPERTY
@given(st.randoms(use_true_random=False), st.integers(1, 3))
def test_machine_keys_agree_with_decided_equality(rng, nvars):
    variables = ("p", "q", "r")[:nvars]
    fs = [random_formula(rng, list(variables), rng.randint(1, 7)) for _ in range(4)]
    # equal to fs[0] by absorption and to fs[2] by double negation, so equal pairs occur
    fs += [Or(fs[0], And(fs[0], fs[1])), Not(Not(fs[2]))]
    keys = [machine_key(f, variables) for f in fs]
    for i, j in combinations(range(len(fs)), 2):
        assert (keys[i] == keys[j]) == decide(QuasiQuery((), (Equation(fs[i], fs[j]),))).valid


def test_variable_key_is_the_one_block_variable_machine():
    # letters (p, q) in product order 00 01 10 11: q is 1 under letters 1 and 3
    assert machine_key(Var("q"), ("p", "q")) == ((0b1010, (0, 0, 0, 0)),) == variable_keys(2)[1]
    assert machine_key(Var("p"), ("p",)) == ((0b10, (0, 0)),)


@PROPERTY
@given(st.randoms(use_true_random=False), st.integers(0, 3))
def test_composed_keys_equal_keys_of_the_substituted_formula(rng, nvars):
    # s over parameters a and b, closed s included, each fed a formula over nvars variables
    variables = ("p", "q", "r")[:nvars]
    s = random_formula(rng, rng.choice([["a", "b"], ["a"], []]), rng.randint(1, 7))
    params = free_vars(s)
    operands = {x: random_formula(rng, list(variables), rng.randint(1, 5)) for x in params}
    composed = compose_key(compile_roots([s], params), [machine_key(operands[x], variables) for x in params], nvars)
    assert composed == machine_key(substitute(s, operands), variables)


@PROPERTY
@given(st.randoms(use_true_random=False), st.integers(0, 3))
def test_composed_keys_are_the_reference_keys_byte_for_byte(rng, nvars):
    # Equal keys for equal formulas hold under any consistent renumbering of
    # blocks; the reference pins the numbering too.
    variables = ("p", "q", "r")[:nvars]
    s = random_formula(rng, rng.choice([["a", "b"], ["a"], []]), rng.randint(1, 7))
    if compile_roots([s]).state_width == 0:  # a signature formula with D
        s = Delta(s)
    params = free_vars(s)
    gs = [random_formula(rng, list(variables), rng.randint(1, 5)) for _ in params]
    keys = [reference_compose_key(compile_roots([g], variables), variable_keys(nvars), nvars) for g in gs]
    assert [machine_key(g, variables) for g in gs] == keys
    t = compile_roots([s], params)
    assert compose_key(t, keys, nvars) == reference_compose_key(t, keys, nvars)


# Grammar tokens, Unicode aliases, '=', stray characters and element texts,
# mixed with well-formed arguments so that every exit code is reached.
_SOUP = (
    "p", "q", "x1", "0", "1", "!", "D", "#", "@", "&", "|", "->", "<->", "(", ")", " ",
    "¬", "Δ", "□", "∇", "∧", "∨", "⊃", "↔", "∼", "=", "==", "$", "P", "_", ",", "-", "\\",
    "010(1)", "(0)", "1(", "p=0(1)",
)
_TEXT = st.lists(st.sampled_from(_SOUP), max_size=10).map("".join)
_FORMULA = st.one_of(formulas(st.sampled_from(("p", "q")), 4).map(format_formula), _TEXT)
_EQUATION = st.one_of(st.tuples(_FORMULA, _FORMULA).map(" = ".join), _TEXT)
_ELEMENT = st.one_of(st.sampled_from(("(1)", "0(1)", "010(1)", "0110(0)")), _TEXT)
_SMALL = st.integers(-2, 4).map(str)
_TINY = st.integers(-1, 2).map(str)
_SIGNATURE = st.lists(st.one_of(_FORMULA.map("f := ".__add__), _TEXT), max_size=3).map("\n".join)
_ARGV = st.one_of(
    st.tuples(st.just("eval"), _FORMULA, st.just("--assign"), _ELEMENT.map("p=".__add__)),
    st.tuples(st.just("check"), st.just("--hyp"), _EQUATION, st.just("--concl"), _EQUATION,
              st.just("--oracle-bound"), _SMALL),
    st.tuples(st.just("check"), st.just("--concl"), _EQUATION),
    st.tuples(st.just("member"), st.just("--class"), _SMALL, _FORMULA),
    st.tuples(st.just("synthesize"), _ELEMENT),
    st.tuples(st.just("verify-paper"), st.just("--i-max"), st.just("1"), st.just("--witnesses"), _FORMULA,
              st.just("--oracle-bound"), _SMALL),
    # the signature text stands where its file's path goes
    st.tuples(st.just("closure"), st.just("--sigma"), _SIGNATURE, st.just("--vars"), _TINY,
              st.just("--depth"), _TINY, st.just("--cap"), _SMALL),
)


@pytest.fixture(scope="module")
def sigma_path(tmp_path_factory):
    return tmp_path_factory.mktemp("closure") / "sigma.txt"


@PROPERTY
@given(argv=_ARGV)
@example(argv=("check", "--concl", " = ".join(wide_refutation(27))))  # over decide.ALPHABET_VARIABLES
@example(argv=("check", "--concl", delta_cycle(26)))  # 105 nodes, over decide.STEP_BITS
def test_cli_exit_codes_stay_in_contract(sigma_path, argv):
    if argv[0] == "closure":
        sigma_path.write_text(argv[2], encoding="utf-8")
        argv = (*argv[:2], str(sigma_path), *argv[3:])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
