import hashlib
import importlib
import itertools
import random

import pytest

import magari.expressibility
from magari import (
    Delta,
    Equation,
    Lasso,
    NamedFormula,
    ParametricWitness,
    QuasiQuery,
    Var,
    Verdict,
    class_constant,
    decide,
    delta_definer,
    delta_power_term,
    delta_witness,
    enumerate_closure,
    evaluate,
    evaluate_closed,
    format_element,
    format_formula,
    free_vars,
    negate,
    negation_definer,
    negation_witness,
    neg_delta_power_term,
    off_class_constant,
    pairwise_distinct,
    parse,
    parse_element,
    preserves,
    replay,
    substitute,
    synthesize_term,
    verify_precompleteness,
    witness_queries,
)
from magari.expressibility import _closed_plug, _wrapper
from helpers import random_element


def test_class_constants():
    assert class_constant(1) == parse_element("0(1)")
    assert class_constant(2) == parse_element("00(1)")
    assert class_constant(5) == parse_element("00000(1)")
    with pytest.raises(ValueError):
        class_constant(0)


def test_class_terms_evaluate_to_constants():
    for i in range(1, 7):
        assert evaluate_closed(neg_delta_power_term(i)) == class_constant(i)
        assert evaluate_closed(delta_power_term(i)) == negate(class_constant(i))


def test_membership_grid():
    for i in (1, 2, 3):
        assert preserves(i, parse("p & q"))
        assert preserves(i, parse("p | q"))
        assert preserves(i, parse("p"))
        assert not preserves(i, parse("!p"))
        assert not preserves(i, parse("Dp"))
        assert preserves(i, neg_delta_power_term(i))
        for j in (1, 2, 3):
            if j != i:
                assert not preserves(i, neg_delta_power_term(j))


def test_more_membership_facts():
    # meets and joins against the class constant's own term stay inside
    assert preserves(2, parse("p & !DD0"))
    assert preserves(2, parse("(p | q) & (q | r)"))
    # the diagonal applied after a member escapes
    assert not preserves(2, parse("D(p & q)"))
    assert not preserves(1, parse("p <-> q"))


def test_off_class_constant_examples():
    assert off_class_constant(1, parse("!p")) == parse_element("1(0)")
    assert off_class_constant(1, parse("Dp")) == parse_element("1(0)")
    assert off_class_constant(2, parse("!DDD0")) == parse_element("000(1)")
    with pytest.raises(ValueError):
        off_class_constant(2, parse("p & q"))


def test_pairwise_distinct_grid():
    table = pairwise_distinct(3)
    assert len(table) == 6
    assert table[(1, 2)] == neg_delta_power_term(2)
    for (i, j), t in table.items():
        assert preserves(j, t)
        assert not preserves(i, t)


def test_pairwise_distinct_evaluates_each_separator_once(monkeypatch):
    calls, evaluate_ = [], magari.expressibility.evaluate

    def counting(f, env):
        calls.append(f)
        return evaluate_(f, env)

    monkeypatch.setattr(magari.expressibility, "evaluate", counting)
    pairwise_distinct(5)
    assert len(calls) == 5


def test_pairwise_distinct_rejects_single_class():
    with pytest.raises(ValueError):
        pairwise_distinct(1)


def test_definers_stay_in_class():
    for i in (1, 2, 3):
        for f in (parse("!p"), parse("Dp"), neg_delta_power_term(i + 1)):
            assert preserves(i, negation_definer(i, f))
            assert preserves(i, delta_definer(i, f))


def test_definers_reject_class_members():
    with pytest.raises(ValueError):
        negation_definer(1, parse("p & q"))
    with pytest.raises(ValueError):
        delta_definer(2, neg_delta_power_term(2))


def test_definer_pins_value_exactly_on_graph():
    rng = random.Random(401)
    i, f = 2, parse("Dp")
    w = delta_definer(i, f)
    c = evaluate_closed(_closed_plug(neg_delta_power_term(i), f))
    for _ in range(150):
        p = random_element(rng, 6)
        good = {"p": p, "q": evaluate(parse("Dp"), {"p": p})}
        assert evaluate(w, good) == c
        q = random_element(rng, 6)
        if q != good["q"]:
            assert evaluate(w, {"p": p, "q": q}) != c


def test_witnesses_check_out():
    for i in (1, 3):
        for f in (parse("!p"), parse("Dp")):
            fwd, bwd = map(decide, witness_queries(negation_witness(i, f)))
            assert fwd.valid and bwd.valid
            fwd, bwd = map(decide, witness_queries(delta_witness(i, f)))
            assert fwd.valid and bwd.valid


def test_wrapper_builders_output_is_pinned():
    # the texts of both witnesses and both definers over a small grid of cells
    texts = []
    for i in (1, 2, 3):
        for f in map(parse, ("!p", "Dp", "p -> Dq", "!DDDD0")):
            for w in (negation_witness(i, f), delta_witness(i, f)):
                texts += [format_formula(w.target), w.output_var]
                texts += [format_formula(s) for e in w.pairs for s in (e.lhs, e.rhs)]
            texts += [format_formula(negation_definer(i, f)), format_formula(delta_definer(i, f))]
    assert len(texts) == 120
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "34f1418b06fa567b4182037b2cf45b8a9158b4adf0afc611e90c741da0c52cdb"


def test_witness_validation():
    w = ParametricWitness(
        target=parse("!p"),
        output_var="p",
        pairs=(Equation(parse("p"), parse("p")),),
    )
    with pytest.raises(ValueError):
        witness_queries(w)


def test_corrupted_witness_is_caught():
    i, f = 1, parse("Dp")
    a_term = neg_delta_power_term(i)
    c_term = _closed_plug(a_term, f)
    # wrong plug: compare the graph against the class constant instead of c
    bad = _wrapper(Delta, a_term, a_term)
    w = ParametricWitness(target=Delta(Var("p")), output_var="q", pairs=(Equation(bad, c_term),))
    fq, bq = witness_queries(w)
    fwd, bwd = decide(fq), decide(bq)
    assert not (fwd.valid and bwd.valid)
    for verdict, query in ((fwd, fq), (bwd, bq)):
        if not verdict.valid:
            assert replay(verdict.lasso, query)


def test_verify_precompleteness_passes():
    r = verify_precompleteness(1, parse("!p"))
    assert r.passed
    assert r.outside_class
    assert r.negation_wrapper_in_class and r.delta_wrapper_in_class
    assert all(v.valid for v in (r.negation_forward, r.negation_backward, r.delta_forward, r.delta_backward))
    assert r.counterexamples == ()


def test_verify_precompleteness_with_oracle(monkeypatch):
    # Each entailment goes through check_verdict with the bound, which raises on a disagreement.
    check_verdict, bounds = magari.expressibility.check_verdict, []

    def recording(q, verdict, bound):
        bounds.append(bound)
        return check_verdict(q, verdict, bound)

    monkeypatch.setattr(magari.expressibility, "check_verdict", recording)
    r = verify_precompleteness(3, parse("Dp"), oracle_bound=4)
    assert r.passed and bounds == [4] * 4


def test_verify_precompleteness_requires_lasso_replay(monkeypatch):
    # every witness query is valid, so an all-zero lasso refutes none of them
    def bogus(q):
        names = tuple(sorted({v for e in q.hypotheses + q.conclusions for s in (e.lhs, e.rhs) for v in free_vars(s)}))
        return Verdict(False, Lasso(names, (), (0,) * len(names), 1))

    monkeypatch.setattr(magari.expressibility, "decide", bogus)
    with pytest.raises(AssertionError, match="failed exact replay"):
        verify_precompleteness(1, parse("!p"))


def test_verify_precompleteness_rejects_members():
    r = verify_precompleteness(2, parse("p & q"))
    assert not r.passed
    assert not r.outside_class
    assert r.negation_forward is None


def test_closure_conjunction_only():
    sig = (NamedFormula("and2", parse("p & q")),)
    got = enumerate_closure(sig, 2, 3, 64)
    assert not got.truncated
    reps = list(got.classes)
    assert len(reps) == 3
    sem = {frozenset(free_vars(f)) for f in reps}
    assert sem == {frozenset({"p"}), frozenset({"q"}), frozenset({"p", "q"})}


def test_closure_negation_only():
    sig = (NamedFormula("neg", parse("!p")),)
    got = enumerate_closure(sig, 1, 4, 64)
    assert not got.truncated
    assert len(got.classes) == 2


def test_closure_delta_zero():
    sig = (NamedFormula("d", parse("Dp")), NamedFormula("zero", parse("0")))
    got = enumerate_closure(sig, 0, 6, 64)
    assert not got.truncated
    values = sorted(format_element(evaluate_closed(f)) for f in got.classes)
    expect = sorted(
        format_element(evaluate_closed(parse("D" * k + "0"))) for k in range(7)
    )
    assert values == expect


def test_closure_cap_truncates():
    sig = (NamedFormula("d", parse("Dp")), NamedFormula("zero", parse("0")))
    got = enumerate_closure(sig, 0, 6, 3)
    assert got.truncated
    assert len(got.classes) == 3


# The unary and binary shapes of the closure benchmark's signature pool
_UNARY_SHAPES = ("Dp", "!p", "#p", "@p", "!Dp", "Dp -> p")
_BINARY_SHAPES = ("p & q", "p | q", "p -> q", "p <-> q", "D(p & q)", "p & Dq", "D(p -> q)", "Dp -> q")


def _closure_by_pairwise_decides(sigma, nvars, depth, cap):
    # reference: a candidate is new when decide refutes its equality with every class so far
    classes = []

    def admit(f):
        if any(decide(QuasiQuery((), (Equation(f, g),))).valid for g in classes):
            return True
        if len(classes) >= cap:
            return False
        classes.append(f)
        return True

    for f in [Var(v) for v in "pqrstuvwxyz"[:nvars]] + [e.formula for e in sigma if not free_vars(e.formula)]:
        if not admit(f):
            return tuple(classes), True
    for _ in range(depth):
        frontier, before = list(classes), len(classes)
        for entry in sigma:
            params = free_vars(entry.formula)
            if not params:
                continue
            for combo in itertools.product(frontier, repeat=len(params)):
                if not admit(substitute(entry.formula, dict(zip(params, combo)))):
                    return tuple(classes), True
        if len(classes) == before:
            break
    return tuple(classes), False


@pytest.mark.parametrize("cap", [8, 64])
def test_closure_matches_pairwise_decides(cap):
    flags = set()
    for u, b in itertools.product(_UNARY_SHAPES, _BINARY_SHAPES):
        sigma = (NamedFormula("u", parse(u)), NamedFormula("b", parse(b)))
        got = enumerate_closure(sigma, 2, 2, cap)
        assert (got.classes, got.truncated) == _closure_by_pairwise_decides(sigma, 2, 2, cap), (u, b)
        flags.add(got.truncated)
    assert flags == ({False, True} if cap == 8 else {False})


def test_closure_keys_no_combination_twice(monkeypatch):
    # p is keyed first.  Round 1 keys Dp and p -> p over the frontier [p] and
    # finds the classes Dp and 1.  Round 2 keys only the combinations that use
    # Dp or 1: 2 of the 3 for d and 8 of the 9 for i.  A combination is a
    # signature machine and its operands' keys.
    keyed = []
    key = magari.expressibility.compose_key

    def counting_key(t, operands, n_vars):
        keyed.append((t, tuple(operands)))
        return key(t, operands, n_vars)

    monkeypatch.setattr(magari.expressibility, "compose_key", counting_key)
    sigma = (NamedFormula("d", parse("Dp")), NamedFormula("i", parse("p -> q")))
    got = enumerate_closure(sigma, 1, 2, 64)
    assert len(keyed) == 1 + 2 + 2 + 8
    assert len(set(keyed)) == len(keyed)
    assert (got.classes, got.truncated) == _closure_by_pairwise_decides(sigma, 1, 2, 64)


def test_closure_compiles_each_signature_formula_once(monkeypatch):
    compiles = []
    decide_module = importlib.import_module("magari.decide")  # magari.decide is the function
    compile_roots = decide_module.compile_roots

    def counting_compile(roots, variables=None):
        compiles.append(roots)
        return compile_roots(roots, variables)

    for module in (decide_module, magari.expressibility):
        monkeypatch.setattr(module, "compile_roots", counting_compile)
    sigma = (NamedFormula("d", parse("Dp")), NamedFormula("i", parse("p -> q")))
    got = enumerate_closure(sigma, 2, 2, 64)
    assert (len(got.classes), got.truncated) == (30, False)
    assert len(compiles) == 2


def test_synthesize_round_trip_examples():
    for text in ("(0)", "(1)", "010(1)", "1101(0)", "0(1)", "1(0)"):
        e = parse_element(text)
        assert evaluate_closed(synthesize_term(e)) == e
    assert synthesize_term(parse_element("(0)")) == parse("0")


def test_synthesize_round_trip_random():
    rng = random.Random(419)
    for _ in range(300):
        e = random_element(rng, 8)
        t = synthesize_term(e)
        assert evaluate_closed(t) == e


def test_random_composites_preserve_class():
    # superpositions of members stay members
    rng = random.Random(421)
    base = [parse("p"), parse("q"), parse("p & q"), parse("p | q")]
    for i in (1, 2, 3):
        pool = base + [neg_delta_power_term(i)]
        for _ in range(60):
            f = rng.choice(pool)
            for _ in range(rng.randint(1, 3)):
                g = rng.choice(pool)
                f = substitute(f, {"p": g}) if rng.random() < 0.5 else substitute(f, {"q": g})
            assert preserves(i, f)
