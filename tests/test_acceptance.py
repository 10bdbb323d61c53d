"""Acceptance suite: eight end-to-end criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  Criteria
with a time budget assert the elapsed wall time against it.
"""

import itertools
import random
import time

from magari import (
    ONE,
    Delta,
    Equation,
    NamedFormula,
    ParametricWitness,
    Var,
    brute_force,
    decide,
    delta,
    delta_reference,
    element_implies,
    elements_up_to,
    enumerate_closure,
    evaluate_closed,
    lasso_assignment,
    leq,
    neg_delta_power_term,
    pairwise_distinct,
    parse,
    preserves,
    project,
    replay,
    synthesize_term,
    verify_precompleteness,
    witness_queries,
)
from magari.expressibility import delta_definer
from helpers import random_element, random_query


def _report(number: int, name: str, ok: bool, elapsed: float, budget: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s" + (f" < {budget:.0f}s]" if budget is not None else "]")
    print(f"criterion {number} ({name}): {status}{timing}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_diagonal_identities():
    started = time.perf_counter()
    budget = 5.0
    ok = True
    pool = elements_up_to(6)
    ok = ok and len(pool) == 128
    ok = ok and delta(ONE) == ONE
    for a in pool:
        ok = ok and leq(delta(a), delta(delta(a)))
        ok = ok and delta(element_implies(delta(a), a)) == delta(a)
    for a, b in itertools.product(pool, repeat=2):
        ok = ok and leq(delta(element_implies(a, b)), element_implies(delta(a), delta(b)))
    rng = random.Random(1001)
    for _ in range(1000):
        a, b = random_element(rng, 24), random_element(rng, 24)
        ok = ok and leq(delta(a), delta(delta(a)))
        ok = ok and delta(element_implies(delta(a), a)) == delta(a)
        ok = ok and leq(delta(element_implies(a, b)), element_implies(delta(a), delta(b)))
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < budget
    _report(1, "diagonal identities, exhaustive prefix<=6 plus random", ok, elapsed, budget)


def test_criterion_2_delta_against_reference():
    started = time.perf_counter()
    rng = random.Random(1002)
    ok = True
    for _ in range(500):
        a = random_element(rng, 16)
        n = rng.randint(1, 32)
        ok = ok and project(delta(a), n) == delta_reference(project(a, n))
    _report(2, "closed-form delta equals streaming reference", ok, time.perf_counter() - started)


def test_criterion_3_decider_against_oracle():
    started = time.perf_counter()
    budget = 60.0
    rng = random.Random(1003)
    ok = True
    n_valid = n_cex = 0
    for _ in range(500):
        q = random_query(rng)
        verdict = decide(q)
        found = brute_force(q, 5)
        if verdict.valid:
            n_valid += 1
            ok = ok and found is None
        else:
            n_cex += 1
            ok = ok and replay(verdict.lasso, q)
            a = lasso_assignment(verdict.lasso)
            if all(len(e.prefix) <= 5 for e in a.values()):
                ok = ok and found is not None
    ok = ok and n_valid > 0 and n_cex > 0
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < budget
    _report(3, "500 random queries: decider agrees with bounded oracle", ok, elapsed, budget)


def test_criterion_4_preserving_class_facts():
    started = time.perf_counter()
    ok = True
    for i in range(1, 6):
        ok = ok and preserves(i, parse("p & q"))
        ok = ok and preserves(i, parse("p | q"))
        ok = ok and not preserves(i, parse("!p"))
        ok = ok and not preserves(i, parse("Dp"))
        ok = ok and preserves(i, neg_delta_power_term(i))
    table = pairwise_distinct(5)
    ok = ok and len(table) == 20
    for (i, j), t in table.items():
        ok = ok and preserves(j, t) and not preserves(i, t)
    _report(4, "class membership grid and 20 pairwise separations", ok, time.perf_counter() - started)


def test_criterion_5_precompleteness_grid():
    started = time.perf_counter()
    budget = 120.0
    ok = True
    for i in range(1, 6):
        for w in (parse("!p"), parse("Dp"), neg_delta_power_term(i + 1)):
            try:
                r = verify_precompleteness(i, w, oracle_bound=6)
            except AssertionError:  # a disagreement with the oracle or a failed replay
                ok = False
                continue
            ok = ok and r.passed
            ok = ok and all(
                v is not None and v.valid
                for v in (r.negation_forward, r.negation_backward, r.delta_forward, r.delta_backward)
            )
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < budget
    _report(5, "precompleteness wrappers verified for classes 1..5", ok, elapsed, budget)


def test_criterion_6_corrupted_witness_detected():
    started = time.perf_counter()
    i, f = 1, parse("Dp")
    # break the defining pair: require the wrapper to sit at the class
    # constant instead of at the displaced constant
    bad = ParametricWitness(
        target=Delta(Var("p")),
        output_var="q",
        pairs=(Equation(delta_definer(i, f), neg_delta_power_term(i)),),
    )
    _, backward_query = witness_queries(bad)
    backward = decide(backward_query)
    ok = not backward.valid and replay(backward.lasso, backward_query)
    _report(6, "corrupted delta witness yields a replaying counterexample", ok, time.perf_counter() - started)


def test_criterion_7_synthesis_round_trip():
    started = time.perf_counter()
    rng = random.Random(1007)
    ok = True
    for _ in range(500):
        e = random_element(rng, 8)
        ok = ok and evaluate_closed(synthesize_term(e)) == e
    _report(7, "synthesized closed terms round-trip exactly", ok, time.perf_counter() - started)


def test_criterion_8_closure_of_delta_and_zero():
    started = time.perf_counter()
    sigma = (NamedFormula("d", parse("Dp")), NamedFormula("zero", parse("0")))
    got = enumerate_closure(sigma, 0, 6, 64)
    ok = not got.truncated and len(got.classes) == 7
    values = {evaluate_closed(g) for g in got.classes}
    expect = {evaluate_closed(parse("D" * k + "0")) for k in range(7)}
    ok = ok and values == expect
    _report(8, "closure of {diagonal, zero} has exactly seven classes", ok, time.perf_counter() - started)
