import hashlib
import json
import random

import pytest

from magari import (
    ONE,
    ZERO,
    Element,
    Equation,
    Lasso,
    QuasiQuery,
    Verdict,
    brute_force,
    compile_roots,
    coordinate,
    cross_check,
    decide,
    evaluate,
    lasso_assignment,
    neg_delta_power_term,
    parse,
    parse_element,
    replay,
    verify_precompleteness,
)
from helpers import random_element, random_formula, random_query


def eq(l: str, r: str) -> Equation:
    return Equation(parse(l), parse(r))


def query(concls, hyps=()) -> QuasiQuery:
    return QuasiQuery(tuple(eq(l, r) for l, r in hyps), tuple(eq(l, r) for l, r in concls))


def test_query_requires_conclusion():
    with pytest.raises(ValueError):
        QuasiQuery((), ())


def test_compile_state_width_counts_distinct_deltas():
    assert compile_roots([parse("Dp")]).state_width == 1
    assert compile_roots([parse("Dp & Dp")]).state_width == 1
    assert compile_roots([parse("Dp"), parse("Dq")]).state_width == 2
    # the two nabla copies share every delta node
    assert compile_roots([parse("@q & !@q")]).state_width == 3
    assert compile_roots([parse("p | q")]).state_width == 0


def test_compile_position_cap_tracks_literals():
    assert compile_roots([parse("p")]).position_cap == 1
    # D(D0) folds to the literal 11(0), prefix length 2
    assert compile_roots([parse("p & D(D0)")]).position_cap == 3


def test_transducer_streams_delta():
    t = compile_roots([parse("Dp")])
    rows = t.run({"p": parse_element("110(0)")}, 6)
    assert [r[0] for r in rows] == [1, 1, 1, 0, 0, 0]
    rows = t.run({"p": ONE}, 4)
    assert [r[0] for r in rows] == [1, 1, 1, 1]


def test_transducer_agrees_with_evaluation():
    rng = random.Random(307)
    for _ in range(150):
        fs = [random_formula(rng, ["p", "q"], rng.randint(1, 9)) for _ in range(2)]
        t = compile_roots(fs)
        a = {"p": random_element(rng, 6), "q": random_element(rng, 6)}
        vals = [evaluate(f, a) for f in fs]
        rows = t.run(a, 32)
        for k in range(1, 33):
            assert rows[k - 1] == tuple(coordinate(v, k) for v in vals)


def test_transducer_run_reports_unbound_variable():
    from magari import UnboundVariableError

    t = compile_roots([parse("p & q")])
    with pytest.raises(UnboundVariableError):
        t.run({"p": ONE}, 3)


def test_loeb_identity_is_valid():
    v = decide(query([("D(Dp -> p)", "Dp")]))
    assert v.valid and v.lasso is None


def test_basic_valid_identities():
    assert decide(query([("D(p & q)", "Dp & Dq")])).valid
    assert decide(query([("D1", "1")])).valid
    assert decide(query([("Dp", "DDp & Dp")])).valid
    assert decide(query([("@p | !@p", "1")])).valid
    assert decide(query([("#(p -> q)", "#(p -> q)")])).valid


def test_fixed_point_counterexample_is_deterministic():
    v = decide(query([("Dp", "p")]))
    assert not v.valid
    assert v.lasso == Lasso(("p",), ((0,),), (0,), 1)
    assert replay(v.lasso, query([("Dp", "p")]))
    assert lasso_assignment(v.lasso) == {"p": ZERO}


def test_hypotheses_matter():
    # congruence instance: from p = 0 it follows that Dp = D0
    q_with = query([("Dp", "D0")], hyps=[("p", "0")])
    assert decide(q_with).valid
    q_without = query([("Dp", "D0")])
    v = decide(q_without)
    assert not v.valid
    assert replay(v.lasso, q_without)


def test_box_discharge_under_hypothesis():
    # from #p = 1 it follows that p = 1, and likewise from Dp = 1
    assert decide(query([("p", "1")], hyps=[("#p", "1")])).valid
    assert decide(query([("p", "1")], hyps=[("Dp", "1")])).valid
    # equal images under the diagonal do not force equal arguments
    q = query([("p", "q")], hyps=[("Dp", "Dq")])
    v = decide(q)
    assert not v.valid
    assert replay(v.lasso, q)


def test_counterexamples_replay_and_respect_hypotheses():
    rng = random.Random(311)
    n_cex = 0
    for _ in range(200):
        q = random_query(rng)
        v = decide(q)
        if v.valid:
            continue
        n_cex += 1
        assert replay(v.lasso, q)
        a = lasso_assignment(v.lasso)
        for h in q.hypotheses:
            assert evaluate(h.lhs, a) == evaluate(h.rhs, a)
        assert any(evaluate(c.lhs, a) != evaluate(c.rhs, a) for c in q.conclusions)
        k = v.lasso.violation_step
        assert any(
            coordinate(evaluate(c.lhs, a), k) != coordinate(evaluate(c.rhs, a), k)
            for c in q.conclusions
        )
    assert n_cex > 50


def test_replay_rejects_wrong_lasso():
    q = query([("Dp", "p")])
    genuine = decide(q).lasso
    assert replay(genuine, q)
    # constant one satisfies Dp = p, so this lasso refutes nothing
    bogus = Lasso(("p",), ((1,),), (1,), 1)
    assert not replay(bogus, q)


def test_replay_checks_hypotheses():
    q = query([("Dp", "D0")], hyps=[("p", "0")])
    # p = 1 violates the conclusion but breaks the hypothesis
    assert not replay(Lasso(("p",), ((1,),), (1,), 1), q)


def test_malformed_lassos_are_rejected():
    with pytest.raises(ValueError):
        lasso_assignment(Lasso(("p",), ((0, 1),), (0,), 1))
    with pytest.raises(ValueError):
        lasso_assignment(Lasso(("p",), ((0,),), (0, 1), 1))
    with pytest.raises(ValueError):
        lasso_assignment(Lasso(("p",), ((2,),), (0,), 1))
    with pytest.raises(ValueError):
        lasso_assignment(Lasso(("p",), ((0,),), (0,), 0))
    with pytest.raises(ValueError):
        replay(Lasso(("p",), ((0,),), (0,), 0), query([("Dp", "p")]))


def test_lasso_assignment_canonicalizes():
    got = lasso_assignment(Lasso(("p", "q"), ((0, 1), (1, 1)), (0, 1), 2))
    assert got == {"p": Element((0, 1), 0), "q": ONE}


def test_brute_force_examples():
    found = brute_force(query([("Dp", "p")]), 1)
    assert found == {"p": ZERO}
    assert brute_force(query([("D(Dp -> p)", "Dp")]), 5) is None
    assert brute_force(query([("Dp", "D0")], hyps=[("p", "0")]), 4) is None
    found = brute_force(query([("Dp", "D0")]), 3)
    assert found is not None
    a = found
    assert evaluate(parse("Dp"), a) != evaluate(parse("D0"), a)


def test_brute_force_enumeration_order_is_stable():
    # earlier variables vary slowest, elements ordered small to large
    found = brute_force(query([("p & q", "q & 1")]), 2)
    assert found == {"p": ZERO, "q": ONE}


def test_brute_force_width_guard():
    with pytest.raises(ValueError):
        brute_force(query([("Dp", "p")]), 80)


def test_decide_matches_brute_force_random():
    rng = random.Random(313)
    for _ in range(120):
        q = random_query(rng)
        v = decide(q)
        found = brute_force(q, 4)
        if v.valid:
            assert found is None
        else:
            a = lasso_assignment(v.lasso)
            if all(len(e.prefix) <= 4 for e in a.values()):
                assert found is not None


def test_brute_force_refuses_box_over_cell_budget():
    # 512 elements per variable at bound 8: 2**27 assignments, refused before any array is built
    with pytest.raises(ValueError, match="budget"):
        brute_force(query([("p & q", "q & r")]), 8)


def test_cross_check_valid_verdict_against_oracle_hit():
    found, reason = cross_check(query([("Dp", "p")]), Verdict(True), 1)
    assert found == {"p": ZERO}
    assert reason == "decider said Valid but the oracle found a counterexample"


def test_cross_check_fitting_lasso_the_oracle_cannot_find():
    loeb = query([("D(Dp -> p)", "Dp")])
    fitting = Lasso(("p",), ((0,),), (0,), 1)  # p = (0), inside every box
    found, reason = cross_check(loeb, Verdict(False, fitting), 3)
    assert found is None
    assert reason == "decider counterexample fits the oracle box but the oracle found none"


def test_cross_check_agreement():
    for q in (query([("Dp", "p")]), query([("D(Dp -> p)", "Dp")])):
        v = decide(q)
        found, reason = cross_check(q, v, 3)
        assert reason is None
        assert (found is None) == v.valid


def _verdict_key(v):
    if v.lasso is None:
        return [v.valid]
    l = v.lasso
    return [v.valid, list(l.variables), [list(x) for x in l.prefix], list(l.loop_letter), l.violation_step]


def test_verdicts_and_lassos_are_byte_identical_to_the_reference():
    # Locks the decider's determinism contract: verdicts and lassos of the
    # criterion-3 style query set and of the precompleteness grid.
    rng = random.Random(1003)
    rows = [_verdict_key(decide(random_query(rng))) for _ in range(500)]
    for i in range(1, 6):
        for w in (parse("!p"), parse("Dp"), neg_delta_power_term(i + 1)):
            r = verify_precompleteness(i, w)
            parts = (r.negation_forward, r.negation_backward, r.delta_forward, r.delta_backward)
            rows.append([r.passed] + [_verdict_key(v) for v in parts])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "eadf2bce26e8d71200e4e6eb8c6ed6166cd127942de29fbce5d927793786c18e"
