import gc
import hashlib
import importlib
import itertools
import json
import random
import time
import tracemalloc

import pytest

import magari.cli
from magari import (
    ONE,
    ZERO,
    Const,
    Delta,
    Element,
    ElementLit,
    Equation,
    Lasso,
    Not,
    QuasiQuery,
    Var,
    Verdict,
    brute_force,
    check_verdict,
    compile_roots,
    coordinate,
    decide,
    delta_witness,
    elements_up_to,
    evaluate,
    lasso_assignment,
    neg_delta_power_term,
    negation_witness,
    parse,
    parse_element,
    replay,
    verify_precompleteness,
    witness_queries,
)
from helpers import (
    delta_cycle,
    query_vars,
    random_element,
    random_formula,
    random_query,
    reference_first_hit,
    wide_refutation,
)

decide_module = importlib.import_module("magari.decide")  # magari.decide is the function


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


def test_compile_gives_closed_deltas_memory_bits():
    # D0 and D(D0) are closed, and each keeps its own bit
    assert compile_roots([parse("p & D(D0)")]).state_width == 2
    with pytest.raises(TypeError):
        compile_roots([ElementLit(parse_element("11(0)"))])


def _roots(*texts: str) -> tuple[int, ...]:
    return compile_roots([parse(t) for t in texts]).roots


def test_and_or_chains_intern_up_to_ac_and_idempotence():
    for lhs, rhs in [("p & q", "q & p"), ("(p & q) & r", "r & (q & p)"), ("p | p", "p"),
                     ("D(p | q) & r", "r & D(q | p | q)")]:
        a, b = _roots(lhs, rhs)
        assert a == b, (lhs, rhs)
    for lhs, rhs in [("p -> q", "q -> p"), ("p & q", "p | q"), ("p & (q | r)", "(p & q) | r")]:
        a, b = _roots(lhs, rhs)
        assert a != b, (lhs, rhs)


def test_every_compiled_node_is_reachable_from_a_root():
    # a chain's inner same-class objects leave no dead prefix nodes behind
    rng = random.Random(317)
    texts = ["(p & q) & (r & D(p & q))", "#(p & q & r) | ((p | q) | p)", "@(p | q) & @(q | p)"]
    for fs in [[parse(t) for t in texts]] + [[random_formula(rng, ["p", "q", "r"], 12) for _ in range(2)]
                                            for _ in range(100)]:
        t = compile_roots(fs)
        seen = set(t.roots)
        for i in range(len(t.nodes) - 1, -1, -1):  # children precede parents
            kind, *args = t.nodes[i]
            if i in seen and kind not in (Var, Const):
                seen.update(args[:1] if kind in (Not, Delta) else args)
        assert seen == set(range(len(t.nodes)))


def test_compile_normalizes_in_linear_time():
    # #, @ and <-> expand where the compile meets them, from their arguments'
    # nodes, so @x builds x once although its expansion boxes it three times over
    assert len(compile_roots([parse("@@@@p")]).nodes) == 1 + 4 * 8

    iff = "p"
    for _ in range(16):
        iff = f"({iff} <-> q)"
    started = time.perf_counter()
    for text in ("@" * 7 + "p", "#" * 16 + "p", iff, f"@#({iff}) <-> @@@#p"):
        assert decide(query([(text, text)])).valid
    assert time.perf_counter() - started < 10  # well under 1 s; a tree walk takes minutes


def _stream(t, a, n):
    # Transducer.step with top = 1 streams one letter per coordinate: memory
    # starts all ones, and each step's keep bits are the next step's memory.
    memory = [1] * t.state_width
    rows = []
    for k in range(1, n + 1):
        outs, memory = t.step(memory, 1, [coordinate(a[v], k) for v in t.variables])
        rows.append(outs)
    return rows


def test_transducer_streams_delta():
    t = compile_roots([parse("Dp")])
    rows = _stream(t, {"p": parse_element("110(0)")}, 6)
    assert [r[0] for r in rows] == [1, 1, 1, 0, 0, 0]
    rows = _stream(t, {"p": ONE}, 4)
    assert [r[0] for r in rows] == [1, 1, 1, 1]


def test_transducer_agrees_with_evaluation():
    rng = random.Random(307)
    for _ in range(150):
        fs = [random_formula(rng, ["p", "q"], rng.randint(1, 9)) for _ in range(2)]
        t = compile_roots(fs)
        a = {"p": random_element(rng, 6), "q": random_element(rng, 6)}
        vals = [evaluate(f, a) for f in fs]
        rows = _stream(t, a, 32)
        for k in range(1, 33):
            assert rows[k - 1] == tuple(coordinate(v, k) for v in vals)


def test_compile_takes_a_variable_order_covering_every_free_variable():
    t = compile_roots([parse("q & Dq")], ("p", "q", "r"))
    assert t.variables == ("p", "q", "r")
    assert t.nodes[0] == (Var, 1)
    with pytest.raises(ValueError, match="misses q"):
        compile_roots([parse("p & q")], ("p",))


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


@pytest.fixture
def step_calls(monkeypatch):
    """A list that gains an entry on each Transducer.step call."""
    calls = []
    step = decide_module.Transducer.step

    def counting_step(self, *args):
        calls.append(None)
        return step(self, *args)

    monkeypatch.setattr(decide_module.Transducer, "step", counting_step)
    return calls


_EIGHT_TERMS = ["Dp", "Dq", "Dr", "D(p & q)", "D(q & r)", "D(p & r)", "D(p | q)", "D(q | r)"]


def test_refutation_at_step_one_stops_before_exploring_the_graph(step_calls):
    # Exploring the whole configuration graph takes over a hundred steps, but
    # the first letter already violates the conclusion at step 1.
    conj = " & ".join(_EIGHT_TERMS)
    v = decide(query([(conj, f"{conj} & p")]))
    assert not v.valid
    assert v.lasso.violation_step == 1
    assert len(step_calls) < 100


def test_permuted_conjunction_is_valid_without_a_step(step_calls):
    # both sides intern to one node, so no configuration is ever stepped
    shuffled = _EIGHT_TERMS[3:] + ["D(r & q)", "D(q | p)"] + _EIGHT_TERMS[:3]
    assert decide(query([(" & ".join(_EIGHT_TERMS), " & ".join(reversed(shuffled)))])).valid
    assert len(step_calls) == 0


def test_wide_alphabet_costs_one_step_per_configuration(step_calls):
    # A valid cycle over n variables has 2^n letters; a per-letter step made
    # one call per (configuration, letter), 65,536 for n = 8.  The "& 1"
    # keeps the two sides apart as nodes, so the search runs.
    for n in (8, 10):
        terms = [f"D(x{i} -> x{(i + 1) % n})" for i in range(n)]
        step_calls.clear()
        assert decide(query([(" & ".join(terms), " & ".join(terms[1:] + terms[:1] + ["1"]))])).valid
        assert len(step_calls) <= 2 * 2**n


def test_narrow_alphabet_steps_once_per_configuration(step_calls):
    # 15 memory bits over 8 letters: one step per configuration reached, each
    # covering all 8 letters.  The "& 1" keeps the two sides apart as nodes,
    # so the search runs.
    terms = ["D(p | D(q -> Dr))", "D(q & D(r | Dp))", "D(r -> D(p | Dq))",
             "D(p & D(q | Dr))", "D(q | D(p -> Dr))", "D(r & D(q | Dp))"]
    q = query([(" & ".join(terms), " & ".join(reversed(terms)) + " & 1")])
    assert q.transducer.state_width == 15
    assert decide(q).valid
    assert len(step_calls) == 148


def test_path_search_tests_safe_where_a_transition_discovers_it(step_calls):
    # The path to SAFE is two steps long.  Testing SAFE where a transition
    # discovers a configuration finds the same lasso as testing it where the
    # configuration is expanded, one Transducer.step sooner (12 that way).
    q = query([("p -> q", "DD#(q & q)"), ("Dq", "q -> q")], hyps=[("DDD(p & q)", "p <-> #p")])
    assert decide(q) == Verdict(False, Lasso(("p", "q"), ((1, 0), (0, 0), (0, 0)), (1, 0), 1))
    assert len(step_calls) == 11


def test_path_search_from_a_hopeless_configuration_makes_no_lane_pass(step_calls):
    # A later violating transition leads back into a configuration that an
    # earlier failed path search marked hopeless.  Its SAFE test and its
    # transitions are cached, so the search from it costs no Transducer.step.
    q = query([("DD(D0 -> D(p | p))", "#p")], hyps=[("Dp", "p -> @D0")])
    assert decide(q).valid
    assert len(step_calls) == 7


def test_alphabet_lanes_slice_letters_in_product_order():
    for n in range(13):
        top, masks = decide_module._alphabet(n)
        assert top == 2**2**n - 1
        letters = list(itertools.product((0, 1), repeat=n))
        assert masks == tuple(sum(let[i] << l for l, let in enumerate(letters)) for i in range(n))


def test_wide_refutation_lasso():
    # 2^16 letters but few configurations: the lasso is found without
    # touching the letters one by one.
    v = decide(query([wide_refutation(16)]))
    assert not v.valid
    assert v.lasso.violation_step == 2
    assert v.lasso.prefix == ((0,) * 16, (1,) * 16)
    assert v.lasso.loop_letter == (0,) * 16


def test_decide_keeps_no_lanes_after_it_returns():
    # 2**18 letters: eighteen variable masks of 32 KiB each, 576 KiB in all
    q = query([wide_refutation(18)])
    assert q.transducer.state_width == 1  # compiled, and held by q, before the baseline
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert not decide(q).valid
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 64 * 1024


def test_compile_decide_and_oracle_leave_no_reference_cycles():
    # each cycle would wait for the collector, whose passes show as latency spikes
    gc.collect()
    gc.disable()
    try:
        compile_roots([parse(t) for t in ("#p & @q | (p <-> q)", "p & q & r | D(q | p | r) | !r", "@#(p <-> Dq)")])
        q = query([("p", "q")], hyps=[("Dp", "Dq")])
        assert not decide(q).valid
        assert brute_force(q, 5) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_check_over_the_letter_budget_is_a_usage_error(step_calls, capsys):
    assert magari.cli.main(["check", "--concl", " = ".join(wide_refutation(27))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: 27 variables give 2**27 letters, over the budget of 2**26 letters"
    assert step_calls == []


def test_check_over_the_step_budget_is_a_usage_error(step_calls, capsys):
    # 26 variables fit the letter budget, but over 100 nodes of 2**26-bit
    # lanes would hold several GB in one step
    assert magari.cli.main(["check", "--concl", delta_cycle(26)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: 105 nodes over 2**26 letters need 840 MiB of lanes a step, over the budget of 512 MiB"
    assert step_calls == []


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


def test_brute_force_rejects_negative_bound():
    with pytest.raises(ValueError, match="bound must be >= 0"):
        brute_force(query([("p", "p")]), -1)


def test_brute_force_width_guard():
    with pytest.raises(ValueError):
        brute_force(query([("Dp", "p")]), 80)


@pytest.mark.parametrize("bound", [0, 1, 2])
def test_brute_force_at_the_widest_lane(bound):
    # D^59 0 = 1^59(0) settles at 60 and one Delta sits above it, so the
    # width is 62 and each lane's tail rides in bit 62
    q = query([(f"D(p & {'D' * 59}0)", "Dp")])
    found = brute_force(q, bound)
    assert found is not None and found == reference_first_hit(q, bound)
    with pytest.raises(ValueError, match="width 63 exceeds 62 bits"):
        brute_force(query([(f"D(p & {'D' * 60}0)", "Dp")]), bound)


def test_brute_force_width_follows_the_slowest_node():
    # D^60 0 settles at 60 and Dp at 2, so the width is 62: the longest
    # D chain and the longest closed prefix lie on different paths
    q = query([(f"p & {'D' * 60}0", "Dp")])
    assert brute_force(q, 1) == {"p": ZERO} == reference_first_hit(q, 1)


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


def test_brute_force_checks_budget_before_building_elements(monkeypatch):
    # 2**31 elements per variable at bound 30, and none needed for a closed query
    def refuse(bound, width):
        raise AssertionError(f"lane table for bound {bound} built")

    monkeypatch.setattr(decide_module, "_lane_table", refuse)
    with pytest.raises(ValueError, match="budget"):
        brute_force(query([("p", "q")]), 30)
    assert brute_force(query([("1", "1")]), 40) is None


def _encode(e: Element, width: int) -> int:
    """e's oracle lane: bit j is coordinate j+1, bit width the tail; a 1-tail fills up from the prefix end."""
    lane = sum(b << j for j, b in enumerate(e.prefix))
    return lane | ((2 << width) - (1 << len(e.prefix))) if e.tail else lane


@pytest.mark.parametrize("bound", range(8))
def test_lane_table_and_hit_decoding_follow_elements_up_to(bound):
    # a hit decodes through algebra.element_at, which defines elements_up_to's order
    elements = elements_up_to(bound)
    for width in (bound + 1, 62):
        table = decide_module._lane_table(bound, width)
        assert table.tolist() == [_encode(e, width) for e in elements]


def _random_closed_query(rng: random.Random) -> QuasiQuery:
    def side():
        return random_formula(rng, [], rng.randint(1, 6))

    hyps = tuple(Equation(side(), side()) for _ in range(rng.randint(0, 1)))
    return QuasiQuery(hyps, (Equation(side(), side()),))


@pytest.mark.parametrize("slab_lanes", [1, 4096])
def test_brute_force_first_hit_matches_exact_reference(monkeypatch, slab_lanes):
    # slab_lanes 1 makes the first slab a single first-axis index, so slab
    # boundaries fall inside every box; 4096 covers each box in one slab
    monkeypatch.setattr(decide_module, "_SLAB_LANES", slab_lanes)
    rng = random.Random(2027)
    used = set()
    for i in range(200):
        q = _random_closed_query(rng) if i % 10 == 0 else random_query(rng)
        used.add(len(query_vars(q)))
        bound = 1 + i % 2
        assert brute_force(q, bound) == reference_first_hit(q, bound)
    assert used == {0, 1, 2, 3}


@pytest.mark.parametrize("slab_lanes", [1, 4096])
def test_brute_force_hit_only_in_last_first_axis_index(monkeypatch, slab_lanes):
    monkeypatch.setattr(decide_module, "_SLAB_LANES", slab_lanes)
    q = query([("q & r", "1")], hyps=[("p", "D0")])
    last = elements_up_to(1)[-1]
    assert last == parse_element("1(0)")
    assert brute_force(q, 1) == {"p": last, "q": ZERO, "r": ZERO} == reference_first_hit(q, 1)


def test_brute_force_scans_every_delta_array(monkeypatch):
    # Dq does not depend on p, the first variable, so it is scanned once on
    # all n lanes; the two D-nodes over p are scanned once per slab, on its rows
    monkeypatch.setattr(decide_module, "_SLAB_LANES", 1)
    scanned = []
    scan = decide_module._delta_scan

    def spy(v, width):
        scanned.append(v.size)
        return scan(v, width)

    monkeypatch.setattr(decide_module, "_delta_scan", spy)
    assert brute_force(query([("D(Dp -> p) & Dq", "Dp & Dq")]), 1) is None
    n = len(elements_up_to(1))  # slabs of 1, 2 and 1 first-axis indices
    assert scanned[0] == n and len(scanned) == 1 + 2 * 3
    assert sum(scanned) == n + 2 * n


def test_brute_force_skips_pairs_compiled_to_one_node(monkeypatch):
    # every conclusion is AC-equal, so no assignment can violate one: None
    # before any lane is built, whatever the hypothesis
    def refuse(bound, width):
        raise AssertionError(f"lane table for bound {bound} built")

    with monkeypatch.context() as patch:
        patch.setattr(decide_module, "_lane_table", refuse)
        q = query([("p & q & r", "r & (q & p)"), ("D(p | q)", "D(q | p | q)")], hyps=[("p", "Dq")])
        assert len(q.transducer.variables) == 3 and brute_force(q, 5) is None
    # a one-node hypothesis holds everywhere: it is dropped, though its D-node
    # is still evaluated, once, off p's axis
    scanned = []
    scan = decide_module._delta_scan

    def spy(v, width):
        scanned.append(v.size)
        return scan(v, width)

    monkeypatch.setattr(decide_module, "_delta_scan", spy)
    q = query([("p -> Dp", "1")], hyps=[("D(q & r)", "D(r & q & r)")])
    found = brute_force(q, 1)
    assert found == {"p": parse_element("0(1)"), "q": ZERO, "r": ZERO} == reference_first_hit(q, 1)
    n = len(elements_up_to(1))
    assert scanned == [n * n, n]  # D(q & r) over the q and r axes, then Dp in one slab


@pytest.mark.parametrize("width, itemsize", [(6, 1), (7, 2), (14, 2), (15, 4), (30, 4), (31, 8), (62, 8)])
def test_brute_force_at_lane_dtype_boundaries(monkeypatch, width, itemsize):
    # a lane needs width + 2 bits, the tail and a spare bit above it, so each
    # width here is the widest or the narrowest of its dtype
    tables = []
    build = decide_module._lane_table

    def spy(bound, w):
        tables.append((w, build(bound, w)))
        return tables[-1][1]

    monkeypatch.setattr(decide_module, "_lane_table", spy)
    for q in (query([(f"p & {'D' * (width - 2)}0", "Dp")]), query([(f"D(p & {'D' * (width - 3)}0)", "Dp")])):
        tables.clear()
        assert brute_force(q, 1) == reference_first_hit(q, 1)
        [(w, table)] = tables
        assert w == width and table.dtype.itemsize == itemsize


def test_check_verdict_valid_verdict_against_oracle_hit():
    q = query([("Dp", "p")])
    assert brute_force(q, 1) == {"p": ZERO}
    with pytest.raises(AssertionError) as raised:
        check_verdict(q, Verdict(True), 1)
    assert str(raised.value) == "decider said Valid but the oracle found a counterexample"


def test_check_verdict_fitting_lasso_the_oracle_cannot_find(monkeypatch):
    # replay runs first, so the lasso must be a real one; the oracle is made blind
    q = query([("Dp", "p")])
    v = decide(q)
    assert v.lasso is not None and replay(v.lasso, q)
    monkeypatch.setattr(decide_module, "brute_force", lambda query, bound: None)
    with pytest.raises(AssertionError) as raised:
        check_verdict(q, v, 3)
    assert str(raised.value) == "decider counterexample fits the oracle box but the oracle found none"


def test_check_verdict_agreement():
    for q in (query([("Dp", "p")]), query([("D(Dp -> p)", "Dp")])):
        v = decide(q)
        assert check_verdict(q, v) is None
        found = check_verdict(q, v, 3)
        assert (found is None) == v.valid


def test_a_checked_query_compiles_once(monkeypatch, capsys):
    # decide and the oracle read one QuasiQuery.transducer, so a query is
    # compiled once, not once for the decider and again for the oracle
    calls = 0
    compile_roots = decide_module.compile_roots

    def counting_compile(roots, variables=None):
        nonlocal calls
        calls += 1
        return compile_roots(roots, variables)

    monkeypatch.setattr(decide_module, "compile_roots", counting_compile)
    assert magari.cli.main(["check", "--hyp", "q = 1", "--concl", "Dp = p", "--oracle-bound", "2"]) == 1
    capsys.readouterr()
    assert calls == 1

    calls = 0
    f = parse("!p")
    assert verify_precompleteness(1, f, oracle_bound=1).passed
    queries = [q for w in (negation_witness(1, f), delta_witness(1, f)) for q in witness_queries(w)]
    assert calls == len(queries) == 4

    # the cached compile is not a field: equality and hashing ignore it
    q = query([("Dp", "p")], hyps=[("q", "1")])
    decide(q)
    assert q.transducer is q.transducer
    fresh = query([("Dp", "p")], hyps=[("q", "1")])
    assert q == fresh and hash(q) == hash(fresh)


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
