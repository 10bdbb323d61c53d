"""Preserving classes and parametric expressibility over the free algebra.

For i >= 1 the i-th class constant is the element with i zeros then ones,
the complement of the i-fold delta of zero.  A formula belongs to the i-th
preserving class when evaluating it with every free variable bound to that
constant returns the constant again.  These classes are closed under
superposition, contain conjunction and disjunction, exclude negation and
delta, and are pairwise distinct, witnessed by the class constants' terms.

Given any formula outside the i-th class, two wrapper formulas built here
stay inside the class yet define negation and delta parametrically: each
wrapper w satisfies a two-way entailment tying "w(p, q) equals a fixed
constant" to "q equals not p" (respectively "q equals delta p").  Those
entailments are checked by the exact decision procedure, which is what
verify_precompleteness reports on.

Also here: pairwise class separation, semantic closure enumeration for a
signature by bounded superposition, its classes told apart by canonical
minimal machines rather than decided equations, and synthesis of a closed
{0, delta, not, and, or} term denoting any given element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product

from .algebra import Element
from .decide import Equation, Lasso, QuasiQuery, Verdict, check_verdict, compile_roots, compose_key, decide, variable_keys
from .formulas import (
    And,
    Const,
    Delta,
    Formula,
    Iff,
    Nabla,
    Not,
    Or,
    NamedFormula,
    Var,
    format_formula,
    free_vars,
    substitute,
)
from .semantics import evaluate

# === Preserving classes ===


def class_constant(i: int) -> Element:
    """The preserved element of the i-th class: i zeros followed by ones."""
    if i < 1:
        raise ValueError(f"class index must be >= 1, got {i}")
    return Element((0,) * i, 1)


def preserves(i: int, f: Formula) -> bool:
    """Membership in the i-th preserving class.

    Binds every free variable to the class constant and compares the value
    to the constant; a closed formula belongs iff its value is the constant.
    """
    a = class_constant(i)
    return evaluate(f, {v: a for v in free_vars(f)}) == a


def delta_power_term(i: int) -> Formula:
    """Closed term for the i-fold delta of zero."""
    if i < 0:
        raise ValueError(f"power must be >= 0, got {i}")
    t: Formula = Const(0)
    for _ in range(i):
        t = Delta(t)
    return t


def neg_delta_power_term(i: int) -> Formula:
    """Closed term for the i-th class constant."""
    return Not(delta_power_term(i))


def off_class_constant(i: int, f: Formula) -> Element:
    """Value of f with all variables at the i-th class constant, for f outside the class.

    Formulas inside the class, whose value is the class constant itself, are
    rejected with ValueError.
    """
    a = class_constant(i)
    c = evaluate(f, {v: a for v in free_vars(f)})
    if c == a:
        raise ValueError(
            f"formula {format_formula(f)} lies in preserving class {i}; no displaced constant exists"
        )
    return c


def pairwise_distinct(i_max: int) -> dict[int, Formula]:
    """One separating term per class up to i_max: class j maps to !D^j 0.

    A closed term lies in class i exactly when its value is the i-th class
    constant, and the class constants differ from one another.  So the term
    whose value is the j-th constant belongs to class j and to no other
    class: it separates j from every other class at once, and the pair
    (i, j) reads table[j].  Each term is checked with one evaluation.
    """
    if i_max < 2:
        raise ValueError(f"need at least two classes, got i_max={i_max}")
    table = {j: neg_delta_power_term(j) for j in range(1, i_max + 1)}
    for j, t in table.items():
        if evaluate(t, {}) != class_constant(j):
            raise AssertionError(f"separating term of class {j} misses its class constant")
    return table


# === Wrapper formulas defining negation and delta inside a class ===


def _closed_plug(a_term: Formula, f: Formula) -> Formula:
    """f with every free variable replaced by the class constant's term a_term."""
    return substitute(f, {v: a_term for v in free_vars(f)})


def _wrapper(target: type[Not] | type[Delta], a_term: Formula, c_term: Formula) -> Formula:
    """Class formula w(p, q) with: w(p, q) = c exactly when q = target(p).

    a_term is the class constant's term and c_term the plugged outside
    formula, whose value c is displaced from the class constant.  A
    first-coordinate projection switches between the branch comparing
    (target(p) <-> q) against c_term and the branch pinning the class
    constant: Nabla of not (p <-> q) for negation, Nabla q for delta.
    """
    p, q = Var("p"), Var("q")
    s = Iff(p, q)
    on, off = (Nabla(Not(s)), Nabla(s)) if target is Not else (Nabla(q), Not(Nabla(q)))
    return Or(And(on, Iff(Iff(target(p), q), c_term)), And(off, a_term))


def _cell_terms(i: int, f: Formula) -> tuple[Formula, Formula]:
    """The i-th class constant's term and f plugged with it; ValueError for members."""
    off_class_constant(i, f)
    a_term = neg_delta_power_term(i)
    return a_term, _closed_plug(a_term, f)


def negation_definer(i: int, f: Formula) -> Formula:
    """Class-i formula w(p, q) with: w(p, q) = c exactly when q = not p,
    c being the displaced constant of f, so f must lie outside class i."""
    return _wrapper(Not, *_cell_terms(i, f))


def delta_definer(i: int, f: Formula) -> Formula:
    """Class-i formula w(p, q) with: w(p, q) = c exactly when q = delta p."""
    return _wrapper(Delta, *_cell_terms(i, f))


# === Parametric expressibility witnesses ===


@dataclass(frozen=True)
class ParametricWitness:
    """Data asserting that ``target`` is parametrically expressible.

    ``pairs`` are the defining equations B_j = C_j over the target's
    variables and the output variable.  The check is two entailments:
    target = output entails every pair, and the pairs jointly entail
    target = output.
    """

    target: Formula
    output_var: str
    pairs: tuple[Equation, ...]


def witness_queries(w: ParametricWitness) -> tuple[QuasiQuery, QuasiQuery]:
    """The two entailments a witness must satisfy, as decidable queries."""
    if w.output_var in free_vars(w.target):
        raise ValueError(f"witness variable '{w.output_var}' must not occur in the target formula")
    defining = Equation(w.target, Var(w.output_var))
    return QuasiQuery((defining,), w.pairs), QuasiQuery(w.pairs, (defining,))


def _witness(target: type[Not] | type[Delta], a_term: Formula, c_term: Formula) -> ParametricWitness:
    return ParametricWitness(target(Var("p")), "q", (Equation(_wrapper(target, a_term, c_term), c_term),))


def negation_witness(i: int, f: Formula) -> ParametricWitness:
    return _witness(Not, *_cell_terms(i, f))


def delta_witness(i: int, f: Formula) -> ParametricWitness:
    return _witness(Delta, *_cell_terms(i, f))


# === Precompleteness verification ===


@dataclass(frozen=True)
class PrecompletenessReport:
    """Outcome of checking one class against one outside formula.

    ``passed`` means: the formula is outside the class (its displaced
    constant differs from the class constant), both wrapper formulas are in
    the class, and all four entailments are valid.  Counterexample lassos,
    if any, replay successfully before being reported.
    """

    class_index: int
    formula: Formula
    outside_class: bool
    constant: Element | None = None
    negation_wrapper_in_class: bool = False
    delta_wrapper_in_class: bool = False
    negation_forward: Verdict | None = None
    negation_backward: Verdict | None = None
    delta_forward: Verdict | None = None
    delta_backward: Verdict | None = None
    counterexamples: tuple[Lasso, ...] = ()
    passed: bool = False


def verify_precompleteness(i: int, f: Formula, oracle_bound: int | None = None) -> PrecompletenessReport:
    """Check that f witnesses the displayed facts for class i.

    Failures land in the report; malformed inputs raise ValueError.  Each
    entailment verdict goes through check_verdict: its lasso is replayed and,
    when oracle_bound is given, the verdict is held against the exhaustive
    oracle in that box.  A disagreement raises AssertionError naming the
    class, the witness and the entailment.
    """
    a = class_constant(i)
    c = evaluate(f, {v: a for v in free_vars(f)})
    if c == a:
        return PrecompletenessReport(class_index=i, formula=f, outside_class=False)

    a_term = neg_delta_power_term(i)
    c_term = _closed_plug(a_term, f)
    wn, wd = _witness(Not, a_term, c_term), _witness(Delta, a_term, c_term)
    names = ("negation_forward", "negation_backward", "delta_forward", "delta_backward")
    queries = dict(zip(names, witness_queries(wn) + witness_queries(wd)))
    verdicts = {name: decide(q) for name, q in queries.items()}
    for name, q in queries.items():
        try:
            check_verdict(q, verdicts[name], oracle_bound)
        except AssertionError as e:
            raise AssertionError(f"i={i} witness={format_formula(f)} {name}: {e}") from e

    in_n = preserves(i, wn.pairs[0].lhs)
    in_d = preserves(i, wd.pairs[0].lhs)
    passed = in_n and in_d and all(v.valid for v in verdicts.values())
    return PrecompletenessReport(
        class_index=i,
        formula=f,
        outside_class=True,
        constant=c,
        negation_wrapper_in_class=in_n,
        delta_wrapper_in_class=in_d,
        **verdicts,
        counterexamples=tuple(v.lasso for v in verdicts.values() if v.lasso is not None),
        passed=passed,
    )


# === Semantic closure enumeration ===

_VAR_POOL = "pqrstuvwxyz"


@dataclass(frozen=True)
class ClosureResult:
    classes: tuple[Formula, ...]
    truncated: bool


# a pool variable is p composed with that variable's own machine
_PROJECTION = compile_roots([Var("p")])


def enumerate_closure(sigma: tuple[NamedFormula, ...], nvars: int, depth: int, cap: int) -> ClosureResult:
    """Representatives of the semantic classes generated from nvars variables
    by superposing the signature formulas, up to the given number of rounds.

    Identification is semantic: formulas equal on the free algebra share a
    class, found by looking each candidate's key over the pool's first nvars
    variables up among the classes' keys.  Each signature formula compiles
    once, over its own parameters; compose_key keys a candidate from that
    machine and its operands' keys, and substitute builds it only when it is
    admitted.  When more than cap classes appear the enumeration stops early
    and the result is flagged truncated.
    """
    if nvars < 0 or nvars > len(_VAR_POOL):
        raise ValueError(f"nvars must be between 0 and {len(_VAR_POOL)}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")

    params = [free_vars(e.formula) for e in sigma]
    signature = [(e.formula, ps, compile_roots([e.formula], ps)) for e, ps in zip(sigma, params)]
    classes: dict[tuple, Formula] = {}  # key -> representative, in admission order

    def candidates():
        """(formula, its parameters, its machine, one (key, class) per parameter):
        the pool variables, the closed signature formulas, then each round's
        combinations that use a class the round before found; read lazily, so a
        round's frontier holds every class admitted before it."""
        for v, key in zip(_VAR_POOL, variable_keys(nvars)):
            yield Var("p"), ("p",), _PROJECTION, [(key, Var(v))]
        yield from ((f, ps, t, []) for f, ps, t in signature if not ps)
        keyed = 0  # the classes all of whose combinations an earlier round keyed
        for _ in range(depth):
            frontier = list(classes.items())
            for f, ps, t in signature:
                for combo in product(range(len(frontier)), repeat=len(ps)):
                    if ps and max(combo) >= keyed:
                        yield f, ps, t, [frontier[i] for i in combo]
            if len(classes) == len(frontier):
                return
            keyed = len(frontier)

    for f, ps, t, operands in candidates():
        key = compose_key(t, [k for k, _ in operands], nvars)
        if key not in classes:
            if len(classes) >= cap:
                return ClosureResult(tuple(classes.values()), True)
            classes[key] = substitute(f, {p: g for p, (_, g) in zip(ps, operands)})
    return ClosureResult(tuple(classes.values()), False)


# === Closed-term synthesis ===


def synthesize_term(e: Element) -> Formula:
    """A closed {0, delta, not, and, or} term whose value is exactly e.

    Position k is singled out by delta^k(0) & not delta^(k-1)(0); the term
    joins the indicators of the prefix positions carrying the minority bit
    and complements the join when the tail is 1.
    """

    def indicator(k: int) -> Formula:
        return And(delta_power_term(k), Not(delta_power_term(k - 1)))

    positions = [k for k, b in enumerate(e.prefix, start=1) if b != e.tail]
    term = reduce(Or, map(indicator, positions)) if positions else Const(0)
    return Not(term) if e.tail else term
