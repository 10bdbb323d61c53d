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
signature by bounded superposition, and synthesis of a closed
{0, delta, not, and, or} term denoting any given element.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import Element, neg_delta_power
from .decide import Equation, Lasso, QuasiQuery, Verdict, cross_check, decide, replay
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
    return neg_delta_power(i)


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

    This value necessarily differs from the class constant; formulas inside
    the class are rejected.
    """
    if preserves(i, f):
        raise ValueError(
            f"formula {format_formula(f)} lies in preserving class {i}; no displaced constant exists"
        )
    a = class_constant(i)
    c = evaluate(f, {v: a for v in free_vars(f)})
    if c == a:
        raise AssertionError("non-member evaluated to the class constant")
    return c


def pairwise_distinct(i_max: int) -> dict[tuple[int, int], Formula]:
    """Separating formulas for every ordered pair of classes up to i_max.

    The entry at (i, j) is the j-th class constant's term, which belongs to
    class j but not to class i.  Membership on both sides is verified.
    """
    if i_max < 2:
        raise ValueError(f"need at least two classes, got i_max={i_max}")
    out: dict[tuple[int, int], Formula] = {}
    for i in range(1, i_max + 1):
        for j in range(1, i_max + 1):
            if i == j:
                continue
            t = neg_delta_power_term(j)
            if not preserves(j, t) or preserves(i, t):
                raise AssertionError(f"separation failed for classes ({i}, {j})")
            out[(i, j)] = t
    return out


# === Wrapper formulas defining negation and delta inside a class ===


def _closed_plug(i: int, f: Formula) -> Formula:
    """f with every free variable replaced by the i-th class constant's term."""
    a_term = neg_delta_power_term(i)
    return substitute(f, {v: a_term for v in free_vars(f)})


def negation_definer(i: int, f: Formula) -> Formula:
    """Class-i formula w(p, q) with: w(p, q) = c exactly when q = not p.

    c is the displaced constant of f, so f must lie outside class i.  Shape:
    the first-coordinate projection of p<->q switches between the branch
    comparing (not p <-> q) against the plugged f and the branch pinning the
    class constant.
    """
    off_class_constant(i, f)  # reject members early
    c_term = _closed_plug(i, f)
    a_term = neg_delta_power_term(i)
    p, q = Var("p"), Var("q")
    s = Iff(p, q)
    return Or(
        And(Nabla(Not(s)), Iff(Iff(Not(p), q), c_term)),
        And(Nabla(s), a_term),
    )


def delta_definer(i: int, f: Formula) -> Formula:
    """Class-i formula w(p, q) with: w(p, q) = c exactly when q = delta p."""
    off_class_constant(i, f)
    c_term = _closed_plug(i, f)
    a_term = neg_delta_power_term(i)
    p, q = Var("p"), Var("q")
    return Or(
        And(Nabla(q), Iff(Iff(Delta(p), q), c_term)),
        And(Not(Nabla(q)), a_term),
    )


# === Parametric expressibility witnesses ===


@dataclass(frozen=True)
class ParametricWitness:
    """Data asserting that ``target`` is parametrically expressible.

    ``pairs`` are the defining equations B_j = C_j over the target's
    variables, the output variable and the auxiliary variables.  The check
    is two entailments: target = output entails every pair with the
    auxiliary variables substituted by ``substitutions`` (applied in order),
    and the unsubstituted pairs jointly entail target = output.
    """

    target: Formula
    output_var: str
    pairs: tuple[Equation, ...]
    aux_vars: tuple[str, ...] = ()
    substitutions: tuple[Formula, ...] = ()


def witness_queries(w: ParametricWitness) -> tuple[QuasiQuery, QuasiQuery]:
    """The two entailments a witness must satisfy, as decidable queries."""
    if len(w.aux_vars) != len(w.substitutions):
        raise ValueError("each auxiliary variable needs exactly one substitution")
    target_vars = set(free_vars(w.target))
    for v in (w.output_var, *w.aux_vars):
        if v in target_vars:
            raise ValueError(f"witness variable '{v}' must not occur in the target formula")
    defining = Equation(w.target, Var(w.output_var))
    substituted = list(w.pairs)
    for v, d in zip(w.aux_vars, w.substitutions):
        substituted = [Equation(substitute(e.lhs, {v: d}), substitute(e.rhs, {v: d})) for e in substituted]
    forward = QuasiQuery((defining,), tuple(substituted))
    backward = QuasiQuery(tuple(w.pairs), (defining,))
    return forward, backward


def check_parametric_witness(w: ParametricWitness) -> tuple[Verdict, Verdict]:
    forward, backward = witness_queries(w)
    return decide(forward), decide(backward)


def negation_witness(i: int, f: Formula) -> ParametricWitness:
    return ParametricWitness(
        target=Not(Var("p")),
        output_var="q",
        pairs=(Equation(negation_definer(i, f), _closed_plug(i, f)),),
    )


def delta_witness(i: int, f: Formula) -> ParametricWitness:
    return ParametricWitness(
        target=Delta(Var("p")),
        output_var="q",
        pairs=(Equation(delta_definer(i, f), _closed_plug(i, f)),),
    )


# === Precompleteness verification ===


@dataclass(frozen=True)
class PrecompletenessReport:
    """Outcome of checking one class against one outside formula.

    ``passed`` means: the formula is outside the class, its displaced
    constant differs from the class constant, both wrapper formulas are in
    the class, and all four entailments are valid (plus oracle agreement
    when an oracle bound was given).  Counterexample lassos, if any, replay
    successfully before being reported.
    """

    class_index: int
    formula: Formula
    outside_class: bool
    constant: Element | None = None
    constant_differs: bool = False
    negation_wrapper_in_class: bool = False
    delta_wrapper_in_class: bool = False
    negation_forward: Verdict | None = None
    negation_backward: Verdict | None = None
    delta_forward: Verdict | None = None
    delta_backward: Verdict | None = None
    oracle_agreed: bool | None = None
    counterexamples: tuple[Lasso, ...] = ()
    passed: bool = False


def verify_precompleteness(i: int, f: Formula, oracle_bound: int | None = None) -> PrecompletenessReport:
    """Check that f witnesses the displayed facts for class i.

    Failures land in the report; only malformed inputs raise.  When
    oracle_bound is given, each entailment verdict is cross-checked against
    the exhaustive oracle in that box and disagreement fails the report.
    """
    if preserves(i, f):
        return PrecompletenessReport(class_index=i, formula=f, outside_class=False)

    a = class_constant(i)
    c = off_class_constant(i, f)
    wn = negation_witness(i, f)
    wd = delta_witness(i, f)
    queries: dict[str, QuasiQuery] = {}
    queries["negation_forward"], queries["negation_backward"] = witness_queries(wn)
    queries["delta_forward"], queries["delta_backward"] = witness_queries(wd)
    verdicts = {name: decide(q) for name, q in queries.items()}

    lassos = []
    for name, v in verdicts.items():
        if v.lasso is not None:
            if not replay(v.lasso, queries[name]):
                raise AssertionError(f"counterexample for {name} failed replay")
            lassos.append(v.lasso)

    oracle_agreed = None if oracle_bound is None else all(
        cross_check(q, verdicts[name], oracle_bound)[1] is None for name, q in queries.items()
    )

    in_n = preserves(i, wn.pairs[0].lhs)
    in_d = preserves(i, wd.pairs[0].lhs)
    passed = (
        c != a
        and in_n
        and in_d
        and all(v.valid for v in verdicts.values())
        and oracle_agreed in (None, True)
    )
    return PrecompletenessReport(
        class_index=i,
        formula=f,
        outside_class=True,
        constant=c,
        constant_differs=c != a,
        negation_wrapper_in_class=in_n,
        delta_wrapper_in_class=in_d,
        negation_forward=verdicts["negation_forward"],
        negation_backward=verdicts["negation_backward"],
        delta_forward=verdicts["delta_forward"],
        delta_backward=verdicts["delta_backward"],
        oracle_agreed=oracle_agreed,
        counterexamples=tuple(lassos),
        passed=passed,
    )


# === Semantic closure enumeration ===

_VAR_POOL = "pqrstuvwxyz"


@dataclass(frozen=True)
class ClosureResult:
    classes: tuple[Formula, ...]
    truncated: bool


def _equivalent(f: Formula, g: Formula) -> bool:
    return decide(QuasiQuery((), (Equation(f, g),))).valid


def enumerate_closure(sigma: tuple[NamedFormula, ...], nvars: int, depth: int, cap: int) -> ClosureResult:
    """Representatives of the semantic classes generated from nvars variables
    by superposing the signature formulas, up to the given number of rounds.

    Identification is semantic (decided equality on the free algebra).  When
    more than cap classes appear the enumeration stops early and the result
    is flagged truncated.
    """
    if nvars < 0 or nvars > len(_VAR_POOL):
        raise ValueError(f"nvars must be between 0 and {len(_VAR_POOL)}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")

    classes: list[Formula] = []

    def admit(f: Formula) -> bool:
        # returns False when the cap was hit
        if any(_equivalent(f, g) for g in classes):
            return True
        if len(classes) >= cap:
            return False
        classes.append(f)
        return True

    for name in _VAR_POOL[:nvars]:
        if not admit(Var(name)):
            return ClosureResult(tuple(classes), True)
    for entry in sigma:
        if not free_vars(entry.formula):
            if not admit(entry.formula):
                return ClosureResult(tuple(classes), True)

    for _ in range(depth):
        frontier = list(classes)
        grew = False
        for entry in sigma:
            params = free_vars(entry.formula)
            if not params:
                continue
            for combo in product(frontier, repeat=len(params)):
                candidate = substitute(entry.formula, dict(zip(params, combo)))
                before = len(classes)
                if not admit(candidate):
                    return ClosureResult(tuple(classes), True)
                grew = grew or len(classes) > before
        if not grew:
            break
    return ClosureResult(tuple(classes), False)


# === Closed-term synthesis ===


def synthesize_term(e: Element) -> Formula:
    """A closed {0, delta, not, and, or} term whose value is exactly e.

    Position k is singled out by delta^k(0) & not delta^(k-1)(0); the term
    joins the indicators of the prefix positions carrying the minority bit
    and complements the join when the tail is 1.
    """

    def indicator(k: int) -> Formula:
        return And(delta_power_term(k), Not(delta_power_term(k - 1)))

    if e.tail == 0:
        positions = [k for k, b in enumerate(e.prefix, start=1) if b == 1]
        complement = False
    else:
        positions = [k for k, b in enumerate(e.prefix, start=1) if b == 0]
        complement = True
    term: Formula = Const(0)
    if positions:
        term = indicator(positions[0])
        for k in positions[1:]:
            term = Or(term, indicator(k))
    return Not(term) if complement else term
