"""Deciding equations and quasi-identities over ultimately constant sequences.

A list of formulas compiles into one deterministic transducer over their
shared term DAG.  Each distinct Delta subterm owns a single monotone memory
bit, initially 1, holding the conjunction of its child's outputs at all
earlier steps; feeding the letters of an assignment (one bit per variable
per coordinate) produces the coordinates of every root's value in lockstep.

A quasi-identity "hypotheses entail conclusions" fails exactly when some
ultimately constant assignment satisfies every hypothesis equation at every
coordinate while some conclusion equation differs somewhere.  Memory bits
only ever decrease and literal streams are constant past their prefixes, so
(memory bits, capped step index) ranges over a finite configuration space and
the search below is exact on the intended carrier:

  1. breadth-first exploration of configurations along hypothesis-true
     transitions from the all-ones start;
  2. a configuration is SAFE when some single letter, repeated, keeps the
     hypotheses true through stabilization (reached within state-width plus
     position-cap steps, by monotonicity) and at the resulting fixpoint;
  3. a counterexample is a hypothesis-true transition that violates some
     conclusion and whose successor reaches a SAFE configuration along
     hypothesis-true transitions.

Letters are explored lexicographically smallest first and configurations in
discovery order, so the returned lasso is deterministic.  The transducer and
the independent brute_force oracle walk one DAG of class-tagged nodes and
share one table of Boolean connectives, _BOOL, each on its own carrier (a
bit, a numpy lane of truncations).  The oracle enumerates whole assignment
boxes and realizes delta by its own cumulative-conjunction scan, not by
transducer memory; cross_check holds a decider verdict against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Sequence

import numpy as np

from .algebra import Element, canonicalize, coordinate, elements_up_to
from .formulas import (
    And,
    Delta,
    ElementLit,
    Formula,
    Implies,
    Not,
    Or,
    Var,
    constant_fold,
    desugar,
    free_vars,
)
from .semantics import UnboundVariableError, holds_equation

Letter = tuple[int, ...]


@dataclass(frozen=True)
class Equation:
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class QuasiQuery:
    """hypotheses entail conclusions; an identity has no hypotheses."""

    hypotheses: tuple[Equation, ...]
    conclusions: tuple[Equation, ...]

    def __post_init__(self) -> None:
        if not self.conclusions:
            raise ValueError("a query needs at least one conclusion equation")


@dataclass(frozen=True)
class Lasso:
    """An ultimately constant word: prefix letters, then one letter repeated.

    Letters carry one bit per variable, aligned with ``variables``.  The
    violation step is the 1-based coordinate at which some conclusion differs.
    """

    variables: tuple[str, ...]
    prefix: tuple[Letter, ...]
    loop_letter: Letter
    violation_step: int


@dataclass(frozen=True)
class Verdict:
    valid: bool
    lasso: Lasso | None = None


# === Shared term DAG and transducer ===


@dataclass(frozen=True)
class _Dag:
    # nodes tagged by formula class: (Var, vi) (ElementLit, Element) (Not, a)
    # (And|Or|Implies, a, b) (Delta, a, state_bit); children precede parents
    nodes: tuple[tuple, ...]
    roots: tuple[int, ...]
    variables: tuple[str, ...]
    state_width: int
    position_cap: int


def _flatten(roots: Sequence[Formula]) -> _Dag:
    names = sorted({v for r in roots for v in free_vars(r)})
    var_index = {v: i for i, v in enumerate(names)}
    normalized = [constant_fold(desugar(r)) for r in roots]

    index: dict[tuple, int] = {}
    nodes: list[tuple] = []
    state = 0

    def build(f: Formula) -> int:
        nonlocal state
        cls = type(f)
        if cls is Var:
            key = (Var, var_index[f.name])
        elif cls is ElementLit:
            key = (ElementLit, f.element)
        elif cls is Not or cls is Delta:
            key = (cls, build(f.arg))
        elif cls is And or cls is Or or cls is Implies:
            key = (cls, build(f.lhs), build(f.rhs))
        else:
            raise TypeError(f"unexpected node after desugar and fold: {f!r}")
        got = index.get(key)
        if got is None:
            got = index[key] = len(nodes)
            if cls is Delta:
                key += (state,)
                state += 1
            nodes.append(key)
        return got

    root_ids = tuple(build(r) for r in normalized)
    cap = 1 + max((len(op[1].prefix) for op in nodes if op[0] is ElementLit), default=0)
    return _Dag(tuple(nodes), root_ids, tuple(names), state, cap)


# Boolean semantics of the core connectives on bit vectors whose all-ones
# value is top: the width mask or 1 for the coordinates or the tail of an
# oracle lane.  _BIT tabulates it on single bits (top 1) for the transducer,
# indexed by a for Not and by 2a + b otherwise, so a step makes no call.
_BOOL = {
    Not: lambda top, a: top ^ a,
    And: lambda top, a, b: a & b,
    Or: lambda top, a, b: a | b,
    Implies: lambda top, a, b: (top ^ a) | b,
}
_BIT = {
    cls: tuple(fn(1, *bits) for bits in product((0, 1), repeat=1 if cls is Not else 2))
    for cls, fn in _BOOL.items()
}


class Transducer:
    """Letter-to-letter machine producing root coordinates step by step."""

    def __init__(self, dag: _Dag):
        self._dag = dag
        self.variables = dag.variables
        self.state_width = dag.state_width
        self.initial_state = (1 << dag.state_width) - 1
        self.position_cap = dag.position_cap

    def next_position(self, position: int) -> int:
        return min(position + 1, self.position_cap)

    def step(self, state: int, position: int, letter: Letter) -> tuple[tuple[int, ...], int]:
        """Outputs of every root at this step, and the successor memory.

        A delta node emits its memory bit (the past conjunction, 1 at step 1)
        and then conjoins its child's current output into that bit.
        """
        nodes = self._dag.nodes
        out = [0] * len(nodes)
        new_state = state
        for i, op in enumerate(nodes):
            kind = op[0]
            if kind is Delta:
                bit = op[2]
                cur = (state >> bit) & 1
                out[i] = cur
                if cur and not out[op[1]]:
                    new_state &= ~(1 << bit)
            elif kind is Var:
                out[i] = letter[op[1]]
            elif kind is ElementLit:
                e = op[1]
                out[i] = e.prefix[position - 1] if position <= len(e.prefix) else e.tail
            elif kind is Not:
                out[i] = _BIT[Not][out[op[1]]]
            else:
                out[i] = _BIT[kind][out[op[1]] << 1 | out[op[2]]]
        return tuple(out[r] for r in self._dag.roots), new_state

    def run(self, assignment, n: int) -> list[tuple[int, ...]]:
        """Root outputs for steps 1..n under the given element assignment."""
        rows = []
        state, pos = self.initial_state, 1
        for k in range(1, n + 1):
            try:
                letter = tuple(coordinate(assignment[v], k) for v in self.variables)
            except KeyError as e:
                raise UnboundVariableError(e.args[0]) from None
            outs, state = self.step(state, pos, letter)
            rows.append(outs)
            pos = self.next_position(pos)
        return rows


def compile_roots(roots: Sequence[Formula]) -> Transducer:
    """Compile formulas jointly: desugared, constant folded, subterms shared."""
    return Transducer(_flatten(roots))


# === Quasi-identity decision ===

_Config = tuple[int, int]  # (memory bits, capped position)


def decide(query: QuasiQuery) -> Verdict:
    """Valid, or a deterministic lasso counterexample on the intended carrier."""
    eqs = query.hypotheses + query.conclusions
    t = compile_roots([side for eq in eqs for side in (eq.lhs, eq.rhs)])
    nh = len(query.hypotheses)
    nc = len(query.conclusions)
    letters: list[Letter] = [tuple(bits) for bits in product((0, 1), repeat=len(t.variables))]

    def outcome(outs: tuple[int, ...]) -> tuple[bool, bool]:
        hyp_ok = all(outs[2 * i] == outs[2 * i + 1] for i in range(nh))
        viol = any(outs[2 * j] != outs[2 * j + 1] for j in range(nh, nh + nc))
        return hyp_ok, viol

    # Phase 1: hypothesis-true reachability.
    start: _Config = (t.initial_state, 1)
    order: list[_Config] = [start]
    parent: dict[_Config, tuple[_Config, Letter] | None] = {start: None}
    edges: dict[tuple[_Config, Letter], tuple[_Config, bool]] = {}
    qi = 0
    while qi < len(order):
        cfg = order[qi]
        qi += 1
        state, pos = cfg
        for letter in letters:
            outs, ns = t.step(state, pos, letter)
            hyp_ok, viol = outcome(outs)
            if not hyp_ok:
                continue
            succ = (ns, t.next_position(pos))
            edges[(cfg, letter)] = (succ, viol)
            if succ not in parent:
                parent[succ] = (cfg, letter)
                order.append(succ)

    # Phase 2: SAFE configurations and everything that reaches one.
    max_iter = t.position_cap + t.state_width + 2

    @cache
    def safe_letter(cfg: _Config) -> Letter | None:
        for letter in letters:
            cur = cfg
            for _ in range(max_iter):
                outs, ns = t.step(cur[0], cur[1], letter)
                hyp_ok, _ = outcome(outs)
                if not hyp_ok:
                    break
                nxt = (ns, t.next_position(cur[1]))
                if nxt == cur:
                    return letter
                cur = nxt
            else:
                raise AssertionError("no fixpoint within the monotone stabilization bound")
        return None

    good: set[_Config] = {c for c in order if safe_letter(c) is not None}
    radj: dict[_Config, list[_Config]] = {}
    for (cfg, _letter), (succ, _v) in edges.items():
        radj.setdefault(succ, []).append(cfg)
    stack = list(good)
    while stack:
        c = stack.pop()
        for p in radj.get(c, ()):
            if p not in good:
                good.add(p)
                stack.append(p)

    # Phase 3: first violating transition whose successor stays satisfiable.
    for cfg in order:
        for letter in letters:
            edge = edges.get((cfg, letter))
            if edge is None:
                continue
            succ, viol = edge
            if viol and succ in good:
                return Verdict(False, _build_lasso(t, parent, edges, letters, safe_letter, cfg, letter, succ))
    return Verdict(True)


def _walk_back(parent: dict, c: _Config) -> list[Letter]:
    """Letters along the parent links from the search root to c."""
    back: list[Letter] = []
    while parent[c] is not None:
        c, letter = parent[c]
        back.append(letter)
    back.reverse()
    return back


def _build_lasso(t, parent, edges, letters, safe_letter, cfg, letter, succ) -> Lasso:
    def path_to_safe(c: _Config) -> tuple[list[Letter], _Config]:
        if safe_letter(c) is not None:
            return [], c
        par: dict[_Config, tuple[_Config, Letter] | None] = {c: None}
        queue = [c]
        qi = 0
        while qi < len(queue):
            cur = queue[qi]
            qi += 1
            for let in letters:
                edge = edges.get((cur, let))
                if edge is None:
                    continue
                s, _ = edge
                if s in par:
                    continue
                par[s] = (cur, let)
                if safe_letter(s) is not None:
                    return _walk_back(par, s), s
                queue.append(s)
        raise AssertionError("successor marked good but no safe path found")

    pre = _walk_back(parent, cfg)
    tail_path, safe_cfg = path_to_safe(succ)
    loop = safe_letter(safe_cfg)
    assert loop is not None
    return Lasso(
        variables=t.variables,
        prefix=tuple(pre) + (letter,) + tuple(tail_path),
        loop_letter=loop,
        violation_step=len(pre) + 1,
    )


# === Lasso replay ===


def lasso_assignment(lasso: Lasso) -> dict[str, Element]:
    """The ultimately constant assignment a lasso denotes, canonicalized."""
    width = len(lasso.variables)
    if len(lasso.loop_letter) != width:
        raise ValueError("malformed lasso: loop letter width does not match variables")
    for let in lasso.prefix:
        if len(let) != width:
            raise ValueError("malformed lasso: prefix letter width does not match variables")
    for let in lasso.prefix + (lasso.loop_letter,):
        if any(b not in (0, 1) for b in let):
            raise ValueError("malformed lasso: letters must be 0/1 bits")
    if lasso.violation_step < 1:
        raise ValueError("malformed lasso: violation step must be >= 1")
    return {
        v: canonicalize((let[j] for let in lasso.prefix), lasso.loop_letter[j])
        for j, v in enumerate(lasso.variables)
    }


def replay(lasso: Lasso, query: QuasiQuery) -> bool:
    """Exact-evaluation check that the lasso refutes the query.

    True iff every hypothesis holds as an element equality and some
    conclusion fails.  Raises on malformed lassos instead of returning False.
    """
    assignment = lasso_assignment(lasso)
    if not all(holds_equation(eq.lhs, eq.rhs, assignment) for eq in query.hypotheses):
        return False
    return any(not holds_equation(eq.lhs, eq.rhs, assignment) for eq in query.conclusions)


# === Independent brute-force oracle ===


# Largest oracle grid in assignments x DAG nodes; a cell is two uint64 words.
ORACLE_CELLS = 2**26


def _encode(e: Element, width: int) -> int:
    mask = 0
    for j, b in enumerate(e.prefix):
        mask |= b << j
    if e.tail:
        mask |= ((1 << width) - 1) ^ ((1 << len(e.prefix)) - 1)
    return mask


def _delta_scan(m, t, width: int, full):
    """Cumulative-conjunction delta on width-bit truncations (bit j = coordinate j+1)."""
    if np.any((m == full) & (t == 0)):
        raise AssertionError("truncation width exceeded in oracle")
    one = np.uint64(1)
    pa = m
    s = 1
    while s < width:
        fill = np.uint64((1 << s) - 1)
        pa = pa & (((pa << np.uint64(s)) | fill) & full)
        s <<= 1
    dm = ((pa << one) | one) & full
    dt = (pa >> np.uint64(width - 1)) & t
    return dm, dt


def brute_force(query: QuasiQuery, bound: int) -> dict[str, Element] | None:
    """First assignment in the box (prefix length <= bound per variable) that
    satisfies all hypotheses and violates some conclusion, else None.

    Refutation is conclusive; None only rules out the searched box.  The
    enumeration order is elements_up_to(bound) per variable, earlier
    variables (sorted by name) varying slowest.  A box whose assignments
    times DAG nodes exceed ORACLE_CELLS is refused with ValueError.
    """
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    eqs = query.hypotheses + query.conclusions
    dag = _flatten([side for eq in eqs for side in (eq.lhs, eq.rhs)])
    chain: list[int] = []  # most Delta nodes on a path down from each node
    for op in dag.nodes:
        kind = op[0]
        if kind is Var or kind is ElementLit:
            chain.append(0)
        elif kind is Delta:
            chain.append(1 + chain[op[1]])
        else:
            chain.append(max(chain[j] for j in op[1:]))
    width = max(bound, dag.position_cap - 1) + max(chain, default=0) + 2
    if width > 62:
        raise ValueError(f"oracle truncation width {width} exceeds 62 bits")
    full = np.uint64((1 << width) - 1)

    elements = elements_up_to(bound)
    n = len(elements)
    k = len(dag.variables)
    total = n**k
    if total * len(dag.nodes) > ORACLE_CELLS:
        raise ValueError(
            f"oracle box of {total} assignments x {len(dag.nodes)} nodes is over the budget of {ORACLE_CELLS} cells"
        )
    mask_tab = np.array([_encode(e, width) for e in elements], dtype=np.uint64)
    tail_tab = np.array([e.tail for e in elements], dtype=np.uint64)
    grids = np.meshgrid(*([np.arange(n)] * k), indexing="ij")
    var_vals = [(mask_tab[g.ravel()], tail_tab[g.ravel()]) for g in grids]

    one = np.uint64(1)
    vals: list[tuple] = []
    for op in dag.nodes:
        kind = op[0]
        if kind is Var:
            vals.append(var_vals[op[1]])
        elif kind is ElementLit:
            vals.append((np.uint64(_encode(op[1], width)), np.uint64(op[1].tail)))
        elif kind is Delta:
            m, t = vals[op[1]]
            vals.append(_delta_scan(m, t, width, full))
        else:
            fn = _BOOL[kind]
            args = [vals[j] for j in op[1:]]
            vals.append((fn(full, *(m for m, _ in args)), fn(one, *(t for _, t in args))))

    def eq_bits(i: int):
        m1, t1 = vals[dag.roots[2 * i]]
        m2, t2 = vals[dag.roots[2 * i + 1]]
        return (m1 == m2) & (t1 == t2)

    nh = len(query.hypotheses)
    hyp_all = np.bool_(True)
    for i in range(nh):
        hyp_all = hyp_all & eq_bits(i)
    viol = np.bool_(False)
    for j in range(nh, nh + len(query.conclusions)):
        viol = viol | ~eq_bits(j)

    bad = np.broadcast_to(hyp_all & viol, (total,))
    hits = np.flatnonzero(bad)
    if hits.size == 0:
        return None
    coords = np.unravel_index(int(hits[0]), (n,) * k) if k else ()
    return {v: elements[int(c)] for v, c in zip(dag.variables, coords)}


def cross_check(query: QuasiQuery, verdict: Verdict, bound: int) -> tuple[dict[str, Element] | None, str | None]:
    """The oracle's first hit for query, and why it disagrees with verdict.

    Either may be None.  A decider counterexample must be rediscovered only
    when it lies inside the oracle's box.
    """
    found = brute_force(query, bound)
    if verdict.valid and found is not None:
        return found, "decider said Valid but the oracle found a counterexample"
    if verdict.lasso is not None and found is None:
        if all(len(e.prefix) <= bound for e in lasso_assignment(verdict.lasso).values()):
            return found, "decider counterexample fits the oracle box but the oracle found none"
    return found, None
