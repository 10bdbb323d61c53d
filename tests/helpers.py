"""Shared test utilities: seeded generators, componentwise reference ops, an
exact reference decider and oracle, a reference for closure keys and query
texts at the decider's budgets."""

from __future__ import annotations

import random
from functools import cache
from itertools import product

from magari import (
    And,
    Box,
    Const,
    Delta,
    Element,
    Equation,
    Formula,
    Iff,
    Implies,
    Lasso,
    Nabla,
    Not,
    Or,
    QuasiQuery,
    Var,
    Verdict,
    canonicalize,
    delta_reference,
    desugar,
    elements_up_to,
    free_vars,
    holds_equation,
)
from magari.decide import Transducer, _alphabet

# === Componentwise reference operations on truncations ===


def bits_not(v):
    return tuple(1 - b for b in v)


def bits_and(u, v):
    return tuple(a & b for a, b in zip(u, v))


def bits_or(u, v):
    return tuple(a | b for a, b in zip(u, v))


def bits_implies(u, v):
    return tuple((1 - a) | b for a, b in zip(u, v))


def box_reference(v):
    # cumulative conjunction including the current coordinate
    return bits_and(v, delta_reference(v))


def nabla_reference(v):
    return box_reference(bits_not(box_reference(bits_not(box_reference(v)))))


# === Seeded random generators ===


def random_element(rng: random.Random, max_prefix: int) -> Element:
    n = rng.randint(0, max_prefix)
    bits = [rng.randint(0, 1) for _ in range(n)]
    return canonicalize(bits, rng.randint(0, 1))


def random_formula(rng: random.Random, variables, size: int, modal_budget: int = 4, sugar: int = 0) -> Formula:
    """sugar > 0 draws #, @ and <-> that many times more often on top of the usual mix."""
    if size <= 1:
        if variables and rng.random() < 0.75:
            return Var(rng.choice(variables))
        return Const(rng.choice((0, 1)))
    pool = ["not", "and", "or", "imp", "iff"]
    if modal_budget >= 1:
        pool += ["delta", "delta", "box"]
    if modal_budget >= 3:
        pool += ["nabla"]
    pool += [k for k in ("iff", "box", "nabla") if k in pool] * sugar
    kind = rng.choice(pool)
    if kind == "not":
        return Not(random_formula(rng, variables, size - 1, modal_budget, sugar))
    if kind == "delta":
        return Delta(random_formula(rng, variables, size - 1, modal_budget - 1, sugar))
    if kind == "box":
        return Box(random_formula(rng, variables, size - 1, modal_budget - 1, sugar))
    if kind == "nabla":
        return Nabla(random_formula(rng, variables, size - 1, modal_budget - 3, sugar))
    cls = {"and": And, "or": Or, "imp": Implies, "iff": Iff}[kind]
    left = rng.randint(1, size - 1)
    return cls(
        random_formula(rng, variables, left, modal_budget, sugar),
        random_formula(rng, variables, size - left, modal_budget, sugar),
    )


def random_query(rng: random.Random, max_vars: int = 3) -> QuasiQuery:
    """Random quasi-identity mixing satisfiable, valid and refutable shapes."""
    variables = ["p", "q", "r"][: rng.randint(1, max_vars)]

    def side(max_size: int = 8) -> Formula:
        return random_formula(rng, variables, rng.randint(2, max_size), 4)

    hyps = tuple(Equation(side(5), side(5)) for _ in range(rng.choice((0, 0, 0, 1, 1, 2))))
    concls = []
    for _ in range(rng.randint(1, 2)):
        roll = rng.random()
        if roll < 0.15:
            f = side()
            concls.append(Equation(f, f))
        elif roll < 0.30:
            g = random_formula(rng, variables, rng.randint(1, 4), 2)
            concls.append(Equation(Delta(Implies(Delta(g), g)), Delta(g)))
        else:
            concls.append(Equation(side(), side()))
    return QuasiQuery(hyps, tuple(concls))


# === Exact reference decider ===


def reference_decide(query: QuasiQuery) -> Verdict:
    """decide's contract, read off letter by letter on desugared formula trees.

    A configuration is the set of D-subterms, told apart structurally, whose
    memory has fallen to 0; D(g) reads 1 until g has read 0.  The lasso is the
    shortlex-least word whose last letter keeps the hypotheses and violates a
    conclusion and from whose end a hypothesis-true path reaches SAFE, then the
    shortlex-least such path, then the lowest letter that, repeated, keeps the
    hypotheses forever.  Slow and plain: no DAG, no lanes, no batching."""
    parsed = [s for eq in query.hypotheses + query.conclusions for s in (eq.lhs, eq.rhs)]
    sides = [desugar(s) for s in parsed]
    nh2 = 2 * len(query.hypotheses)
    variables = tuple(sorted({v for s in parsed for v in free_vars(s)}))
    letters = list(product((0, 1), repeat=len(variables)))
    slot: dict[Formula, int] = {}  # D-subterm -> its number
    deltas: dict[int, tuple[Delta, int]] = {}  # by id: desugar shares sub-objects
    seen: set[int] = set()
    stack = list(sides)
    while stack:
        f = stack.pop()
        if id(f) not in seen:
            seen.add(id(f))
            if isinstance(f, Delta):
                deltas[id(f)] = (f, slot.setdefault(f, len(slot)))
            stack += [getattr(f, a) for a in ("arg", "lhs", "rhs") if hasattr(f, a)]

    @cache
    def step(fallen: frozenset, letter) -> tuple[bool, bool, frozenset]:
        """(hypotheses kept, a conclusion violated, successor) of one letter."""
        env = dict(zip(variables, letter))
        vals: dict[int, int] = {}

        def val(f) -> int:
            if id(f) not in vals:
                if isinstance(f, Var):
                    vals[id(f)] = env[f.name]
                elif isinstance(f, Const):
                    vals[id(f)] = f.value
                elif isinstance(f, Delta):
                    vals[id(f)] = int(deltas[id(f)][1] not in fallen)
                elif isinstance(f, Not):
                    vals[id(f)] = 1 - val(f.arg)
                else:
                    a, b = val(f.lhs), val(f.rhs)
                    vals[id(f)] = {And: a & b, Or: a | b, Implies: (1 - a) | b}[type(f)]
            return vals[id(f)]

        outs = [val(s) for s in sides]
        kept = all(outs[i] == outs[i + 1] for i in range(0, nh2, 2))
        violated = any(outs[j] != outs[j + 1] for j in range(nh2, len(outs), 2))
        return kept, violated, fallen | {n for d, n in deltas.values() if not val(d.arg)}

    @cache
    def loop_letter(c: frozenset):
        for letter in letters:
            cur, kept = c, True
            while kept:
                kept, _, nxt = step(cur, letter)
                if nxt == cur:
                    break
                cur = nxt
            if kept:
                return letter
        return None

    def bfs(start: frozenset, stop):
        """Hypothesis-true transitions from start in shortlex order of their
        words: the first answer of stop(successor, violated, word), else None."""
        words, queue = {start: ()}, [start]
        for c in queue:
            for letter in letters:
                kept, violated, nxt = step(c, letter)
                if kept:
                    word = words[c] + (letter,)
                    got = stop(nxt, violated, word)
                    if got is not None:
                        return got
                    if nxt not in words:
                        words[nxt] = word
                        queue.append(nxt)
        return None

    @cache
    def path_to_safe(c: frozenset):
        if loop_letter(c) is not None:
            return (), loop_letter(c)
        return bfs(c, lambda nxt, _, word: None if loop_letter(nxt) is None else (word, loop_letter(nxt)))

    def refutes(nxt, violated, word):
        found = path_to_safe(nxt) if violated else None
        return found and Verdict(False, Lasso(variables, word + found[0], found[1], len(word)))

    return bfs(frozenset(), refutes) or Verdict(True)


# === Exact reference oracle ===


def query_vars(query: QuasiQuery) -> list[str]:
    return sorted({v for e in query.hypotheses + query.conclusions for s in (e.lhs, e.rhs) for v in free_vars(s)})


def reference_first_hit(query: QuasiQuery, bound: int) -> dict[str, Element] | None:
    """brute_force's contract, one assignment at a time by exact evaluation: the
    first in the box, elements_up_to(bound) per variable and earlier variables
    (sorted by name) varying slowest, that keeps every hypothesis and violates
    a conclusion."""
    names = query_vars(query)
    for values in product(elements_up_to(bound), repeat=len(names)):
        a = dict(zip(names, values))
        if all(holds_equation(e.lhs, e.rhs, a) for e in query.hypotheses) and any(
            not holds_equation(e.lhs, e.rhs, a) for e in query.conclusions
        ):
            return a
    return None


# === Reference closure keys ===


def reference_compose_key(t: Transducer, operands, n_vars: int) -> tuple:
    """compose_key's key, one Transducer.step per configuration.

    The step's keep lanes are transposed into each letter's successor memory,
    and Moore refinement starts from the partition with one block."""
    top = _alphabet(n_vars)[0]
    letters = range(top.bit_length())
    width = range(t.state_width)
    start = (0,) * len(operands) + (t.initial_state,)
    index = {start: 0}
    configs = [start]
    out_lane: list[int] = []
    succ: list[list[int]] = []
    for *blocks, memory in configs:  # configs grows while it is read: breadth-first
        at = [op[q] for op, q in zip(operands, blocks)]
        outs, keep = t.step([top & -(memory >> b & 1) for b in width], top, [a[0] for a in at])
        kept = [sum(1 << b for b in width if keep[b] >> l & 1) for l in letters]
        row = []
        for s in zip(*[a[1] for a in at], kept):  # each letter's successor
            if s not in index:
                index[s] = len(configs)
                configs.append(s)
            row.append(index[s])
        out_lane.append(outs[0])
        succ.append(row)

    block = [0] * len(configs)
    while True:
        ids: dict[tuple, int] = {}
        refined = [
            ids.setdefault((out_lane[c], tuple(block[s] for s in row)), len(ids)) for c, row in enumerate(succ)
        ]
        if refined == block:
            return tuple(ids)
        block = refined


# === Query texts at the decider's budgets ===


def wide_refutation(n: int) -> tuple[str, str]:
    """x0 & ... & x{n-1} against the same & Dx0: refuted at step 2, over 2**n letters."""
    conj = " & ".join(f"x{i}" for i in range(n))
    return conj, f"{conj} & Dx0"


def delta_cycle(n: int) -> str:
    """D(x0 | x1) & ... & D(x{n-1} | x0) = the same terms reversed & 1; at
    n = 26 it compiles to 105 nodes over 2**26 letters."""
    terms = [f"D(x{i} | x{(i + 1) % n})" for i in range(n)]
    return " & ".join(terms) + " = " + " & ".join(reversed(terms)) + " & 1"
