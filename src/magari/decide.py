"""Deciding equations and quasi-identities over ultimately constant sequences.

A list of formulas compiles into one deterministic transducer over their
shared term DAG.  Each distinct Delta subterm owns a single monotone memory
bit, initially 1, holding the conjunction of its child's outputs at all
earlier steps; feeding the letters of an assignment (one bit per variable
per coordinate) produces the coordinates of every root's value in lockstep.

A quasi-identity "hypotheses entail conclusions" fails exactly when some
ultimately constant assignment satisfies every hypothesis equation at every
coordinate while some conclusion equation differs somewhere.  Terms compile as
parsed, closed subterms included, up to AC and idempotence: each maximal & or |
chain becomes the chain of its distinct operand nodes in node order, so chains
equal up to associativity, commutativity and repeats are one node, and a Delta
over them one memory bit.  The memory bits alone are the configuration; they
only ever decrease, so the configuration space is finite and the search below
is exact on the intended carrier.  A configuration is SAFE when some single
letter, repeated, keeps the hypotheses true through stabilization (reached
within state-width steps, by monotonicity) and at the resulting fixpoint.  A
counterexample is a hypothesis-true transition that violates some conclusion
and whose successor reaches a SAFE configuration along hypothesis-true
transitions.

decide returns Valid at once when each conclusion's two sides compiled to one
node.  Otherwise one breadth-first search along hypothesis-true transitions
finds the first counterexample on the fly: run from the all-ones start, it runs
again from the successor of each violating transition it meets, looking for a
path to SAFE, and stops at the first that has one.  A look tests SAFE where a
transition discovers a configuration; a failed one marks every configuration
it visited as hopeless, and both searches skip those, so none is tested twice
and the whole search stays linear in the transitions.  Letters are bit-sliced
ints: letter l is bit l of a lane, its binary digits the variables' bits, the
first variable highest.  So one transducer step covers every letter of one
configuration, and the letters sharing a successor and a violation form one
transition, named by the lowest of them; only a Lasso holds a letter as a
tuple of bits.

Letters are explored lexicographically smallest first and configurations in
discovery order, so the lasso depends only on the configurations words reach,
not on how the DAG was built: the shortlex-least word whose last letter keeps
the hypotheses and violates a conclusion and from whose end a hypothesis-true
path reaches SAFE, then the shortlex-least such path to SAFE, then the lowest
loop letter.  A query compiles once, on first use, into QuasiQuery.transducer;
decide and the independent brute_force oracle both read that one DAG of
class-tagged nodes and share one table of Boolean connectives, _BOOL, each on
its own lanes (ints over the letters, numpy arrays of truncations).  An oracle
lane packs a value truncated to width coordinates into the narrowest unsigned
word with a bit to spare above the tail: bit j is coordinate j+1 and bit width
the tail, which a 1-tail fills down to the end of the prefix.  The oracle
gives each variable its own axis of the assignment box, so a node's array
spans only the variables it depends on.  It drops equations with one node on
both sides and evaluates every node, those off the first variable's axis once
and the rest on doubling slabs of it, up to the first slab holding a hit; delta
is its own cumulative conjunction, each lane's trailing ones found by one carry.
check_verdict holds a verdict's lasso against exact evaluation and, given a
bound, the verdict against the oracle; every disagreement raises.

machine_key names the minimal machine of one formula, so that equal formulas,
and only they, get equal keys without a decide.  A key is itself that machine,
so compose_key keys a superposition s(c1, ..., ck) by running the compiled s
on its operands' keys, one walk of its nodes per configuration rather than a
Transducer.step, and machine_key is such a composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

import numpy as np

from .algebra import Element, canonicalize, element_at
from .formulas import (
    And,
    Box,
    Const,
    Delta,
    Formula,
    Iff,
    Implies,
    Nabla,
    Not,
    Or,
    Var,
    constant_fold,  # neither is called here; perfbench's tracer rebinds both by name
    desugar,
)
from .semantics import holds_equation

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

    @cached_property
    def transducer(self) -> Transducer:
        """Compiled on first use, for decide and the oracle alike: each hypothesis,
        then each conclusion, lhs before rhs.  Not a field, so == and hash ignore it."""
        return compile_roots([s for eq in self.hypotheses + self.conclusions for s in (eq.lhs, eq.rhs)])


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


# Core connectives on bit vectors whose all-ones value is top: a bit per
# letter in a transducer lane, every coordinate bit and the tail bit in an
# oracle lane.  Every walker reads a node as _BOOL[kind](top, x[op[1]], x[op[-1]]):
# a ! node's last child is its only one, so Not ignores its third argument.
_BOOL = {
    Not: lambda top, a, _: top ^ a,
    And: lambda top, a, b: a & b,
    Or: lambda top, a, b: a | b,
    Implies: lambda top, a, b: (top ^ a) | b,
}

Lanes = tuple[int, tuple[int, ...]]  # (top, one mask per variable)

# Most variables a letter may carry: 2**26 letters, so one transducer lane is 8 MiB.
ALPHABET_VARIABLES = 26
# Most lane bits one decide step may hold, one lane per DAG node: 512 MiB.
STEP_BITS = 2**32


def _alphabet(n_vars: int) -> Lanes:
    """(top, masks) over the letters in product order: bit l of variable i's
    mask is bit n_vars-1-i of l.  Built by doubling, in linear time: a new first
    variable owns the upper half, each earlier mask repeats in both halves.
    Over ALPHABET_VARIABLES variables is refused with ValueError."""
    if n_vars > ALPHABET_VARIABLES:
        raise ValueError(
            f"{n_vars} variables give 2**{n_vars} letters, over the budget of 2**{ALPHABET_VARIABLES} letters"
        )
    top, masks = 1, ()
    for _ in range(n_vars):
        half = top.bit_length()
        masks = (top << half,) + tuple(m << half | m for m in masks)
        top = top << half | top
    return top, masks


@dataclass(frozen=True)
class Transducer:
    """Letter-to-letter machine over a compiled term DAG, producing root
    coordinates step by step."""

    # nodes tagged by formula class: (Var, vi) (Const, 0 or 1) (Not, a)
    # (And|Or|Implies, a, b) (Delta, a, state_bit); children precede parents.
    # Every Delta node, closed or open, owns a memory bit.
    nodes: tuple[tuple, ...]
    roots: tuple[int, ...]
    variables: tuple[str, ...]
    state_width: int

    @property
    def initial_state(self) -> int:
        return (1 << self.state_width) - 1

    def step(self, memory: Sequence[int], top: int, var_masks: Sequence[int]) -> tuple[tuple[int, ...], list[int]]:
        """One step for every lane bit at once: each root's output lane and
        each memory bit's keep lane.  top is the all-ones lane, var_masks a
        mask per variable and memory a lane per memory bit; a lane bit is a
        letter.  A delta node emits its memory bit (the past conjunction, 1 at
        step 1) and keeps it where its child outputs 1."""
        nodes = self.nodes
        out = [0] * len(nodes)
        keep = [0] * self.state_width
        for i, op in enumerate(nodes):
            kind = op[0]
            if kind is Delta:
                cur = out[i] = memory[op[2]]
                keep[op[2]] = cur & out[op[1]]
            elif kind is Var:
                out[i] = var_masks[op[1]]
            elif kind is Const:
                out[i] = top if op[1] else 0
            else:
                out[i] = _BOOL[kind](top, out[op[1]], out[op[-1]])
        return tuple(out[r] for r in self.roots), keep


_CHAIN = {And: And, Box: And, Nabla: And, Iff: And, Or: Or}  # the chain each class compiles into


def compile_roots(roots: Sequence[Formula], variables: Sequence[str] | None = None) -> Transducer:
    """Compile parsed formulas jointly: subterms shared, closed ones too,
    distinct up to AC and idempotence of & and |.

    Every node is interned by its key (class and child positions) in one
    table, and a new Delta node takes the next memory bit.  #f, @f and f <-> g
    expand where met into the & chains f & Df, #!#!#f and (f -> g) & (g -> f),
    node for node as in formulas.desugar's tree.  Each maximal & chain and each
    maximal | chain becomes the left-leaning chain of its distinct operand nodes
    in node order, so chains with the same operand set are one node; & and |
    chains never merge, and -> and ! are kept as parsed.  Letters read variables
    in the given order, which must cover every free variable (ValueError
    otherwise), or by default the free variables in name order."""
    index: dict[tuple, int] = {}
    nodes: list[tuple] = []
    state = 0
    built: dict[int, int] = {}  # by id: expansions and substitute reuse objects, so a tree walk is exponential
    var_nodes: dict[str, int] = {}  # name -> node position
    gathered: dict[int, set[int]] = {}  # by id, likewise: a chain object's operand nodes

    def node(key: tuple) -> int:
        nonlocal state
        got = index.get(key)
        if got is None:
            got = index[key] = len(nodes)
            if key[0] is Delta:
                key += (state,)
                state += 1
            nodes.append(key)
        return got

    def chain(cls: type, ops: set[int]) -> int:
        got, *rest = sorted(ops)
        for b in rest:
            got = node((cls, got, b))
        return got

    def operands(f: Formula, cls: type) -> set[int]:
        got = gathered.get(id(f))
        if got is None:
            if type(f) is Iff:
                a, b = build(f.lhs), build(f.rhs)
                got = {node((Implies, a, b)), node((Implies, b, a))}
            elif type(f) is cls:
                got = set()
                for g in (f.lhs, f.rhs):
                    got |= operands(g, cls) if _CHAIN.get(type(g)) is cls else {build(g)}
            else:  # Box or Nabla: the box of the argument, boxed twice more through ! for Nabla
                a = build(f.arg)
                got = (operands(f.arg, And) if _CHAIN.get(type(f.arg)) is And else {a}) | {node((Delta, a))}
                for _ in range(2 if type(f) is Nabla else 0):
                    a = node((Not, chain(And, got)))
                    got = {a, node((Delta, a))}
            gathered[id(f)] = got
        return got

    def build(f: Formula) -> int:
        got = built.get(id(f))
        if got is not None:
            return got
        cls = type(f)
        if cls is And or cls is Or:
            lhs, rhs = f.lhs, f.rhs
            if _CHAIN.get(type(lhs)) is cls or _CHAIN.get(type(rhs)) is cls:
                got = chain(cls, operands(f, cls))
            else:  # the common two-operand chain, without a set
                a, b = build(lhs), build(rhs)
                got = a if a == b else node((cls, a, b) if a < b else (cls, b, a))
        elif cls is Var:
            got = var_nodes[f.name] = node((Var, f.name))
        elif cls is Const:
            got = node((Const, f.value))
        elif cls is Not or cls is Delta:
            got = node((cls, build(f.arg)))
        elif cls is Implies:
            got = node((cls, build(f.lhs), build(f.rhs)))
        elif cls in _CHAIN:  # #, @ or <->: arguments first, so that the expansion recurses no deeper
            for g in (f.lhs, f.rhs) if cls is Iff else (f.arg,):
                build(g)
            got = chain(And, operands(f, And))
        else:
            raise TypeError(f"cannot compile {f!r}: not a parsed formula")
        built[id(f)] = got
        return got

    root_ids = tuple(build(f) for f in roots)  # roots keep every object alive, so no id is reused
    free = sorted(var_nodes)
    var_index = {v: i for i, v in enumerate(free if variables is None else variables)}
    missing = [v for v in free if v not in var_index]
    if missing:
        raise ValueError(f"variable order {tuple(variables)} misses {', '.join(missing)}")
    for v, i in var_nodes.items():
        nodes[i] = (Var, var_index[v])
    # each refers to itself through its closure; dropping both frees this
    # compile's tables now rather than at the next garbage collection
    build = operands = None
    return Transducer(tuple(nodes), root_ids, tuple(var_index), state)


# === Canonical minimal machines ===


def variable_keys(n_vars: int) -> tuple[tuple, ...]:
    """Each variable's key: one block, emitting the variable's letter bits."""
    top, masks = _alphabet(n_vars)
    stay = (0,) * top.bit_length()
    return tuple(((m, stay),) for m in masks)


def machine_key(f: Formula, variables: Sequence[str]) -> tuple:
    """A key that two formulas over the same variables share exactly when
    they are equal on the carrier: f compiled alone over variables and fed
    with each variable's one-block machine, keyed by compose_key."""
    return compose_key(compile_roots([f], variables), variable_keys(len(variables)), len(variables))


def compose_key(t: Transducer, operands: Sequence[tuple], n_vars: int) -> tuple:
    """The key of t's first root with its i-th variable replaced by the formula
    whose key is operands[i], all over the same n_vars variables.

    A key is itself a minimal Mealy machine: per block its output lane over
    the letters and its successor block under each letter, block 0 the start.
    A configuration is one block per operand and t's memory.  One pass over
    t's nodes, the operands' output lanes as its variable lanes, gives t's
    output lane and each letter's successor memory, as each Delta node adds
    its bit to the letters that keep it; each operand moves to its own
    successor.  Transducer.step would have to branch on its caller to serve
    here: decide needs a keep lane per memory bit, this a memory per letter.
    The configurations reachable from the start, listed breadth-first in
    letter order, form a Mealy machine of the composite.  Moore refinement
    from the partition by output lane merges the equivalent ones and numbers
    each block where it first appears in that list, which is breadth-first
    order on the minimal machine: a block is first reached from the first
    configuration of an earlier block.  Output k depends only on letters 1..k
    and every finite word extends to an ultimately constant assignment, so
    equal formulas are equivalent machines; a minimal machine is unique up to
    isomorphism, and the numbering fixes the isomorphism.
    """
    top = (1 << (1 << n_vars)) - 1
    start = (0,) * len(operands) + (t.initial_state,)
    index = {start: 0}
    configs = [start]
    out_lane: list[int] = []
    succ: list[list[int]] = []
    out = [0] * len(t.nodes)
    for *blocks, memory in configs:  # configs grows while it is read: breadth-first
        at = [op[q] for op, q in zip(operands, blocks)]
        kept = [0] * (1 << n_vars)  # each letter's successor memory
        for i, op in enumerate(t.nodes):
            kind = op[0]
            if kind is Delta:
                cur = out[i] = top if memory >> op[2] & 1 else 0
                keep = cur & out[op[1]]
                while keep:  # each letter that keeps the bit
                    kept[(keep & -keep).bit_length() - 1] |= 1 << op[2]
                    keep &= keep - 1
            elif kind is Var:
                out[i] = at[op[1]][0]
            elif kind is Const:
                out[i] = top if op[1] else 0
            else:
                out[i] = _BOOL[kind](top, out[op[1]], out[op[-1]])
        row = []
        for s in zip(*[a[1] for a in at], kept):  # each letter's successor
            if s not in index:
                index[s] = len(configs)
                configs.append(s)
            row.append(index[s])
        out_lane.append(out[t.roots[0]])
        succ.append(row)
    if len(configs) == 1:  # its own key: refining it costs closure about 5%
        return ((out_lane[0], tuple(succ[0])),)

    # Moore refinement by (output lane, successor blocks).  Blocks are numbered
    # in order of first appearance, so equal partitions are equal lists.
    ids: dict = {}
    block = [ids.setdefault(o, len(ids)) for o in out_lane]
    while True:
        ids = {}
        refined = [
            ids.setdefault((out_lane[c], tuple(block[s] for s in row)), len(ids)) for c, row in enumerate(succ)
        ]
        if refined == block:
            return tuple(ids)
        block = refined


# === Quasi-identity decision ===


def decide(query: QuasiQuery) -> Verdict:
    """Valid, or a deterministic lasso counterexample on the intended carrier.
    Over the letter budget or STEP_BITS of lanes a step, refused with ValueError."""
    t = query.transducer
    nh2, n_roots = 2 * len(query.hypotheses), len(t.roots)
    if all(t.roots[j] == t.roots[j + 1] for j in range(nh2, n_roots, 2)):
        return Verdict(True)  # each conclusion's sides compiled to one node
    n_vars, n_nodes = len(t.variables), len(t.nodes)
    if n_vars <= ALPHABET_VARIABLES and n_nodes << n_vars > STEP_BITS:  # else _alphabet refuses
        raise ValueError(f"{n_nodes} nodes over 2**{n_vars} letters need {n_nodes << n_vars >> 23} MiB of lanes"
                         f" a step, over the budget of {STEP_BITS >> 23} MiB")
    lanes = _alphabet(n_vars)
    top = lanes[0]
    width = range(t.state_width)

    def split(outs: tuple[int, ...]) -> tuple[int, int]:
        """Letters that keep every hypothesis, and those of them that violate a conclusion."""
        hyp = top
        for i in range(0, nh2, 2):
            hyp &= ~(outs[i] ^ outs[i + 1])
        viol = 0
        for j in range(nh2, n_roots, 2):
            viol |= outs[j] ^ outs[j + 1]
        return hyp, viol & hyp

    @cache
    def edges(state: int) -> list[tuple[int, int, bool]]:
        """Hypothesis-true transitions out of a configuration in letter order, one
        (lowest letter, successor, violates) per group of letters sharing the last two."""
        outs, keep = t.step([top & -(state >> b & 1) for b in width], *lanes)
        hyp, viol = split(outs)
        if not hyp:
            return []
        kept = [k & hyp for k in keep]
        # (letters, successor) pairs, split by each partly kept memory bit and by viol
        groups = [(hyp, sum(1 << b for b in width if kept[b] == hyp))]
        for k, bit in [(kept[b], 1 << b) for b in width] + [(viol, 0)]:
            if k and k != hyp:
                groups = [(q, s) for p, s in groups for q, s in ((p & k, s | bit), (p & ~k, s)) if q]
        return sorted(((p & -p).bit_length() - 1, s, (p & viol) != 0) for p, s in groups)

    @cache
    def safe_letter(state: int) -> int | None:
        """Lowest letter that, repeated from a configuration, keeps the hypotheses
        until a fixpoint: the lowest of those whose hypotheses held at every pass,
        once it stops moving.  All letters walk at once, each memory bit a lane."""
        memory = [top & -(state >> b & 1) for b in width]
        alive = top
        for _ in range(t.state_width + 2):
            outs, keep = t.step(memory, *lanes)
            alive &= split(outs)[0]
            low = alive & -alive
            if not any((m ^ k) & low for m, k in zip(memory, keep)):
                return low.bit_length() - 1 if low else None
            memory = keep
        raise AssertionError("no fixpoint within the monotone stabilization bound")

    # Configurations known to reach no SAFE one.  A failed path search visits
    # all that its start reaches outside the set, so the set stays closed under
    # reachability: skipping it changes neither answer nor discovery order.
    hopeless: set[int] = set()

    def search(start: int, stop):
        """Breadth-first over hypothesis-true transitions from start in letter
        order: the letters to the first transition that stop(successor,
        violates) answers, and that answer; else None, all it visited hopeless."""
        words: dict[int, list[int]] = {start: []}
        queue = [start]
        for c in queue:
            for letter, s, viol in edges(c):
                got = stop(s, viol)
                if got is not None:
                    return words[c] + [letter], got
                if s not in words and s not in hopeless:
                    words[s] = words[c] + [letter]
                    queue.append(s)
        hopeless.update(words)  # moot for the outer search: its failure ends decide
        return None

    def path_to_safe(c: int) -> tuple[list[int], int] | None:
        """Letters from c to the first SAFE configuration in discovery order, and
        its loop letter.  SAFE is tested where a transition discovers a
        configuration, not where it is expanded: the first SAFE one and its path
        are the same either way, and testing earlier never costs more passes.
        A hopeless c was SAFE-tested and expanded by the failed search that
        marked it, so from the caches the search returns None with no pass."""
        loop = safe_letter(c)
        if loop is not None:
            return [], loop
        return search(c, lambda s, _: safe_letter(s))

    # The first violating transition from the all-ones start whose successor reaches SAFE.
    found = search(t.initial_state, lambda s, viol: path_to_safe(s) if viol else None)
    if found is None:
        return Verdict(True)
    pre, (tail_path, loop) = found
    # decoded once, in product order: the first variable is the high bit
    word = [tuple(l >> (n_vars - 1 - i) & 1 for i in range(n_vars)) for l in [*pre, *tail_path, loop]]
    return Verdict(False, Lasso(t.variables, tuple(word[:-1]), word[-1], len(pre)))


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


# Largest oracle grid in assignments x DAG nodes; a cell is one lane of at most 8 bytes.
ORACLE_CELLS = 2**26
# Assignments covered by the oracle's first slab, at least one first-axis index.
_SLAB_LANES = 4096


def _lane_table(bound: int, width: int):
    """The oracle lanes of elements_up_to(bound), in its order, built without an Element.

    Lanes are the narrowest unsigned words with a bit to spare above the tail
    bit, so that the carry in _delta_scan never wraps.  Entries 2**m up to
    2**(m+1) are the prefixes of length m in product order, each followed by
    the tail that differs from its last bit: prefix r of length m-1 gives r
    then 0 with a 1-tail, and r then 1 with a 0-tail."""
    table = np.empty(2 << bound, dtype=np.min_scalar_type((4 << width) - 1))
    table[:2] = (0, (2 << width) - 1)
    for m in range(1, bound + 1):
        prefixes = table[1 << (m - 1) : 1 << m] & ((1 << (m - 1)) - 1)
        level = table[1 << m : 2 << m].reshape(-1, 2)
        level[:, 0] = prefixes | ((2 << width) - (1 << m))
        level[:, 1] = prefixes | (1 << (m - 1))
    return table


def _delta_scan(v, width: int):
    """Delta on packed lanes of width coordinates and a tail bit: bit j of
    s = v ^ (v + 1) is the conjunction of v's bits 0..j-1, so s holds delta's
    coordinates in bits 0..width-1 and its tail in the spare bit, width+1."""
    full = (1 << width) - 1
    if (v == full).any():
        raise AssertionError("truncation width exceeded in oracle")
    s = v ^ (v + 1)
    return s & full | (s >> 1) & (1 << width)


def brute_force(query: QuasiQuery, bound: int) -> dict[str, Element] | None:
    """First assignment in the box (prefix length <= bound per variable) that
    satisfies all hypotheses and violates some conclusion, else None.

    Refutation is conclusive; None only rules out the searched box.  The
    enumeration order is elements_up_to(bound) per variable, earlier
    variables (sorted by name) varying slowest.  A box whose assignments
    times DAG nodes exceed ORACLE_CELLS is refused with ValueError.

    The box is never built whole: variable i owns axis i of a k-dimensional
    grid, so each node's array broadcasts to the shape of the variables it
    depends on.  Equations whose sides compiled to one node are dropped.
    Nodes off the first axis are evaluated once and those on it once per slab
    of that axis, the first covering at least _SLAB_LANES assignments and each
    later one twice the one before; a slab's arrays die before the next is
    built.  Slabs run in enumeration order and the first slab with a hit
    returns it.  A closed query's box is its one assignment, {}, settled by
    one evaluation without slabs.
    """
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    dag = query.transducer
    nodes = dag.nodes
    # The coordinate past which each node's value is constant on the box: a
    # variable's is bound, a constant's 0, and each Delta adds one.  And
    # whether the node depends on the first variable, whose axis slabs cut.
    settle: list[int] = []
    on_axis: list[bool] = []
    for op in nodes:
        kind = op[0]
        if kind is Var or kind is Const:
            settle.append(bound if kind is Var else 0)
            on_axis.append(kind is Var and op[1] == 0)
        elif kind is Delta:
            settle.append(1 + settle[op[1]])
            on_axis.append(on_axis[op[1]])
        else:
            settle.append(max(settle[op[1]], settle[op[-1]]))
            on_axis.append(on_axis[op[1]] or on_axis[op[-1]])
    width = max(settle, default=0) + 2
    if width > 62:
        raise ValueError(f"oracle truncation width {width} exceeds 62 bits")
    lane = np.min_scalar_type((4 << width) - 1).type
    top = lane((2 << width) - 1)

    n = 2 ** (bound + 1)  # len(elements_up_to(bound)), known before any is built
    k = len(dag.variables)
    total = n**k
    if total * len(nodes) > ORACLE_CELLS:
        raise ValueError(
            f"oracle box of {total} assignments x {len(nodes)} nodes is over the budget of {ORACLE_CELLS} cells"
        )
    nh2, roots = 2 * len(query.hypotheses), dag.roots
    hyps = [(a, b) for a, b in zip(roots[:nh2:2], roots[1:nh2:2]) if a != b]
    concls = [(a, b) for a, b in zip(roots[nh2::2], roots[nh2 + 1 :: 2]) if a != b]
    if not concls:
        return None  # no conclusion can be violated
    table = _lane_table(bound, width) if k else None
    var_vals = [table.reshape((1,) * i + (n,) + (1,) * (k - 1 - i)) for i in range(k)]
    on = [i for i in range(len(nodes)) if on_axis[i]]

    def evaluate(vals: list, ids: list[int]) -> list:
        for i in ids:
            op = nodes[i]
            kind = op[0]
            if kind is Var:
                vals[i] = var_vals[op[1]]
            elif kind is Const:
                vals[i] = top if op[1] else lane(0)
            elif kind is Delta:
                vals[i] = _delta_scan(vals[op[1]], width)
            else:
                vals[i] = _BOOL[kind](top, vals[op[1]], vals[op[-1]])
        return vals

    once = evaluate([None] * len(nodes), [i for i in range(len(nodes)) if not on_axis[i]])

    def first_hit() -> tuple[int, ...] | None:
        vals = evaluate(once.copy(), on)  # local, so the slab's arrays die when it returns
        hyp_all, viol = np.ones((1,) * k, dtype=bool), np.bool_(False)
        for a, b in hyps:
            hyp_all = hyp_all & (vals[a] == vals[b])
        for a, b in concls:
            viol = viol | (vals[a] != vals[b])
        hit = hyp_all & viol
        return np.unravel_index(int(hit.argmax()), hit.shape) if hit.any() else None

    if not k:
        return None if first_hit() is None else {}
    first = var_vals[0]
    rows = -(-_SLAB_LANES // n ** (k - 1))
    start = 0
    while start < n:
        stop = min(n, start + rows)
        var_vals[0] = first[start:stop]
        coords = first_hit()
        if coords is not None:
            coords = (start + int(coords[0]), *coords[1:])
            return {v: element_at(int(c)) for v, c in zip(dag.variables, coords)}
        start = stop
        rows *= 2
    return None


def check_verdict(query: QuasiQuery, verdict: Verdict, bound: int | None = None) -> dict[str, Element] | None:
    """Hold verdict against exact replay and, given a bound, the oracle's box;
    return the oracle's first hit, or None without a bound.

    Raises AssertionError when a lasso fails replay, when the decider said Valid
    but the oracle found a counterexample, or when a decider counterexample lies
    inside the box but the oracle found none there.
    """
    if verdict.lasso is not None and not replay(verdict.lasso, query):
        raise AssertionError("counterexample lasso failed exact replay")
    if bound is None:
        return None
    found = brute_force(query, bound)
    if verdict.valid and found is not None:
        raise AssertionError("decider said Valid but the oracle found a counterexample")
    if verdict.lasso is not None and found is None:
        if all(len(e.prefix) <= bound for e in lasso_assignment(verdict.lasso).values()):
            raise AssertionError("decider counterexample fits the oracle box but the oracle found none")
    return found
