"""Formula terms over the diagonalizable-algebra signature, with parsing and printing.

Concrete syntax (ASCII, with Unicode aliases in parentheses):

    formula := iff
    iff     := imp { "<->" imp }           left associative      (also accepts "∼", "↔")
    imp     := or [ "->" imp ]             right associative     ("⊃")
    or      := and { "|" and }                                   ("∨")
    and     := unary { "&" unary }                               ("∧")
    unary   := ("!" | "D" | "#" | "@") unary | atom              ("¬", "Δ", "□", "∇")
    atom    := "0" | "1" | ident | "(" formula ")"
    ident   := lowercase letter { lowercase letter | digit | "_" }

"D" is the primitive diagonal operator, "#" the cumulative-conjunction box
derived from it, "@" the first-coordinate projection derived from the box.
Uppercase D is reserved, so identifiers never collide with it.

ElementLit nodes carry algebra constants produced by constant folding; the
parser never emits them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Union

from .algebra import Element, ONE, ZERO, box, delta, format_element, implies as elt_implies, join, meet, nabla, negate


# === AST ===


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: int  # 0 or 1


@dataclass(frozen=True)
class ElementLit:
    element: Element


@dataclass(frozen=True)
class Not:
    arg: "Formula"


@dataclass(frozen=True)
class And:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Or:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Implies:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Iff:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Delta:
    arg: "Formula"


@dataclass(frozen=True)
class Box:
    arg: "Formula"


@dataclass(frozen=True)
class Nabla:
    arg: "Formula"


Formula = Union[Var, Const, ElementLit, Not, And, Or, Implies, Iff, Delta, Box, Nabla]

_BINARY = (And, Or, Implies, Iff)
_UNARY = (Not, Delta, Box, Nabla)


@dataclass(frozen=True)
class NamedFormula:
    """A signature entry: a formula under a name, with arity = its free variables."""

    name: str
    formula: Formula


# === Syntax ===

# Precedence levels; a child is parenthesized when its level is below the
# minimum its position requires under the grammar above.
_LEVEL_IFF, _LEVEL_IMP, _LEVEL_OR, _LEVEL_AND, _LEVEL_UNARY = 1, 2, 3, 4, 5

# operator class -> (symbol, own level, minimum level of each operand)
_SYNTAX: dict[type, tuple[str, int, tuple[int, ...]]] = {
    Not: ("!", _LEVEL_UNARY, (_LEVEL_UNARY,)),
    Delta: ("D", _LEVEL_UNARY, (_LEVEL_UNARY,)),
    Box: ("#", _LEVEL_UNARY, (_LEVEL_UNARY,)),
    Nabla: ("@", _LEVEL_UNARY, (_LEVEL_UNARY,)),
    And: ("&", _LEVEL_AND, (_LEVEL_AND, _LEVEL_UNARY)),
    Or: ("|", _LEVEL_OR, (_LEVEL_OR, _LEVEL_AND)),
    Implies: ("->", _LEVEL_IMP, (_LEVEL_OR, _LEVEL_IMP)),
    Iff: ("<->", _LEVEL_IFF, (_LEVEL_IFF, _LEVEL_IMP)),
}
_PREFIX = {sym: cls for cls, (sym, _, ops) in _SYNTAX.items() if len(ops) == 1}
_INFIX = {sym: (cls, level, ops[1]) for cls, (sym, level, ops) in _SYNTAX.items() if len(ops) == 2}


# === Parsing ===


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_ALIASES = {
    "¬": "!",
    "Δ": "D",
    "□": "#",
    "∇": "@",
    "∧": "&",
    "∨": "|",
    "⊃": "->",
    "∼": "<->",
    "↔": "<->",
}

_SINGLE = set("!&|()01D#@")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _ALIASES:
            tokens.append((_ALIASES[c], i))
            i += 1
            continue
        if c in _SINGLE:
            tokens.append((c, i))
            i += 1
            continue
        if c == "-":
            if text[i : i + 2] == "->":
                tokens.append(("->", i))
                i += 2
                continue
            raise ParseError("expected '->'", i)
        if c == "<":
            if text[i : i + 3] == "<->":
                tokens.append(("<->", i))
                i += 3
                continue
            raise ParseError("expected '<->'", i)
        if c.isascii() and c.islower() and c.isalpha():
            j = i + 1
            while j < n and (text[j].isascii() and (text[j].isalnum() or text[j] == "_") and not text[j].isupper()):
                j += 1
            tokens.append(("ident:" + text[i:j], i))
            i = j
            continue
        if c.isascii() and c.isupper():
            raise ParseError(f"reserved or unknown token {c!r}, variables are lowercase", i)
        raise ParseError(f"unexpected character {c!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, int]:
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of input", len(self.text))
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def here(self) -> int:
        return self.tokens[self.pos][1] if self.pos < len(self.tokens) else len(self.text)

    def parse(self) -> Formula:
        f = self.infix(_LEVEL_IFF)
        if self.pos < len(self.tokens):
            raise ParseError(f"unexpected trailing token {self.peek()!r}", self.here())
        return f

    def infix(self, level: int) -> Formula:
        """A formula whose infix operators all bind at least as tightly as level."""
        f = self.unary()
        while self.peek() in _INFIX and _INFIX[self.peek()][1] >= level:
            cls, _, rhs_level = _INFIX[self.take()[0]]
            f = cls(f, self.infix(rhs_level))
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok in _PREFIX:
            self.take()
            return _PREFIX[tok](self.unary())
        return self.atom()

    def atom(self) -> Formula:
        tok, at = self.take()
        if tok == "0":
            return Const(0)
        if tok == "1":
            return Const(1)
        if tok.startswith("ident:"):
            return Var(tok[6:])
        if tok == "(":
            f = self.infix(_LEVEL_IFF)
            nxt, nat = self.take() if self.pos < len(self.tokens) else (None, len(self.text))
            if nxt != ")":
                raise ParseError("expected ')'", nat if isinstance(nat, int) else len(self.text))
            return f
        raise ParseError(f"expected a formula, got {tok!r}", at)


def parse(text: str) -> Formula:
    return _Parser(text).parse()


# === Printing ===


def format_formula(f: Formula) -> str:
    """Minimal-parentheses text; parse(format_formula(f)) is structurally f.

    ElementLit prints as ``[bits(tail)]`` for reports and is not re-parseable.
    """
    return _fmt(f, 0)


def _fmt(f: Formula, minlevel: int) -> str:
    cls = type(f)
    if cls is Var:
        return f.name
    if cls is Const:
        return str(f.value)
    if cls is ElementLit:
        return "[" + format_element(f.element) + "]"
    if cls not in _SYNTAX:
        raise TypeError(f"not a formula node: {f!r}")
    symbol, level, operands = _SYNTAX[cls]
    if len(operands) == 1:
        s = symbol + _fmt(f.arg, operands[0])
    else:
        s = _fmt(f.lhs, operands[0]) + f" {symbol} " + _fmt(f.rhs, operands[1])
    return "(" + s + ")" if level < minlevel else s


# === Structural operations ===


def subformulas(f: Formula) -> Iterator[Formula]:
    """Preorder walk, repeated subterms included each time they occur."""
    yield f
    if isinstance(f, _UNARY):
        yield from subformulas(f.arg)
    elif isinstance(f, _BINARY):
        yield from subformulas(f.lhs)
        yield from subformulas(f.rhs)


def free_vars(f: Formula) -> tuple[str, ...]:
    """Variable names in first-occurrence order."""
    seen: dict[str, None] = {}
    for g in subformulas(f):
        if isinstance(g, Var):
            seen.setdefault(g.name)
    return tuple(seen)


def substitute(f: Formula, bindings: Mapping[str, Formula]) -> Formula:
    """Simultaneous replacement of variables by formulas."""
    if isinstance(f, Var):
        return bindings.get(f.name, f)
    if isinstance(f, (Const, ElementLit)):
        return f
    if isinstance(f, _UNARY):
        return type(f)(substitute(f.arg, bindings))
    return type(f)(substitute(f.lhs, bindings), substitute(f.rhs, bindings))


def _box_of(f: Formula) -> Formula:
    return And(f, Delta(f))


def desugar(f: Formula) -> Formula:
    """Expand Box, Nabla and Iff into the core connectives {0,1,!,&,|,->,D}.

    Box(f) becomes f & Df; Nabla(f) becomes the box-not-box-not-box chain;
    Iff(f,g) becomes (f -> g) & (g -> f).  Idempotent on core formulas.
    """
    if isinstance(f, (Var, Const, ElementLit)):
        return f
    if isinstance(f, Box):
        return _box_of(desugar(f.arg))
    if isinstance(f, Nabla):
        b1 = _box_of(desugar(f.arg))
        b2 = _box_of(Not(b1))
        return _box_of(Not(b2))
    if isinstance(f, Iff):
        l, r = desugar(f.lhs), desugar(f.rhs)
        return And(Implies(l, r), Implies(r, l))
    if isinstance(f, _UNARY):
        return type(f)(desugar(f.arg))
    return type(f)(desugar(f.lhs), desugar(f.rhs))


# The element semantics of every operator, shared by folding and evaluation.
ELEMENT_OPS = {
    Not: negate,
    Delta: delta,
    Box: box,
    Nabla: nabla,
    And: meet,
    Or: join,
    Implies: elt_implies,
    Iff: lambda a, b: meet(elt_implies(a, b), elt_implies(b, a)),
}


def constant_fold(f: Formula) -> Formula:
    """Replace every maximal closed subterm by the ElementLit of its value.

    Open structure is otherwise untouched; folding a closed formula yields a
    single ElementLit.
    """
    if isinstance(f, (Var, ElementLit)):
        return f
    if isinstance(f, Const):
        return ElementLit(ONE if f.value else ZERO)
    if isinstance(f, _UNARY):
        child = constant_fold(f.arg)
        if isinstance(child, ElementLit):
            return ElementLit(ELEMENT_OPS[type(f)](child.element))
        return type(f)(child)
    l, r = constant_fold(f.lhs), constant_fold(f.rhs)
    if isinstance(l, ElementLit) and isinstance(r, ElementLit):
        return ElementLit(ELEMENT_OPS[type(f)](l.element, r.element))
    return type(f)(l, r)


_MODAL_WEIGHT = {Delta: 1, Box: 1, Nabla: 3}


def modal_depth(f: Formula) -> int:
    """Maximum nesting of the diagonal operator, counting Box as 1 and Nabla as 3."""
    if isinstance(f, _UNARY):
        return _MODAL_WEIGHT.get(type(f), 0) + modal_depth(f.arg)
    if isinstance(f, _BINARY):
        return max(modal_depth(f.lhs), modal_depth(f.rhs))
    return 0


def delta_nodes(f: Formula) -> int:
    """Number of distinct Delta subterms of desugar(f); shared subterms count once."""
    distinct: set[Formula] = set()
    seen: set[int] = set()

    def walk(g: Formula) -> None:
        if id(g) in seen:
            return
        seen.add(id(g))
        if isinstance(g, Delta):
            distinct.add(g)
        if isinstance(g, _UNARY):
            walk(g.arg)
        elif isinstance(g, _BINARY):
            walk(g.lhs)
            walk(g.rhs)

    walk(desugar(f))
    return len(distinct)
