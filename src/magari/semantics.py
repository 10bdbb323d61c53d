"""Evaluation of formulas to algebra elements under variable assignments."""

from __future__ import annotations

from typing import Mapping

from .algebra import Element, ONE, ZERO
from .formulas import _UNARY, ELEMENT_OPS, Const, ElementLit, Formula, Var

Assignment = Mapping[str, Element]


class UnboundVariableError(ValueError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable '{name}'")
        self.name = name


def evaluate(f: Formula, assignment: Assignment) -> Element:
    cls = type(f)
    if cls is Var:
        try:
            return assignment[f.name]
        except KeyError:
            raise UnboundVariableError(f.name) from None
    if cls is Const:
        return ONE if f.value else ZERO
    if cls is ElementLit:
        return f.element
    op = ELEMENT_OPS.get(cls)
    if op is None:
        raise TypeError(f"not a formula node: {f!r}")
    if cls in _UNARY:
        return op(evaluate(f.arg, assignment))
    return op(evaluate(f.lhs, assignment), evaluate(f.rhs, assignment))


def evaluate_closed(f: Formula) -> Element:
    return evaluate(f, {})


def holds_equation(lhs: Formula, rhs: Formula, assignment: Assignment) -> bool:
    """Whether both sides evaluate to the same element (equal at every coordinate)."""
    return evaluate(lhs, assignment) == evaluate(rhs, assignment)
