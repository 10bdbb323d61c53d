"""Exact arithmetic in the Magari algebra of ultimately constant 0/1 sequences.

Carrier elements are infinite binary sequences that become constant after a
finite prefix.  They form a Boolean algebra under componentwise operations,
and the unary operator ``delta`` sends a sequence to the running conjunction
of its strict predecessors:

    delta(a) = (1, a1, a1&a2, a1&a2&a3, ...)

which makes the structure diagonalizable: delta validates the normality,
transitivity and Loeb identities and fixes the top element.

Coordinates are 1-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class Element:
    """An ultimately constant sequence in canonical form.

    ``prefix`` holds the leading coordinates, ``tail`` the constant value of
    every later coordinate.  Canonical means the prefix is empty or its last
    bit differs from the tail, so equal sequences compare equal as values.
    Use :func:`canonicalize` to build one from arbitrary bits.
    """

    prefix: tuple[int, ...]
    tail: int

    def __post_init__(self) -> None:
        if self.tail not in (0, 1):
            raise ValueError(f"tail must be 0 or 1, got {self.tail!r}")
        if any(b not in (0, 1) for b in self.prefix):
            raise ValueError(f"prefix bits must be 0 or 1, got {self.prefix!r}")
        if self.prefix and self.prefix[-1] == self.tail:
            raise ValueError(f"non-canonical element: prefix {self.prefix} ends in tail {self.tail}")


ZERO = Element((), 0)
ONE = Element((), 1)


def canonicalize(bits: Iterable[int], tail: int) -> Element:
    """Build the Element with the given leading bits and constant tail."""
    prefix = list(bits)
    while prefix and prefix[-1] == tail:
        prefix.pop()
    return Element(tuple(prefix), tail)


def coordinate(a: Element, k: int) -> int:
    """The k-th coordinate of a, k >= 1."""
    if k < 1:
        raise ValueError(f"coordinate index must be >= 1, got {k}")
    if k <= len(a.prefix):
        return a.prefix[k - 1]
    return a.tail


def project(a: Element, n: int) -> tuple[int, ...]:
    """The first n coordinates of a as a bit tuple, n >= 1."""
    if n < 1:
        raise ValueError(f"projection length must be >= 1, got {n}")
    return tuple(coordinate(a, k) for k in range(1, n + 1))


def _zip_bits(a: Element, b: Element) -> Iterator[tuple[int, int]]:
    n = max(len(a.prefix), len(b.prefix))
    for k in range(1, n + 1):
        yield coordinate(a, k), coordinate(b, k)


def meet(a: Element, b: Element) -> Element:
    return canonicalize((x & y for x, y in _zip_bits(a, b)), a.tail & b.tail)


def join(a: Element, b: Element) -> Element:
    return canonicalize((x | y for x, y in _zip_bits(a, b)), a.tail | b.tail)


def negate(a: Element) -> Element:
    return Element(tuple(1 - b for b in a.prefix), 1 - a.tail)


def implies(a: Element, b: Element) -> Element:
    return canonicalize(((1 - x) | y for x, y in _zip_bits(a, b)), (1 - a.tail) | b.tail)


def leq(a: Element, b: Element) -> bool:
    """Componentwise order: a <= b iff every coordinate of a is <= that of b."""
    if a.tail > b.tail:
        return False
    return all(x <= y for x, y in _zip_bits(a, b))


def delta(a: Element) -> Element:
    """Running strict-predecessor conjunction of a.

    Closed form: all ones when a has no zero coordinate; otherwise k ones
    followed by zeros, where k is the position of the first zero of a.
    """
    if 0 in a.prefix:
        return Element((1,) * (a.prefix.index(0) + 1), 0)
    return ONE if a.tail else Element((1,) * (len(a.prefix) + 1), 0)


def delta_reference(bits: Sequence[int]) -> tuple[int, ...]:
    """Reference for delta on a truncation: coordinate i+1 is bits[0]&...&bits[i-1].

    Independent of the closed form above; delta must satisfy
    project(delta(a), n) == delta_reference(project(a, n)) for every n.
    """
    out = [1]
    acc = 1
    for b in bits[:-1]:
        acc &= b
        out.append(acc)
    return tuple(out[: len(bits)])


def box(a: Element) -> Element:
    """Cumulative conjunction including the current coordinate: a & delta(a)."""
    return meet(a, delta(a))


def nabla(a: Element) -> Element:
    """box(not(box(not(box(a))))), the constant extension of a's first coordinate."""
    return box(negate(box(negate(box(a)))))


def element_at(c: int) -> Element:
    """Entry c of elements_up_to's order: (0) and (1), then for c >= 2 the bits
    of c after its leading 1 as the prefix, with the other tail."""
    if c < 2:
        return Element((), c)
    bits = tuple(int(b) for b in bin(c)[3:])
    return Element(bits, 1 - bits[-1])


def elements_up_to(max_prefix: int) -> list[Element]:
    """All 2**(max_prefix+1) canonical Elements with prefix length <= max_prefix,
    shorter prefixes first, each length in product order."""
    if max_prefix < 0:
        raise ValueError(f"max_prefix must be >= 0, got {max_prefix}")
    return [element_at(c) for c in range(2 << max_prefix)]


def format_element(a: Element) -> str:
    """Text form ``bits(tail)``, e.g. ``010(1)``; empty prefix gives ``(0)`` or ``(1)``."""
    return "".join(str(b) for b in a.prefix) + f"({a.tail})"


def parse_element(text: str) -> Element:
    """Inverse of format_element; non-canonical spellings are canonicalized."""
    s = text.strip()
    if len(s) < 3 or s[-1] != ")" or s[-3] != "(" or s[-2] not in "01":
        raise ValueError(f"malformed element text {text!r}, expected e.g. 010(1) or (0)")
    bits = s[:-3]
    if any(c not in "01" for c in bits):
        raise ValueError(f"malformed element prefix in {text!r}")
    return canonicalize((int(c) for c in bits), int(s[-2]))
