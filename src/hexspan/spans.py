"""Closed-form span arithmetic for even separation parameters.

Everything here runs in exact rational arithmetic; the nearest-integer
bracket has a half-open boundary that floating point would get wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError


def nearest_int_bracket(x) -> int:
    """The unique integer in (x - 1/2, x + 1/2], i.e. floor(x + 1/2).

    Exact ties round up: nearest_int_bracket(4.5) = 5.  Accepts ints,
    Fractions, or anything Fraction can represent exactly.
    """
    return math.floor(Fraction(x) + Fraction(1, 2))


@dataclass(frozen=True)
class SpanCertificate:
    """Certificate that the counting form and the quadratic form of the
    span agree: clique_size + extra = [3/8 (l + 4/3)^2]."""

    l: int
    p: int
    clique_size: int
    extra: int
    span: int
    formula_value: int
    parity_case: str

    def to_dict(self) -> dict:
        return {
            "l": self.l,
            "p": self.p,
            "clique_size": self.clique_size,
            "extra": self.extra,
            "span": self.span,
            "formula_value": self.formula_value,
            "parity_case": self.parity_case,
        }


def span_even(l: int) -> SpanCertificate:
    """Span of l-distance coloring of the hexagonal grid for even l >= 8.

    Odd l and even l <= 6 are out of range here and raise instead of
    guessing.
    """
    if l % 2 != 0:
        raise InputError(
            f"l={l} is odd: odd separations are outside this toolkit's range"
        )
    if l < 8:
        raise InputError(
            f"l={l} is too small: the quadratic span formula covers even l >= 8 only"
        )
    p = l // 2
    clique_size = 1 + 3 * p * (p + 1) // 2
    extra = p // 2
    span = clique_size + extra
    formula_value = nearest_int_bracket(Fraction(3, 8) * (Fraction(l) + Fraction(4, 3)) ** 2)
    q, rem = divmod(p, 2)
    if rem == 0:
        parity_case = "p=2q"
        closed = 6 * q * q + 4 * q + 1
    else:
        parity_case = "p=2q+1"
        closed = 6 * q * q + 10 * q + 4
    if span != formula_value or span != closed:
        raise AssertionError(f"span identity failed for l={l}: {span} {formula_value} {closed}")
    return SpanCertificate(l, p, clique_size, extra, span, formula_value, parity_case)
