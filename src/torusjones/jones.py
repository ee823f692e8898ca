"""Colored Jones polynomials of torus knots and the auxiliary sequences g, h.

The color-n value of the (a,b)-torus knot is computed from the cyclotomic sum

    J(n) = t^{-ab(n^2-1)} * sum over j in {-(n-1)/2, ..., (n-1)/2}
           of t^{4bj(aj+1)} [2aj+1],

where the index runs over a half-integer grid when n is even.  Internally the
index is doubled (m = 2j runs over integers of fixed parity), which turns the
exponent into ab*m^2 + 2bm and keeps all arithmetic in integers.  The color is
extended to all of Z by J(-n) = -J(n), so J(0) = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .laurent import TPoly, lambda_poly, quantum_integer
from .qtorus import DiscreteSeq


class BadParams(ValueError):
    """Invalid torus-knot or operator parameters."""


@dataclass(frozen=True)
class TorusKnot:
    """The (a,b)-torus knot, normalized so that 2 <= a < b and gcd(a,b) = 1."""

    a: int
    b: int

    def __post_init__(self):
        if not (2 <= self.a < self.b):
            raise BadParams(f"need 2 <= a < b, got ({self.a}, {self.b})")
        if math.gcd(self.a, self.b) != 1:
            raise BadParams(f"({self.a}, {self.b}) is a link, not a knot: gcd != 1")

    def __str__(self) -> str:
        return f"T({self.a},{self.b})"


#: The default knot set exercised by verification sweeps.
SUITE_KNOTS = (
    TorusKnot(2, 3),
    TorusKnot(2, 5),
    TorusKnot(2, 7),
    TorusKnot(3, 4),
    TorusKnot(3, 5),
    TorusKnot(4, 5),
    TorusKnot(5, 7),
)


def colored_jones(K: TorusKnot, n: int) -> TPoly:
    """The colored Jones polynomial J(n) of K, for any integer color n."""
    if n == 0:
        return TPoly.zero()
    if n < 0:
        return -colored_jones(K, -n)
    a, b = K.a, K.b
    acc: dict = {}
    for m in range(-(n - 1), n, 2):  # m = 2j
        base = a * b * m * m + 2 * b * m
        bracket = quantum_integer(a * m + 1)
        for e, c in bracket.terms.items():
            key = base + e
            v = acc.get(key, 0) + c
            if v:
                acc[key] = v
            else:
                del acc[key]
    shift = -a * b * (n * n - 1)
    return TPoly._wrap({e + shift: c for e, c in acc.items()})


def lowest_degree_formula(K: TorusKnot, n: int) -> int:
    """Closed form for the lowest t-degree of J(n), n >= 1.

    -ab n^2 + ab for odd n, with an extra (a-2)(b-2) for even n.
    """
    if n < 1:
        raise ValueError("the closed form applies to colors n >= 1")
    a, b = K.a, K.b
    base = -a * b * n * n + a * b
    if n % 2 == 0:
        base += (a - 2) * (b - 2)
    return base


def g_seq(K: TorusKnot, n: int) -> TPoly:
    """g(n) = t^{-2abn} (t^2 lambda_{(a+b)n} - t^{-2} lambda_{(a-b)n}) / (t^2 - t^{-2}).

    The division is exact; a NotDivisible escape would be an implementation bug.
    """
    a, b = K.a, K.b
    num = lambda_poly((a + b) * n).shift(2) - lambda_poly((a - b) * n).shift(-2)
    den = TPoly({2: 1, -2: -1})
    return num.divide_exact(den).shift(-2 * a * b * n)


def h_seq(K: TorusKnot, n: int) -> TPoly:
    """h(n) = t^{2abn} lambda_{(a-b)(n+1)} - t^{-2abn} lambda_{(a-b)(n-1)}."""
    a, b = K.a, K.b
    c = a - b
    return lambda_poly(c * (n + 1)).shift(2 * a * b * n) - lambda_poly(c * (n - 1)).shift(-2 * a * b * n)


def jones_sequence(K: TorusKnot) -> DiscreteSeq:
    """The colored Jones values of K as a memoized discrete sequence."""
    return DiscreteSeq(f"J_{K}", functools.partial(colored_jones, K))


def h_sequence(K: TorusKnot) -> DiscreteSeq:
    return DiscreteSeq(f"h_{K}", functools.partial(h_seq, K))
