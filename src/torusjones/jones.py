"""Colored Jones polynomials of torus knots and the auxiliary sequences g, h.

The color-n value of the (a,b)-torus knot is computed from the cyclotomic sum

    J(n) = t^{-ab(n^2-1)} * sum over j in {-(n-1)/2, ..., (n-1)/2}
           of t^{4bj(aj+1)} [2aj+1],

where the index runs over a half-integer grid when n is even.  Internally the
index is doubled (m = 2j runs over integers of fixed parity), which turns the
exponent into ab*m^2 + 2bm and keeps all arithmetic in integers.  The color is
extended to all of Z by J(-n) = -J(n), so J(0) = 0.

``colored_jones`` evaluates the sum term by term into a TPoly; it is the
reference.  ``jones_sequence`` fills each value straight into the run-mark
layout of ``qtorus`` that ``QTElem.apply`` reads (``colored_jones_dense``):
the summand of m is a run of |am+1| equal coefficients, sign(am+1), at
every fourth exponent, and every run lies on one residue class mod 4.  This
module computes the n runs on that stride-4 lattice, and
``qtorus._run_marks`` writes their marks, so a value costs O(n log n) and
the coefficient array is never made.  No cancellation reaches either end of
the sum's span, so the value needs no trim.  A sequence fills J(-n) by
negating the marks of its own cached J(n).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .laurent import TPoly, lambda_poly, quantum_integer
from .qtorus import DiscreteSeq, _negated, _run_marks


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
    """g(n) = t^{-2abn} (t^{2bn} [an+1] - t^{-2bn} [an-1]).

    This is t^{-2abn} (t^2 lambda_{(a+b)n} - t^{-2} lambda_{(a-b)n}) / (t^2 - t^{-2})
    with the division done by the two quantum integers.
    """
    a, b = K.a, K.b
    runs = quantum_integer(a * n + 1).shift(2 * b * n) - quantum_integer(a * n - 1).shift(-2 * b * n)
    return runs.shift(-2 * a * b * n)


def h_seq(K: TorusKnot, n: int) -> TPoly:
    """h(n) = t^{2abn} lambda_{(a-b)(n+1)} - t^{-2abn} lambda_{(a-b)(n-1)}."""
    a, b = K.a, K.b
    c = a - b
    return lambda_poly(c * (n + 1)).shift(2 * a * b * n) - lambda_poly(c * (n - 1)).shift(-2 * a * b * n)


#: colors with ab*n^2 at or past this are refused: their exponents would
#: leave the int64 arithmetic that reads the run-mark layout
_EXPONENT_LIMIT = 1 << 62


def colored_jones_dense(K: TorusKnot, n: int):
    """J(n) in the run-mark layout, as ``qtorus._dense(colored_jones(K, n))``
    gives it, written from the runs of the sum alone; None for n = 0."""
    if n == 0:
        return None
    if n < 0:
        return _negated(colored_jones_dense(K, -n))
    a, b = K.a, K.b
    if a * b * n * n >= _EXPONENT_LIMIT:
        raise BadParams(f"color {n} of {K} has t-exponents past 2^62")
    # the summand of m = 2j, [am+1] times a power of t, is the run of its
    # |am+1| coefficients from t^first on: (first, size, sign)
    runs = []
    for m in range(-(n - 1), n, 2):
        k = a * m + 1
        runs.append((a * b * m * m + 2 * b * m - 2 * (abs(k) - 1), abs(k), 1 if k > 0 else -1))
    low = min(first for first, _size, _sign in runs)
    # Nothing cancels at either end, so the value needs no trim: the lowest
    # point lies on one run only (m = 0 or m = -1), and the two top points of
    # the run of m = n - 1 lie above every other run. Those two are adjacent
    # for n >= 2, so the stride is 4, and that last run ends the value.
    runs = [((first - low) // 4, (first - low) // 4 + size, sign) for first, size, sign in runs]
    return _run_marks(low - a * b * (n * n - 1), 4 if n > 1 else 0, runs)


def _jones_fill(K: TorusKnot, seq: DiscreteSeq, n: int):
    # J(-n) = -J(n), read from the sequence's own cache
    return _negated(seq.dense(-n)) if n < 0 else colored_jones_dense(K, n)


def jones_sequence(K: TorusKnot) -> DiscreteSeq:
    """The colored Jones values of K as a memoized discrete sequence, filled
    densely by ``colored_jones_dense``; a negative color negates the cached
    value of its positive one."""
    return DiscreteSeq.from_dense(f"J_{K}", functools.partial(_jones_fill, K))


def h_sequence(K: TorusKnot) -> DiscreteSeq:
    return DiscreteSeq(f"h_{K}", functools.partial(h_seq, K))
