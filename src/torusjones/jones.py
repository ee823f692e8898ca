"""Colored Jones polynomials of torus knots and the reference sequences g, h.

The color-n value of the (a,b)-torus knot is the cyclotomic sum

    J(n) = t^{-ab(n^2-1)} * sum over j in {-(n-1)/2, ..., (n-1)/2}
           of t^{4bj(aj+1)} [2aj+1],

where the index runs over a half-integer grid when n is even.  Internally the
index is doubled (m = 2j runs over integers of fixed parity), which turns the
exponent into ab*m^2 + 2bm and keeps all arithmetic in integers.  The color is
extended to all of Z by J(-n) = -J(n), so J(0) = 0.

The package has one algorithm for J: ``colored_jones_dense`` fills J(n),
n >= 0, straight into the run-mark layout of ``qtorus`` that
``QTElem.apply`` reads. The summand of m is a run of |am+1| equal
coefficients, sign(am+1), at every fourth exponent, and every run lies on
one residue class mod 4. This module computes the n runs on that stride-4
lattice, and ``qtorus._run_marks`` writes their marks, so a value costs
O(n log n) and the coefficient array is never made. ``jones_sequence``
caches the values, and is the one place that makes J(-n): it negates the
marks of its own cached J(n). ``colored_jones`` reads one value of it as a
TPoly, and the ``jones`` command prints that. The sum itself, term by term,
is the fill's oracle in the tests.

No cancellation reaches either end of the span of J(n), n >= 1, so the
value needs no trim: its lowest point lies on the run of m = 0 or m = -1
alone, its two top points (adjacent for n >= 2) on that of m = n - 1.  So
its lowest t-degree is -ab(n^2-1), plus (a-2)(b-2) for even n, and its
highest ab(n-1)^2 + 2(a+b)(n-1) - ab(n^2-1); ``color_length`` reads the
length off these two closed forms, before any run is made.

``g_seq`` and ``h_seq`` give the paper's auxiliary sequences one color at a
time, as TPolys. They are the references: the verifications read the same
closed forms written once as quantum-torus elements
(``operators.recurrence_rhs`` and ``operators.h_form``), and the tests
check those against these.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .laurent import TPoly, lambda_poly, quantum_integer
from .qtorus import _COLOR_CELL_LIMIT, BadParams, DiscreteSeq, _negated, _run_marks

#: the longest color the ``jones`` command prints: the 512 MiB of
#: ``_COLOR_CELL_LIMIT`` int64 cells, at 128 bytes a term of TPoly and text
PRINT_LIMIT = _COLOR_CELL_LIMIT * 8 // 128


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
    """The colored Jones polynomial J(n) of K, for any integer color n: one
    read of ``jones_sequence``."""
    return jones_sequence(K)(n)


def lowest_degree_formula(K: TorusKnot, n: int) -> int:
    """The lowest t-degree of J(n), n >= 1, from its closed form."""
    if n < 1:
        raise ValueError("the closed form applies to colors n >= 1")
    return K.a * K.b * (1 - n * n) + (K.a - 2) * (K.b - 2) * (1 - n % 2)


def color_length(K: TorusKnot, n: int, limit: int = _COLOR_CELL_LIMIT) -> int:
    """The length of J(n) and of J(-n), from the closed forms of their span;
    0 for n = 0. A length above ``limit`` raises BadParams."""
    n = abs(n)
    top = K.a * K.b * ((n - 1) ** 2 - n * n + 1) + 2 * (K.a + K.b) * (n - 1)
    length = (top - lowest_degree_formula(K, n)) // 4 + 1 if n else 0
    if length > limit:
        raise BadParams(f"color {n} of {K} spans {length:,} coefficients, above the limit of {limit:,}")
    return length


def g_seq(K: TorusKnot, n: int) -> TPoly:
    """g(n) = t^{-2abn} (t^{2bn} [an+1] - t^{-2bn} [an-1]).

    This is t^{-2abn} (t^2 lambda_{(a+b)n} - t^{-2} lambda_{(a-b)n}) / (t^2 - t^{-2})
    with the division done by the two quantum integers; the reference for
    ``operators.recurrence_rhs``, which is (t^2 - t^{-2}) g(n+1).
    """
    a, b = K.a, K.b
    runs = quantum_integer(a * n + 1).shift(2 * b * n) - quantum_integer(a * n - 1).shift(-2 * b * n)
    return runs.shift(-2 * a * b * n)


def h_seq(K: TorusKnot, n: int) -> TPoly:
    """h(n) = t^{2abn} lambda_{(a-b)(n+1)} - t^{-2abn} lambda_{(a-b)(n-1)};
    the reference for ``operators.h_form``."""
    a, b = K.a, K.b
    c = a - b
    return lambda_poly(c * (n + 1)).shift(2 * a * b * n) - lambda_poly(c * (n - 1)).shift(-2 * a * b * n)


def colored_jones_dense(K: TorusKnot, n: int):
    """J(n), n >= 0, in the run-mark layout, written from the runs of the
    sum alone; None for n = 0. ``jones_sequence`` makes J(-n)."""
    if n < 0:
        raise ValueError("the fill takes colors n >= 0; jones_sequence makes J(-n) from J(n)")
    if n == 0:
        return None
    color_length(K, n)
    a, b = K.a, K.b
    # the summand of m = 2j, [am+1] times a power of t, is the run of its
    # |am+1| coefficients from t^first on: (first, size, sign)
    runs = []
    for m in range(-(n - 1), n, 2):
        k = a * m + 1
        runs.append((a * b * m * m + 2 * b * m - 2 * (abs(k) - 1), abs(k), 1 if k > 0 else -1))
    low = min(first for first, _size, _sign in runs)
    # nothing cancels at either end (see above): no trim, and the stride is 4
    runs = [((first - low) // 4, (first - low) // 4 + size, sign) for first, size, sign in runs]
    return _run_marks(low - a * b * (n * n - 1), 4 if n > 1 else 0, runs)


def _jones_fill(K: TorusKnot, seq: DiscreteSeq, n: int):
    # J(-n) = -J(n), read from the sequence's own cache
    return _negated(seq.dense(-n)) if n < 0 else colored_jones_dense(K, n)


def jones_sequence(K: TorusKnot) -> DiscreteSeq:
    """The colored Jones values of K as a memoized discrete sequence, filled
    densely by ``colored_jones_dense``; a negative color negates the cached
    value of its positive one, and nothing else in the package makes J(-n)."""
    return DiscreteSeq.from_dense(f"J_{K}", functools.partial(_jones_fill, K))
