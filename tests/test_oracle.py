"""J(n) of the package against the R-matrix oracle of ``rmatrix.py``, which
shares no formula with it: on every suite knot, at the colors where the
oracle's n^a cost stays small, through both the run-mark fill that the
commands read (``jones_sequence``) and the reference sum (``colored_jones``).
"""

import itertools

import pytest

import rmatrix
from torusjones.jones import SUITE_KNOTS, TorusKnot, colored_jones, jones_sequence

#: the largest color compared on each suite knot; the whole grid takes
#: about a second
TOP_COLOR = {(2, 3): 7, (2, 5): 6, (2, 7): 5, (3, 4): 4, (3, 5): 4, (4, 5): 3, (5, 7): 2}


def test_grid_covers_the_suite():
    assert set(TOP_COLOR) == {(K.a, K.b) for K in SUITE_KNOTS}


@pytest.mark.parametrize("a,b", sorted(TOP_COLOR), ids=lambda v: str(v))
def test_colored_jones_matches_the_braid_trace(a, b):
    K = TorusKnot(a, b)
    seq = jones_sequence(K)
    for n in range(1, TOP_COLOR[a, b] + 1):
        expected = rmatrix.colored_jones(a, b, n)
        assert dict(seq(n).terms) == expected, (a, b, n)
        assert dict(colored_jones(K, n).terms) == expected, (a, b, n)


def test_braid_relation_on_three_factors():
    n = 3
    for index in itertools.product(range(n), repeat=3):
        e = {index: {0: 1}}
        assert rmatrix.apply_word(n, [0, 1, 0], e) == rmatrix.apply_word(n, [1, 0, 1], e)


@pytest.mark.parametrize("a", [1, 2, 3])
def test_unknot_closures_give_the_quantum_integer(a):
    # the closure of sigma_1 ... sigma_{a-1} is the unknot with a - 1
    # crossings: only the framing factor removes their twist
    for n in range(1, 6):
        assert rmatrix.colored_jones(a, 1, n) == rmatrix.qint(n)
