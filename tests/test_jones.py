import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusjones.jones import (
    SUITE_KNOTS,
    BadParams,
    TorusKnot,
    colored_jones,
    colored_jones_dense,
    g_seq,
    h_seq,
    jones_sequence,
    lowest_degree_formula,
)
from torusjones.laurent import TPoly, lambda_poly, quantum_integer
from torusjones.operators import build_PQ, verify_annihilation
from torusjones.qtorus import _dense

K23 = TorusKnot(2, 3)
K34 = TorusKnot(3, 4)

# J of the (2,3) knot at color 2, expanded by hand from the defining sum:
# two grid points m = -1, 1 give t^-18 * (-1 + t^12 [3]).
TREFOIL_COLOR2 = TPoly({-18: -1, -10: 1, -6: 1, -2: 1})


class TestTorusKnot:
    def test_validation(self):
        with pytest.raises(BadParams):
            TorusKnot(4, 6)
        with pytest.raises(BadParams):
            TorusKnot(3, 3)
        with pytest.raises(BadParams):
            TorusKnot(1, 2)
        with pytest.raises(BadParams):
            TorusKnot(5, 3)

    def test_suite_is_valid(self):
        assert len(SUITE_KNOTS) == 7


class TestColoredJones:
    def test_color_zero_and_one(self):
        for K in SUITE_KNOTS:
            assert colored_jones(K, 0).is_zero()
            assert colored_jones(K, 1) == TPoly.one()

    def test_trefoil_color_two(self):
        assert colored_jones(K23, 2) == TREFOIL_COLOR2

    def test_trefoil_classical_quotient(self):
        # dividing by [2] recovers the classical Jones polynomial of the
        # trefoil in q = t^4: q^-1 + q^-3 - q^-4
        quotient = colored_jones(K23, 2).divide_exact(quantum_integer(2))
        assert quotient == TPoly({-4: 1, -12: 1, -16: -1})

    def test_parity_extension(self):
        for K in (K23, K34):
            for n in range(-25, 26):
                assert colored_jones(K, -n) == -colored_jones(K, n)

    def test_even_support(self):
        for K in SUITE_KNOTS:
            for n in range(1, 8):
                assert all(e % 2 == 0 for e in colored_jones(K, n).terms)


def assert_same_layout(K, n):
    """The dense fill of J(n) equals the sum's value laid out by ``_dense``,
    field by field: lowest exponent, stride, array (dtype and entries) and
    max |coefficient|."""
    got, expected = colored_jones_dense(K, n), _dense(colored_jones(K, n))
    if expected is None:
        assert got is None, (str(K), n)
        return
    assert got[0] == expected[0] and got[1] == expected[1] and got[3] == expected[3], (str(K), n)
    assert got[2].dtype == expected[2].dtype and np.array_equal(got[2], expected[2]), (str(K), n)


class TestDenseFill:
    @pytest.mark.parametrize("K", SUITE_KNOTS, ids=str)
    def test_matches_sum_on_suite(self, K):
        for n in range(-70, 71):
            assert_same_layout(K, n)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(2, 12)
        .flatmap(lambda a: st.tuples(st.just(a), st.integers(a + 1, 13)))
        .filter(lambda ab: math.gcd(*ab) == 1),
        st.integers(-40, 40),
    )
    def test_matches_sum_on_random_knots(self, ab, n):
        assert_same_layout(TorusKnot(*ab), n)

    def test_sequence_values_are_the_sum(self):
        seq = jones_sequence(K34)
        for n in range(-12, 13):
            assert seq(n) == colored_jones(K34, n)

    def test_sweep_leaves_no_tpoly_in_the_cache(self):
        seq = jones_sequence(TorusKnot(5, 7))
        assert verify_annihilation(build_PQ(5, 7), seq, (4, 60)).passed
        cache = seq._cache
        assert sorted(cache) == list(range(-2, 67))  # PQ reaches L^-6 .. L^6
        assert cache.pop(0) is None
        assert all(isinstance(v, tuple) and isinstance(v[2], np.ndarray) for v in cache.values())

    def test_colors_past_the_int64_exponents_are_refused(self):
        for n in (2**30, -(2**30)):
            with pytest.raises(BadParams, match="past 2\\^62"):
                colored_jones_dense(K23, n)


class TestLowestDegree:
    def test_examples(self):
        assert lowest_degree_formula(K34, 1) == 0
        assert lowest_degree_formula(K34, 2) == -34
        assert lowest_degree_formula(K23, 2) == -18

    def test_against_computed(self, jcache):
        for K in (K23, TorusKnot(2, 5), K34, TorusKnot(3, 5)):
            seq = jcache(K)
            for n in range(1, 13):
                assert seq(n).lowest_degree() == lowest_degree_formula(K, n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lowest_degree_formula(K34, 0)


class TestAuxSequences:
    def test_g_at_zero(self):
        assert g_seq(K34, 0) == TPoly({0: 2})

    def test_g_at_one_by_division(self):
        num = lambda_poly(7).shift(2) - lambda_poly(-1).shift(-2)
        expected = num.divide_exact(TPoly({2: 1, -2: -1})).shift(-24)
        assert g_seq(K34, 1) == expected

    @pytest.mark.parametrize("K", SUITE_KNOTS, ids=str)
    def test_g_matches_the_division_form(self, K):
        den = TPoly({2: 1, -2: -1})
        for n in range(-30, 31):
            num = lambda_poly((K.a + K.b) * n).shift(2) - lambda_poly((K.a - K.b) * n).shift(-2)
            assert g_seq(K, n) == num.divide_exact(den).shift(-2 * K.a * K.b * n), (str(K), n)

    def test_g_recurrence_consistency(self, jcache):
        seq = jcache(K34)
        for n in range(1, 11):
            assert seq(n + 2) - seq(n).shift(-48 * (n + 1)) == g_seq(K34, n + 1)

    def test_h_at_zero(self):
        assert h_seq(K34, 0).is_zero()

    def test_h_at_one(self):
        assert h_seq(K34, 1) == TPoly({28: 1, 20: 1, -24: -2})
