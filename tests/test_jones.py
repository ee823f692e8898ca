import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclotomic import colored_jones_sum
from torusjones.jones import (
    SUITE_KNOTS,
    BadParams,
    TorusKnot,
    color_length,
    colored_jones,
    colored_jones_dense,
    g_seq,
    h_seq,
    jones_sequence,
    lowest_degree_formula,
)
from torusjones.laurent import TPoly, lambda_poly, quantum_integer
from torusjones.operators import build_PQ, verify_annihilation
from torusjones.qtorus import _dense, _expand, _run_marks

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
        # J(2) is [2] times the classical Jones polynomial of the trefoil
        # in q = t^4: q^-1 + q^-3 - q^-4
        assert colored_jones(K23, 2) == quantum_integer(2) * TPoly({-4: 1, -12: 1, -16: -1})

    def test_parity_extension(self):
        for K in (K23, K34):
            for n in range(-25, 26):
                assert colored_jones(K, -n) == -colored_jones(K, n)

    def test_even_support(self):
        for K in SUITE_KNOTS:
            for n in range(1, 8):
                assert all(e % 2 == 0 for e in colored_jones(K, n).terms)


def lattice_array(v: TPoly) -> np.ndarray:
    """The int64 coefficients of v on its exponent lattice (the gcd of its
    gaps), from the lowest exponent to the highest."""
    exps = sorted(v.terms)
    stride = math.gcd(*(e - exps[0] for e in exps)) or 1
    arr = np.zeros((exps[-1] - exps[0]) // stride + 1, dtype=np.int64)
    for e in exps:
        arr[(e - exps[0]) // stride] = v.terms[e]
    return arr


def assert_same_layout(K, n):
    """The sequence's fill of J(n) equals the sum's value laid out by ``_dense``,
    field by field: lowest exponent, stride, length, max |coefficient| and
    run marks (positions, dtype and values). The marks expand to the sum's
    coefficient array, in dtype and in every entry, and the length is that
    array's."""
    value = colored_jones_sum(K, n)
    got, expected = jones_sequence(K).dense(n), _dense(value)
    if expected is None:
        assert got is None, (str(K), n)
        return
    assert got[:4] == expected[:4], (str(K), n)
    assert np.array_equal(got[4], expected[4]), (str(K), n)
    assert got[5].dtype == expected[5].dtype and np.array_equal(got[5], expected[5]), (str(K), n)
    arr, expanded = lattice_array(value), _expand(got)
    assert got[2] == len(arr), (str(K), n)
    assert expanded.dtype == arr.dtype and np.array_equal(expanded, arr), (str(K), n)


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
            assert seq(n) == colored_jones_sum(K34, n)

    def test_fill_leaves_negative_colors_to_the_sequence(self):
        with pytest.raises(ValueError, match="jones_sequence makes J"):
            colored_jones_dense(K34, -1)
        seq = jones_sequence(K34)
        assert seq(-5) == -seq(5)
        assert seq.dense(-5)[4] is seq.dense(5)[4]

    def test_sweep_leaves_no_tpoly_in_the_cache(self):
        seq = jones_sequence(TorusKnot(5, 7))
        assert verify_annihilation(build_PQ(5, 7), seq, (4, 60)).passed
        cache = seq._cache
        assert sorted(cache) == list(range(-2, 67))  # PQ reaches L^-6 .. L^6
        assert cache.pop(0) is None
        # each value keeps its length, not its coefficients: no cached
        # value holds an array longer than its marks
        assert all(isinstance(v, tuple) and isinstance(v[2], int) for v in cache.values())
        assert all(len(x) <= len(v[4]) for v in cache.values() for x in v if isinstance(x, np.ndarray))

    def test_run_boundaries_that_meet(self):
        """Three boundaries meet at 2 and sum to +1; two meet at 4 and
        cancel, so 4 has no mark. The runs are 0..1, 2..3, 1, 4 and 3..5,
        signs +, +, -, +, +: coefficients 1, 0, 1, 2, 2, 1."""
        value = _run_marks(-7, 4, [(0, 2, 1), (2, 4, 1), (1, 2, -1), (4, 5, 1), (3, 6, 1)])
        lo, stride, length, vmax, pos, marks = value
        assert (lo, stride, length, vmax) == (-7, 4, 6, 2)
        assert pos.dtype.name == "int64" and pos.tolist() == [0, 1, 2, 3, 5, 6]
        assert marks.dtype.name == "int64" and marks.tolist() == [1, -1, 1, 1, -1, -1]
        assert _expand(value).tolist() == [1, 0, 1, 2, 2, 1]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(2, 39)
        .flatmap(lambda a: st.tuples(st.just(a), st.integers(a + 1, 40)))
        .filter(lambda ab: math.gcd(*ab) == 1),
        st.integers(1, 300),
        st.sampled_from([1, -1]),
    )
    def test_span_closed_forms_match_the_fill(self, ab, n, sign):
        """The closed forms give the lowest exponent (field 0) and the
        length (field 2) that the fill computes from its runs, for J(n) and
        J(-n)."""
        K = TorusKnot(*ab)
        value = jones_sequence(K).dense(sign * n)
        assert value[0] == lowest_degree_formula(K, n)
        assert value[1] == (4 if n > 1 else 0)
        assert value[2] == color_length(K, sign * n)

    def test_colors_past_the_cell_limit_are_refused(self):
        """J(4730) of (3,4) spans 67,106,875 coefficients, within the limit
        of 2^26, and fills; J(4731) spans 67,135,256 and is refused, as are
        J(-4731) and J(10^8), from the closed forms alone: the refusal at
        10^8 allocates next to nothing."""
        assert color_length(K34, 0) == 0
        assert colored_jones_dense(K34, 4730)[2] == color_length(K34, 4730) == 67_106_875
        message = "color {} of T\\(3,4\\) spans {} coefficients, above the limit of 67,108,864"
        for n, length in ((4731, "67,135,256"), (-4731, "67,135,256"), (10**8, "[0-9,]+")):
            with pytest.raises(BadParams, match=message.format(abs(n), length)):
                jones_sequence(K34).dense(n)
        tracemalloc.start()
        try:
            with pytest.raises(BadParams):
                colored_jones_dense(K34, 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


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
        # g(1) (t^2 - t^-2) = t^-24 (t^2 lambda_7 - t^-2 lambda_-1)
        num = lambda_poly(7).shift(2) - lambda_poly(-1).shift(-2)
        assert g_seq(K34, 1) * TPoly({2: 1, -2: -1}) == num.shift(-24)

    @pytest.mark.parametrize("K", SUITE_KNOTS, ids=str)
    def test_g_matches_the_division_form(self, K):
        den = TPoly({2: 1, -2: -1})
        for n in range(-30, 31):
            num = lambda_poly((K.a + K.b) * n).shift(2) - lambda_poly((K.a - K.b) * n).shift(-2)
            assert g_seq(K, n) * den == num.shift(-2 * K.a * K.b * n), (str(K), n)

    def test_g_recurrence_consistency(self, jcache):
        seq = jcache(K34)
        for n in range(1, 11):
            assert seq(n + 2) - seq(n).shift(-48 * (n + 1)) == g_seq(K34, n + 1)

    def test_h_at_zero(self):
        assert h_seq(K34, 0).is_zero()

    def test_h_at_one(self):
        assert h_seq(K34, 1) == TPoly({28: 1, 20: 1, -24: -2})
