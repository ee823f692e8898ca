import functools
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusjones import operators
from torusjones.jones import SUITE_KNOTS, BadParams, TorusKnot, g_seq, h_seq, jones_sequence
from torusjones.laurent import MLPoly, TPoly, quantum_integer
from torusjones.operators import (
    KernelQuery,
    NamedOperator,
    SystemTooLarge,
    WrongCase,
    a_polynomial_text,
    build_F,
    build_G,
    build_P,
    build_PQ,
    build_Q,
    build_R,
    build_named,
    h_form,
    matches_up_to_unit,
    minimality_kernel,
    recurrence_operator,
    recurrence_rhs,
    verify_annihilation,
    verify_lemma_P,
    verify_lemma_Q,
    verify_pq_consistency,
    verify_recurrence,
    verify_sigma_fixed,
)
from torusjones.qtorus import DiscreteSeq, QTElem, parse

K23 = TorusKnot(2, 3)
K34 = TorusKnot(3, 4)


class TestBuilders:
    def test_F_leading_coefficient(self):
        # c3 for (3,4): t^2(t^14 M^7 + t^-14 M^-7) - t^-2(t^-2 M^-1 + t^2 M)
        F = build_F(3, 4)
        assert F.element.coefficient(7, 3) == TPoly({16: 1})
        assert F.element.coefficient(-7, 3) == TPoly({-12: 1})
        assert F.element.coefficient(-1, 3) == TPoly({-4: -1})
        assert F.element.coefficient(1, 3) == TPoly({0: -1})

    def test_F_lower_coefficients_are_scaled_copies(self):
        F = build_F(3, 4)
        t = QTElem.t_pow
        c3 = QTElem({(k, 0): c for (k, l), c in F.element.terms.items() if l == 3})
        c2 = QTElem({(k, 0): c for (k, l), c in F.element.terms.items() if l == 2})
        c1 = QTElem({(k, 0): c for (k, l), c in F.element.terms.items() if l == 1})
        c0 = QTElem({(k, 0): c for (k, l), c in F.element.terms.items() if l == 0})
        assert c1 == -(t(-96) * QTElem.M_pow(-24) * c3)
        assert c0 == -(t(-48) * QTElem.M_pow(-24) * c2)

    def test_G_constant_coefficient(self):
        # d0 for b=3: -t^-12 M^-6 (t^6 M^2 - t^-6 M^-2)
        G = build_G(3)
        assert G.element.coefficient(-4, 0) == TPoly({-6: -1})
        assert G.element.coefficient(-8, 0) == TPoly({-18: 1})

    def test_param_guards(self):
        with pytest.raises(BadParams):
            build_F(2, 3)
        with pytest.raises(BadParams):
            build_F(3, 6)
        with pytest.raises(BadParams):
            build_G(4)
        with pytest.raises(BadParams):
            build_R(1)
        with pytest.raises(BadParams):
            build_P(4, 6)
        with pytest.raises(BadParams):
            build_named("S", K34)

    @pytest.mark.parametrize("name", ["F", "G", "P", "Q", "PQ", "R"])
    def test_named_on_wrong_family_is_wrong_case(self, name):
        knot = K34 if name in ("G", "R") else K23
        with pytest.raises(WrongCase, match=f"operator {name} applies to"):
            build_named(name, knot)


class TestAnnihilation:
    def test_F(self, jcache):
        for (a, b) in ((3, 4), (3, 5)):
            K = TorusKnot(a, b)
            rep = verify_annihilation(build_F(a, b), jcache(K), (1, 12))
            assert rep.passed, rep.to_json()

    def test_G(self, jcache):
        rep = verify_annihilation(build_G(3), jcache(K23), (1, 12))
        assert rep.passed

    def test_PQ_extended_window(self, jcache):
        rep = verify_annihilation(build_PQ(3, 4), jcache(K34), (1, 12))
        assert rep.passed

    def test_R_extended_window(self, jcache):
        rep = verify_annihilation(build_R(3), jcache(K23), (1, 12))
        assert rep.passed

    def test_zero_operator_passes(self, jcache):
        zero = NamedOperator("F", 3, 4, QTElem.zero())
        assert verify_annihilation(zero, jcache(K34), (1, 5)).passed

    def test_perturbed_G_fails_with_witness(self, jcache):
        g = build_G(3)
        bad = NamedOperator("G", 2, 3, g.element + QTElem.one())
        rep = verify_annihilation(bad, jcache(K23), (1, 5))
        assert not rep.passed
        assert rep.witness_n == 1
        assert rep.residual


def assert_fails_at_first_color(report):
    assert not report.passed
    assert report.witness_n == 1
    assert report.residual


def next_color(closed_form):
    """closed_form with each M^k turned into t^{2k} M^k: applied to 1 it
    gives the value at n + 1 in place of n."""
    return lambda K: QTElem({(k, l): c.shift(2 * k) for (k, l), c in closed_form(K).terms.items()})


def at_L_one(X: QTElem) -> dict:
    """X with L set to 1, as M-exponent -> nonzero coefficient: X applied
    to the constant sequence 1 is this at M = t^{2n}."""
    out = {}
    for (k, _l), c in X.terms.items():
        out[k] = out.get(k, TPoly.zero()) + c
    return {k: c for k, c in out.items() if not c.is_zero()}


@st.composite
def torus_knots(draw, min_a=2):
    a = draw(st.integers(min_a, 39))
    b = draw(st.integers(a + 1, 40).filter(lambda b: math.gcd(a, b) == 1))
    return TorusKnot(a, b)


ONE = DiscreteSeq("1", lambda n: TPoly.one())
CLEARED = TPoly({2: 1, -2: -1})


class TestClosedForms:
    """The closed forms that the recurrence and lemma checks read, against
    the paper's reference sequences color by color."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(K=torus_knots(), n=st.integers(-60, 60))
    def test_recurrence_rhs(self, K, n):
        if K.a == 2:
            expected = CLEARED * quantum_integer(2 * n + 1).shift(-2 * K.b * n)
        else:
            expected = CLEARED * g_seq(K, n + 1)
        assert recurrence_rhs(K).apply(ONE, n) == expected

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(K=torus_knots(min_a=3), n=st.integers(-60, 60))
    def test_h_form(self, K, n):
        assert h_form(K).apply(ONE, n) == h_seq(K, n)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(K=torus_knots(min_a=3))
    def test_P_times_h_is_zero_at_L_one(self, K):
        P = build_P(K.a, K.b).element
        assert at_L_one(P * h_form(K)) == {}
        assert at_L_one((P + parse("t^2*M*L")) * h_form(K)) != {}


class TestLemmas:
    def test_lemma_Q_including_negative_colors(self, jcache):
        assert verify_lemma_Q(build_Q(3, 4), jcache(K34), (-5, 15)).passed
        assert verify_lemma_Q(build_Q(4, 5), jcache(TorusKnot(4, 5)), (1, 8)).passed

    def test_perturbed_Q_fails(self, jcache):
        q = build_Q(3, 4)
        bad = NamedOperator("Q", 3, 4, q.element + QTElem.t_pow(2))
        assert_fails_at_first_color(verify_lemma_Q(bad, jcache(K34), (1, 6)))

    def test_right_hand_side_of_the_next_color_fails(self, monkeypatch, jcache):
        monkeypatch.setattr(operators, "h_form", next_color(h_form))
        assert_fails_at_first_color(verify_lemma_Q(build_Q(3, 4), jcache(K34), (1, 6)))

    def test_lemma_P(self):
        assert verify_lemma_P(build_P(3, 4), (-5, 15)).passed

    def test_P_annihilates_h_at_five(self):
        p = build_P(3, 4)
        assert p.element.apply(DiscreteSeq("h", functools.partial(h_seq, K34)), 5).is_zero()


#: a knot of each recurrence
RECURRENCES = {"three_term": K34, "two_term": TorusKnot(2, 5)}


class TestRecurrences:
    def test_three_term(self, jcache):
        report = verify_recurrence(K34, jcache(K34), (1, 12))
        assert (report.identity, report.passed) == ("recurrence3", True)

    def test_two_term(self, jcache):
        K = TorusKnot(2, 5)
        report = verify_recurrence(K, jcache(K), (1, 12))
        assert (report.identity, report.passed) == ("recurrence2", True)

    @pytest.mark.parametrize("K", SUITE_KNOTS, ids=str)
    def test_epsilon_of_D_is_the_nonabelian_factor(self, K):
        # A_K = (L - 1) * M^{2ab} epsilon(D) for a > 2, (L - 1) * M^{2b} epsilon(D) for a = 2
        m = 2 * K.b if K.a == 2 else 2 * K.a * K.b
        eps = recurrence_operator(K).epsilon()
        assert parse(f"(L-1)*M^{m}", MLPoly) * eps == parse(a_polynomial_text(K.a, K.b), MLPoly)

    @pytest.mark.parametrize("which", RECURRENCES)
    def test_perturbed_operator_fails(self, monkeypatch, jcache, which):
        K = RECURRENCES[which]
        bad = recurrence_operator(K) + QTElem.t_pow(2)
        monkeypatch.setattr(operators, "recurrence_operator", lambda K: bad)
        assert_fails_at_first_color(verify_recurrence(K, jcache(K), (1, 6)))

    @pytest.mark.parametrize("which", RECURRENCES)
    def test_right_hand_side_of_the_next_color_fails(self, monkeypatch, jcache, which):
        K = RECURRENCES[which]
        monkeypatch.setattr(operators, "recurrence_rhs", next_color(recurrence_rhs))
        assert_fails_at_first_color(verify_recurrence(K, jcache(K), (1, 6)))


class TestSigmaFixedness:
    def test_pq_family(self):
        for op in (build_P(3, 4), build_Q(3, 4), build_PQ(3, 4)):
            assert verify_sigma_fixed(op).passed

    def test_r_family(self):
        for b in (3, 5):
            assert verify_sigma_fixed(build_R(b)).passed

    def test_F_is_not_sigma_fixed(self):
        assert not verify_sigma_fixed(build_F(3, 4)).passed


class TestPQConsistency:
    def test_composition_matches_sequential_action(self, jcache):
        assert verify_pq_consistency(K34, jcache(K34), (1, 8)).passed


class TestKernel:
    def test_L0_dimension_zero(self):
        res = minimality_kernel(KernelQuery(K23, 0, 10, (-20, 2), (1, 10)))
        assert res.dimension == 0
        assert res.method == "exact"

    def test_L1_dimension_zero(self):
        res = minimality_kernel(KernelQuery(K23, 1, 10, (-20, 2), (1, 12)))
        assert res.dimension == 0
        assert res.rank == res.unknowns

    def test_L2_contains_G(self):
        g = build_G(3)
        res = minimality_kernel(KernelQuery(K23, 2, 10, (-20, 2), (1, 12)))
        assert res.dimension == 1
        assert matches_up_to_unit(res.basis[0], g.element)

    def test_exact_and_modular_agree(self):
        q_exact = KernelQuery(K23, 2, 10, (-20, 2), (1, 12), method="exact")
        q_mod = KernelQuery(K23, 2, 10, (-20, 2), (1, 12), method="modular")
        r1, r2 = minimality_kernel(q_exact), minimality_kernel(q_mod)
        assert r1.dimension == r2.dimension == 1
        assert r1.basis[0] == r2.basis[0] or r1.basis[0] == -r2.basis[0]

    def test_wider_window_collects_unit_shifts(self):
        # span 27 window admits t-shifts by -2..2 of the span-23 operator
        g = build_G(3)
        res = minimality_kernel(KernelQuery(K23, 2, 10, (-22, 4), (1, 12)))
        assert res.dimension == 5
        assert all(matches_up_to_unit(e, g.element) for e in res.basis)

    def test_system_too_large(self):
        with pytest.raises(SystemTooLarge) as exc:
            minimality_kernel(KernelQuery(K34, 3, 100, (-300, 300), (1, 10)))
        assert exc.value.cap == 20_000

    @pytest.mark.parametrize(
        "query",
        [
            KernelQuery(K23, -1, 10, (-20, 2), (1, 12)),
            KernelQuery(K23, 1, 10, (2, -20), (1, 12)),
            KernelQuery(K23, 1, 10, (-20, 2), (12, 1)),
            KernelQuery(K23, 1, 10, (-20, 2), (1, 12), method="dense"),
        ],
    )
    def test_bad_query_is_bad_params(self, query):
        with pytest.raises(BadParams):
            minimality_kernel(query)

    def test_underdetermined_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            minimality_kernel(KernelQuery(K23, 2, 10, (-20, 2), (1, 2)))
        assert any("underdetermined" in str(w.message) for w in caught)


class TestMatchesUpToUnit:
    def test_unit_shift_matches(self):
        g = build_G(3).element
        shifted = QTElem.t_pow(4) * (QTElem.M_pow(8) * g)
        assert matches_up_to_unit(shifted, g)
        assert matches_up_to_unit(-shifted, g)

    def test_non_multiple_rejected(self):
        g = build_G(3).element
        assert not matches_up_to_unit(g + QTElem.one(), g)
        assert not matches_up_to_unit(build_F(3, 4).element, g)
