import random
from collections import Counter
from dataclasses import replace

import pytest

from torusjones import cli, operators
from torusjones.classical import (
    a_polynomial,
    a_prime,
    check_a_prime_sigma,
    check_epsilon_factorization,
    check_p_membership_powers,
    divides,
    sigma_comm,
)
from torusjones.jones import SUITE_KNOTS, TorusKnot
from torusjones.laurent import DivisionByZero, MLPoly, TPoly
from torusjones.operators import OPERATORS, build_F, build_G, build_P, build_PQ, build_R, build_named, in_family
from torusjones.qtorus import QTElem, parse

K23 = TorusKnot(2, 3)
K34 = TorusKnot(3, 4)
L = MLPoly.L_pow(1)


def rand_mlpoly(rng, nterms=5):
    return MLPoly(
        {
            (rng.randint(-4, 4), rng.randint(-4, 4)): rng.randint(-9, 9)
            for _ in range(nterms)
        }
    )


def rand_qtelem(rng, nterms=4):
    return QTElem(
        {
            (rng.randint(-3, 3), rng.randint(-3, 3)): TPoly(
                {rng.randint(-5, 5): rng.randint(-9, 9)}
            )
            for _ in range(nterms)
        }
    )


class TestAPolynomial:
    def test_two_family_expansion(self):
        elem = a_polynomial(K23)
        assert type(elem) is MLPoly
        assert elem == (L - 1) * (L * MLPoly.M_pow(6) + 1)
        assert elem == MLPoly({(6, 2): 1, (0, 1): 1, (6, 1): -1, (0, 0): -1})

    def test_generic_family(self):
        elem = a_polynomial(K34)
        assert elem == (L - 1) * (L * L * MLPoly.M_pow(24) - 1)

    def test_vanishes_at_unit_point(self):
        for K in SUITE_KNOTS:
            assert sum(a_polynomial(K).terms.values()) == 0


class TestSigmaComm:
    def test_monomial(self):
        assert sigma_comm(MLPoly({(2, 1): 1})) == MLPoly({(-2, -1): 1})

    def test_involution_and_symmetric_fixed_point(self):
        rng = random.Random(41)
        for _ in range(40):
            x = rand_mlpoly(rng)
            assert sigma_comm(sigma_comm(x)) == x
        sym = L + MLPoly.L_pow(-1) - 2
        assert sigma_comm(sym) == sym

    def test_ring_homomorphism(self):
        rng = random.Random(42)
        for _ in range(40):
            x, y = rand_mlpoly(rng), rand_mlpoly(rng)
            assert sigma_comm(x * y) == sigma_comm(x) * sigma_comm(y)
            assert sigma_comm(x + y) == sigma_comm(x) + sigma_comm(y)

    def test_equivariance_with_epsilon(self):
        rng = random.Random(43)
        for _ in range(40):
            x = rand_qtelem(rng)
            assert x.sigma().epsilon() == sigma_comm(x.epsilon())


class TestEpsilonFactorization:
    def test_named_operators(self):
        assert check_epsilon_factorization(build_F(3, 4)).passed
        assert check_epsilon_factorization(build_F(4, 5)).passed
        assert check_epsilon_factorization(build_G(3)).passed
        assert check_epsilon_factorization(build_G(5)).passed
        assert check_epsilon_factorization(build_PQ(3, 4)).passed
        assert check_epsilon_factorization(build_R(3)).passed

    @pytest.mark.parametrize("K", SUITE_KNOTS, ids=str)
    def test_printed_factorization_matches_image(self, K):
        # every display, the one `reduce` prints first, must stay equal to
        # the reduced operator
        for name in ("G", "R") if K.a == 2 else ("F", "PQ"):
            op = build_named(name, K)
            for text in op.displays:
                assert parse(text).epsilon() == op.element.epsilon(), (op, text)

    def test_an_operator_without_a_display_raises(self):
        with pytest.raises(ValueError, match="no factorization display for operator 'P'"):
            build_P(3, 4).displays

    def test_r_displays_agree(self):
        b = 3
        prod = (L + MLPoly.L_pow(-1) - 2) * (
            L * MLPoly.M_pow(2 * b) + MLPoly.L_pow(-1) * MLPoly.M_pow(-2 * b) + 2
        )
        assert prod == a_prime(TorusKnot(2, b)) ** 2

    def test_pq_displays_agree(self):
        a, b = 3, 4
        sq = (L + MLPoly.L_pow(-1) - 2) ** 2 * (
            L ** 2 * MLPoly.M_pow(2 * a * b)
            + MLPoly.L_pow(-2) * MLPoly.M_pow(-2 * a * b)
            - 2
        ) ** 2
        assert sq == MLPoly.L_pow(-2) * a_prime(TorusKnot(a, b)) ** 4


class TestDivides:
    def test_a_divides_epsilon_F_with_cofactor(self):
        ok, quotient = divides(a_polynomial(K34), build_F(3, 4).element.epsilon())
        assert ok
        expected = (
            MLPoly.M_pow(-24)
            * (MLPoly.M_pow(3) - MLPoly.M_pow(-3))
            * (MLPoly.M_pow(4) - MLPoly.M_pow(-4))
        )
        assert quotient == expected

    def test_a_divides_epsilon_R_square(self):
        ok, quotient = divides(a_polynomial(K23), build_R(3).element.epsilon())
        assert ok
        assert quotient * a_polynomial(K23) == build_R(3).element.epsilon()

    def test_negative_case(self):
        ok, quotient = divides(L - 1, L + 1)
        assert not ok and quotient is None

    def test_zero_divisor_rejected(self):
        with pytest.raises(DivisionByZero):
            divides(MLPoly.zero(), L)

    def test_a_divides_all_named_images(self):
        for op in (build_F(3, 4), build_G(3), build_PQ(3, 4), build_R(3)):
            K = TorusKnot(op.a, op.b)
            ok, _ = divides(a_polynomial(K), op.element.epsilon())
            assert ok, op.name


class TestPowerMembership:
    def test_families(self):
        assert check_p_membership_powers(K34).passed
        assert check_p_membership_powers(K23).passed
        assert check_p_membership_powers(TorusKnot(2, 5)).passed

    @pytest.mark.parametrize("K", [K34, K23], ids=["PQ", "R"])
    def test_reads_the_operator_it_is_given(self, K):
        # a perturbed PQ or R must fail the check with its own residual
        op = build_named("R" if K.a == 2 else "PQ", K)
        assert check_p_membership_powers(K, op).passed
        bad = replace(op, element=op.element + QTElem.L_pow(1))
        report = check_p_membership_powers(K, bad)
        assert (report.status, report.residual) == ("fail", "L")

    def test_verify_all_suite_builds_each_operator_once(self, monkeypatch, capsys):
        calls = Counter()
        build = cli.build_named
        monkeypatch.setattr(cli, "build_named", lambda name, K: calls.update([(name, K)]) or build(name, K))
        assert cli.main(["verify", "all", "--suite", "--json"]) == 0
        assert '"identity": "p-membership"' in capsys.readouterr().out
        # every operator of every knot, once: 22 builds
        expected = {(name, K) for K in SUITE_KNOTS for name, facts in OPERATORS.items() if in_family(facts.family, K)}
        assert calls == Counter(expected)
        assert len(expected) == 22

    @pytest.mark.parametrize("K", [K34, K23], ids=["PQ", "R"])
    def test_both_checks_reduce_and_parse_once(self, monkeypatch, K):
        # the epsilon and p-membership checks of one operator share its
        # t = -1 image and its parsed displays
        op = build_named("R" if K.a == 2 else "PQ", K)
        parsed = []
        parse_text = operators.parse
        monkeypatch.setattr(operators, "parse", lambda text, ring: parsed.append(text) or parse_text(text, ring))
        assert check_epsilon_factorization(op).passed
        image = op.element.epsilon()
        assert check_p_membership_powers(K, op).passed
        assert op.element.epsilon() is image
        assert parsed == list(op.displays)

    @pytest.mark.parametrize("ab", [(3, 4), (2, 3)], ids=["PQ", "R"])
    def test_p_membership_alone_builds_one_operator(self, monkeypatch, ab):
        calls = []
        build = cli.build_named
        monkeypatch.setattr(cli, "build_named", lambda name, K: calls.append(name) or build(name, K))
        assert cli.main(["verify", "p-membership", "-a", str(ab[0]), "-b", str(ab[1])]) == 0
        assert calls == ["R" if ab[0] == 2 else "PQ"]


class TestAPrimeSigma:
    def test_generic_family_twists_by_L(self):
        ap = a_prime(K34)
        assert sigma_comm(ap) == MLPoly.L_pow(-1) * ap
        assert check_a_prime_sigma(K34).passed

    def test_two_family_negates(self):
        ap = a_prime(K23)
        assert sigma_comm(ap) == -ap
        assert check_a_prime_sigma(K23).passed
