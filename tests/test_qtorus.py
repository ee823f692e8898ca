import random

import pytest

from torusjones.laurent import MLPoly, TPoly
from torusjones.qtorus import (
    DiscreteSeq,
    OperatorSyntaxError,
    QTElem,
    acted,
    parse,
    serialize,
)

L = QTElem.L_pow(1)
M = QTElem.M_pow(1)
t = QTElem.t_pow(1)


def rand_qtelem(rng, nterms=4, span=3, tspan=6, coeff=9):
    terms = {}
    for _ in range(nterms):
        k, l = rng.randint(-span, span), rng.randint(-span, span)
        c = TPoly({rng.randint(-tspan, tspan): rng.randint(-coeff, coeff)})
        cur = terms.get((k, l))
        terms[(k, l)] = c if cur is None else cur + c
    return QTElem(terms)


def rand_seq(rng):
    vals = {}

    def fn(n):
        if n not in vals:
            r = random.Random(rng.randint(0, 10**9) + n)
            vals[n] = TPoly({r.randint(-5, 5): r.randint(-5, 5) for _ in range(3)})
        return vals[n]

    return DiscreteSeq("random", fn)


class TestProduct:
    def test_defining_relation(self):
        assert L * M == QTElem({(1, 1): TPoly({2: 1})})
        assert str(L * M) == "t^2*M*L"

    def test_already_normal(self):
        assert M * L == QTElem({(1, 1): TPoly.one()})

    def test_ml_squared(self):
        assert (M * L) * (M * L) == QTElem({(2, 2): TPoly({2: 1})})

    def test_commutation_rule_sweep(self):
        for k in range(-6, 7):
            for l in range(-6, 7):
                lhs = QTElem.L_pow(l) * QTElem.M_pow(k)
                rhs = QTElem({(k, l): TPoly({2 * k * l: 1})})
                assert lhs == rhs

    def test_associativity_random(self):
        rng = random.Random(21)
        for _ in range(40):
            x, y, z = (rand_qtelem(rng) for _ in range(3))
            assert (x * y) * z == x * (y * z)

    def test_relation_annihilates(self):
        rel = L * M - QTElem.t_pow(2) * (M * L)
        assert rel.is_zero()

    def test_inverse_monomials(self):
        assert (M * L) * (M * L) ** -1 == QTElem.one()
        assert L ** -1 * L == QTElem.one()
        x = QTElem.monomial(TPoly({3: -1}), 2, -1)
        assert x * x ** -1 == QTElem.one()


class TestSigma:
    def test_monomial(self):
        x = QTElem.monomial(1, 2, 1)
        assert x.sigma() == QTElem.monomial(1, -2, -1)

    def test_involution_random(self):
        rng = random.Random(22)
        for _ in range(40):
            x = rand_qtelem(rng)
            assert x.sigma().sigma() == x

    def test_on_normalized_product(self):
        # sigma(L*M) = sigma(t^2 M L) = t^2 M^{-1} L^{-1} = sigma(L) * sigma(M)
        assert (L * M).sigma() == QTElem({(-1, -1): TPoly({2: 1})})
        assert (L * M).sigma() == L.sigma() * M.sigma()

    def test_multiplicative_random(self):
        rng = random.Random(23)
        for _ in range(60):
            x, y = rand_qtelem(rng), rand_qtelem(rng)
            assert (x * y).sigma() == x.sigma() * y.sigma()


class TestEpsilon:
    def test_odd_power(self):
        x = QTElem.monomial(TPoly({3: 1}), 1, 1)
        assert x.epsilon() == MLPoly({(1, 1): -1})

    def test_even_power(self):
        x = QTElem.monomial(TPoly({2: 1}), 2, 2)
        assert x.epsilon() == MLPoly({(2, 2): 1})

    def test_relation_consistency(self):
        assert (L * M).epsilon() == (M * L).epsilon() == MLPoly({(1, 1): 1})

    def test_homomorphism_random(self):
        rng = random.Random(24)
        for _ in range(60):
            x, y = rand_qtelem(rng), rand_qtelem(rng)
            assert (x * y).epsilon() == x.epsilon() * y.epsilon()
            assert (x + y).epsilon() == x.epsilon() + y.epsilon()


class TestAction:
    def test_m_action(self):
        rng = random.Random(25)
        f = rand_seq(rng)
        for n in range(-3, 4):
            assert M.apply(f, n) == f(n).shift(2 * n)

    def test_l_action(self):
        rng = random.Random(26)
        f = rand_seq(rng)
        for n in range(-3, 4):
            assert L.apply(f, n) == f(n + 1)

    def test_inverse_monomial_action(self):
        rng = random.Random(27)
        f = rand_seq(rng)
        x = QTElem.M_pow(-1) * QTElem.L_pow(-1)
        assert x.apply(f, 2) == f(1).shift(-4)

    def test_relation_acts_as_zero(self):
        rng = random.Random(28)
        f = rand_seq(rng)
        rel = parse("L*M") - parse("t^2*M*L")
        for n in range(-4, 5):
            assert rel.apply(f, n).is_zero()

    def test_action_compatibility(self):
        rng = random.Random(29)
        for _ in range(25):
            x, y = rand_qtelem(rng, nterms=3), rand_qtelem(rng, nterms=3)
            f = rand_seq(rng)
            yf = acted(y, f)
            for n in (-2, 0, 1, 3):
                assert (x * y).apply(f, n) == x.apply(yf, n)


class TestParser:
    def test_written_order_normalizes(self):
        assert serialize(parse("L*M")) == "t^2*M*L"
        assert serialize(parse("M*L")) == "M*L"
        assert parse("L^3*M^2") == QTElem({(2, 3): TPoly({12: 1})})

    def test_zero(self):
        assert parse("0").is_zero()

    def test_negative_exponents(self):
        assert parse("t^-2*M^-1") == QTElem.monomial(TPoly({-2: 1}), -1, 0)

    def test_parentheses_and_coefficients(self):
        x = parse("(t^2 - t^-2)*M^2*L + 3")
        assert x.coefficient(2, 1) == TPoly({2: 1, -2: -1})
        assert x.coefficient(0, 0) == TPoly({0: 3})
        # integers and TPolys are constants, on either side
        lead = TPoly({2: 1, -2: -1})
        assert lead * parse("M^2*L") + 3 == x == 3 + parse("M^2*L") * lead
        assert x - 3 == (t ** 2 - t ** -2) * M ** 2 * L
        assert parse("t^2 + 3") == TPoly({2: 1, 0: 3}) and parse("3") == 3

    def test_power_of_parenthesized(self):
        assert parse("(M*L)^2") == QTElem({(2, 2): TPoly({2: 1})})

    def test_roundtrip_random(self):
        rng = random.Random(30)
        for _ in range(40):
            x = rand_qtelem(rng)
            assert parse(serialize(x)) == x

    def test_syntax_error_position(self):
        with pytest.raises(OperatorSyntaxError) as exc:
            parse("M*)")
        assert exc.value.position == 2
        with pytest.raises(OperatorSyntaxError):
            parse("M*")


class TestDiscreteSeq:
    def test_cache_is_transparent(self):
        calls = []

        def fn(n):
            calls.append(n)
            return TPoly({n: 1})

        f = DiscreteSeq("probe", fn)
        assert f(3) == TPoly({3: 1})
        assert f(3) == TPoly({3: 1})
        assert calls == [3]
