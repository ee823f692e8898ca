import random

import pytest

from torusjones.laurent import (
    MLPoly,
    TPoly,
    ZeroPolynomial,
    lambda_poly,
    quantum_integer,
)
from torusjones.qtorus import QTElem, parse


def ring_elements():
    """One nonconstant element of each ring built on the shared sparse base."""
    return [TPoly({1: 1, -2: 3}), MLPoly({(1, 0): 1, (0, -1): 3}), parse("M + 3*t^-2*L^-1")]


def rand_tpoly(rng, nterms=6, span=8, coeff=9):
    return TPoly({rng.randint(-span, span): rng.randint(-coeff, coeff) for _ in range(nterms)})


def rand_mlpoly(rng, nterms=6, span=5, coeff=9):
    return MLPoly(
        {
            (rng.randint(-span, span), rng.randint(-span, span)): rng.randint(-coeff, coeff)
            for _ in range(nterms)
        }
    )


class TestTPolyBasics:
    def test_binomial_square(self):
        x = TPoly({2: 1, -2: 1})
        assert x * x == TPoly({4: 1, 0: 2, -4: 1})

    def test_additive_identity(self):
        rng = random.Random(1)
        for _ in range(50):
            x = rand_tpoly(rng)
            assert x + TPoly.zero() == x

    def test_difference_of_powers_factors(self):
        lhs = TPoly({6: 1, -6: -1})
        rhs = TPoly({2: 1, -2: -1}) * TPoly({4: 1, 0: 1, -4: 1})
        assert lhs == rhs

    def test_zero_pruning(self):
        x = TPoly({3: 5}) + TPoly({3: -5})
        assert x.is_zero()
        assert x.terms == {}
        for zero in (
            TPoly({1: 0, 2: 0}),
            MLPoly({(1, 2): 5}) - MLPoly({(1, 2): 5}),
            MLPoly({(1, 2): 0}),
            parse("t*M*L") - parse("L*M") * parse("t^-1"),
            QTElem({(1, 0): TPoly.zero()}),
            QTElem({(1, 0): 0}),
        ):
            assert zero.terms == {} and not zero

    def test_int_coercion(self):
        assert TPoly({0: 3}) == 3
        assert TPoly.zero() == 0
        assert TPoly({1: 1}) != 0
        for x in ring_elements():
            ring = type(x)
            assert ring.zero() == 0 and ring.one() == 1 and x != 0 and x != 1
            assert 3 - x == -(x - 3) == ring.one() * 3 - x
            assert x * 2 == 2 * x == x + x
            assert x + 0 == 0 + x == x
            assert (x * 0).terms == {} and (x - x).terms == {}
            with pytest.raises(TypeError):
                hash(x)
        assert [repr(x) for x in ring_elements()] == [
            "TPoly('3*t^-2 + t')",
            "MLPoly('3*L^-1 + M')",
            "QTElem('3*t^-2*L^-1 + M')",
        ]
        # TPoly is a scalar of the quantum torus but not of MLPoly
        assert QTElem({(1, 0): 3}) == 3 * parse("M") == parse("M") * TPoly({0: 3})
        assert TPoly({1: 2}) * parse("M") == parse("2*t*M") == parse("M") * TPoly({1: 2})
        with pytest.raises(TypeError):
            MLPoly.one() + TPoly.one()
        assert MLPoly.one() != TPoly.one()

    def test_pow(self):
        t = TPoly.t_pow(1)
        assert t ** 5 == TPoly.t_pow(5)
        assert (-t) ** -3 == TPoly({-3: -1})
        with pytest.raises(ValueError):
            (t + 1) ** -1
        assert parse("t^-2*M^-1") ** -2 == parse("t^4*M^2")
        assert MLPoly({(1, -2): -1}) ** -3 == MLPoly({(-3, 6): -1})
        for x in ring_elements():
            assert x ** 0 == 1 and x ** 1 == x and x ** 3 == x * x * x
        non_units = (
            TPoly({1: 2}),
            TPoly.zero(),
            MLPoly({(1, 0): 2}),
            MLPoly.L_pow(1) + 1,
            parse("2*M"),
            parse("(t + 1)*M"),
            parse("M + L"),
        )
        for x in non_units:
            with pytest.raises(ValueError):
                x ** -1


class TestRingAxioms:
    def test_tpoly_axioms(self):
        rng = random.Random(7)
        for _ in range(60):
            x, y, z = (rand_tpoly(rng) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert x + y == y + x
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z
            assert x * TPoly.one() == x
            assert x + (-x) == TPoly.zero()

    def test_mlpoly_axioms(self):
        rng = random.Random(8)
        for _ in range(60):
            x, y, z = (rand_mlpoly(rng) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z
            assert x * MLPoly.one() == x


class TestQuantumInteger:
    def test_anchors(self):
        assert quantum_integer(1) == TPoly.one()
        assert quantum_integer(0).is_zero()
        assert quantum_integer(3) == TPoly({4: 1, 0: 1, -4: 1})

    def test_negation_and_defining_product(self):
        den = TPoly({2: 1, -2: -1})
        for k in range(-50, 51):
            assert quantum_integer(-k) == -quantum_integer(k)
            assert quantum_integer(k) * den == TPoly({2 * k: 1}) - TPoly({-2 * k: 1})

    def test_bracket_identity(self):
        for k in range(-20, 21):
            for l in range(-20, 21):
                lhs = quantum_integer(k + l) + quantum_integer(k - l)
                rhs = TPoly({2 * l: 1, -2 * l: 1}) * quantum_integer(k) if l else 2 * quantum_integer(k)
                assert lhs == rhs


class TestLambdaPoly:
    def test_anchors(self):
        assert lambda_poly(0) == TPoly({0: 2})
        assert lambda_poly(1) == TPoly({2: 1, -2: 1})
        assert lambda_poly(-4) == lambda_poly(4)

    def test_product_identity(self):
        for k in range(-20, 21):
            for l in range(-20, 21):
                assert lambda_poly(k + l) + lambda_poly(k - l) == lambda_poly(k) * lambda_poly(l)

    def test_specific_case(self):
        k, l = 5, 3
        assert lambda_poly(k + l) + lambda_poly(k - l) == lambda_poly(k) * lambda_poly(l)


class TestDegrees:
    def test_lowest_degree(self):
        assert TPoly({-2: 1, -6: 1, -10: 1, -18: -1}).lowest_degree() == -18
        assert TPoly.one().lowest_degree() == 0
        assert TPoly({4: 1, 0: 1, -4: 1}).lowest_degree() == -4

    def test_zero_raises(self):
        with pytest.raises(ZeroPolynomial):
            TPoly.zero().lowest_degree()


class TestText:
    def test_tpoly_text(self):
        x = TPoly({-18: -1, -10: 1, -6: 1, -2: 1})
        assert str(x) == "-t^-18 + t^-10 + t^-6 + t^-2"
        assert str(TPoly.zero()) == "0"
        assert str(TPoly({0: 2})) == "2"
        assert str(TPoly({1: -3, 0: 1})) == "1 - 3*t"

    def test_mlpoly_text(self):
        x = (MLPoly.L_pow(1) - 1) * (MLPoly.L_pow(1) * MLPoly.M_pow(6) + 1)
        assert str(x) == "-1 + L - M^6*L + M^6*L^2"

    def test_json_roundtrip(self):
        rng = random.Random(13)
        for _ in range(20):
            x = rand_tpoly(rng)
            assert TPoly({e: c for c, e in x.to_json()}) == x
            y = rand_mlpoly(rng)
            assert MLPoly({tuple(e): c for c, e in y.to_json()}) == y
