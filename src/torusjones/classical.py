"""The commutative side after t = -1: A-polynomials, factorization checks,
divisibility in the (M, L) Laurent ring, and the exponent-negating involution.
"""

from __future__ import annotations

from .jones import TorusKnot
from .laurent import DivisionByZero, MLPoly, NotDivisible
from .operators import (
    NamedOperator,
    VerifyReport,
    a_polynomial_text,
    build_PQ,
    build_R,
    check_report,
)
from .qtorus import parse


def a_polynomial(K: TorusKnot) -> MLPoly:
    """The A-polynomial of K, including the abelian L - 1 factor."""
    return parse(a_polynomial_text(K.a, K.b), MLPoly)


def a_prime(K: TorusKnot) -> MLPoly:
    """The unit-normalized A-polynomial L^{-1} M^{-ab} A (or L^{-1} M^{-b} A)."""
    m = K.a * K.b if K.a > 2 else K.b
    return MLPoly.monomial(-m, -1) * a_polynomial(K)


def sigma_comm(x: MLPoly) -> MLPoly:
    """Negate both exponents termwise; a ring involution."""
    return MLPoly._wrap({(-m, -l): c for (m, l), c in x.terms.items()})


def divides(d: MLPoly, x: MLPoly):
    """Whether d divides x in the Laurent ring; returns (bool, quotient or None)."""
    if d.is_zero():
        raise DivisionByZero("divisibility by the zero polynomial")
    try:
        return True, x.divide_exact(d)
    except NotDivisible:
        return False, None


def check_epsilon_factorization(op: NamedOperator) -> VerifyReport:
    """epsilon(op) must equal every displayed factorized form exactly."""
    image = op.element.epsilon()
    mismatch = next((diff for diff in (image - form for form in op.factorized) if not diff.is_zero()), None)
    return check_report(f"epsilon({op.name})", op.a, op.b, mismatch)


def check_p_membership_powers(K: TorusKnot, op: NamedOperator | None = None) -> VerifyReport:
    """The power identities placing A-ideal elements inside the reduced
    recurrence ideal: epsilon(PQ) = L^{-2} A'^4 for a > 2, epsilon(R) = A'^2
    for a = 2, as the first display of PQ or R writes them.

    ``op`` is K's PQ or R when the caller has built it; without it the check
    builds its own. The operator keeps its epsilon and parsed displays, so
    this check and ``check_epsilon_factorization`` share them.
    """
    if op is None:
        op = build_R(K.b) if K.a == 2 else build_PQ(K.a, K.b)
    diff = op.element.epsilon() - op.factorized[0]
    return check_report("p-membership", K.a, K.b, diff)


def check_a_prime_sigma(K: TorusKnot) -> VerifyReport:
    """sigma(A') = L^{-1} A' for a > 2 and sigma(A') = -A' for a = 2."""
    ap = a_prime(K)
    expected = -ap if K.a == 2 else MLPoly.L_pow(-1) * ap
    return check_report("sigma(A')", K.a, K.b, sigma_comm(ap) - expected)
