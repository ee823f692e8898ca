"""The commutative side after t = -1: A-polynomials, factorization checks,
divisibility in the (M, L) Laurent ring, and the exponent-negating involution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .jones import TorusKnot
from .laurent import DivisionByZero, MLPoly, NotDivisible
from .operators import NamedOperator, VerifyReport, build_PQ, build_R, check_report


@dataclass(frozen=True)
class APoly:
    """The A-polynomial of a torus knot, including the abelian L - 1 factor."""

    knot: TorusKnot
    element: MLPoly


def a_polynomial(K: TorusKnot) -> APoly:
    """(L-1)(L^2 M^{2ab} - 1) for a > 2, and (L-1)(L M^{2b} + 1) for a = 2."""
    L = MLPoly.L_pow(1)
    if K.a == 2:
        elem = (L - 1) * (L * MLPoly.M_pow(2 * K.b) + 1)
    else:
        elem = (L - 1) * (L * L * MLPoly.M_pow(2 * K.a * K.b) - 1)
    return APoly(K, elem)


def a_prime(K: TorusKnot) -> MLPoly:
    """The unit-normalized A-polynomial L^{-1} M^{-ab} A (or L^{-1} M^{-b} A)."""
    m = K.a * K.b if K.a > 2 else K.b
    return MLPoly.monomial(-m, -1) * a_polynomial(K).element


def sigma_comm(x: MLPoly) -> MLPoly:
    """Negate both exponents termwise; a ring involution."""
    out = MLPoly()
    out.terms = {(-m, -l): c for (m, l), c in x.terms.items()}
    return out


def divides(d: MLPoly, x: MLPoly):
    """Whether d divides x in the Laurent ring; returns (bool, quotient or None)."""
    if d.is_zero():
        raise DivisionByZero("divisibility by the zero polynomial")
    try:
        return True, x.divide_exact(d)
    except NotDivisible:
        return False, None


def _epsilon_rhs(op: NamedOperator) -> list:
    """The expected factorized forms of epsilon(op), one MLPoly per display."""
    a, b = op.a, op.b
    L = MLPoly.L_pow(1)
    Linv = MLPoly.L_pow(-1)
    if op.name == "F":
        cof = (
            MLPoly.M_pow(-2 * a * b)
            * (MLPoly.M_pow(a) - MLPoly.M_pow(-a))
            * (MLPoly.M_pow(b) - MLPoly.M_pow(-b))
        )
        return [cof * a_polynomial(TorusKnot(a, b)).element]
    if op.name == "G":
        cof = MLPoly.M_pow(-2 * b) * (MLPoly.M_pow(2) - MLPoly.M_pow(-2))
        return [cof * a_polynomial(TorusKnot(2, b)).element]
    if op.name == "PQ":
        sq1 = (L + Linv - 2) ** 2
        sq2 = (
            L ** 2 * MLPoly.M_pow(2 * a * b) + Linv ** 2 * MLPoly.M_pow(-2 * a * b) - 2
        ) ** 2
        quart = MLPoly.L_pow(-2) * a_prime(TorusKnot(a, b)) ** 4
        return [sq1 * sq2, quart]
    if op.name == "R":
        prod = (L + Linv - 2) * (
            L * MLPoly.M_pow(2 * b) + Linv * MLPoly.M_pow(-2 * b) + 2
        )
        square = a_prime(TorusKnot(2, b)) ** 2
        return [prod, square]
    raise ValueError(f"no factorization display for operator {op.name!r}")


def factorization_text(op: NamedOperator) -> str:
    """The printed factorization of epsilon(op), in the operator grammar."""
    a, b = op.a, op.b
    if op.name == "F":
        ab2 = 2 * a * b
        return (
            f"M^-{ab2}*(M^{a}-M^-{a})*(M^{b}-M^-{b})"
            f" * ((L-1)*(L^2*M^{ab2}-1))"
        )
    if op.name == "G":
        return f"M^-{2 * b}*(M^2-M^-2) * ((L-1)*(L*M^{2 * b}+1))"
    if op.name == "PQ":
        return f"L^-2*(L^-1*M^-{a * b}*(L-1)*(L^2*M^{2 * a * b}-1))^4"
    if op.name == "R":
        return f"(L^-1*M^-{b}*(L-1)*(L*M^{2 * b}+1))^2"
    raise ValueError(f"no factorization display for operator {op.name!r}")


def check_epsilon_factorization(op: NamedOperator) -> VerifyReport:
    """epsilon(op) must equal every displayed factorized form exactly."""
    image = op.element.epsilon()
    diffs = (image - rhs for rhs in _epsilon_rhs(op))
    mismatch = next((diff for diff in diffs if not diff.is_zero()), None)
    return check_report(f"epsilon({op.name})", op.a, op.b, mismatch)


def check_p_membership_powers(K: TorusKnot) -> VerifyReport:
    """The power identities placing A-ideal elements inside the reduced
    recurrence ideal: epsilon(PQ) = L^{-2} A'^4 for a > 2, epsilon(R) = A'^2
    for a = 2."""
    ap = a_prime(K)
    if K.a == 2:
        lhs = build_R(K.b).element.epsilon()
        rhs = ap ** 2
    else:
        lhs = build_PQ(K.a, K.b).element.epsilon()
        rhs = MLPoly.L_pow(-2) * ap ** 4
    return check_report("p-membership", K.a, K.b, lhs - rhs)


def check_a_prime_sigma(K: TorusKnot) -> VerifyReport:
    """sigma(A') = L^{-1} A' for a > 2 and sigma(A') = -A' for a = 2."""
    ap = a_prime(K)
    expected = -ap if K.a == 2 else MLPoly.L_pow(-1) * ap
    return check_report("sigma(A')", K.a, K.b, sigma_comm(ap) - expected)
