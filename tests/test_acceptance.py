"""Acceptance suite: every criterion runs exactly (tolerance zero) at its
stated parameters and prints one pass/fail line (visible with pytest -s).

The two kernel certificates for the (3,4) knot eliminate systems of 14,625
and 19,500 unknowns and take under a minute each; deselect them with
``-m "not kernel"`` for a quick pass over everything else.
"""

import functools
import random

import pytest

from torusjones.classical import (
    a_prime,
    check_a_prime_sigma,
    check_epsilon_factorization,
    check_p_membership_powers,
    sigma_comm,
)
from torusjones.jones import SUITE_KNOTS, TorusKnot, colored_jones, lowest_degree_formula
from torusjones.laurent import MLPoly, TPoly, lambda_poly, quantum_integer
from torusjones.operators import (
    KernelQuery,
    build_F,
    build_G,
    build_P,
    build_PQ,
    build_Q,
    build_R,
    matches_up_to_unit,
    minimality_kernel,
    verify_annihilation,
    verify_lemma_P,
    verify_lemma_Q,
    verify_recurrence,
)
from torusjones.qtorus import QTElem

K23 = TorusKnot(2, 3)
K34 = TorusKnot(3, 4)
GENERIC_KNOTS = tuple(K for K in SUITE_KNOTS if K.a > 2)
TWO_KNOTS = tuple(K for K in SUITE_KNOTS if K.a == 2)


def report(name: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def rand_qtelem(rng, nterms=4):
    return QTElem(
        {
            (rng.randint(-3, 3), rng.randint(-3, 3)): TPoly(
                {rng.randint(-6, 6): rng.randint(-9, 9)}
            )
            for _ in range(nterms)
        }
    )


def test_criterion_1_normalization_anchors():
    ok = all(
        colored_jones(K, 0).is_zero() and colored_jones(K, 1) == TPoly.one()
        for K in SUITE_KNOTS
    )
    hand_value = TPoly({-18: -1, -10: 1, -6: 1, -2: 1})
    ok = ok and colored_jones(K23, 2) == hand_value
    ok = ok and colored_jones(K23, 2) == quantum_integer(2) * TPoly({-16: -1, -12: 1, -4: 1})
    report("1 normalization anchors", ok)


def test_criterion_2_recurrences(jcache):
    ok = True
    for K in GENERIC_KNOTS:
        ok = ok and verify_recurrence(K, jcache(K), (1, 20)).passed
    for K in TWO_KNOTS:
        ok = ok and verify_recurrence(K, jcache(K), (1, 20)).passed
    report("2 recurrences", ok)


def test_criterion_3_annihilation(jcache):
    window = (1, 20)  # extended-Z window: J at n <= 0 comes from the parity rule
    checks = []
    for K in GENERIC_KNOTS:
        checks.append(verify_annihilation(build_F(K.a, K.b), jcache(K), window))
    for K in TWO_KNOTS:
        checks.append(verify_annihilation(build_G(K.b), jcache(K), window))
    for K in (K34, TorusKnot(3, 5)):
        checks.append(verify_annihilation(build_PQ(K.a, K.b), jcache(K), window))
    for K in (K23, TorusKnot(2, 5)):
        checks.append(verify_annihilation(build_R(K.b), jcache(K), window))
    bad = [c for c in checks if not c.passed]
    report("3 annihilation", not bad, f"{len(checks)} operator/knot pairs")


def test_criterion_4_lemmas_Q_and_P(jcache):
    window = (-5, 15)
    ok = True
    for K in (K34, TorusKnot(4, 5)):
        ok = ok and verify_lemma_Q(build_Q(K.a, K.b), jcache(K), window).passed
        ok = ok and verify_lemma_P(build_P(K.a, K.b), window).passed
    report("4 lemma Q and lemma P", ok, "n = -5..15")


def test_criterion_5_epsilon_factorizations():
    ok = True
    for K in GENERIC_KNOTS:
        ok = ok and check_epsilon_factorization(build_F(K.a, K.b)).passed
    for K in TWO_KNOTS:
        ok = ok and check_epsilon_factorization(build_G(K.b)).passed
    for K in (K34, TorusKnot(3, 5)):
        ok = ok and check_epsilon_factorization(build_PQ(K.a, K.b)).passed
    for b in (3, 5):
        ok = ok and check_epsilon_factorization(build_R(b)).passed
    # the two displayed forms agree with each other as well
    for (a, b) in ((3, 4), (3, 5)):
        L = MLPoly.L_pow(1)
        sq = (L + MLPoly.L_pow(-1) - 2) ** 2 * (
            L ** 2 * MLPoly.M_pow(2 * a * b)
            + MLPoly.L_pow(-2) * MLPoly.M_pow(-2 * a * b)
            - 2
        ) ** 2
        ok = ok and sq == MLPoly.L_pow(-2) * a_prime(TorusKnot(a, b)) ** 4
    for b in (3, 5):
        L = MLPoly.L_pow(1)
        prod = (L + MLPoly.L_pow(-1) - 2) * (
            L * MLPoly.M_pow(2 * b) + MLPoly.L_pow(-1) * MLPoly.M_pow(-2 * b) + 2
        )
        ok = ok and prod == a_prime(TorusKnot(2, b)) ** 2
    report("5 epsilon factorizations", ok)


def test_criterion_6_sigma_checks():
    ok = True
    for (a, b) in ((3, 4), (3, 5)):
        for op in (build_P(a, b), build_Q(a, b), build_PQ(a, b)):
            ok = ok and op.element.sigma() == op.element
    for b in (3, 5):
        op = build_R(b)
        ok = ok and op.element.sigma() == op.element
    rng = random.Random(2026)
    for _ in range(200):
        x, y = rand_qtelem(rng), rand_qtelem(rng)
        ok = ok and x.sigma().sigma() == x
        ok = ok and (x * y).sigma() == x.sigma() * y.sigma()
    for K in GENERIC_KNOTS:
        ok = ok and sigma_comm(a_prime(K)) == MLPoly.L_pow(-1) * a_prime(K)
        ok = ok and check_a_prime_sigma(K).passed
    for K in TWO_KNOTS:
        ok = ok and sigma_comm(a_prime(K)) == -a_prime(K)
        ok = ok and check_a_prime_sigma(K).passed
    report("6 sigma checks", ok, "200 random pairs + named operators")


def test_criterion_7_lowest_degree(jcache):
    ok = True
    for K in SUITE_KNOTS:
        seq = jcache(K)
        for n in range(1, 21):
            ok = ok and seq(n).lowest_degree() == lowest_degree_formula(K, n)
    report("7 lowest degree formula", ok, "7 knots, n = 1..20")


def test_criterion_9_property_suites():
    rng = random.Random(1031)
    ok = True
    # ring axioms on random sparse inputs
    for _ in range(60):
        x = TPoly({rng.randint(-8, 8): rng.randint(-9, 9) for _ in range(5)})
        y = TPoly({rng.randint(-8, 8): rng.randint(-9, 9) for _ in range(5)})
        z = TPoly({rng.randint(-8, 8): rng.randint(-9, 9) for _ in range(5)})
        ok = ok and (x + y) + z == x + (y + z) and x * y == y * x
        ok = ok and (x * y) * z == x * (y * z) and x * (y + z) == x * y + x * z
    # q-commutation sweep
    for k in range(-6, 7):
        for l in range(-6, 7):
            ok = ok and QTElem.L_pow(l) * QTElem.M_pow(k) == QTElem(
                {(k, l): TPoly({2 * k * l: 1})}
            )
    # epsilon is a ring homomorphism
    for _ in range(60):
        x, y = rand_qtelem(rng), rand_qtelem(rng)
        ok = ok and (x * y).epsilon() == x.epsilon() * y.epsilon()
        ok = ok and (x + y).epsilon() == x.epsilon() + y.epsilon()
    # action compatibility apply(x*y, f, n) = apply(x, y*f, n)
    from torusjones.qtorus import DiscreteSeq

    def mkseq(seed):
        def fn(n):
            r = random.Random(seed + 7919 * n)
            return TPoly({r.randint(-5, 5): r.randint(-5, 5) for _ in range(3)})

        return DiscreteSeq(f"rand{seed}", fn)

    for trial in range(25):
        x, y = rand_qtelem(rng, 3), rand_qtelem(rng, 3)
        f = mkseq(trial)
        yf = DiscreteSeq("yf", functools.partial(y.apply, f))
        for n in (-2, 0, 3):
            ok = ok and (x * y).apply(f, n) == x.apply(yf, n)
    # bracket and lambda identities
    for k in range(-20, 21):
        for l in range(-20, 21):
            lhs = quantum_integer(k + l) + quantum_integer(k - l)
            ok = ok and lhs == lambda_poly(l) * quantum_integer(k)
            ok = ok and lambda_poly(k + l) + lambda_poly(k - l) == lambda_poly(k) * lambda_poly(l)
    report("9 property suites", ok, "fixed seeds, zero failures")


def test_criterion_8a_kernel_certificates_2_3():
    g = build_G(3)
    dim0 = minimality_kernel(
        KernelQuery(K23, l_degree=1, m_degree=10, t_window=(-20, 2), n_range=(1, 12), method="exact")
    )
    ok = dim0.dimension == 0 and dim0.rank == dim0.unknowns
    witness = minimality_kernel(
        KernelQuery(K23, l_degree=2, m_degree=10, t_window=(-20, 2), n_range=(1, 12), method="exact")
    )
    ok = ok and witness.dimension >= 1
    ok = ok and any(matches_up_to_unit(e, g.element) for e in witness.basis)
    report(
        "8a kernel certificates (2,3)",
        ok,
        f"L-deg 1 dim {dim0.dimension}; L-deg 2 dim {witness.dimension} contains G",
    )


@pytest.mark.kernel
def test_criterion_8b_kernel_certificates_3_4():
    f = build_F(3, 4)
    dim0 = minimality_kernel(
        KernelQuery(K34, l_degree=2, m_degree=38, t_window=(-108, 16), n_range=(1, 12))
    )
    ok = dim0.dimension == 0 and dim0.rank == dim0.unknowns
    witness = minimality_kernel(
        KernelQuery(K34, l_degree=3, m_degree=38, t_window=(-108, 16), n_range=(1, 13))
    )
    ok = ok and witness.dimension >= 1
    ok = ok and any(matches_up_to_unit(e, f.element) for e in witness.basis)
    report(
        "8b kernel certificates (3,4)",
        ok,
        f"L-deg 2 dim {dim0.dimension}; L-deg 3 dim {witness.dimension} contains F",
    )
