"""Named recurrence operators, the verification harness, and the bounded
minimality kernel search.

Operator expressions are assembled by multiplying in the written order, so
terms like L^3*M^{2ab} pick up their commutation factors exactly as the
algebra dictates before landing in M-before-L normal form.

The paper's closed forms in M = t^{2n} are written once, as elements of
L-degree 0 (``recurrence_rhs``, ``h_form``): such an element Y acts on the
constant sequence 1 as Y evaluated at M = t^{2n}. The recurrences and both
lemmas are identities X f = Y 1, checked by one runner
(``verify_closed_form``); the annihilations are X J = 0 (``verify_annihilation``).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

# g_seq and h_seq are unused here; perfbench/tracing.py patches them in this module
from .jones import BadParams, TorusKnot, g_seq, h_seq, jones_sequence
from .laurent import MLPoly, TPoly, lambda_poly
from .nullspace import (
    FLOAT_INPUT_BOUND,
    PRIMES,
    ModularRREF,
    combine,
    prime_supply,
    reconstruct_vector,
)
from .qtorus import _COLOR_CELL_LIMIT, DiscreteSeq, QTElem, _expand, parse


class WrongCase(ValueError):
    """A verification was requested for the wrong torus-knot family."""


class SystemTooLarge(ValueError):
    """The kernel query has more than ``MAX_KERNEL_UNKNOWNS`` unknowns."""

    def __init__(self, unknowns: int, cap: int):
        super().__init__(f"kernel system has {unknowns} unknowns, exceeding the cap of {cap}")
        self.unknowns = unknowns
        self.cap = cap


class Underdetermined(BadParams):
    """A modular kernel query ran out of colors before its nullity fell to
    ``MAX_CANDIDATE_NULLITY``."""


#: the unknown-count cap of a kernel query
MAX_KERNEL_UNKNOWNS = 20_000

#: kernel candidates are read off and verified only at this nullity or below
MAX_CANDIDATE_NULLITY = 64


@dataclass(frozen=True)
class NamedOperator:
    """One of the named annihilators, with its defining parameters."""

    name: str
    a: int
    b: int
    element: QTElem

    def __str__(self) -> str:
        return f"{self.name}({self.a},{self.b})"

    @property
    def displays(self) -> tuple:
        """The factorized forms of epsilon(self) that ``OPERATORS`` displays,
        as operator-grammar text. ValueError for an operator with no display."""
        displays = OPERATORS[self.name].displays
        if displays is None:
            raise ValueError(f"no factorization display for operator {self.name!r}")
        return displays(self.a, self.b)

    @functools.cached_property
    def factorized(self) -> tuple:
        """``displays`` as MLPolys, parsed on first use and kept, as the
        element keeps its epsilon."""
        return tuple(parse(text, MLPoly) for text in self.displays)


@dataclass
class VerifyReport:
    """Outcome of one verification run; failures carry the first witness."""

    identity: str
    a: int
    b: int
    n_from: int
    n_to: int
    status: str  # "pass" | "fail"
    witness_n: int | None = None
    residual: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        out = {
            "identity": self.identity,
            "a": self.a,
            "b": self.b,
            "n_from": self.n_from,
            "n_to": self.n_to,
            "status": self.status,
        }
        if self.witness_n is not None:
            out["witness_n"] = self.witness_n
        if self.residual is not None:
            out["residual"] = self.residual
        return out


def sweep(identity: str, a: int, b: int, n_range: tuple, residuals) -> VerifyReport:
    """Search the inclusive n_range for the first n whose residual is
    nonzero; that n and its residual are the failure witness.
    ``residuals(colors)`` gives the residuals of a ``range`` of colors in
    order, as a list or lazily: the operator values come from one
    ``QTElem.apply`` call over the whole range."""
    lo, hi = n_range
    colors = range(lo, hi + 1)
    for n, value in zip(colors, residuals(colors)):
        if not value.is_zero():
            return VerifyReport(identity, a, b, lo, hi, "fail", n, str(value))
    return VerifyReport(identity, a, b, lo, hi, "pass")


def check_report(identity: str, a: int, b: int, diff=None) -> VerifyReport:
    """Report of a check with no n-range; a nonzero diff fails it, with
    witness n = 0."""
    if diff is None or diff.is_zero():
        return VerifyReport(identity, a, b, 0, 0, "pass")
    return VerifyReport(identity, a, b, 0, 0, "fail", 0, str(diff))


def _sym(e: int, m: int) -> QTElem:
    """t^e M^m + t^{-e} M^{-m}."""
    return QTElem({(m, 0): TPoly({e: 1}), (-m, 0): TPoly({-e: 1})})


def _dif(e: int, m: int) -> QTElem:
    """t^e M^m - t^{-e} M^{-m}."""
    return QTElem({(m, 0): TPoly({e: 1}), (-m, 0): TPoly({-e: -1})})


def _lm_pair(j: int, m: int) -> QTElem:
    """L^j M^m + L^{-j} M^{-m}, multiplied in the written order."""
    return QTElem.L_pow(j) * QTElem.M_pow(m) + QTElem.L_pow(-j) * QTElem.M_pow(-m)


def _check_ab(a: int, b: int) -> None:
    if not (2 < a < b) or math.gcd(a, b) != 1:
        raise BadParams(f"need coprime 2 < a < b, got ({a}, {b})")


def _check_2b(b: int) -> None:
    if b < 3 or b % 2 == 0:
        raise BadParams(f"need odd b >= 3, got b = {b}")


def build_F(a: int, b: int) -> NamedOperator:
    """The order-3 annihilator c3 L^3 + c2 L^2 + c1 L + c0 for a, b > 2."""
    _check_ab(a, b)
    t = QTElem.t_pow
    c3 = t(2) * _sym(2 * (a + b), a + b) - t(-2) * _sym(2 * (a - b), a - b)
    c2 = -(t(-2 * a * b) * (t(2) * _sym(4 * (a + b), a + b) - t(-2) * _sym(4 * (a - b), a - b)))
    c1 = -(t(-8 * a * b) * QTElem.M_pow(-2 * a * b) * c3)
    c0 = -(t(-4 * a * b) * QTElem.M_pow(-2 * a * b) * c2)
    elem = c3 * QTElem.L_pow(3) + c2 * QTElem.L_pow(2) + c1 * QTElem.L_pow(1) + c0
    return NamedOperator("F", a, b, elem)


def build_G(b: int) -> NamedOperator:
    """The order-2 annihilator d2 L^2 + d1 L + d0 for the (2,b) family."""
    _check_2b(b)
    t = QTElem.t_pow
    d2 = _dif(2, 2)
    d1 = t(-2 * b) * (t(-4 * b) * QTElem.M_pow(-2 * b) * _dif(2, 2) - _dif(6, 2))
    d0 = -(t(-4 * b) * QTElem.M_pow(-2 * b) * _dif(6, 2))
    elem = d2 * QTElem.L_pow(2) + d1 * QTElem.L_pow(1) + d0
    return NamedOperator("G", 2, b, elem)


def build_P(a: int, b: int) -> NamedOperator:
    _check_ab(a, b)
    t = QTElem.t_pow
    m = 2 * a * b
    lam_diff = TPoly({2 * (a - b): 1, 2 * (b - a): 1})
    elem = (
        t(-10 * a * b) * _lm_pair(3, m)
        - lam_diff * t(-4 * a * b) * _lm_pair(2, m)
        + t(2 * a * b) * _lm_pair(1, m)
        - TPoly({2 * a * b: 1, -2 * a * b: 1}) * (QTElem.L_pow(1) + QTElem.L_pow(-1))
        + lam_diff * TPoly({4 * a * b: 1, -4 * a * b: 1})
    )
    return NamedOperator("P", a, b, elem)


def build_Q(a: int, b: int) -> NamedOperator:
    # the L^2 coefficient scalar is t^{-4ab}, i.e. q = t^4
    _check_ab(a, b)
    t = QTElem.t_pow
    m = 2 * a * b
    lam_sum = TPoly({2 * (a + b): 1, -2 * (a + b): 1})
    elem = (
        t(-6 * a * b) * _lm_pair(3, m)
        - lam_sum * t(-4 * a * b) * _lm_pair(2, m)
        + t(-2 * a * b) * _lm_pair(1, m)
        - TPoly({2 * a * b: 1, -2 * a * b: 1}) * (QTElem.L_pow(1) + QTElem.L_pow(-1))
        + lam_sum * 2
    )
    return NamedOperator("Q", a, b, elem)


def build_PQ(a: int, b: int, P: NamedOperator | None = None, Q: NamedOperator | None = None) -> NamedOperator:
    """P * Q of T(a, b), from the knot's P and Q when the caller has built
    them; without them it builds its own."""
    P = build_P(a, b) if P is None else P
    Q = build_Q(a, b) if Q is None else Q
    return NamedOperator("PQ", a, b, P.element * Q.element)


def build_R(b: int) -> NamedOperator:
    _check_2b(b)
    t = QTElem.t_pow
    m = 2 * b
    four = TPoly({4: 1, -4: 1})
    elem = (
        t(-4 * b) * _lm_pair(2, m)
        + TPoly({2 * b: 1, -2 * b: 1}) * (QTElem.L_pow(1) + QTElem.L_pow(-1))
        - four * t(-2 * b) * _lm_pair(1, m)
        + (QTElem.M_pow(m) + QTElem.M_pow(-m))
        - four * 2
    )
    return NamedOperator("R", 2, b, elem)


def in_family(family: str, K: TorusKnot) -> bool:
    """Whether K lies in the knot family "a=2", "a>2" or "any"."""
    return family == "any" or (family == "a=2") == (K.a == 2)


def a_polynomial_text(a: int, b: int) -> str:
    """The A-polynomial of T(a, b), abelian factor L - 1 included, as
    operator-grammar text: (L-1)(L M^{2b} + 1) for a = 2 and
    (L-1)(L^2 M^{2ab} - 1) for a > 2."""
    if a == 2:
        return f"(L-1)*(L*M^{2 * b}+1)"
    return f"(L-1)*(L^2*M^{2 * a * b}-1)"


@dataclass(frozen=True)
class OperatorFacts:
    """What the paper states about one named operator.

    ``build(K, ops)`` looks its ``build_*`` up when it is called, so a
    wrapper patched over the module attribute sees every build; ``ops(name)``
    gives K's other named operators to a build made from them (PQ from P
    and Q). ``displays(a, b)`` gives the factorized forms of epsilon(op) as
    operator-grammar text: the first is the one ``reduce`` prints, and every
    one is checked. None for an operator with no display.
    """

    family: str  # "a=2" or "a>2"
    build: Callable
    sigma_fixed: bool
    displays: Callable | None = None


#: the one table of the named operators
OPERATORS = {
    "F": OperatorFacts(
        "a>2", lambda K, ops: build_F(K.a, K.b), False,
        lambda a, b: (
            f"M^-{2 * a * b}*(M^{a}-M^-{a})*(M^{b}-M^-{b}) * ({a_polynomial_text(a, b)})",
        ),
    ),
    "G": OperatorFacts(
        "a=2", lambda K, ops: build_G(K.b), False,
        lambda a, b: (f"M^-{2 * b}*(M^2-M^-2) * ({a_polynomial_text(a, b)})",),
    ),
    "P": OperatorFacts("a>2", lambda K, ops: build_P(K.a, K.b), True),
    "Q": OperatorFacts("a>2", lambda K, ops: build_Q(K.a, K.b), True),
    "PQ": OperatorFacts(
        "a>2", lambda K, ops: build_PQ(K.a, K.b, ops("P"), ops("Q")), True,
        lambda a, b: (
            f"L^-2*(L^-1*M^-{a * b}*{a_polynomial_text(a, b)})^4",
            f"(L+L^-1-2)^2*(L^2*M^{2 * a * b}+L^-2*M^-{2 * a * b}-2)^2",
        ),
    ),
    "R": OperatorFacts(
        "a=2", lambda K, ops: build_R(K.b), True,
        lambda a, b: (
            f"(L^-1*M^-{b}*{a_polynomial_text(a, b)})^2",
            f"(L+L^-1-2)*(L*M^{2 * b}+L^-1*M^-{2 * b}+2)",
        ),
    ),
}


def build_named(name: str, K: TorusKnot, ops: Callable | None = None) -> NamedOperator:
    """Construct the named operator for K. An unknown name raises BadParams;
    a knot outside the operator's family in ``OPERATORS`` raises WrongCase.
    ``ops(name)`` gives the other operators of K that the build reads (PQ
    reads P and Q); without it they are built here."""
    facts = OPERATORS.get(name)
    if facts is None:
        raise BadParams(f"unknown operator name {name!r}")
    if not in_family(facts.family, K):
        family = "the (2,b) family" if facts.family == "a=2" else "knots with a > 2"
        raise WrongCase(f"operator {name} applies to {family}, not {K}")
    return facts.build(K, ops or functools.partial(build_named, K=K))


def verify_annihilation(op: NamedOperator, f: DiscreteSeq, n_range: tuple) -> VerifyReport:
    """Check (op f)(n) == 0 for every n in the inclusive range."""
    return sweep(op.name, op.a, op.b, n_range, functools.partial(op.element.apply, f))


def recurrence_operator(K: TorusKnot) -> QTElem:
    """The operator D of K's inhomogeneous recurrence: L^2 - t^{-4ab} M^{-2ab}
    for a > 2 and L + t^{-2b} M^{-2b} for a = 2. (D J)(n) is a closed form in
    t and t^{2n} (``verify_recurrence``). epsilon(D) is M^{-2ab} (L^2 M^{2ab} - 1),
    resp. M^{-2b} (L M^{2b} + 1): a unit times the nonabelian factor of A_K.

    >>> str(recurrence_operator(TorusKnot(2, 3)).epsilon())
    'M^-6 + L'
    """
    a, b = K.a, K.b
    if a == 2:
        return QTElem.L_pow(1) + QTElem.monomial(TPoly({-2 * b: 1}), -2 * b, 0)
    return QTElem.L_pow(2) - QTElem.monomial(TPoly({-4 * a * b: 1}), -2 * a * b, 0)


def recurrence_rhs(K: TorusKnot) -> QTElem:
    """(t^2 - t^{-2}) (D J)(n) as an L-degree-0 element: applied to the
    constant sequence 1, it gives the closed form at M = t^{2n}. For a > 2
    this is (t^2 - t^{-2}) g(n+1) =
    t^{-2ab} M^{-ab} (t^2 (t^{2(a+b)} M^{a+b} + t^{-2(a+b)} M^{-a-b})
    - t^{-2} (t^{2(a-b)} M^{a-b} + t^{-2(a-b)} M^{b-a})), and for a = 2
    (t^2 - t^{-2}) t^{-2bn} [2n+1] = M^{-b} (t^2 M^2 - t^{-2} M^{-2}).

    >>> str(recurrence_rhs(TorusKnot(2, 3)))
    '-t^-2*M^-5 + t^2*M^-1'
    """
    a, b, t = K.a, K.b, QTElem.t_pow
    if a == 2:
        return QTElem.M_pow(-b) * _dif(2, 2)
    return t(-2 * a * b) * QTElem.M_pow(-a * b) * (t(2) * _sym(2 * (a + b), a + b) - t(-2) * _sym(2 * (a - b), a - b))


def h_form(K: TorusKnot) -> QTElem:
    """The auxiliary sequence h of K (a > 2) as an L-degree-0 element:
    h(n) = t^{2abn} lambda_{(a-b)(n+1)} - t^{-2abn} lambda_{(a-b)(n-1)} is
    M^{ab} (t^{2(a-b)} M^{a-b} + t^{2(b-a)} M^{b-a})
    - M^{-ab} (t^{2(b-a)} M^{a-b} + t^{2(a-b)} M^{b-a}) applied to 1."""
    a, b = K.a, K.b
    return QTElem.M_pow(a * b) * _sym(2 * (a - b), a - b) - QTElem.M_pow(-a * b) * _sym(2 * (b - a), a - b)


def verify_closed_form(identity: str, K: TorusKnot, X: QTElem, f, Y: QTElem, n_range: tuple) -> VerifyReport:
    """Check X f = Y 1 on the inclusive n_range, for 1 the constant sequence
    (f as well when f is None) and Y of L-degree 0, so that Y 1 is the closed
    form Y at M = t^{2n}: one ``QTElem.apply`` per side. The residual of a
    failing report is (X f - Y 1)(n) at the witness."""
    # a fresh 1 per call: a shared one would cache a value for every color
    # ever verified
    one = DiscreteSeq("1", lambda n: TPoly.one())
    return sweep(identity, K.a, K.b, n_range, lambda ns: (u - v for u, v in zip(X.apply(f or one, ns), Y.apply(one, ns))))


def verify_lemma_Q(Q: NamedOperator, jser: DiscreteSeq, n_range: tuple) -> VerifyReport:
    """Denominator-cleared form: ((t^2 - t^{-2}) Q) J (n) equals
    t^{2ab-2} (lambda_{a+b} - lambda_{a-b}) h(n), for J = jser and h the
    sequence of Q's knot T(a, b) (``h_form``).

    The t^{2ab-2} scalar is the one the exact computation forces; it is
    constant in n and uniform across knots.
    """
    K = TorusKnot(Q.a, Q.b)
    factor = (lambda_poly(K.a + K.b) - lambda_poly(K.a - K.b)).shift(2 * K.a * K.b - 2)
    return verify_closed_form("lemmaQ", K, TPoly({2: 1, -2: -1}) * Q.element, jser, factor * h_form(K), n_range)


def verify_lemma_P(P: NamedOperator, n_range: tuple) -> VerifyReport:
    """P annihilates the sequence h of its knot: (P h_form) 1 = 0. The
    product P h_form is zero once L is set to 1, so this holds at every
    color; the report covers n_range."""
    K = TorusKnot(P.a, P.b)
    return verify_closed_form("lemmaP", K, P.element * h_form(K), None, QTElem.zero(), n_range)


def verify_recurrence(K: TorusKnot, jser: DiscreteSeq, n_range: tuple) -> VerifyReport:
    """Check (D J)(n) = rhs(n) exactly for D = ``recurrence_operator(K)``, J = jser,
    cleared of the denominator: ((t^2 - t^{-2}) D) J = ``recurrence_rhs(K)`` 1.
    rhs(n) is g(n+1) for a > 2 (recurrence3), t^{-2bn} [2n+1] for a = 2
    (recurrence2); the residual of a failing report is the cleared one."""
    name = "recurrence2" if K.a == 2 else "recurrence3"
    return verify_closed_form(name, K, TPoly({2: 1, -2: -1}) * recurrence_operator(K), jser, recurrence_rhs(K), n_range)


def verify_sigma_fixed(op: NamedOperator) -> VerifyReport:
    """Check sigma(op) == op as a normal-form equality."""
    image = op.element.sigma()
    diff = None if image == op.element else image - op.element
    return check_report(f"sigma({op.name})", op.a, op.b, diff)


def verify_pq_consistency(K: TorusKnot, jser: DiscreteSeq, n_range: tuple) -> VerifyReport:
    """(PQ) J agrees with P applied to the sequence n -> (Q J)(n), for J = jser."""
    p = build_P(K.a, K.b)
    q = build_Q(K.a, K.b)
    pq = build_PQ(K.a, K.b)
    qj = DiscreteSeq("QJ", functools.partial(q.element.apply, jser))
    return sweep(
        "pq-consistency", K.a, K.b, n_range,
        lambda ns: (u - v for u, v in zip(pq.element.apply(jser, ns), p.element.apply(qj, ns))),
    )


# --- bounded minimality kernel search ---------------------------------------

#: Cells per gather of a ``_ColorRows`` row source, so that its index
#: temporary (256 KiB) stays in cache; at 2^16 cells the gathers were no
#: faster, and the temporary was twice as large.
_ROW_SLAB_CELLS = 1 << 15


def _parity_plan(lo: int, hi: int) -> tuple:
    """(solved, derived): the t-exponent slots of the window lo..hi in the
    parity class solved by elimination (the larger one, evens on a tie) and
    in the other class. Moved by a unit t-shift, the derived slots are the
    first len(derived) solved slots, so a derived candidate has the column
    indices of a solved one supported on those slots."""
    evens = [alpha for alpha in range(lo, hi + 1) if alpha % 2 == 0]
    odds = [alpha for alpha in range(lo, hi + 1) if alpha % 2]
    solved, derived = (evens, odds) if len(evens) >= len(odds) else (odds, evens)
    shift = solved[0] - derived[0] if derived else 0
    if [beta + shift for beta in derived] != solved[: len(derived)]:
        raise AssertionError(f"parity classes of {lo}..{hi} are not a shifted prefix")
    return solved, derived


@dataclass(frozen=True)
class KernelQuery:
    """Hypothesis space for the annihilator search.

    Candidates are sums of x * t^alpha * M^k * L^j with alpha in the inclusive
    t_window, 0 <= k <= m_degree, 0 <= j <= l_degree; the equations force
    annihilation of the colored Jones sequence at every n in n_range.
    """

    knot: TorusKnot
    l_degree: int
    m_degree: int
    t_window: tuple
    n_range: tuple
    method: str = "auto"  # auto | exact | modular


@dataclass
class KernelResult:
    dimension: int
    unknowns: int
    rank: int
    basis: list  # QTElem, primitive integer coefficients
    method: str
    prime: int | None
    constraint_rows: int


def _vector_to_qtelem(vec: dict, slots: list, m_degree: int, l_degree: int) -> QTElem:
    mwidth = m_degree + 1
    lwidth = l_degree + 1
    terms: dict = {}
    for col, val in vec.items():
        ai, rem = divmod(col, mwidth * lwidth)
        k, j = divmod(rem, lwidth)
        alpha = slots[ai]
        key = (k, j)
        cur = terms.get(key)
        terms[key] = (cur + TPoly({alpha: val})) if cur is not None else TPoly({alpha: val})
    return QTElem(terms)


def _sweep_candidate(elem: QTElem, jser: DiscreteSeq, n_range: tuple) -> VerifyReport:
    return sweep("candidate", 0, 0, n_range, functools.partial(elem.apply, jser))


class _ColorBlock(NamedTuple):
    """The geometry of one color n's constraint rows: width rows, row i the
    coefficient of t^(beta_min + 2i). values[j] is J(n+j) as
    ``DiscreteSeq.dense`` gives it (the cached tuple, shared by every color
    that reads J(n+j)), or None when J(n+j) is zero; expand(n+j) is its
    coefficient array (``_expand``), made when a row source that reads it
    is first built (``_color_matrix``) and shared the same way. The rows
    themselves are only ever written a slab at a time, into an engine's
    buffer."""

    n: int
    values: list
    expand: Callable
    beta_min: int
    width: int
    cells: int  # the size of the strip ``_color_matrix`` reads the rows from


def _color_blocks(jser: DiscreteSeq, slots: list, m_degree: int, l_degree: int, n_range) -> list:
    """The block geometry of every color in n_range; None for a color whose
    values J(n), ..., J(n + l_degree) are all zero. Each J(m) is read once
    from the sequence's dense cache. Its coefficient array is expanded when
    a block that reads it is first built, once for the query, so the blocks
    that read it, and every prime they are fed at, share one array; a value
    that only colors past an early stop read is never expanded."""
    nlo, nhi = n_range
    dense = {}
    for m in range(nlo, nhi + l_degree + 1):
        v = dense[m] = jser.dense(m)
        if v is not None and (v[0] % 2 or v[1] % 2):
            raise AssertionError("colored Jones support is not on the even t-exponents")
    expand = functools.cache(lambda m: _expand(dense[m]))
    blocks = []
    for n in range(nlo, nhi + 1):
        values = [dense[m] for m in range(n, n + l_degree + 1)]
        present = [v for v in values if v is not None]
        if not present:
            blocks.append(None)
            continue
        lo = min(v[0] for v in present)
        hi = max(v[0] + v[1] * (v[2] - 1) for v in present)
        spread = 2 * m_degree * n  # the M-shift t^(2kn) for k = m_degree
        beta_min = slots[0] + lo + min(0, spread)
        width = (slots[-1] + hi + max(0, spread) - beta_min) // 2 + 1
        cells = width + sum((v[1] // 2 or 1) * (v[2] - 1) + 1 + width for v in present)
        if cells > _COLOR_CELL_LIMIT:
            raise BadParams(f"the kernel rows of color {n} need {cells:,} strip cells, above the limit of {_COLOR_CELL_LIMIT:,}")
        blocks.append(_ColorBlock(n, values, expand, beta_min, width, cells))
    return blocks


class _ColorRows:
    """One color's constraint rows as a row source of ``process_block``:
    ``len()`` is the color's row count, and ``write(s, out)`` writes rows
    s, ..., s + len(out) - 1 into out, in the column order its base was
    gathered for. Row i is the strip read at base + i, one ``np.take`` per
    ``_ROW_SLAB_CELLS`` cells."""

    def __init__(self, strip: np.ndarray, base: np.ndarray, width: int):
        self.strip, self.base, self.width = strip, base, width

    def __len__(self) -> int:
        return self.width

    def write(self, start: int, out: np.ndarray) -> None:
        rows = max(1, _ROW_SLAB_CELLS // self.base.size)
        for s in range(0, out.shape[0], rows):
            e = min(s + rows, out.shape[0])
            # mode="clip" writes straight to out; every index is in the strip
            index = self.base + np.arange(start + s, start + e)[:, None]
            np.take(self.strip, index, out=out[s:e], mode="clip")


def _color_matrix(block: _ColorBlock, slots: list, mwidth: int, lwidth: int, engine: ModularRREF) -> _ColorRows:
    """The constraint rows of one color as ``engine`` takes them: a row
    source (``_ColorRows``) that writes float64 rows in the engine's column
    order (``positions``), a slab at a time into the engine's own buffer.
    The unknown x * t^alpha M^k L^j, column (alpha index * mwidth + k) *
    lwidth + j, contributes t^(alpha + 2kn) J(n+j). A value whose max
    |coefficient| reaches ``FLOAT_INPUT_BOUND`` is written as its residues
    mod the engine's prime, every other value as its coefficients.

    Every value lies in one strip, its coefficients on every stride-th
    entry, with ``width`` zeros before and after it; the column of a copy
    that starts at row `off` reads the strip from its value's start minus
    off, and a column whose value is zero reads the strip's leading zeros.
    So row i is one gather from the strip at the base offsets plus i. The
    strip and the base are built once per color and engine; the color's
    rows x columns block is never formed."""
    strip = np.zeros(block.cells)
    start, lows = np.zeros(lwidth, dtype=np.int64), np.zeros(lwidth, dtype=np.int64)
    size = block.width
    for j, v in enumerate(block.values):
        if v is None:
            continue
        arr = block.expand(block.n + j)
        if v[3] >= FLOAT_INPUT_BOUND:
            arr = arr % engine.p
        gap = v[1] // 2 or 1
        strip[size : size + gap * v[2] : gap] = arr
        start[j], lows[j] = size, v[0]
        size += gap * (v[2] - 1) + 1 + block.width
    # off = (alpha + 2kn + lo_j - beta_min) / 2 for column (alpha, k, j)
    alpha = (np.asarray(slots) - block.beta_min)[:, None, None]
    off = (alpha + 2 * block.n * np.arange(mwidth)[:, None] + lows) // 2
    base = np.where(start > 0, start - off, 0).ravel()
    base[engine.positions()] = base.copy()
    return _ColorRows(strip, base, block.width)


def _solve_block(jser, slots, blocks, m_degree, l_degree, n_range, method):
    """Rank, kernel basis, rows fed and prime (None when exact) of one parity class.

    Both methods run ``ModularRREF`` engines, fed the colors in order, at
    the primes of one supply: ``PRIMES[0]`` alone for ``modular``,
    ``prime_supply()`` for ``exact``. Each color goes to each engine as a
    row source built for it (``_color_matrix``), which writes the color
    into the engine's slabs, so no color's full-width block is formed, in
    the first feed or in the re-feed of a new engine. The search stops at
    full rank or when the kernel verifies at a checkpoint: a color from the
    second on that adds no rank at nullity at most MAX_CANDIDATE_NULLITY,
    or the end of n_range. There the kernel is lifted over the primes
    ``combine`` keeps and swept over n_range. A failed lift, or a failure at a color already
    fed, adds an engine at the supply's next prime, fed the colors so far,
    and lifts again (with no prime left: keep feeding). A first failure at
    a later color means keep feeding: candidates that pass the fed colors
    are the rational kernel of those rows, since they are independent and
    as many as the nullity mod p, which is at least the rational one. So
    ``exact`` stops where elimination over Q stops, unless a prime divides
    a minor of the fed rows: that can move the stop, never the kernel.

    A modular nullity above the limit after the last color raises
    Underdetermined at once: another prime changes the rank only if this one
    divides a minor. A failure after the last color raises BadParams: the
    kernel's rationals are past the one-prime bound, which ``exact`` passes;
    another prime of the same size would fail the same way.
    """
    mwidth, lwidth = m_degree + 1, l_degree + 1
    ncols = len(slots) * mwidth * lwidth
    supply = prime_supply() if method == "exact" else iter(PRIMES[:1])
    engines, fed = [], []

    def draw() -> bool:
        """Add an engine at the supply's next prime, fed every color so far."""
        p = next(supply, None)
        if p is None:
            return False
        engine = ModularRREF(ncols, p)
        engines.append(engine)
        for block in fed:
            engine.process_block(_color_matrix(block, slots, mwidth, lwidth, engine))
        return True

    def kernel(last_n):
        """The lifted kernel if it verifies on n_range, else None."""
        while True:
            engines[:], residues, m = combine(engines)
            vecs = [reconstruct_vector(v, m) for v in residues]
            if None not in vecs:
                for v in vecs:
                    elem = _vector_to_qtelem(v, slots, m_degree, l_degree)
                    n = _sweep_candidate(elem, jser, n_range).witness_n
                    if n is not None:
                        break
                else:
                    return vecs
                if n > last_n:
                    return None
            if not draw():
                return None

    def found(vecs):
        prime = None if method == "exact" else engines[0].p
        return ncols - len(vecs), vecs, sum(block.width for block in fed), prime

    draw()
    for gi, block in enumerate(blocks):
        if block is None:
            continue
        before = max(e.rank for e in engines)
        for e in engines:
            e.process_block(_color_matrix(block, slots, mwidth, lwidth, e))
        fed.append(block)
        rank = max(e.rank for e in engines)
        if rank == ncols:
            return found([])
        if gi >= 1 and rank == before and ncols - rank <= MAX_CANDIDATE_NULLITY:
            vecs = kernel(block.n)
            if vecs is not None:
                return found(vecs)
    nullity = ncols - max(e.rank for e in engines)
    if method == "modular" and nullity > MAX_CANDIDATE_NULLITY:
        raise Underdetermined(
            f"modular kernel nullity {nullity} is above "
            f"{MAX_CANDIDATE_NULLITY} after the last color; "
            "widen n_range or use the exact method"
        )
    vecs = kernel(n_range[1])
    if vecs is not None:
        return found(vecs)
    raise BadParams(
        "modular kernel candidates failed reconstruction or verification at "
        f"the prime {PRIMES[0]}; use the exact method"
    )


def minimality_kernel(query: KernelQuery) -> KernelResult:
    """Exact kernel of the bounded annihilation system.

    Dimension 0 certifies that no annihilator exists within the bounds (a
    finite-window necessary check of minimality, not a proof of the general
    statement); a positive dimension comes with verified witness operators.
    """
    if query.l_degree < 0 or query.m_degree < 0:
        raise BadParams("degree bounds must be nonnegative")
    lo, hi = query.t_window
    if lo > hi:
        raise BadParams("empty t-window")
    nlo, nhi = query.n_range
    if nlo > nhi:
        raise BadParams("empty n-range")
    unknowns = (hi - lo + 1) * (query.m_degree + 1) * (query.l_degree + 1)
    if unknowns > MAX_KERNEL_UNKNOWNS:
        raise SystemTooLarge(unknowns, MAX_KERNEL_UNKNOWNS)
    method = query.method
    if method == "auto":
        method = "exact" if unknowns <= 2000 else "modular"
    if method not in ("exact", "modular"):
        raise BadParams(f"unknown method {query.method!r}")

    jser = jones_sequence(query.knot)
    m_degree, l_degree = query.m_degree, query.l_degree
    stride = (m_degree + 1) * (l_degree + 1)
    # The colored Jones support sits on even t-exponents, so the system is
    # block diagonal in the parity of alpha. Only the solved class is
    # eliminated: the unit t-shift of ``_parity_plan`` maps the derived
    # class's kernel onto the solved kernel vectors supported below column
    # `cut`. The lifted kernel is the standard basis (see
    # ``ExactEliminator.nullspace``), so the vectors with max < cut span that
    # subspace, and read over the derived slots they are its standard basis.
    solved, derived = _parity_plan(lo, hi)
    blocks = _color_blocks(jser, solved, m_degree, l_degree, query.n_range)
    rank, vecs, rows_total, prime = _solve_block(
        jser, solved, blocks, m_degree, l_degree, query.n_range, method
    )
    cut = len(derived) * stride
    derived_vecs = [v for v in vecs if max(v) < cut]
    rank += cut - len(derived_vecs)
    basis = [_vector_to_qtelem(v, solved, m_degree, l_degree) for v in vecs]
    derived_basis = [_vector_to_qtelem(v, derived, m_degree, l_degree) for v in derived_vecs]
    if not all(_sweep_candidate(e, jser, query.n_range).passed for e in derived_basis):
        raise AssertionError("derived parity kernel vector failed verification")
    basis += derived_basis
    # the recommendation is about the queried range, not the (possibly
    # early-stopped) rows actually processed
    potential_rows = sum(block.width for block in blocks if block is not None)
    unknowns_solved = len(solved) * stride
    if potential_rows < unknowns_solved:
        warnings.warn(
            f"kernel system is underdetermined: {potential_rows} constraints for "
            f"{unknowns_solved} eliminated unknowns; widen n_range",
            stacklevel=2,
        )
    return KernelResult(
        dimension=len(basis),
        unknowns=unknowns,
        rank=rank,
        basis=basis,
        method=method,
        prime=prime,
        constraint_rows=rows_total,
    )


def matches_up_to_unit(x: QTElem, y: QTElem) -> bool:
    """True when x = (+-1) t^alpha M^delta L^eps * y for some integers."""
    if x.is_zero() or y.is_zero():
        return x.is_zero() and y.is_zero()
    dl = min(l for (_k, l) in x.terms) - min(l for (_k, l) in y.terms)
    dm = min(k for (k, _l) in x.terms) - min(k for (k, _l) in y.terms)
    shifted = QTElem.M_pow(dm) * (QTElem.L_pow(dl) * y)
    key = next(iter(sorted(shifted.terms)))
    other = x.terms.get(key)
    if other is None:
        return False
    da = min(other.terms) - min(shifted.terms[key].terms)
    cand = QTElem.t_pow(da) * shifted
    return x == cand or x == -cand
