"""Exact sparse Laurent polynomial arithmetic over arbitrary-precision integers.

Two rings are provided:

* ``TPoly``: Laurent polynomials in one variable t, used for colored Jones
  values, quantum integers [k] and the symmetric binomials lambda_k.
* ``MLPoly``: commutative Laurent polynomials in the pair (M, L), the target
  of the t = -1 reduction.

Both, and the quantum torus ``qtorus.QTElem``, derive from ``SparseRing``:
sparse exponent -> coefficient maps with zero coefficients pruned eagerly, so
equality is map equality and the zero element is the empty map.  All values
are immutable by convention: every operation returns a new object.
"""

from __future__ import annotations

from typing import Iterable, Mapping


class ZeroPolynomial(ValueError):
    """Raised when an operation needs a nonzero polynomial (e.g. lowest_degree)."""


class DivisionByZero(ZeroDivisionError):
    """Raised when dividing by the zero polynomial."""


class NotDivisible(ValueError):
    """Exact division failed.  ``witness`` holds the first failing step."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def _divide_univariate(num: dict, den: dict) -> dict:
    """Exact division of integer Laurent polynomials given as exponent -> coeff dicts.

    Returns the quotient dict with num = quotient * den, or raises NotDivisible.
    The greedy top-term algorithm is complete here: over a domain, the leading
    term of an exact quotient is the quotient of leading terms.
    """
    if not den:
        raise DivisionByZero("division by the zero polynomial")
    if not num:
        return {}
    dtop = max(den)
    dlead = den[dtop]
    qlow = min(num) - min(den)
    rem = dict(num)
    quot: dict = {}
    while rem:
        rtop = max(rem)
        e = rtop - dtop
        if e < qlow:
            raise NotDivisible(
                f"remainder term of degree {rtop} cannot be cleared",
                witness=(rtop, rem[rtop]),
            )
        c, r = divmod(rem[rtop], dlead)
        if r:
            raise NotDivisible(
                f"leading coefficient {rem[rtop]} not divisible by {dlead} at degree {rtop}",
                witness=(rtop, rem[rtop]),
            )
        quot[e] = c
        for de, dc in den.items():
            ne = de + e
            nv = rem.get(ne, 0) - c * dc
            if nv:
                rem[ne] = nv
            else:
                rem.pop(ne, None)
    return quot


class SparseRing:
    """A ring element stored as a sparse key -> nonzero coefficient map.

    Subclasses fix the key of 1 (``ONE_KEY``), the scalars that coerce into
    the ring as multiples of 1 (``SCALARS``; all central), the product of two
    elements (``_mul``), the inverse of a unit monomial (``_invert_term``) and
    the text of one term (``_term_text``). Everything else is shared: zero
    pruning, equality, the additive group, coercion, powers and printing.
    """

    __slots__ = ("terms",)

    ONE_KEY = 0
    SCALARS = (int,)

    def __init__(self, terms: Mapping | None = None):
        self.terms = self._pruned(terms) if terms else {}

    @staticmethod
    def _pruned(terms: Mapping) -> dict:
        # a Mapping never holds a key twice, so nothing merges: only zeros go
        return {k: c for k, c in terms.items() if c}

    @classmethod
    def _wrap(cls, terms: dict):
        """An element over terms, which must hold no zero; nothing is copied."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def _constant(cls, c):
        """The scalar c times 1."""
        return cls({cls.ONE_KEY: c})

    def _coerce(self, x):
        """x as an element of this ring, or None when x is no scalar of it."""
        return self._constant(x) if isinstance(x, self.SCALARS) else None

    @classmethod
    def zero(cls):
        return cls._wrap({})

    @classmethod
    def one(cls):
        return cls._constant(1)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # mutable dict inside; value semantics via __eq__ only

    def __neg__(self):
        return self._wrap({k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, type(self)):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            if k in out:
                c = out[k] + c
                if not c:
                    del out[k]
                    continue
            out[k] = c
        return self._wrap(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._mul(other)

    __rmul__ = __mul__  # scalars are central

    def __pow__(self, n: int):
        if n < 0:
            inv = None
            if len(self.terms) == 1:
                inv = self._invert_term(*next(iter(self.terms.items())))
            if inv is None:
                raise ValueError(f"negative power of a non-unit {type(self).__name__}")
            return self._wrap(inv) ** -n
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __str__(self) -> str:
        parts = []
        for k, c in sorted(self.terms.items()):  # unique keys: coefficients never compared
            negative, body = self._term_text(k, c)
            if parts:
                parts.append((" - " if negative else " + ") + body)
            else:
                parts.append(("-" if negative else "") + body)
        return "".join(parts) or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}('{self}')"


def _power(name: str, e: int) -> str:
    """name^e as text; "" when e is 0."""
    if not e:
        return ""
    return name if e == 1 else f"{name}^{e}"


def _product(*factors: str) -> str:
    """The nonempty factors joined by '*'."""
    return "*".join([f for f in factors if f])


def _scaled(c: int, mono: str) -> tuple:
    """(c < 0, the text of |c| times mono); an empty mono stands for 1."""
    mag = abs(c)
    if not mono:
        return c < 0, str(mag)
    return c < 0, mono if mag == 1 else f"{mag}*{mono}"


class TPoly(SparseRing):
    """A Laurent polynomial in t with integer coefficients.

    >>> TPoly({2: 1, -2: 1}) * TPoly({2: 1, -2: 1})
    TPoly('t^-4 + 2 + t^4')
    """

    __slots__ = ()

    @classmethod
    def t_pow(cls, e: int, coeff: int = 1) -> "TPoly":
        return cls({e: coeff})

    def _mul(self, other: "TPoly") -> "TPoly":
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        acc: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                v = acc.get(e, 0) + c1 * c2
                if v:
                    acc[e] = v
                else:
                    del acc[e]
        return self._wrap(acc)

    @staticmethod
    def _invert_term(e: int, c: int):
        return {-e: c} if c in (1, -1) else None

    @staticmethod
    def _term_text(e: int, c: int) -> tuple:
        return _scaled(c, _power("t", e))

    def shift(self, e: int) -> "TPoly":
        """Multiply by t^e."""
        return self._wrap({k + e: c for k, c in self.terms.items()})

    def lowest_degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no lowest degree")
        return min(self.terms)

    def highest_degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no highest degree")
        return max(self.terms)

    def divide_exact(self, den: "TPoly") -> "TPoly":
        return self._wrap(_divide_univariate(self.terms, den.terms))

    def at_minus_one(self) -> int:
        """Evaluate at t = -1."""
        return sum(c if e % 2 == 0 else -c for e, c in self.terms.items())

    def to_json(self) -> list:
        return [[self.terms[e], e] for e in sorted(self.terms)]

    @classmethod
    def from_json(cls, data: Iterable) -> "TPoly":
        return cls({int(e): int(c) for c, e in data})


class MLPoly(SparseRing):
    """A commutative Laurent polynomial in M and L with integer coefficients."""

    __slots__ = ()

    ONE_KEY = (0, 0)

    @classmethod
    def monomial(cls, m: int, l: int, coeff: int = 1) -> "MLPoly":
        return cls({(m, l): coeff})

    @classmethod
    def M_pow(cls, m: int) -> "MLPoly":
        return cls({(m, 0): 1})

    @classmethod
    def L_pow(cls, l: int) -> "MLPoly":
        return cls({(0, l): 1})

    def _mul(self, other: "MLPoly") -> "MLPoly":
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        acc: dict = {}
        for (m1, l1), c1 in a.items():
            for (m2, l2), c2 in b.items():
                k = (m1 + m2, l1 + l2)
                v = acc.get(k, 0) + c1 * c2
                if v:
                    acc[k] = v
                else:
                    del acc[k]
        return self._wrap(acc)

    @staticmethod
    def _invert_term(key: tuple, c: int):
        return {(-key[0], -key[1]): c} if c in (1, -1) else None

    @staticmethod
    def _term_text(key: tuple, c: int) -> tuple:
        return _scaled(c, _product(_power("M", key[0]), _power("L", key[1])))

    def eval_units(self, m_val: int = 1, l_val: int = 1) -> int:
        """Evaluate at M, L in {1, -1} (the only unit integer points of the Laurent ring)."""
        if m_val not in (1, -1) or l_val not in (1, -1):
            raise ValueError("only unit evaluations are exact for Laurent exponents")
        total = 0
        for (m, l), c in self.terms.items():
            sign = 1
            if m_val == -1 and m % 2:
                sign = -sign
            if l_val == -1 and l % 2:
                sign = -sign
            total += sign * c
        return total

    def _by_l(self) -> dict:
        """Group terms as L-exponent -> {M-exponent: coeff}."""
        out: dict = {}
        for (m, l), c in self.terms.items():
            out.setdefault(l, {})[m] = c
        return out

    def divide_exact(self, den: "MLPoly") -> "MLPoly":
        """Exact division in Z[M^{+-1}, L^{+-1}].

        Performed as division of polynomials in L whose coefficients are
        Laurent polynomials in M; Laurent exponents are handled in place,
        which is equivalent to clearing monomial units first.
        """
        if den.is_zero():
            raise DivisionByZero("division by the zero polynomial")
        if self.is_zero():
            return MLPoly.zero()
        num_l = self._by_l()
        den_l = den._by_l()
        dtop = max(den_l)
        dlead = den_l[dtop]
        qlow = min(num_l) - min(den_l)
        rem = {l: dict(ms) for l, ms in num_l.items()}
        quot_terms: dict = {}
        while rem:
            rtop = max(rem)
            e = rtop - dtop
            if e < qlow:
                raise NotDivisible(
                    f"remainder in L-degree {rtop} cannot be cleared",
                    witness=(rtop, dict(rem[rtop])),
                )
            qc = _divide_univariate(rem[rtop], dlead)
            for m, c in qc.items():
                quot_terms[(m, e)] = c
            for dl, dms in den_l.items():
                tgt = rem.setdefault(dl + e, {})
                for dm, dc in dms.items():
                    for qm, qcv in qc.items():
                        mm = dm + qm
                        nv = tgt.get(mm, 0) - qcv * dc
                        if nv:
                            tgt[mm] = nv
                        else:
                            tgt.pop(mm, None)
                if not tgt:
                    rem.pop(dl + e, None)
            rem = {l: ms for l, ms in rem.items() if ms}
        return MLPoly(quot_terms)

    def to_json(self) -> list:
        return [[self.terms[k], [k[0], k[1]]] for k in sorted(self.terms)]

    @classmethod
    def from_json(cls, data: Iterable) -> "MLPoly":
        return cls({(int(k[0]), int(k[1])): int(c) for c, k in data})


def quantum_integer(k: int) -> TPoly:
    """The quantum integer [k] = (t^{2k} - t^{-2k}) / (t^2 - t^{-2}).

    [0] = 0, [1] = 1, [-k] = -[k]; for k > 0 this is
    t^{2(k-1)} + t^{2(k-3)} + ... + t^{-2(k-1)}.
    """
    if k == 0:
        return TPoly.zero()
    if k < 0:
        return -quantum_integer(-k)
    return TPoly({e: 1 for e in range(-2 * (k - 1), 2 * k - 1, 4)})


def lambda_poly(k: int) -> TPoly:
    """lambda_k = t^{2k} + t^{-2k}; symmetric in k <-> -k (lambda_0 = 2)."""
    return TPoly({2 * k: 1}) + TPoly({-2 * k: 1})
