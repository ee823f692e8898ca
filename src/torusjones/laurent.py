"""Exact sparse Laurent polynomial arithmetic over arbitrary-precision integers.

Two rings are provided:

* ``TPoly``: Laurent polynomials in one variable t, used for colored Jones
  values, quantum integers [k] and the symmetric binomials lambda_k.
* ``MLPoly``: commutative Laurent polynomials in the pair (M, L), the target
  of the t = -1 reduction.

Both are stored as sparse exponent -> coefficient maps with zero coefficients
pruned eagerly, so equality is map equality and the zero polynomial is the
empty map.  All values are immutable by convention: every operation returns a
new object.
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


class TPoly:
    """A Laurent polynomial in t with integer coefficients.

    >>> TPoly({2: 1, -2: 1}) * TPoly({2: 1, -2: 1})
    TPoly('t^-4 + 2 + t^4')
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        t = {}
        if terms:
            for e, c in terms.items():
                if c:
                    t[e] = t.get(e, 0) + c
                    if not t[e]:
                        del t[e]
        self.terms = t

    @classmethod
    def zero(cls) -> "TPoly":
        return cls()

    @classmethod
    def one(cls) -> "TPoly":
        return cls({0: 1})

    @classmethod
    def t_pow(cls, e: int, coeff: int = 1) -> "TPoly":
        return cls({e: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        if isinstance(other, TPoly):
            return self.terms == other.terms
        return NotImplemented

    __hash__ = None  # mutable dict inside; value semantics via __eq__ only

    def __neg__(self) -> "TPoly":
        out = TPoly()
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __add__(self, other) -> "TPoly":
        if isinstance(other, int):
            other = TPoly({0: other})
        if not isinstance(other, TPoly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        r = TPoly()
        r.terms = out
        return r

    __radd__ = __add__

    def __sub__(self, other) -> "TPoly":
        return self + (-other)

    def __rsub__(self, other) -> "TPoly":
        return (-self) + other

    def __mul__(self, other) -> "TPoly":
        if isinstance(other, int):
            if not other:
                return TPoly()
            out = TPoly()
            out.terms = {e: c * other for e, c in self.terms.items()}
            return out
        if not isinstance(other, TPoly):
            return NotImplemented
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
        out = TPoly()
        out.terms = acc
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TPoly":
        if n < 0:
            if len(self.terms) == 1:
                ((e, c),) = self.terms.items()
                if c in (1, -1):
                    return TPoly({e * n: 1 if (c == 1 or n % 2 == 0) else -1})
            raise ValueError("negative power of a non-unit Laurent polynomial")
        result = TPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, e: int) -> "TPoly":
        """Multiply by t^e."""
        out = TPoly()
        out.terms = {k + e: c for k, c in self.terms.items()}
        return out

    def lowest_degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no lowest degree")
        return min(self.terms)

    def highest_degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no highest degree")
        return max(self.terms)

    def divide_exact(self, den: "TPoly") -> "TPoly":
        out = TPoly()
        out.terms = _divide_univariate(self.terms, den.terms)
        return out

    def at_minus_one(self) -> int:
        """Evaluate at t = -1."""
        return sum(c if e % 2 == 0 else -c for e, c in self.terms.items())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                mono = "t" if e == 1 else f"t^{e}"
                body = mono if mag == 1 else f"{mag}*{mono}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"TPoly('{self}')"

    def to_json(self) -> list:
        return [[self.terms[e], e] for e in sorted(self.terms)]

    @classmethod
    def from_json(cls, data: Iterable) -> "TPoly":
        return cls({int(e): int(c) for c, e in data})


class MLPoly:
    """A commutative Laurent polynomial in M and L with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, int] | None = None):
        t = {}
        if terms:
            for k, c in terms.items():
                if c:
                    key = (int(k[0]), int(k[1]))
                    t[key] = t.get(key, 0) + c
                    if not t[key]:
                        del t[key]
        self.terms = t

    @classmethod
    def zero(cls) -> "MLPoly":
        return cls()

    @classmethod
    def one(cls) -> "MLPoly":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, m: int, l: int, coeff: int = 1) -> "MLPoly":
        return cls({(m, l): coeff})

    @classmethod
    def M_pow(cls, m: int) -> "MLPoly":
        return cls({(m, 0): 1})

    @classmethod
    def L_pow(cls, l: int) -> "MLPoly":
        return cls({(0, l): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.terms == ({(0, 0): other} if other else {})
        if isinstance(other, MLPoly):
            return self.terms == other.terms
        return NotImplemented

    __hash__ = None

    def __neg__(self) -> "MLPoly":
        out = MLPoly()
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __add__(self, other) -> "MLPoly":
        if isinstance(other, int):
            other = MLPoly({(0, 0): other})
        if not isinstance(other, MLPoly):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        r = MLPoly()
        r.terms = out
        return r

    __radd__ = __add__

    def __sub__(self, other) -> "MLPoly":
        if isinstance(other, int):
            other = MLPoly({(0, 0): other})
        return self + (-other)

    def __rsub__(self, other) -> "MLPoly":
        return (-self) + other

    def __mul__(self, other) -> "MLPoly":
        if isinstance(other, int):
            if not other:
                return MLPoly()
            out = MLPoly()
            out.terms = {k: c * other for k, c in self.terms.items()}
            return out
        if not isinstance(other, MLPoly):
            return NotImplemented
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
        out = MLPoly()
        out.terms = acc
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MLPoly":
        if n < 0:
            if len(self.terms) == 1:
                (m, l), c = next(iter(self.terms.items()))
                if c in (1, -1):
                    return MLPoly({(m * n, l * n): 1 if (c == 1 or n % 2 == 0) else -1})
            raise ValueError("negative power of a non-unit MLPoly")
        result = MLPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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

    @staticmethod
    def _fmt_term(m: int, l: int, c: int, first: bool) -> str:
        mag = abs(c)
        pieces = []
        if m:
            pieces.append("M" if m == 1 else f"M^{m}")
        if l:
            pieces.append("L" if l == 1 else f"L^{l}")
        if not pieces:
            body = str(mag)
        else:
            body = "*".join(pieces)
            if mag != 1:
                body = f"{mag}*{body}"
        if first:
            return ("-" if c < 0 else "") + body
        return (" - " if c < 0 else " + ") + body

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (m, l) in sorted(self.terms):
            parts.append(self._fmt_term(m, l, self.terms[(m, l)], not parts))
        return "".join(parts)

    def __repr__(self) -> str:
        return f"MLPoly('{self}')"

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
