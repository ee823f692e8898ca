"""The quantum torus of recurrence operators and its action on discrete sequences.

Elements are kept in the normal form sum a_{k,l}(t) * M^k * L^l (M written
before L).  Products re-normalize through the commutation rule

    L^l * M^k = t^{2kl} * M^k * L^l,

equivalently (M^k L^l) * (M^k' L^l') = t^{2 l k'} * M^{k+k'} * L^{l+l'}.

An element acts on a discrete function f: Z -> Z[t^{+-1}] by

    (M^k L^l f)(n) = t^{2kn} * f(n + l),

extended bilinearly.  The involution sigma negates the (k, l) exponents of
normal-form monomials and the reduction epsilon sets t = -1, landing in the
commutative ring of (M, L) Laurent polynomials.

``QTElem.apply`` computes the action densely: each f(n+l) becomes an array on
the lattice of its exponents and every monomial of every term adds a scaled
copy into one accumulator.  Before allocating, it bounds every output
coefficient by sum |c| * max|f(n+l)| over the contributions; the accumulator
is int64 when that bound is below 2^62 and a numpy object array of Python
ints otherwise, so the action is exact for any coefficient size.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Mapping

import numpy as np

from .laurent import MLPoly, SparseRing, TPoly, _power, _product, _scaled


class OperatorSyntaxError(ValueError):
    """Parse failure; ``position`` is the character offset in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class QTElem(SparseRing):
    """A quantum torus element in M-before-L normal form.

    ``terms`` maps (k, l) to the nonzero TPoly coefficient of M^k L^l; the
    constructor takes integer coefficients too. Integers and TPolys are the
    scalars (the center's constants).
    """

    __slots__ = ()

    ONE_KEY = (0, 0)
    SCALARS = (int, TPoly)

    @staticmethod
    def _pruned(terms: Mapping) -> dict:
        # integer coefficients become constant TPolys
        return {k: TPoly({0: c}) if isinstance(c, int) else c for k, c in terms.items() if c}

    @classmethod
    def t_pow(cls, e: int, coeff: int = 1) -> "QTElem":
        return cls({(0, 0): TPoly({e: coeff})})

    @classmethod
    def M_pow(cls, k: int) -> "QTElem":
        return cls({(k, 0): TPoly.one()})

    @classmethod
    def L_pow(cls, l: int) -> "QTElem":
        return cls({(0, l): TPoly.one()})

    @classmethod
    def monomial(cls, coeff: "TPoly | int", k: int, l: int) -> "QTElem":
        return cls({(k, l): coeff})

    def _mul(self, other: "QTElem") -> "QTElem":
        acc: dict = {}
        for (k1, l1), c1 in self.terms.items():
            for (k2, l2), c2 in other.terms.items():
                # (M^k1 L^l1)(M^k2 L^l2) = t^{2 l1 k2} M^{k1+k2} L^{l1+l2}
                c = (c1 * c2).shift(2 * l1 * k2)
                key = (k1 + k2, l1 + l2)
                if key in acc:
                    s = acc[key] + c
                    if s.is_zero():
                        del acc[key]
                    else:
                        acc[key] = s
                else:
                    acc[key] = c
        return self._wrap(acc)

    @staticmethod
    def _invert_term(key: tuple, c: TPoly):
        if len(c.terms) != 1:
            return None
        ((e, u),) = c.terms.items()
        if u not in (1, -1):
            return None
        # the inverse of u t^e M^k L^l is u t^{2kl - e} M^{-k} L^{-l}
        k, l = key
        return {(-k, -l): TPoly({2 * k * l - e: u})}

    @staticmethod
    def _term_text(key: tuple, c: TPoly) -> tuple:
        m, l = _power("M", key[0]), _power("L", key[1])
        if len(c.terms) == 1:
            ((e, u),) = c.terms.items()
            return _scaled(u, _product(_power("t", e), m, l))
        return False, _product(f"({c})", m, l)

    def sigma(self) -> "QTElem":
        """The involution sending a(t) M^k L^l to a(t) M^{-k} L^{-l} termwise."""
        return self._wrap({(-k, -l): c for (k, l), c in self.terms.items()})

    def epsilon(self) -> MLPoly:
        """Reduce t = -1, landing in the commutative (M, L) Laurent ring."""
        out = {}
        for (k, l), c in self.terms.items():
            v = c.at_minus_one()
            if v:
                out[(k, l)] = v
        return MLPoly(out)

    def apply(self, f: Callable[[int], TPoly], n: int) -> TPoly:
        """Act on a discrete sequence: sum of a_{k,l}(t) t^{2kn} f(n+l).

        Each distinct f(n+l) is fetched once and laid out densely; every
        monomial c t^e of a_{k,l} then adds c times that array into one
        accumulator at exponent e + 2kn + (lowest exponent of f(n+l)). The
        accumulator is int64 when the bound sum |c| * max|f(n+l)| over all
        contributions is below 2^62, and a Python-int object array otherwise,
        so the result is exact either way.
        """
        values = {}
        for (_k, l) in self.terms:
            if l not in values:
                values[l] = _dense(f(n + l))
        # contributions that land on the same array at the same offset add up
        coeffs: dict = {}
        for (k, l), c in self.terms.items():
            v = values[l]
            if v is None:
                continue
            for e, ce in c.terms.items():
                key = (l, e + 2 * k * n + v[0])
                coeffs[key] = coeffs.get(key, 0) + ce
        contribs = [(l, start, c) for (l, start), c in coeffs.items() if c]
        if not contribs:
            return TPoly.zero()
        base = min(start for _l, start, _c in contribs)
        step = 0
        top = base
        bound = 0
        for l, start, c in contribs:
            _lo, stride, arr, vmax = values[l]
            step = math.gcd(step, stride, start - base)
            top = max(top, start + stride * (len(arr) - 1))
            bound += abs(c) * vmax
        step = step or 1
        dtype = np.int64 if bound < _INT64_SAFE else object
        acc = np.zeros((top - base) // step + 1, dtype=dtype)
        for l, start, c in contribs:
            _lo, stride, arr, _vmax = values[l]
            off = (start - base) // step
            gap = stride // step or 1
            acc[off : off + gap * (len(arr) - 1) + 1 : gap] += c * arr.astype(dtype, copy=False)
        nz = np.flatnonzero(acc)
        return TPoly._wrap(dict(zip((nz * step + base).tolist(), acc[nz].tolist())))

    def coefficient(self, k: int, l: int) -> TPoly:
        return self.terms.get((k, l), TPoly.zero())


#: the int64 accumulator is used only below this coefficient bound
_INT64_SAFE = 1 << 62


def _dense(v: TPoly):
    """v as (lowest exponent, stride, coefficient array, max |coefficient|),
    or None when v is zero. The stride is the gcd of the exponent gaps (0 for
    a single term); the array holds every lattice point from the lowest to
    the highest exponent. Coefficients outside int64 give an object array."""
    if not v.terms:
        return None
    size = len(v.terms)
    exps = np.fromiter(v.terms.keys(), dtype=np.int64, count=size)
    try:
        vals = np.fromiter(v.terms.values(), dtype=np.int64, count=size)
    except OverflowError:
        vals = np.array(list(v.terms.values()), dtype=object)
    lo = int(exps.min())
    gaps = exps - lo
    stride = int(np.gcd.reduce(gaps))
    arr = np.zeros(int(gaps.max()) // (stride or 1) + 1, dtype=vals.dtype)
    arr[gaps // (stride or 1)] = vals
    return lo, stride, arr, max(int(vals.max()), -int(vals.min()))


class DiscreteSeq:
    """A memoized total function Z -> TPoly with a printable rule name.

    The cache makes repeated verification sweeps over overlapping windows
    cheap; evaluation is deterministic, so caching never changes semantics.
    """

    __slots__ = ("name", "_fn", "_cache")

    def __init__(self, name: str, fn: Callable[[int], TPoly]):
        self.name = name
        self._fn = fn
        self._cache: dict = {}

    def __call__(self, n: int) -> TPoly:
        v = self._cache.get(n)
        if v is None:
            v = self._fn(n)
            self._cache[n] = v
        return v

    def __repr__(self) -> str:
        return f"DiscreteSeq({self.name!r})"


def acted(op: QTElem, f: DiscreteSeq, name: str | None = None) -> DiscreteSeq:
    """The sequence n -> (op f)(n)."""
    return DiscreteSeq(name or f"({f.name} acted)", functools.partial(op.apply, f))


# --- operator grammar -------------------------------------------------------
#
# expr   := term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := '-' factor | atom ('^' signed-int)?
# atom   := INT | 't' | 'M' | 'L' | '(' expr ')'
#
# Multiplication happens in the written order, so e.g. L*M normalizes to
# t^2*M*L through the commutation rule.


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None, self.pos
        return self.text[self.pos], self.pos

    def next_int(self) -> int:
        ch, p = self.peek()
        sign = 1
        if ch == "-":
            sign = -1
            self.pos += 1
            ch, p = self.peek()
        if ch is None or not ch.isdigit():
            raise OperatorSyntaxError("expected an integer", p)
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return sign * int(self.text[start : self.pos])


def parse(text: str) -> QTElem:
    """Parse the operator grammar into normal form.

    >>> str(parse('L*M'))
    't^2*M*L'
    """
    tok = _Tokenizer(text)

    def parse_expr() -> QTElem:
        acc = parse_term()
        while True:
            ch, _ = tok.peek()
            if ch == "+":
                tok.pos += 1
                acc = acc + parse_term()
            elif ch == "-":
                tok.pos += 1
                acc = acc - parse_term()
            else:
                return acc

    def parse_term() -> QTElem:
        acc = parse_factor()
        while True:
            ch, _ = tok.peek()
            if ch == "*":
                tok.pos += 1
                acc = acc * parse_factor()
            else:
                return acc

    def parse_factor() -> QTElem:
        ch, p = tok.peek()
        if ch == "-":
            tok.pos += 1
            return -parse_factor()
        atom = parse_atom()
        ch, _ = tok.peek()
        if ch == "^":
            tok.pos += 1
            e = tok.next_int()
            atom = atom ** e
        return atom

    def parse_atom() -> QTElem:
        ch, p = tok.peek()
        if ch is None:
            raise OperatorSyntaxError("unexpected end of input", p)
        if ch.isdigit():
            return QTElem({(0, 0): TPoly({0: tok.next_int()})})
        if ch == "t":
            tok.pos += 1
            return QTElem.t_pow(1)
        if ch == "M":
            tok.pos += 1
            return QTElem.M_pow(1)
        if ch == "L":
            tok.pos += 1
            return QTElem.L_pow(1)
        if ch == "(":
            tok.pos += 1
            inner = parse_expr()
            ch2, p2 = tok.peek()
            if ch2 != ")":
                raise OperatorSyntaxError("expected ')'", p2)
            tok.pos += 1
            return inner
        raise OperatorSyntaxError(f"unexpected character {ch!r}", p)

    result = parse_expr()
    ch, p = tok.peek()
    if ch is not None:
        raise OperatorSyntaxError(f"trailing input {ch!r}", p)
    return result


def serialize(x: QTElem) -> str:
    """Canonical text: normal-form terms ordered by (k, l)."""
    return str(x)
