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

A ``DiscreteSeq`` caches each value once in a dense layout: the lowest
exponent, the stride of the exponent lattice, the coefficient array on that
lattice and the largest |coefficient|.  The colored Jones sequence is filled
in this layout directly; a sequence whose rule gives ``TPoly`` values (h,
``acted``, test tables) goes through ``_dense``, the one adapter.

``QTElem.apply`` computes the action on those arrays: every monomial of every
term adds a scaled copy of f(n+l) into one accumulator.  Before allocating,
it bounds every output coefficient by sum |c| * max|f(n+l)| over the
contributions; the accumulator is int64 when that bound is below 2^62 and a
numpy object array of Python ints otherwise, so the action is exact for any
coefficient size.
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

    def apply(self, f: "DiscreteSeq", n: int) -> TPoly:
        """Act on a discrete sequence: sum of a_{k,l}(t) t^{2kn} f(n+l).

        Each distinct f(n+l) is read once from the sequence's cache, already
        dense (``DiscreteSeq.dense``); every monomial c t^e of a_{k,l} then
        adds c times that array into one accumulator at exponent
        e + 2kn + (lowest exponent of f(n+l)). The accumulator is int64 when
        the bound sum |c| * max|f(n+l)| over all contributions is below 2^62,
        and a Python-int object array otherwise, so the result is exact
        either way.
        """
        values = {}
        for (_k, l) in self.terms:
            if l not in values:
                values[l] = f.dense(n + l)
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
        return _sparse(base, step, acc)

    def coefficient(self, k: int, l: int) -> TPoly:
        return self.terms.get((k, l), TPoly.zero())


#: the int64 accumulator is used only below this coefficient bound
_INT64_SAFE = 1 << 62


def _dense(v: TPoly):
    """v as (lowest exponent, stride, coefficient array, max |coefficient|),
    or None when v is zero. The stride is the gcd of the exponent gaps (0 for
    a single term); the array holds every lattice point from the lowest to
    the highest exponent. Coefficients outside int64 give an object array.

    This is the adapter for sequences whose rule gives TPolys."""
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


def _sparse(lo: int, stride: int, arr: np.ndarray) -> TPoly:
    """The TPoly whose coefficient of t^(lo + stride*i) is arr[i]."""
    nz = np.flatnonzero(arr)
    return TPoly._wrap(dict(zip((nz * stride + lo).tolist(), arr[nz].tolist())))


class DiscreteSeq:
    """A memoized total function Z -> Z[t^{+-1}] with a printable rule name.

    The cache holds each value once, in the dense layout of ``_dense`` (None
    for zero). ``dense(n)`` reads it, as ``QTElem.apply`` does; calling the
    sequence builds the TPoly. ``fn`` gives TPoly values and goes through the
    ``_dense`` adapter; ``from_dense`` takes a rule that gives the layout
    itself. Evaluation is deterministic, so caching never changes semantics.
    """

    __slots__ = ("name", "_fill", "_cache")

    def __init__(self, name: str, fn: Callable[[int], TPoly]):
        self.name = name
        self._fill = lambda n: _dense(fn(n))
        self._cache: dict = {}

    @classmethod
    def from_dense(cls, name: str, fill: Callable[[int], tuple | None]) -> "DiscreteSeq":
        seq = cls.__new__(cls)
        seq.name, seq._fill, seq._cache = name, fill, {}
        return seq

    def dense(self, n: int) -> tuple | None:
        """f(n) as (lowest exponent, stride, coefficient array, max |coefficient|),
        or None when f(n) is zero."""
        cache = self._cache
        if n in cache:
            return cache[n]
        v = cache[n] = self._fill(n)
        return v

    def __call__(self, n: int) -> TPoly:
        v = self.dense(n)
        return TPoly.zero() if v is None else _sparse(*v[:3])

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


def parse(text: str, ring: type = QTElem) -> SparseRing:
    """Parse the operator grammar into normal form in ``ring``: the quantum
    torus, or the commutative ``MLPoly``, which has no ``t`` atom.

    >>> str(parse('L*M'))
    't^2*M*L'
    """
    tok = _Tokenizer(text)

    def parse_expr() -> SparseRing:
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

    def parse_term() -> SparseRing:
        acc = parse_factor()
        while True:
            ch, _ = tok.peek()
            if ch == "*":
                tok.pos += 1
                acc = acc * parse_factor()
            else:
                return acc

    def parse_factor() -> SparseRing:
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

    def parse_atom() -> SparseRing:
        ch, p = tok.peek()
        if ch is None:
            raise OperatorSyntaxError("unexpected end of input", p)
        if ch.isdigit():
            return ring._constant(tok.next_int())
        if ch in ("t", "M", "L") and hasattr(ring, f"{ch}_pow"):
            tok.pos += 1
            return getattr(ring, f"{ch}_pow")(1)
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
