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
lattice, the largest |coefficient| and the run marks. The marks are the
positions and values of the array's first difference on its own lattice,
merged and nonzero, with the closing mark at ``len(arr)``: scattered into
zeros and summed cumulatively they give the array back. A colored Jones
value is a few runs of equal coefficients, so it has about 2n marks but
about ab*n^2/2 coefficients. The colored Jones sequence is filled in this
layout directly; a sequence whose rule gives ``TPoly`` values (h, ``acted``,
test tables) goes through ``_dense``, the one adapter.

``QTElem.apply`` computes the action on the marks: every monomial of every
term scatters its coefficient times the marks of f(n+l) into one
accumulator (one per lattice gap), and one cumulative sum per residue class
turns it into the result. Every accumulated mark is at most 2 * sum |c| * max|f(n+l)| over
the contributions in absolute value, and every partial sum is an output
coefficient, so the accumulator is int64 when twice that bound is below
2^62 and a numpy object array of Python ints otherwise; the action is exact
for any coefficient size.
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
        dense (``DiscreteSeq.dense``). Every monomial c t^e of a_{k,l} lands
        at exponent e + 2kn + (lowest exponent of f(n+l)); it scatters c
        times the run marks of f(n+l) into an accumulator on the output
        lattice, at its offset plus its gap times each mark's position. A
        cumulative sum along each residue class mod the gap then gives the
        result. Values of different gaps get one accumulator per gap; a
        single-term value fits any gap. The accumulator is int64 when
        2 * sum |c| * max|f(n+l)| over all contributions is below 2^62, and
        a Python-int object array otherwise, so the result is exact either
        way.
        """
        values = {}
        for (_k, l) in self.terms:
            if l not in values:
                values[l] = f.dense(n + l)
        # contributions that land on the same array at the same offset add up
        groups: dict = {}  # l -> {exponent where f(n+l) lands: coefficient}
        for (k, l), c in self.terms.items():
            v = values[l]
            if v is None:
                continue
            group = groups.setdefault(l, {})
            shift = 2 * k * n + v[0]
            for e, ce in c.terms.items():
                group[e + shift] = group.get(e + shift, 0) + ce
        groups = {l: {s: c for s, c in g.items() if c} for l, g in groups.items()}
        groups = {l: g for l, g in groups.items() if g}
        if not groups:
            return TPoly.zero()
        base = min(min(g) for g in groups.values())
        step = 0
        top = base
        bound = 0
        for l, g in groups.items():
            _lo, stride, arr, vmax, _pos, _marks = values[l]
            step = math.gcd(step, stride, *(s - base for s in g))
            top = max(top, max(g) + stride * (len(arr) - 1))
            bound += sum(map(abs, g.values())) * vmax
        step = step or 1
        size = (top - base) // step + 1
        dtype = np.int64 if 2 * bound < _INT64_SAFE else object
        single_gap = min((values[l][1] // step for l in groups if values[l][1]), default=1)
        accs: dict = {}  # gap -> accumulator of that gap's marks
        for l, g in groups.items():
            _lo, stride, _arr, _vmax, pos, marks = values[l]
            gap = stride // step or single_gap
            if gap not in accs:
                # closing marks reach one gap past the end
                accs[gap] = np.zeros((-(-size // gap) + 1) * gap, dtype=dtype)
            offs = (np.fromiter(g, dtype=np.int64, count=len(g)) - base) // step
            cs = np.array(list(g.values()), dtype=dtype)
            at = np.add.outer(offs, gap * pos).ravel()
            np.add.at(accs[gap], at, np.multiply.outer(cs, marks.astype(dtype, copy=False)).ravel())
        out = None
        for gap, acc in accs.items():
            grid = acc.reshape(-1, gap)
            np.cumsum(grid, axis=0, out=grid)
            out = acc[:size] if out is None else out + acc[:size]
        return _sparse(base, step, out)

    def coefficient(self, k: int, l: int) -> TPoly:
        return self.terms.get((k, l), TPoly.zero())


#: int64 holds the marks, and the accumulator of ``QTElem.apply``, only when
#: twice the coefficient bound is below this
_INT64_SAFE = 1 << 62


def _dense(v: TPoly):
    """v as (lowest exponent, stride, coefficient array, max |coefficient|,
    mark positions, mark values), or None when v is zero. The stride is the
    gcd of the exponent gaps (0 for a single term); the array holds every
    lattice point from the lowest to the highest exponent. Coefficients
    outside int64 give an object array. The marks are the nonzero entries of
    the array's first difference, closing mark at ``len(arr)`` included; they
    are Python ints (object) when 2 * max |coefficient| reaches 2^62.

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
    vmax = max(int(vals.max()), -int(vals.min()))
    wide = arr.astype(object) if 2 * vmax >= _INT64_SAFE else arr
    diff = np.diff(wide, prepend=0, append=0)
    pos = np.flatnonzero(diff)
    return lo, stride, arr, vmax, pos, diff[pos]


def _sparse(lo: int, stride: int, arr: np.ndarray) -> TPoly:
    """The TPoly whose coefficient of t^(lo + stride*i) is arr[i]."""
    nz = np.flatnonzero(arr)
    return TPoly._wrap(dict(zip((nz * stride + lo).tolist(), arr[nz].tolist())))


class DiscreteSeq:
    """A memoized total function Z -> Z[t^{+-1}] with a printable rule name.

    The cache holds each value once, in the dense layout of ``_dense`` (None
    for zero), run marks included. ``dense(n)`` reads it, as ``QTElem.apply``
    does; calling the sequence builds the TPoly. ``fn`` gives TPoly values
    and goes through the ``_dense`` adapter; ``from_dense`` takes a rule
    ``fill(seq, n)`` that gives the layout itself and may read other values
    through ``seq.dense``. Evaluation is deterministic, so caching never
    changes semantics.
    """

    __slots__ = ("name", "_fill", "_cache")

    def __init__(self, name: str, fn: Callable[[int], TPoly]):
        self.name = name
        self._fill = lambda _seq, n: _dense(fn(n))
        self._cache: dict = {}

    @classmethod
    def from_dense(cls, name: str, fill: Callable[["DiscreteSeq", int], tuple | None]) -> "DiscreteSeq":
        seq = cls.__new__(cls)
        seq.name, seq._fill, seq._cache = name, fill, {}
        return seq

    def dense(self, n: int) -> tuple | None:
        """f(n) as (lowest exponent, stride, coefficient array, max |coefficient|,
        mark positions, mark values), or None when f(n) is zero. The marks
        scattered into zeros of length len(array) + 1 and summed
        cumulatively give the array, then 0; their values are Python ints
        (object) when 2 * max |coefficient| reaches 2^62."""
        cache = self._cache
        if n in cache:
            return cache[n]
        v = cache[n] = self._fill(self, n)
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
