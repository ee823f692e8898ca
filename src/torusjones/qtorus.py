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

A ``DiscreteSeq`` caches each value once in the run-mark layout, the tuple
(lowest exponent, stride, length, max |coefficient|, mark positions, mark
values), or None for zero. The stride is the gcd of the exponent gaps (0
for a single term), and the length counts the lattice points from the
lowest exponent to the highest. The marks are the nonzero entries of the
first difference of the coefficients on that lattice, the closing mark at
the length included: scattered into zeros of length + 1 and summed
cumulatively, they give the coefficients, then 0. Positions are int64;
mark values are int64, or Python ints (object) when 2 * max |coefficient|
reaches 2^62. The marks are the value, and no coefficient array is kept.

``_run_marks`` is the one writer of the layout. It takes a value as a sum
of runs of equal coefficients on its lattice, and never makes the
coefficient array. A colored Jones value is about n runs
(``jones.colored_jones_dense``), so it has about 2n marks but about
ab*n^2/4 coefficients; a sequence whose rule gives ``TPoly`` values (the
constant 1 that closed forms act on, Q applied to J, test tables) goes
through ``_dense``, which makes each term a run of one point. Two readers
need the coefficients and expand the marks with ``_expand``:
``DiscreteSeq.__call__``, which builds the TPoly, and the kernel search's
``operators._color_blocks``, once per value and query.

``QTElem.apply`` computes the action on the marks, for one color or a
range of colors in one call: every monomial of every term, at every color,
scatters its coefficient times the marks of f(n+l) into that color's
segment of one accumulator (one per lattice gap), and one cumulative sum
per residue class turns the accumulators into the values of all colors at
once. Every accumulated mark is at most 2 * sum |c| * max|f(n+l)| over a
color's contributions in absolute value, and every partial sum is an
output coefficient, so a color's accumulator is int64 when twice that
bound is below 2^62 and a numpy object array of Python ints otherwise; the
action is exact for any coefficient size. The verification sweeps
(``operators.sweep``) check a whole n-range with one call per operator.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .laurent import MLPoly, SparseRing, TPoly, _power, _product, _scaled


class BadParams(ValueError):
    """Invalid torus-knot or operator parameters, or a color too large to
    act on."""


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

    __slots__ = ("_table", "_epsilon")

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
        """Reduce t = -1, landing in the commutative (M, L) Laurent ring;
        computed on first use and kept, as elements are immutable."""
        try:
            return self._epsilon
        except AttributeError:
            out = {}
            for (k, l), c in self.terms.items():
                v = c.at_minus_one()
                if v:
                    out[(k, l)] = v
            self._epsilon = MLPoly(out)
            return self._epsilon

    def apply(self, f: "DiscreteSeq", n: "int | range") -> "TPoly | list":
        """Act on a discrete sequence: sum of a_{k,l}(t) t^{2kn} f(n+l).

        ``n`` is a color, or a ``range`` of colors whose values come back as
        a list (empty for an empty range); a color is the range of one.
        Every t-monomial c t^e M^k L^l of the operator and every color n
        make one contribution: f(n+l), read once per call from the
        sequence's cache (``DiscreteSeq.dense``), lands at exponent
        e + 2kn + (lowest exponent of f(n+l)). Each color gets the output
        lattice of its contributions and its own segment of one accumulator
        per lattice gap. A contribution scatters c times the run marks of
        f(n+l) into it, at its offset plus its gap times each mark's
        position, and one cumulative sum per residue class mod the gap
        turns the accumulators into the values. The marks of a contribution
        sum to zero, so each segment ends at zero in every residue class
        and leaks nothing into the next one; segments need no alignment. A
        single-term value fits any gap. A color's accumulator is int64 when
        2 * sum |c| * max|f(n+l)| over its contributions is below 2^62, and
        a Python-int object array otherwise, so the values are exact either
        way.

        Chunks bound the scratch memory: the colors are laid out in chunks
        of consecutive colors whose accumulator cells stay within
        ``_CHUNK_LIMIT``, and a chunk scatters its contributions at most
        ``_CHUNK_LIMIT`` marks at a time. A chunk always takes at least
        one color, and a scatter at least one contribution, so a range
        needs about as much scratch memory as its largest color alone. A
        chunk whose accumulators are all zero after its scatter returns
        zeros at once: the cumulative sums of zeros are zeros. A color
        whose accumulator cells would be more than ``_COLOR_CELL_LIMIT``
        raises BadParams before any accumulator or mark table is made.
        """
        colors = n if isinstance(n, range) else range(n, n + 1)
        values = _act(self._monomials(), f, colors)
        return values if isinstance(n, range) else values[0]

    def _monomials(self) -> "_Monomials":
        """The monomial table of ``apply``, built on first use: elements are
        immutable."""
        try:
            return self._table
        except AttributeError:
            self._table = _monomials(self.terms)
            return self._table

    def coefficient(self, k: int, l: int) -> TPoly:
        return self.terms.get((k, l), TPoly.zero())


#: int64 holds the marks, and the accumulator of ``QTElem.apply``, only when
#: twice the coefficient bound is below this
_INT64_SAFE = 1 << 62


#: a chunk of colors in ``QTElem.apply`` has at most this many accumulator
#: cells, and scatters at most this many marks at a time, unless a single
#: color or contribution needs more
_CHUNK_LIMIT = 1 << 12

#: the most cells (512 MiB of int64) of a J value (``jones.color_length``),
#: an action's accumulator or a kernel color's strip, refused before made
_COLOR_CELL_LIMIT = 1 << 26

#: above every exponent: the identity of the masked minima in ``_act``
_BIG = np.iinfo(np.int64).max
#: the run-mark layout of a zero value, as ``_act`` reads it
_ABSENT = (0, 0, 1, 0, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


class _Monomials(NamedTuple):
    """The monomials c t^e M^k L^l of an operator, for ``_act``: the
    distinct l in ``lvals``, and per monomial the index of its l, 2k, e and
    c; ``weight[i]`` is sum |c| over the monomials of the i-th l."""

    lvals: list
    li: np.ndarray
    k2: np.ndarray
    e: np.ndarray
    c: np.ndarray
    weight: list


def _monomials(terms: dict) -> _Monomials:
    lvals = sorted({l for _k, l in terms})
    lpos = {l: i for i, l in enumerate(lvals)}
    weight = [0] * len(lvals)
    ks, li, es, cs = [], [], [], []
    for (k, l), a in terms.items():
        i, m = lpos[l], len(a.terms)
        weight[i] += sum(map(abs, a.terms.values()))
        ks += [2 * k] * m
        li += [i] * m
        es += a.terms
        cs += a.terms.values()
    try:
        c = np.array(cs, dtype=np.int64)
    except OverflowError:
        c = np.array(cs, dtype=object)
    return _Monomials(lvals, np.array(li, dtype=np.intp), np.array(ks, dtype=np.int64), np.array(es, dtype=np.int64), c, weight)


def _act(table: _Monomials, f: "DiscreteSeq", colors: range) -> list:
    """(op f)(n) for every n in colors, computed as ``QTElem.apply`` says,
    for the operator op of the monomial table."""
    lvals, li, k2, es, coeffs, weight = table
    if not lvals or not colors:
        return [TPoly.zero() for _ in colors]

    # every value f(n+l) the colors read, once: color j reads value vi[j, i]
    # for the i-th distinct l
    reads = sorted({n + l for n in colors for l in lvals})
    index = {m: u for u, m in enumerate(reads)}
    vi = np.array([[index[n + l] for l in lvals] for n in colors], dtype=np.intp)
    values = [f.dense(m) or _ABSENT for m in reads]
    low, stride, span, count, vmax = zip(*((v[0], v[1], v[1] * (v[2] - 1), len(v[4]), v[3]) for v in values))
    low, stride, span, count = (np.array(x, dtype=np.int64) for x in (low, stride, span, count))
    # colors x monomials: is there a value, and where does it land
    pres = count[vi] > 0
    valid = pres[:, li]
    x = np.multiply.outer(np.array(colors, dtype=np.int64), k2)
    x += es
    x += low[vi][:, li]
    # each color's output lattice: lowest exponent, step and size
    live = pres.any(axis=1)
    base = np.where(valid, x, _BIG).min(axis=1)
    base[~live] = 0
    st = stride[vi]
    step = np.gcd(np.gcd.reduce(np.where(valid, x - base[:, None], 0), axis=1), np.gcd.reduce(st, axis=1))
    step[step == 0] = 1
    top = np.where(valid, x + span[vi][:, li], base[:, None]).max(axis=1)
    size = np.where(live, (top - base) // step + 1, 0)
    # colors x distinct l: the gap of the value read; a single-term value
    # fits any gap, and takes its color's smallest
    gap = st // step[:, None]
    single = np.where(gap > 0, gap, _BIG).min(axis=1)
    gap = np.where(gap > 0, gap, np.where(single < _BIG, single, 1)[:, None])
    wide = [2 * sum(map(operator.mul, weight, map(vmax.__getitem__, row))) >= _INT64_SAFE for row in vi.tolist()]
    # at most this many accumulator cells per color: its segment in every gap
    cells = np.where(live, size + np.where(pres, gap, 0).max(axis=1), 0) * len(set(gap[pres].tolist()))
    big = int(cells.argmax())
    if cells[big] > _COLOR_CELL_LIMIT:
        raise BadParams(
            f"the action at color {colors[big]} needs {cells[big]:,} accumulator cells, "
            f"above the limit of {_COLOR_CELL_LIMIT:,}"
        )

    # each row of pos and marks holds the run marks of one value, padded
    # with zero marks at position 0
    width = int(count.max())
    pos = np.zeros((len(values), width), dtype=np.int64)
    marks = np.zeros((len(values), width), dtype=object if any(v[5].dtype == object for v in values) else np.int64)
    for u, v in enumerate(values):
        pos[u, : len(v[4])] = v[4]
        marks[u, : len(v[4])] = v[5]

    def scatter(a: int, b: int) -> list:
        jj, ii = np.nonzero(valid[a:b])
        if not len(jj):
            return [TPoly.zero() for _ in range(a, b)]
        jc, lc = jj + a, li[ii]
        gaps = sorted(set(gap[a:b][pres[a:b]].tolist()))
        # one segment per color, long enough for its closing marks, and
        # one region of segments per gap
        seg = np.where(live[a:b], size[a:b] + gaps[-1], 0)
        cell = np.cumsum(seg) - seg
        total = int(cell[-1] + seg[-1])
        lens = [-(-total // gp) * gp for gp in gaps]
        region = [0, *itertools.accumulate(lens)]
        origin = (x[jc, ii] - base[jc]) // step[jc]
        origin += cell[jj]
        g = gap[jc, lc]
        for r, gp in zip(region[1:-1], gaps[1:]):
            origin[g == gp] += r
        dtype = object if any(wide[a:b]) else np.int64
        acc = np.zeros(region[-1], dtype=dtype)
        # the marks of (color, l) scaled by its gap, and the rows of them
        # that the contributions read, _CHUNK_LIMIT marks at a time
        m = int(count[vi[a:b]].max())
        scaled = (pos[vi[a:b], :m] * gap[a:b, :, None]).reshape(-1, m)
        row = jj * len(lvals) + lc
        u = vi[jc, lc]
        coef = coeffs[ii].astype(dtype, copy=False)[:, None]
        rows = max(1, _CHUNK_LIMIT // m)
        for r in range(0, len(u), rows):
            s = slice(r, r + rows)
            at = scaled[row[s]]
            at += origin[s, None]
            vals = marks[u[s], :m].astype(dtype, copy=False)
            vals *= coef[s]
            np.add.at(acc, at.ravel(), vals.ravel())
        if not acc.any():
            # the cumulative sums of zeros are zeros: every value is zero
            return [TPoly.zero() for _ in range(a, b)]
        for r, gp, ln in zip(region, gaps, lens):
            grid = acc[r : r + ln].reshape(-1, gp)
            np.cumsum(grid, axis=0, out=grid)
        res = acc[:total]
        for r in region[1:-1]:
            res += acc[r : r + total]
        nz = np.flatnonzero(res)
        cut = np.searchsorted(nz, cell).tolist() + [len(nz)]
        per = np.diff(cut)
        exps = nz * np.repeat(step[a:b], per)
        exps += np.repeat(base[a:b] - step[a:b] * cell, per)
        exps, coefs = exps.tolist(), res[nz].tolist()
        return [TPoly._wrap(dict(zip(exps[c0:c1], coefs[c0:c1]))) for c0, c1 in zip(cut, cut[1:])]

    return [v for a, b in _chunks(cells.tolist()) for v in scatter(a, b)]


def _chunks(cells: list):
    """(start, stop) of consecutive colors, in order, with at most
    ``_CHUNK_LIMIT`` cells in all, or one color."""
    start = used = 0
    for j, c in enumerate(cells):
        if j > start and used + c > _CHUNK_LIMIT:
            yield start, j
            start, used = j, 0
        used += c
    yield start, len(cells)


def _run_marks(lo: int, stride: int, runs) -> tuple:
    """The sum of ``runs``, each (start, stop, c) putting c at the lattice
    points start .. stop - 1, in the run-mark layout with lowest exponent
    ``lo`` and ``stride``: the one writer of the layout. The sum must be
    nonzero at point 0 and at its last point. Each run marks +c at its
    start and -c at its stop; the marks are summed where boundaries meet and
    dropped where the sum is zero, so the last one closes the value at its
    length. The max |coefficient| is the largest |partial sum| of the marks.
    The merge runs on Python ints, sorting the boundaries, and makes no
    array of the value's length."""
    marks: dict = {}
    for start, stop, c in runs:
        marks[start] = marks.get(start, 0) + c
        marks[stop] = marks.get(stop, 0) - c
    pos = sorted(p for p, m in marks.items() if m)
    vals = [marks[p] for p in pos]
    vmax = max(map(abs, itertools.accumulate(vals)))
    dtype = object if 2 * vmax >= _INT64_SAFE else np.int64
    return lo, stride, pos[-1], vmax, np.array(pos, dtype=np.int64), np.array(vals, dtype=dtype)


def _negated(v):
    """The run-mark layout of -f from that of f."""
    if v is None:
        return None
    lo, stride, length, vmax, pos, marks = v
    return lo, stride, length, vmax, pos, -marks


def _dense(v: TPoly):
    """v in the run-mark layout, each term a run of one point, or None when
    v is zero: the adapter for sequences whose rule gives TPolys."""
    if not v.terms:
        return None
    lo = min(v.terms)
    stride = math.gcd(*(e - lo for e in v.terms))
    step = stride or 1
    return _run_marks(lo, stride, (((e - lo) // step, (e - lo) // step + 1, c) for e, c in v.terms.items()))


def _expand(v: tuple) -> np.ndarray:
    """The coefficient array of a value in the run-mark layout: its marks
    scattered into zeros of length + 1 and summed cumulatively, last entry
    dropped. int64 when every coefficient fits, Python ints (object) else."""
    _lo, _stride, length, _vmax, pos, marks = v
    acc = np.zeros(length + 1, dtype=marks.dtype)
    acc[pos] = marks
    arr = np.cumsum(acc, out=acc)[:-1]
    if arr.dtype == object:
        try:
            return arr.astype(np.int64)
        except OverflowError:
            pass
    return arr


class DiscreteSeq:
    """A memoized total function Z -> Z[t^{+-1}] with a printable rule name.

    The cache holds each value once, in the run-mark layout (None for
    zero), not its coefficients. ``dense(n)`` reads it, as ``QTElem.apply``
    does; calling the sequence expands the marks (``_expand``) and builds
    the TPoly. ``fn`` gives TPoly values and goes through the ``_dense``
    adapter; ``from_dense`` takes a rule ``fill(seq, n)`` that gives the
    layout itself and may read other values through ``seq.dense``.
    Evaluation is deterministic, so caching never changes semantics.
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
        """f(n) in the run-mark layout, or None when f(n) is zero."""
        cache = self._cache
        if n in cache:
            return cache[n]
        v = cache[n] = self._fill(self, n)
        return v

    def __call__(self, n: int) -> TPoly:
        v = self.dense(n)
        if v is None:
            return TPoly.zero()
        arr = _expand(v)
        nz = np.flatnonzero(arr)
        return TPoly._wrap(dict(zip((nz * v[1] + v[0]).tolist(), arr[nz].tolist())))

    def __repr__(self) -> str:
        return f"DiscreteSeq({self.name!r})"


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
