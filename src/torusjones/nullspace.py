"""Exact nullspace computation for the bounded annihilator search.

``ModularRREF`` is the elimination engine: dense reduced row echelon form
modulo a prime 2^18 < p < 2^19, in float64 with blocked numpy matmuls.
Stored blocks hold signed residues, of magnitude below h = p // 2 + 4, which
``_mod`` gives exactly for integers up to 2^53 - p, in place and without
float ``%``. Reduction is lazy: ``_rref_dense`` updates the rows below a
pivot block by a plain matmul and reduces entries only where it reads them.
An engine's column count bounds every value it forms (``_lazy_bound``)
inside that range, so the arithmetic is exact in float64; ``ModularRREF``
refuses a wider engine. ``_submul`` fuses X - A @ B with its reduction.
The pivot rows are stored as [I | X]: only X, their entries on the free
columns, is kept. X is rank x (ncols - rank), at most ncols^2 / 4 entries,
and every matmul is as wide as the free columns.
The engine owns the column order and the buffers of its input. A color
comes as a row source, which writes its rows with the free columns first,
in increasing order, and the pivot columns after them in discovery order
(``ModularRREF.positions``), ``_SLAB_ROWS`` rows at a time into a slab
buffer of the engine; the free and the pivot part of a slab are two views
of it. Each slab is reduced against X with one product into the second
slab buffer, and only its nonzero rows' free parts are kept, in the
reduced block that is eliminated. X is back-reduced in place through the
same two slabs, at the front of a buffer sized for its largest shape. So a
step holds X, one reduced block on the free columns and two slabs, all
sized before it starts: arithmetic over a word-size prime field on
floating-point BLAS, one slab at a time with delayed reduction, as in
FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM TOMS 2008).
Full column rank mod p certifies rational kernel dimension 0 outright.
Mod-p kernel vectors are only candidates, which callers lift over the
product of the primes that ``combine`` keeps (``reconstruct_vector``) and
verify exactly. ``ExactEliminator``, sparse elimination over Z, is the
reference that the tests compare the lifted kernels against.
"""

from __future__ import annotations

import ctypes
import math
from fractions import Fraction

import numpy as np

#: Verified primes just below 2^19, so a 32768-deep float64 matmul
#: accumulates exactly (p^2 * 32768 < 2^53).
PRIMES = (524287, 524269, 524261, 524257, 524243)


def primitive(vec: dict) -> dict:
    """vec divided by the gcd of its entries."""
    g = 0
    for v in vec.values():
        g = math.gcd(g, v)
        if g == 1:
            return vec
    if g > 1:
        return {c: v // g for c, v in vec.items()}
    return vec


class ExactEliminator:
    """Incremental sparse elimination over the integers.

    Rows are dicts mapping column index to a nonzero integer. Pivot rows are
    stored in echelon form: each pivot row's smallest column is its pivot
    column, and no two pivot rows share a pivot column.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict = {}  # pivot column -> row dict

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add_row(self, row: dict) -> bool:
        """Reduce a row against the pivots; returns True if it added a pivot."""
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            piv = self.pivots.get(c)
            if piv is None:
                row = primitive(row)
                if row[c] < 0:
                    row = {k: -v for k, v in row.items()}
                self.pivots[c] = row
                return True
            a = piv[c]
            b = row[c]
            g = math.gcd(a, b)
            fa, fb = a // g, b // g
            new = {}
            for k, v in row.items():
                new[k] = v * fa
            for k, v in piv.items():
                w = new.get(k, 0) - v * fb
                if w:
                    new[k] = w
                else:
                    new.pop(k, None)
            row = primitive(new)
        return False

    def nullspace(self) -> list:
        """Primitive integer kernel basis vectors, the standard basis: one per
        free column f, in increasing f, positive at f and zero at every other
        free column and at every column after f (back-substitution into pivot
        rows that start at their pivot column). A rational kernel has exactly
        one such basis, which ``ModularRREF.nullspace_mod_p`` gives mod p."""
        pcols = sorted(self.pivots)
        pivset = set(pcols)
        free = [c for c in range(self.ncols) if c not in pivset]
        basis = []
        for f in free:
            x = {f: Fraction(1)}
            for c in reversed(pcols):
                row = self.pivots[c]
                s = Fraction(0)
                for k, v in row.items():
                    if k != c:
                        xv = x.get(k)
                        if xv is not None:
                            s += v * xv
                if s:
                    x[c] = -s / row[c]
            lcm = 1
            for v in x.values():
                lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
            basis.append(primitive({c: int(v * lcm) for c, v in x.items() if v}))
        return basis


#: Row count at or below which ``_rref_dense`` eliminates row by row.
_BASE_ROWS = 8
#: Elements per slab of ``_mod``, so that its temporaries stay in cache.
_SLAB = 1 << 15
#: Rows per slab of the engine: the rows a row source writes at a time and
#: the rows of each product. Each matmul against X or the new pivot rows
#: rereads all of them, so slabs of 64 rows took about 20% more time on
#: the 8b L-deg 2 query than slabs of 128 or 256; 256 rows raised the
#: benchmark's certify peak from 76 to 84 MB.
_SLAB_ROWS = 128
#: Row sources fed to ``ModularRREF.process_block`` write integers of
#: magnitude below this, inside the exact range of ``_mod``; the block
#: builder writes a value with a larger coefficient as residues mod the
#: engine's prime.
FLOAT_INPUT_BOUND = 1 << 52
#: glibc's ``mallopt`` parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD,
#: and the values that ``_fix_malloc_thresholds`` gives them: 4 MiB and
#: 16 MiB.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_THRESHOLD_BYTES = 4 << 20
_MMAP_THRESHOLD_BYTES = 16 << 20


def _fix_malloc_thresholds() -> bool:
    """Fix glibc's malloc trim and mmap thresholds; True if both are set.
    Importing this module calls it, so every run of the package, whatever
    it ran before, allocates under the same thresholds.

    By default glibc raises the mmap threshold to the size of each larger
    mmapped block that is freed, up to 32 MiB, and keeps up to twice that
    threshold of free memory at the top of the heap resident.
    ``process_block`` frees blocks of a few to a few tens of MB, so which of
    them stayed resident hung on what the process had freed before, and the
    peak RSS of the same queries moved by 20 MB with their order, or even
    with the length of the checkout's path. Fixed thresholds turn that
    adjustment off: blocks below the mmap threshold are reused from the
    heap, and larger ones are unmapped when freed. At 32 MiB the stored
    pivot rows of a 3,393-column engine (up to 23 MB) still came from the
    heap, and the benchmark's certify peak read 114 or 132 MB with the
    length of the checkout's path; at 16 MiB they get their own mappings,
    and it read 105 MB at all six lengths tried, 84 MB once blocks came in
    the engine's column order and X was updated in place, and 76 MB since
    colors are streamed into the engine's slabs and X lives in one buffer
    of its largest size.

    Free memory past the trim threshold at the top of the heap goes back to
    the system, and at glibc's fixed default of 128 KiB the engine's small
    temporaries (256 KiB in ``_mod``, a base case's rank-1 product) went
    back and were faulted in again on nearly every call: 456,000
    minor faults in the 8b L-deg 2 query, against 146,000 at 4 MiB, where
    it ran in 6.9 s instead of 8.0 s at the same peak. Without glibc's
    ``mallopt`` this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    trim = mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES) == 1
    return mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES) == 1 and trim


_fix_malloc_thresholds()


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce x to signed residues mod p in place and return it: x is a
    float64 array of integers with |x| <= 2^53 - p, and p > 8. Each y it
    gives is congruent to its x mod p with |y| < p/2 + 4, so y == 0 exactly
    when p divides x.

    The quotient is rounded from one multiply by r = fl(1/p). With u = 2^-53
    the unit roundoff, r = (1 + e1)/p and fl(x r) = x r (1 + e2) with
    |e1|, |e2| <= u, so |fl(x r) - x/p| <= (2u + u^2)|x|/p < 3/p, as
    |x| < 2^53. Then q = rint(fl(x r)) has |q - x/p| < 1/2 + 3/p, and
    y = x - q p has |y| < p/2 + 3. Both q and q p are integers, and
    |q p| <= |x| + |y| < 2^53 - p/2 + 3 <= 2^53, so q p is exact in float64;
    so is y, an integer of magnitude below 2^53. Past 2^53 - p that can fail:
    at x = 2^53 - 1 and p = 524269 the nearest multiple of p is above 2^53
    and odd, and q p rounds. These are four passes of plain arithmetic, over
    slabs that stay in cache; float64 ``%`` is several times slower.
    """
    r = 1.0 / p
    rows = max(1, _SLAB // max(1, x[:1].size))
    q = np.empty(x[:rows].shape)
    for s in range(0, x.shape[0], rows):
        v = x[s : s + rows]
        t = q[: v.shape[0]]
        np.multiply(v, r, out=t)
        np.rint(t, out=t)
        t *= p
        v -= t
    return x


def _subtract_product(X: np.ndarray, A: np.ndarray, B: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """X -= A @ B in place, ``_SLAB_ROWS`` rows of the product at a time in
    the flat buffer buf, of at least ``_SLAB_ROWS`` * X.shape[1] entries;
    returns X."""
    width = X.shape[1]
    for s in range(0, X.shape[0], _SLAB_ROWS):
        x = X[s : s + _SLAB_ROWS]
        prod = buf[: x.shape[0] * width].reshape(x.shape[0], width)
        x -= np.matmul(A[s : s + _SLAB_ROWS], B, out=prod)
    return X


def _submul(X: np.ndarray, A: np.ndarray, B: np.ndarray, p: int, buf: np.ndarray) -> np.ndarray:
    """X = X - A @ B reduced to signed residues (``_mod``) in place, exactly,
    for X, A and B with entries of magnitude below h = p // 2 + 4 and an
    inner dimension k with h + k h^2 <= 2^53 - p; returns X. The product is
    formed in buf (``_subtract_product``). Every partial sum of the product
    then is an integer of magnitude below k h^2, exact in float64 in any
    order of summation, and X - A @ B is in the range of ``_mod``. Inside
    ``ModularRREF`` k is at most its column count, which its construction
    checks against ``_lazy_bound``."""
    return _mod(_subtract_product(X, A, B, buf), p)


def _lazy_bound(ncols: int, p: int) -> int:
    """The largest magnitude that ``_rref_dense`` can leave unreduced in a
    block of ncols columns mod p: h + (ncols + _BASE_ROWS) h^2 with
    h = p // 2 + 4."""
    h = p // 2 + 4
    return h + (ncols + _BASE_ROWS) * h * h


def _rref_dense(B: np.ndarray, p: int, buf: np.ndarray) -> tuple:
    """In-place RREF of a dense block mod p, with entries of magnitude below
    h = p // 2 + 4 on entry; its products are formed in the flat buffer buf
    (``_subtract_product``).

    Returns (R, cols): R, the first len(cols) rows of B, has value 1 at
    column cols[i] of row i and 0 at every other cols[j], and its entries
    are signed residues (``_mod``).
    Recursion on halves of the rows keeps the bulk of the work inside
    matmuls; blocks of at most ``_BASE_ROWS`` rows are eliminated row by row
    with whole-block rank-1 updates.

    Reduction is lazy: entries are reduced where they are read, which is the
    base case's pivot row and pivot column, the pivot columns gathered for
    an update, and the rows a base case returns. The rows below a pivot
    block are updated by a plain B2 -= C @ R1 with C and R1 reduced, which
    adds at most h^2 per pivot of R1 to each entry, and a rank-1 update adds
    at most h^2. A row meets each pivot of the block at most once before the
    base case reduces it as its pivot row, and at most ``_BASE_ROWS`` - 1
    more pivots after that, so no entry exceeds ``_lazy_bound``(ncols, p),
    which ``ModularRREF`` keeps within the range of ``_mod``.
    """
    m = B.shape[0]
    if m <= _BASE_ROWS:
        keep = []
        cols = []
        for i in range(m):
            r = _mod(B[i], p)
            nz = np.flatnonzero(r)
            if nz.size == 0:
                continue
            c = int(nz[0])
            inv = pow(int(r[c]), p - 2, p)
            if inv != 1:
                r *= inv
                _mod(r, p)
            col = _mod(B[:, c].copy(), p)
            col[i] = 0.0
            if np.any(col):
                B -= col[:, None] * r
            keep.append(i)
            cols.append(c)
        k = len(keep)
        if k < m:
            B[:k] = B[keep]
        return _mod(B[:k], p), np.array(cols, dtype=np.int64)
    half = m // 2
    R1, c1 = _rref_dense(B[:half], p, buf)
    B2 = B[half:]
    if c1.size:
        C = _mod(B2[:, c1], p)
        if np.any(C):
            _subtract_product(B2, C, R1, buf)
    R2, c2 = _rref_dense(B2, p, buf)
    if c2.size and c1.size:
        C = R1[:, c2]
        if np.any(C):
            _submul(R1, C, R2, p, buf)
    k1, k2 = len(c1), len(c2)
    if k1 < half:
        B[k1 : k1 + k2] = R2
    return B[: k1 + k2], np.concatenate([c1, c2])


def _reduce_rows(rows, X: np.ndarray, p: int, slab: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The nonzero rows of a row source's free-column part after the
    reduction against the pivot rows [I | X], reduced (``_mod``), as the
    front of one C-ordered len(rows) x X.shape[1] buffer: the reduced block.
    The source writes ``_SLAB_ROWS`` rows at a time into the flat buffer
    slab, and each slab's pivot-column part times X is formed in buf."""
    m, (rank, nfree) = len(rows), X.shape
    ncols = rank + nfree
    reduced = np.empty((m, nfree))
    k = 0
    for s in range(0, m, _SLAB_ROWS):
        n = min(_SLAB_ROWS, m - s)
        S = slab[: n * ncols].reshape(n, ncols)
        rows.write(s, S)
        _mod(S, p)
        F, C = S[:, :nfree], S[:, nfree:]
        # F - C @ X goes to buf, since np.take copies a strided input
        P = buf[: n * nfree].reshape(n, nfree)
        if np.any(C):
            _mod(np.subtract(F, np.matmul(C, X, out=P), out=P), p)
        else:
            P[...] = F
        nonzero = np.flatnonzero(np.any(P, axis=1))
        # mode="clip" writes straight to out; the default mode buffers a copy
        np.take(P, nonzero, axis=0, out=reduced[k : k + nonzero.size], mode="clip")
        k += nonzero.size
    return reduced[:k]


def _keep_columns(
    A: np.ndarray, kept: np.ndarray, cols: np.ndarray, R, p: int, slab: np.ndarray, buf: np.ndarray
) -> np.ndarray:
    """Write A[:, kept] - A[:, cols] @ R, reduced as by ``_submul``, over the
    front of A's buffer as a C-ordered matrix of A's rows and len(kept)
    columns, and return that matrix; with no cols (and R None), A[:, kept].
    ``_SLAB_ROWS`` rows of A at a time are gathered into the flat buffer
    slab, their kept columns first, and their product with R is formed in
    buf. A slab's rows are read before any of them is written, and the
    rows written end where the first unread row starts."""
    flat = A.reshape(-1)
    width = kept.size
    order = np.concatenate([kept, cols])
    for s in range(0, A.shape[0], _SLAB_ROWS):
        blk = A[s : s + _SLAB_ROWS]
        n = blk.shape[0]
        # mode="clip" writes straight to out; the default mode buffers a copy
        S = np.take(blk, order, axis=1, out=slab[: n * order.size].reshape(n, order.size), mode="clip")
        part, C = S[:, :width], S[:, width:]
        if np.any(C):
            _submul(part, C, R, p, buf)
        flat[s * width : (s + n) * width].reshape(n, width)[...] = part
    return flat[: A.shape[0] * width].reshape(A.shape[0], width)


class ModularRREF:
    """Incremental RREF mod p of a tall matrix fed in row blocks.

    The pivot columns of the pivot rows form the identity, so only the rest
    is stored: the pivot rows are [I | X] up to a column permutation, with
    X the rank x (ncols - rank) float64 matrix of the pivot rows restricted
    to the free columns. ``_pivcols`` holds the pivot column of each row of X
    in discovery order and ``_free`` the free columns in increasing order,
    one per column of X. X grows by rows and shrinks by columns as colors
    arrive, and rank * (ncols - rank) <= ncols^2 / 4 bounds it: about
    200 MB at the 10,000-column solved class of a query at
    ``MAX_KERNEL_UNKNOWNS``. It lives at the front of one buffer of that
    bound, made at the first block with the two slab buffers of
    ``_SLAB_ROWS`` x ncols; its pages are faulted in as X first reaches
    them. Rows come in the column order of ``positions``: the free columns,
    then the pivot columns in the order of the rows of X. A step holds X's
    buffer, one reduced block (the color's rows x the free columns) and
    the two slabs, so its memory follows from ncols and the color's row
    count before it starts.

    The construction refuses an engine whose lazy reduction bound
    (``_lazy_bound``) could leave the exact range of ``_mod``: about
    131,000 columns for p below 2^19.
    """

    def __init__(self, ncols: int, p: int):
        if _lazy_bound(ncols, p) > (1 << 53) - p:
            raise ValueError(f"{ncols} columns are past the exact float64 range of elimination mod {p}")
        self.p = p
        self.ncols = ncols
        self._X = np.zeros((0, ncols))
        self._pivcols = np.zeros(0, dtype=np.int64)
        self._free = np.arange(ncols, dtype=np.int64)
        self.rank = 0
        # made at the first block: X's buffer, of the largest rank x (ncols -
        # rank), and two slab buffers of _SLAB_ROWS x ncols
        self._store = self._slabs = None

    def positions(self) -> np.ndarray:
        """Where each column goes in the rows fed to ``process_block``:
        position[c] for column c. The free columns come first, in increasing
        order, then the pivot columns in discovery order, so that the free
        and the pivot part of a slab are two column views of it."""
        position = np.empty(self.ncols, dtype=np.int64)
        position[self._free] = np.arange(self._free.size)
        position[self._pivcols] = np.arange(self._free.size, self.ncols)
        return position

    def process_block(self, rows) -> int:
        """Feed the rows of a row source and return the new pivot count.
        ``len(rows)`` is their count, and ``rows.write(s, out)`` writes rows
        s, ..., s + len(out) - 1 into out, a C-ordered float64 slab of ncols
        columns that the engine hands it, in the column order of
        ``positions``, as integers of magnitude below ``FLOAT_INPUT_BOUND``.

        Each slab's free-column view is reduced against X with its
        pivot-column view, and the nonzero rows' free parts are moved into
        the reduced block (``_reduce_rows``), which is eliminated there. The
        new pivot rows' kept columns are written over the front of its
        buffer, X is back-reduced over the front of its own buffer, and
        those rows become X's last rows. X's buffer never moves: growing X
        by realloc copied it when it passed the mmap threshold, with the old
        and the new X alive at once (13 and 18 MB in the benchmark's (3,4)
        certify query, where its peak RSS sat). So a step holds X, one
        reduced block on the free columns and two slabs, all sized before it
        starts."""
        p, X, r = self.p, self._X, self.rank
        nfree = self._free.size
        if not len(rows) or not nfree:
            return 0
        if self._store is None:
            half = self.ncols // 2
            self._store = np.empty(half * (self.ncols - half))
            self._slabs = (np.empty(_SLAB_ROWS * self.ncols), np.empty(_SLAB_ROWS * self.ncols))
        slab, buf = self._slabs
        R, cols = _rref_dense(_reduce_rows(rows, X, p, slab, buf), p, buf)  # cols index into the free columns
        n_new = len(cols)
        if not n_new:
            return 0
        # The new pivot columns leave X. On the kept columns the old pivot
        # rows are back-reduced (X -= X[:, cols] @ R); on the dropped ones
        # the result is 0, since R[:, cols] = I.
        keep = np.ones(nfree, dtype=bool)
        keep[cols] = False
        kept = np.flatnonzero(keep)
        Rk = _keep_columns(R, kept, cols[:0], None, p, slab, buf)
        _keep_columns(X, kept, cols, Rk, p, slab, buf)
        X = self._X = self._store[: (r + n_new) * kept.size].reshape(r + n_new, kept.size)
        X[r:] = Rk
        self._pivcols = np.concatenate([self._pivcols, self._free[cols]])
        self._free = self._free[keep]
        self.rank = r + n_new
        return n_new

    def nullspace_mod_p(self) -> list:
        """Kernel basis mod p as dicts column -> residue, the standard basis
        of ``ExactEliminator.nullspace``: one per free column f, in increasing
        f, 1 at f and zero at every other free column and at every column
        after f (each pivot row is zero before its pivot). The vector of
        ``_free[j]`` is read off column j of X. ``reconstruct_vector`` maps 0
        to 0, so a lift keeps this form, which ``minimality_kernel`` relies
        on."""
        pivs = self._pivcols
        basis = []
        for j, f in enumerate(self._free.tolist()):
            vec = {f: 1}
            col = self._X[:, j]
            for i in np.nonzero(col)[0]:
                vec[int(pivs[i])] = int(self.p - col[i]) % self.p
            basis.append(vec)
        return basis


def prime_supply():
    """``PRIMES``, then every prime below them in decreasing order down to
    2^18. Each keeps the float64 arithmetic of ``ModularRREF`` exact."""
    yield from PRIMES
    for n in range(PRIMES[-1] - 2, 1 << 18, -2):
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)):
            yield n


def combine(engines: list) -> tuple:
    """(kept, residues, m): the engines to keep, their standard kernel bases
    joined by the Chinese remainder theorem, and the product m of their primes.

    A prime that divides a minor of the rows can only lower the rank of a
    prefix of the columns: it lowers the rank or moves pivots right. So the
    engines kept have the highest rank and, among those, the smallest sorted
    pivot columns; they share their free columns, and so their basis order.
    """
    keys = [(-e.rank, np.sort(e._pivcols).tolist()) for e in engines]
    best = min(keys)
    kept = [e for e, key in zip(engines, keys) if key == best]
    residues, m = kept[0].nullspace_mod_p(), kept[0].p
    for e in kept[1:]:
        p, inv = e.p, pow(m, -1, e.p)
        residues = [
            {c: v.get(c, 0) + m * ((w.get(c, 0) - v.get(c, 0)) * inv % p) for c in {**v, **w}}
            for v, w in zip(residues, e.nullspace_mod_p())
        ]
        m *= p
    return kept, residues, m


def rational_reconstruct(u: int, m: int):
    """Recover n/d == u (mod m) with |n|, d <= sqrt(m/2), or None. The
    modulus may be a product of primes; a d sharing a factor with m is
    rejected, as it has no inverse mod m."""
    u %= m
    if u == 0:
        return (0, 1)
    bound = math.isqrt(m // 2)
    r0, r1 = m, u
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or math.gcd(s1, m) != 1:
        return None
    n, d = (r1, s1) if s1 > 0 else (-r1, -s1)
    if (n - u * d) % m != 0:
        return None
    return (n, d)


def reconstruct_vector(vec: dict, m: int):
    """Lift a mod-m vector to a primitive integer vector, or None on failure."""
    pairs = {}
    lcm = 1
    for c, u in vec.items():
        r = rational_reconstruct(u, m)
        if r is None:
            return None
        pairs[c] = r
        lcm = lcm * r[1] // math.gcd(lcm, r[1])
    ints = {}
    for c, (n, d) in pairs.items():
        v = n * (lcm // d)
        if v:
            ints[c] = v
    return primitive(ints)
