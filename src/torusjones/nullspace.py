"""Exact nullspace computation for the bounded annihilator search.

``ModularRREF`` is the elimination engine: dense reduced row echelon form
modulo a prime below 2^19, using blocked numpy matmuls. All float64 products
are of integers below 2^53 (the inner dimension is chunked), so every
intermediate value is exact. The pivot rows are stored as [I | X]: only X,
their entries on the free columns, is kept. X is rank x (ncols - rank), at
most ncols^2 / 4 entries, and every matmul is as wide as the free columns.
Full column rank mod p certifies rational kernel dimension 0 outright.
Mod-p kernel vectors are only candidates, which callers lift over the
product of the primes that ``combine`` keeps (``reconstruct_vector``) and
verify exactly. ``ExactEliminator``, sparse elimination over Z, is the
reference that the tests compare the lifted kernels against.
"""

from __future__ import annotations

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


def _matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Exact (A @ B) mod p in float64; the inner dimension is chunked so that
    accumulated integer values stay below 2^53."""
    chunk = max(1, (1 << 53) // (p * p))
    out = np.zeros((A.shape[0], B.shape[1]))
    for s in range(0, A.shape[1], chunk):
        out += A[:, s : s + chunk] @ B[s : s + chunk]
        out %= p
    return out


def _rref_dense(B: np.ndarray, p: int) -> tuple:
    """In-place RREF of a dense block mod p.

    Returns (R, cols): R[i] has value 1 at column cols[i] and 0 at every
    other cols[j]. Recursion keeps the bulk of the work inside matmuls; the
    base case uses whole-block outer-product updates (entries stay below
    p + p^2 < 2^53, so float64 arithmetic is exact).
    """
    m = B.shape[0]
    if m <= 128:
        # Deferred reduction: each outer update adds at most p^2 per entry, so
        # up to 128 updates stay below 2^46 and one final mod suffices. Only
        # the pivot row and pivot column are reduced eagerly (they feed the
        # next products).
        keep = []
        cols = []
        for i in range(m):
            r = B[i]
            r %= p
            nz = np.nonzero(r)[0]
            if nz.size == 0:
                continue
            c = int(nz[0])
            inv = pow(int(r[c]), p - 2, p)
            if inv != 1:
                r *= inv
                r %= p
            col = B[:, c] % p
            col[i] = 0.0
            if np.any(col):
                B -= col[:, None] * r
            keep.append(i)
            cols.append(c)
        if not keep:
            return np.zeros((0, B.shape[1])), np.array([], dtype=np.int64)
        B %= p
        return B[keep], np.array(cols, dtype=np.int64)
    half = m // 2
    R1, c1 = _rref_dense(B[:half], p)
    B2 = B[half:]
    if c1.size and R1.shape[0]:
        C = B2[:, c1]
        if np.any(C):
            B2 -= _matmul_mod(C, R1, p)
            B2 %= p
    R2, c2 = _rref_dense(B2, p)
    if c2.size and R1.shape[0]:
        C = R1[:, c2]
        if np.any(C):
            R1 -= _matmul_mod(C, R2, p)
            R1 %= p
    if not R1.shape[0]:
        return R2, c2
    if not R2.shape[0]:
        return R1, c1
    return np.vstack([R1, R2]), np.concatenate([c1, c2])


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
    ``MAX_KERNEL_UNKNOWNS``.
    """

    def __init__(self, ncols: int, p: int):
        self.p = p
        self.ncols = ncols
        self._X = np.zeros((0, ncols))
        self._pivcols = np.zeros(0, dtype=np.int64)
        self._free = np.arange(ncols, dtype=np.int64)
        self.rank = 0

    def process_block(self, B: np.ndarray) -> int:
        """Feed a block of rows (integers, any sign). Returns new pivot count.

        Integer and object input is reduced mod p before the float64 cast, so
        entries past 2^53 keep their exact residues."""
        p = self.p
        B = np.asarray(B)
        if B.dtype.kind not in "iuO":
            B = B.astype(np.float64, copy=False)
        B = np.ascontiguousarray(B % p, dtype=np.float64)
        X, r = self._X, self.rank
        # reduce against the pivot rows: what is left of each row lies on
        # the free columns
        Bf, C = B[:, self._free], B[:, self._pivcols]
        del B
        if np.any(C):
            Bf -= _matmul_mod(C, X, p)
            Bf %= p
        nonzero = np.any(Bf, axis=1)
        if not nonzero.all():
            Bf = Bf[nonzero]
        if not Bf.shape[0]:
            return 0
        R, cols = _rref_dense(Bf, p)  # cols index into the free columns
        n_new = len(cols)
        if not n_new:
            return 0
        # The new pivot columns leave X. On the kept columns, back-reduce the
        # old pivot rows (X -= X[:, cols] @ R), chunked to bound temporaries;
        # on the dropped ones the result is 0, since R[:, cols] = I.
        keep = np.ones(self._free.size, dtype=bool)
        keep[cols] = False
        Rk = R[:, keep]
        Xn = np.empty((r + n_new, Rk.shape[1]))
        for s in range(0, r, 2048):
            e = min(s + 2048, r)
            blk, out = X[s:e], Xn[s:e]
            np.compress(keep, blk, axis=1, out=out)
            C = blk[:, cols]
            if np.any(C):
                out -= _matmul_mod(C, Rk, p)
                out %= p
        Xn[r:] = Rk
        self._X = Xn
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
