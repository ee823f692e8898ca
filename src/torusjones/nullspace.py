"""Exact nullspace computation for the bounded annihilator search.

Two engines compute the rational kernel of an integer matrix whose rows
arrive in groups:

* ``ExactEliminator``: sparse Gaussian elimination over Z. Rows are kept as
  primitive integer vectors (gcd content stripped after every combination),
  which controls entry growth without ever leaving exact arithmetic. The
  kernel basis is back-solved over Fraction and returned primitive.

* ``ModularRREF``: dense reduced row echelon form modulo a large prime,
  using blocked numpy matmuls. All float64 products are of integers below
  2^53 (the modulus is < 2^20 and the inner dimension is chunked), so every
  intermediate value is exact. Full column rank mod p certifies rational
  kernel dimension 0 outright; mod-p kernel vectors are only candidates and
  callers must reconstruct and verify them exactly (see
  ``rational_reconstruct``). A single word-size prime suffices for the
  kernels met here; multi-prime CRT lifting would be the extension point if
  larger rational entries ever appear.
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

    def process_block(self, B: np.ndarray) -> int:
        """Feed the nonzero rows of an integer block (rows x ncols) through
        add_row in row order. Returns new pivot count."""
        before = self.rank
        for row in B:
            nz = np.flatnonzero(row)
            if nz.size:
                self.add_row(dict(zip(nz.tolist(), row[nz].tolist())))
        return self.rank - before

    def nullspace(self) -> list:
        """Primitive integer kernel basis vectors, the standard basis: one per
        free column f, in increasing f, positive at f and zero at every other
        free column and at every column after f (back-substitution into pivot
        rows that start at their pivot column). ``minimality_kernel`` relies
        on this form."""
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
    """Incremental RREF mod p of a tall matrix fed in row blocks."""

    def __init__(self, ncols: int, p: int):
        self.p = p
        self.ncols = ncols
        self._P = np.zeros((ncols, ncols))
        self._pivcols = np.zeros(ncols, dtype=np.int64)
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
        r = self.rank
        if r:
            C = B[:, self._pivcols[:r]]
            if np.any(C):
                B -= _matmul_mod(C, self._P[:r], p)
                B %= p
        nonzero = np.any(B, axis=1)
        if not nonzero.all():
            B = B[nonzero]
        if not B.shape[0]:
            return 0
        R, cols = _rref_dense(B, p)
        n_new = len(cols)
        if not n_new:
            return 0
        if r:
            # back-reduce existing pivot rows, chunked to bound temporaries
            for s in range(0, r, 2048):
                blk = self._P[s : min(s + 2048, r)]
                C = blk[:, cols]
                if np.any(C):
                    blk -= _matmul_mod(C, R, p)
                    blk %= p
        self._P[r : r + n_new] = R
        self._pivcols[r : r + n_new] = cols
        self.rank = r + n_new
        return n_new

    def nullspace_mod_p(self) -> list:
        """Kernel basis mod p as dicts column -> residue, the standard basis
        of ``ExactEliminator.nullspace``: one per free column f, in increasing
        f, 1 at f and zero at every other free column and at every column
        after f (each pivot row is zero before its pivot). ``reconstruct_vector``
        maps 0 to 0, so a lift keeps this form, which ``minimality_kernel``
        relies on."""
        r = self.rank
        pivs = self._pivcols[:r]
        pivset = set(int(c) for c in pivs)
        basis = []
        for f in range(self.ncols):
            if f in pivset:
                continue
            vec = {f: 1}
            col = self._P[:r, f]
            nz = np.nonzero(col)[0]
            for i in nz:
                vec[int(pivs[i])] = int(self.p - col[i]) % self.p
            basis.append(vec)
        return basis


def rational_reconstruct(u: int, p: int):
    """Recover n/d == u (mod p) with |n|, d <= sqrt(p/2), or None."""
    u %= p
    if u == 0:
        return (0, 1)
    bound = math.isqrt(p // 2)
    r0, r1 = p, u
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    n, d = (r1, s1) if s1 > 0 else (-r1, -s1)
    if (n - u * d) % p != 0:
        return None
    return (n, d)


def reconstruct_vector(vec: dict, p: int):
    """Lift a mod-p vector to a primitive integer vector, or None on failure."""
    pairs = {}
    lcm = 1
    for c, u in vec.items():
        r = rational_reconstruct(u, p)
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
