import math
import os
import platform
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusjones import nullspace
from torusjones.laurent import TPoly
from torusjones.operators import MAX_KERNEL_UNKNOWNS, _color_blocks, _color_matrix
from torusjones.qtorus import DiscreteSeq, QTElem, _expand
from torusjones.nullspace import (
    _BASE_ROWS,
    _SLAB,
    _fix_malloc_thresholds,
    PRIMES,
    ExactEliminator,
    ModularRREF,
    _lazy_bound,
    _mod,
    _submul,
    combine,
    prime_supply,
    rational_reconstruct,
    reconstruct_vector,
)

#: ``PRIMES`` and 262147, the smallest prime that ``prime_supply`` yields
MOD_PRIMES = PRIMES + (262147,)


def top(p):
    """The largest magnitude in the range of ``_mod`` mod p."""
    return 2**53 - p


def widest(p):
    """The largest inner dimension k that ``_submul`` takes mod p: h + k h^2
    <= 2^53 - p with h = p // 2 + 4."""
    h = p // 2 + 4
    return (top(p) - h) // (h * h)


def dense_nullspace_fractions(rows, ncols):
    """Reference RREF nullspace over Q, dense and slow."""
    mat = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    piv = []
    rr = 0
    for c in range(ncols):
        pivot = None
        for i in range(rr, len(mat)):
            if mat[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rr], mat[pivot] = mat[pivot], mat[rr]
        inv = 1 / mat[rr][c]
        mat[rr] = [v * inv for v in mat[rr]]
        for i in range(len(mat)):
            if i != rr and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rr])]
        piv.append(c)
        rr += 1
    free = [c for c in range(ncols) if c not in piv]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for i, c in enumerate(piv):
            x[c] = -mat[i][f]
        basis.append(x)
    return len(piv), basis


def canonical_span(vectors, ncols):
    """Canonical form of the span of integer/Fraction vectors (RREF rows)."""
    rows = []
    for v in vectors:
        if isinstance(v, dict):
            rows.append({c: Fraction(val) for c, val in v.items()})
        else:
            rows.append({c: Fraction(val) for c, val in enumerate(v) if val})
    piv = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            if c not in piv:
                inv = 1 / row[c]
                piv[c] = {k: v * inv for k, v in row.items()}
                break
            f = row[c]
            row = {
                k: row.get(k, 0) - f * piv[c].get(k, 0)
                for k in set(row) | set(piv[c])
            }
            row = {k: v for k, v in row.items() if v}
    # back-substitute to full RREF
    for c in sorted(piv, reverse=True):
        for c2 in sorted(piv):
            if c2 < c and c in piv[c2]:
                f = piv[c2][c]
                piv[c2] = {
                    k: piv[c2].get(k, 0) - f * piv[c].get(k, 0)
                    for k in set(piv[c2]) | set(piv[c])
                }
                piv[c2] = {k: v for k, v in piv[c2].items() if v}
    return {c: tuple(sorted(r.items())) for c, r in piv.items()}


def assert_standard_basis(vecs, pivots, ncols):
    """The basis form minimality_kernel relies on: one vector per free
    column f, with f = max(v), positive at f and zero at every other free
    column."""
    free = set(range(ncols)) - set(pivots)
    assert sorted(max(v) for v in vecs) == sorted(free)
    for v in vecs:
        f = max(v)
        assert v[f] > 0
        assert free.isdisjoint(set(v) - {f})


def random_rows(rng, nrows, ncols, density=0.4, span=6):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                v = rng.randint(-span, span)
                if v:
                    row[c] = v
        rows.append(row)
    return rows


def dense(rows, ncols):
    """Integer rows (dicts column -> value) as an int64 matrix."""
    B = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, r in enumerate(rows):
        for c, v in r.items():
            B[i, c] = v
    return B


class Rows:
    """The integer rows A, in the natural column order, as a row source of
    ``mr``: ``write`` puts them in the column order of its ``positions`` at
    the time the source is made, as float64, or as their residues mod
    ``mr.p`` when an entry's magnitude reaches ``FLOAT_INPUT_BOUND``, as the
    block builder writes them."""

    def __init__(self, mr, A):
        A = np.asarray(A)
        if A.size and np.abs(A).max() >= nullspace.FLOAT_INPUT_BOUND:
            A = A % mr.p
        self.A, self.position = A, mr.positions()

    def __len__(self):
        return len(self.A)

    def write(self, start, out):
        out[:, self.position] = self.A[start : start + len(out)]


def feed(mr, A):
    """Feed the integer rows A, in the natural column order, to ``mr``
    through a ``Rows`` source. Returns the new pivot count."""
    return mr.process_block(Rows(mr, A))


def block_of(source, ncols):
    """The rows x ncols float64 block that a row source writes."""
    B = np.empty((len(source), ncols))
    source.write(0, B)
    return B


def rref_mod_p(A, p):
    """Reference RREF mod p of an integer matrix, one column at a time in
    int64 (every product is below p^2 < 2^39): (pivot columns, pivot rows).
    Row r is zero before column c, so the updates start at c."""
    A = np.array(A, dtype=np.int64) % p
    piv = []
    for c in range(A.shape[1]):
        r = len(piv)
        if r == A.shape[0]:
            break
        nz = np.flatnonzero(A[r:, c])
        if not nz.size:
            continue
        A[[r, r + nz[0]]] = A[[r + nz[0], r]]
        A[r, c:] = A[r, c:] * pow(int(A[r, c]), p - 2, p) % p
        f = A[:, c].copy()
        f[r] = 0
        A[:, c:] -= f[:, None] * A[r, c:]
        A[:, c:] %= p
        piv.append(c)
    return piv, A[: len(piv)]


def standard_nullspace_mod_p(piv, R, ncols, p):
    """The standard kernel basis of an RREF mod p, in ``nullspace_mod_p``'s
    dict form: one vector per free column f, 1 at f and -R[i, f] at piv[i]."""
    pivset = set(piv)
    basis = []
    for f in range(ncols):
        if f not in pivset:
            vec = {f: 1}
            for i in np.flatnonzero(R[:, f]):
                vec[piv[i]] = int(-R[i, f]) % p
            basis.append(vec)
    return basis


class TestExactEliminator:
    def test_known_kernel(self):
        # x0 + x1 = 0, x1 + x2 = 0 -> kernel spanned by (1, -1, 1)
        elim = ExactEliminator(3)
        elim.add_row({0: 1, 1: 1})
        elim.add_row({1: 1, 2: 1})
        assert elim.rank == 2
        (vec,) = elim.nullspace()
        assert vec in ({0: 1, 1: -1, 2: 1}, {0: -1, 1: 1, 2: -1})

    def test_duplicate_rows_ignored(self):
        elim = ExactEliminator(2)
        assert elim.add_row({0: 2, 1: 4})
        assert not elim.add_row({0: 1, 1: 2})
        assert elim.rank == 1

    def test_against_dense_reference(self):
        rng = random.Random(5)
        for trial in range(25):
            ncols = rng.randint(3, 9)
            rows = random_rows(rng, rng.randint(2, 12), ncols)
            elim = ExactEliminator(ncols)
            for r in rows:
                elim.add_row(r)
            ref_rank, ref_basis = dense_nullspace_fractions(rows, ncols)
            assert elim.rank == ref_rank
            assert canonical_span(elim.nullspace(), ncols) == canonical_span(
                ref_basis, ncols
            )
            assert_standard_basis(elim.nullspace(), elim.pivots, ncols)


def mod_boundaries(p):
    """0, +-1, k p, k p +- 1, k p +- (p - 1)/2 and k p +- (p + 1)/2 (the
    nearest ties of ``rint``), the largest magnitude ``_submul`` can form and
    the ends of the range of ``_mod``, +-(2^53 - p), as Python ints."""
    h = p // 2 + 4
    vals = {0, 1, top(p), h + widest(p) * h * h}
    for k in (1, 2, 3, 1 << 20, top(p) // p - 1, top(p) // p):
        for d in (0, 1, (p - 1) // 2, (p + 1) // 2):
            vals |= {k * p - d, k * p + d}
    vals = sorted(v for v in vals if v <= top(p))
    return [-v for v in vals] + vals


def assert_signed_residues(got, vals, p):
    """The contract of ``_mod``: each result is an integer congruent to its
    input mod p, of magnitude below p/2 + 4, and 0 exactly when p divides the
    input."""
    assert len(got) == len(vals)
    for y, v in zip(got, vals):
        assert y == int(y), (v, y)
        y = int(y)
        assert (v - y) % p == 0, (v, y)
        assert abs(y) < p / 2 + 4, (v, y)
        assert (y == 0) == (v % p == 0), (v, y)


class TestMod:
    @pytest.mark.parametrize("p", MOD_PRIMES)
    def test_boundary_values(self, p):
        vals = mod_boundaries(p)
        x = np.array(vals, dtype=np.float64)
        assert x.tolist() == vals
        assert_signed_residues(_mod(x, p).tolist(), vals, p)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        st.sampled_from(MOD_PRIMES).flatmap(
            lambda p: st.tuples(
                st.just(p), st.lists(st.integers(-top(p), top(p)), min_size=1, max_size=40)
            )
        )
    )
    def test_matches_integer_mod(self, case):
        p, vals = case
        x = np.array(vals, dtype=np.float64)
        assert_signed_residues(_mod(x, p).tolist(), vals, p)

    @pytest.mark.parametrize(
        "shape, view",
        [
            ((2 * _SLAB + 5,), slice(None)),
            ((3, _SLAB // 2 + 1), slice(None)),
            ((_SLAB // 4 + 3, 7), (slice(None), 3)),
            ((_SLAB // 4 + 3, 7), (slice(None), slice(1, None, 2))),
        ],
    )
    def test_every_slab_is_reduced(self, shape, view):
        # arrays past one slab, the last one partial, and strided views,
        # which are reduced in place and leave the rest of the array alone
        p = PRIMES[0]
        rng = np.random.default_rng(7)
        x = rng.integers(-top(p), top(p), size=shape, endpoint=True)
        y = x.astype(np.float64)
        v = y[view]
        assert _mod(v, p) is v
        assert_signed_residues(v.ravel().tolist(), x[view].ravel().tolist(), p)
        rest = np.ones(shape, dtype=bool)
        rest[view] = False
        assert (y[rest].astype(np.int64) == x[rest]).all()

    @pytest.mark.parametrize("p", [PRIMES[0], MOD_PRIMES[-1]])
    def test_submul_matches_integer_arithmetic(self, p):
        # all entries +-(h - 1) with aligned signs at the widest inner
        # dimension make the largest product _submul subtracts; then random
        # signed residues
        h = p // 2 + 4
        k = widest(p)
        rng = np.random.default_rng(8)
        for A, B, X in (
            (np.full((2, k), h - 1), np.full((k, 3), -(h - 1)), np.full((2, 3), h - 1)),
            (
                rng.integers(-(h - 1), h, (2, k)),
                rng.integers(-(h - 1), h, (k, 3)),
                rng.integers(-(h - 1), h, (2, 3)),
            ),
        ):
            ref = X.astype(object) - A.astype(object) @ B.astype(object)
            Y = X.astype(np.float64)
            buf = np.empty(nullspace._SLAB_ROWS * Y.shape[1])
            assert _submul(Y, A.astype(np.float64), B.astype(np.float64), p, buf) is Y
            assert_signed_residues(Y.ravel().tolist(), ref.ravel().tolist(), p)


class TestModularRREF:
    def test_matches_exact_on_random_systems(self):
        # the rank must agree on every trial; nullspace vectors additionally
        # round-trip whenever their rational entries fit the single-prime
        # reconstruction bound sqrt(p/2), which the fixed seed makes frequent
        rng = random.Random(6)
        p = PRIMES[0]
        reconstructed = 0
        for trial in range(20):
            ncols = rng.randint(4, 10)
            rows = random_rows(rng, rng.randint(3, 18), ncols, span=3)
            ref_rank, ref_basis = dense_nullspace_fractions(rows, ncols)

            mr = ModularRREF(ncols, p)
            feed(mr, dense(rows, ncols))
            assert mr.rank == ref_rank
            pivots = mr._pivcols[: mr.rank].tolist()
            assert_standard_basis(mr.nullspace_mod_p(), pivots, ncols)
            lifted = [reconstruct_vector(v, p) for v in mr.nullspace_mod_p()]
            if all(v is not None for v in lifted):
                reconstructed += 1
                assert canonical_span(lifted, ncols) == canonical_span(ref_basis, ncols)
                assert_standard_basis(lifted, pivots, ncols)
                # the standard basis is unique, so the lift is the exact one
                exact = ExactEliminator(ncols)
                for r in rows:
                    exact.add_row(r)
                assert lifted == exact.nullspace()
        assert reconstructed >= 12

    def test_incremental_blocks(self):
        rng = random.Random(9)
        p = PRIMES[1]
        ncols = 10
        rows = random_rows(rng, 30, ncols)
        ref_rank, _ = dense_nullspace_fractions(rows, ncols)
        mr = ModularRREF(ncols, p)
        for start in range(0, 30, 7):
            feed(mr, dense(rows[start : start + 7], ncols))
        assert mr.rank == ref_rank

    def test_large_block_recursion(self):
        # blocks of _BASE_ROWS - 1 and _BASE_ROWS rows take the row-by-row
        # base case of _rref_dense; _BASE_ROWS + 1, 2 _BASE_ROWS + 1 and the
        # uneven blocks over 128 rows take its recursion, and every block
        # after the first back-reduces the stored pivot rows
        rng = random.Random(10)
        p = PRIMES[0]
        ncols = 300
        sizes = (_BASE_ROWS - 1, _BASE_ROWS, _BASE_ROWS + 1, 2 * _BASE_ROWS + 1, 131, 140, 129)
        rows = random_rows(rng, sum(sizes), ncols, density=0.2)
        B = dense(rows, ncols)
        mr = ModularRREF(ncols, p)
        start = 0
        for size in sizes:
            stop = start + size
            feed(mr, B[start:stop])
            piv, _ = rref_mod_p(B[:stop], p)
            assert mr.rank == len(piv)
            assert set(mr._pivcols.tolist()) == set(piv)
            vecs = mr.nullspace_mod_p()
            assert len(vecs) == ncols - len(piv)
            for v in vecs:
                for row in rows[:stop]:
                    assert sum(x * v.get(c, 0) for c, x in row.items()) % p == 0
            start = stop
        assert mr.rank == ncols

    def test_block_feeding_matches_dense_reference(self):
        # random rank-deficient and full-rank systems fed in random splits,
        # each block in the engine's column order at the time, with all-zero
        # blocks, blocks that mix zero rows and dependent rows into new ones,
        # blocks that add no rank, blocks after full rank, one block per
        # trial of _BASE_ROWS - 1, _BASE_ROWS, _BASE_ROWS + 1 or
        # 2 _BASE_ROWS + 1 rows, and blocks over _BASE_ROWS rows, which take
        # the _rref_dense recursion; the stored pivot rows stay rank x
        # (ncols - rank), and the standard basis, unique mod p, must equal
        # the dense reference's after every block
        rng = random.Random(12)
        p = PRIMES[2]
        sizes = (_BASE_ROWS - 1, _BASE_ROWS, _BASE_ROWS + 1, 2 * _BASE_ROWS + 1)
        seen = dict(zero=0, zero_rows=0, no_rank=0, after_full=0, one_col=0, tall=0)
        seen.update({f"rows={n}": 0 for n in sizes})
        for trial in range(60):
            ncols = 1 if trial % 10 == 0 else rng.randint(2, 40)
            target = rng.randint(0, ncols) if trial % 3 else ncols
            base = np.array(
                [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(target)],
                dtype=np.int64,
            ).reshape(target, ncols)

            def combinations(nrows):
                coef = np.array(
                    [[rng.randint(-3, 3) for _ in range(target)] for _ in range(nrows)],
                    dtype=np.int64,
                ).reshape(nrows, target)
                return coef @ base

            nrows = rng.choice((rng.randint(1, 40), rng.randint(129, 300)))
            A = combinations(nrows)
            cuts = sorted(rng.sample(range(1, nrows), min(nrows - 1, rng.randint(0, 4))))
            blocks = [A[a:b] for a, b in zip([0] + cuts, cuts + [nrows])]
            blocks.insert(rng.randint(0, len(blocks)), combinations(sizes[trial % 4]))
            zeros = np.zeros((rng.randint(1, 5), ncols), dtype=np.int64)
            blocks.insert(rng.randint(0, len(blocks)), zeros)
            blocks.insert(rng.randint(1, len(blocks)), A[rng.sample(range(nrows), min(nrows, 3))])
            mixed = np.vstack([combinations(rng.randint(1, 12)), zeros, A[:3]])
            blocks.insert(rng.randint(0, len(blocks)), mixed[rng.sample(range(len(mixed)), len(mixed))])
            blocks.append(A[:2])
            mr = ModularRREF(ncols, p)
            fed = np.zeros((0, ncols), dtype=np.int64)
            for blk in blocks:
                was_full = mr.rank == ncols
                before = mr.rank
                new = feed(mr, blk)
                fed = np.vstack([fed, blk])
                piv, R = rref_mod_p(fed, p)
                assert new == mr.rank - before
                assert mr.rank == len(piv)
                assert mr._X.shape == (mr.rank, ncols - mr.rank)
                assert set(mr._pivcols.tolist()) == set(piv)
                assert mr.nullspace_mod_p() == standard_nullspace_mod_p(piv, R, ncols, p)
                seen["zero"] += not blk.any()
                seen["zero_rows"] += blk.any() and not blk.any(axis=1).all()
                seen["no_rank"] += blk.any() and not new
                seen["after_full"] += was_full
                seen["tall"] += len(blk) > _BASE_ROWS
                if len(blk) in sizes:
                    seen[f"rows={len(blk)}"] += 1
            seen["one_col"] += ncols == 1
        assert min(seen.values()) >= 3, seen

    @pytest.mark.parametrize("p", [PRIMES[0], MOD_PRIMES[-1]])
    def test_lazy_reduction_worst_case(self, p, monkeypatch):
        # The top half of a 256-row block (five recursion levels) mixes the
        # rows of [I | s J] with s = (p - 1)/2, its unique RREF. Each lower
        # row is s at every column plus a small random excess past column k,
        # so the plain update B2 -= C @ R1 subtracts k products s * s of one
        # sign from every entry past k, and the lower rows reach k s^2 before
        # they are read, near _lazy_bound(ncols, p). The largest magnitude
        # _mod sees shows it; rank, pivots and the kernel are checked
        # against the reference.
        k, extra = 128, 12
        ncols = k + extra
        s = (p - 1) // 2
        rng = np.random.default_rng(11)
        top_half = np.hstack([np.eye(k, dtype=np.int64), np.full((k, extra), s)])
        mix = rng.integers(-3, 4, (k, k))
        mix[np.triu_indices(k)] = 0
        mix += np.eye(k, dtype=np.int64)  # unit lower triangular, invertible
        lower = np.full((k, ncols), s)
        lower[:, k:] += rng.integers(0, 3, (k, extra))
        B = np.vstack([(mix @ top_half) % p, lower])
        seen = []

        def recording_mod(x, q):
            seen.append(np.abs(x).max(initial=0))
            return _mod(x, q)

        monkeypatch.setattr(nullspace, "_mod", recording_mod)
        mr = ModularRREF(ncols, p)
        feed(mr, B)
        assert 0.8 * _lazy_bound(ncols, p) < max(seen) <= _lazy_bound(ncols, p)
        piv, R = rref_mod_p(B, p)
        assert mr.rank == len(piv)
        assert mr._pivcols.tolist() == piv
        assert mr.nullspace_mod_p() == standard_nullspace_mod_p(piv, R, ncols, p)

    def test_engine_too_wide_for_the_bound_is_refused(self):
        # the widest engine whose lazy reduction stays in the range of _mod
        # is built, one column more is refused before anything is allocated;
        # MAX_KERNEL_UNKNOWNS is far inside for every prime of the supply
        for p in MOD_PRIMES:
            n = widest(p) - _BASE_ROWS
            assert _lazy_bound(n, p) <= top(p) < _lazy_bound(n + 1, p)
            assert ModularRREF(n, p).ncols == n
            with pytest.raises(ValueError, match="past the exact float64 range"):
                ModularRREF(n + 1, p)
            assert _lazy_bound(MAX_KERNEL_UNKNOWNS, p) < top(p) // 4

    def test_float_input_matches_integer_input(self):
        # float64 blocks with entries up to FLOAT_INPUT_BOUND, which the
        # engine reduces slab by slab, give the same engine as the blocks of
        # their integer residues mod p
        rng = np.random.default_rng(13)
        p, ncols = PRIMES[0], 60
        bound = nullspace.FLOAT_INPUT_BOUND
        base = rng.integers(-bound + 1, bound, (40, ncols))
        blocks = [base[:25], base[25:], base[rng.integers(0, 40, 9)]]
        ints, floats = ModularRREF(ncols, p), ModularRREF(ncols, p)
        for blk in blocks:
            assert feed(ints, blk % p) == feed(floats, blk)
            assert ints._pivcols.tolist() == floats._pivcols.tolist()
            assert ints.nullspace_mod_p() == floats.nullspace_mod_p()
        piv, R = rref_mod_p(np.vstack(blocks), p)
        assert floats.nullspace_mod_p() == standard_nullspace_mod_p(piv, R, ncols, p)

    @pytest.mark.parametrize("dtype", [object, np.int64])
    def test_integer_input_is_reduced_before_the_float_cast(self, dtype):
        # v = 1 mod p, but float64(v) rounds away the 1 and reads as 0 mod p;
        # the block builder writes v's residue, read from its exact
        # coefficient array (int64 up to 2^63, Python ints past it)
        p = PRIMES[0]
        v = p * 2 ** (35 if dtype is np.int64 else 70) + 1
        assert float(v) % p == 0
        J = DiscreteSeq("v", lambda n: TPoly({0: v}) if n == 1 else TPoly.zero())
        (block,) = _color_blocks(J, [0], 0, 0, (1, 1))
        assert _expand(block.values[0]).dtype == dtype
        mr = ModularRREF(1, p)
        rows = _color_matrix(block, [0], 1, 1, mr)
        assert block_of(rows, 1).tolist() == [[1.0]]
        assert mr.process_block(rows) == 1

    def test_positions_put_the_free_columns_first(self):
        # free columns in increasing order, then the pivot columns in the
        # order they were found; a fresh engine takes the natural order
        mr = ModularRREF(6, PRIMES[0])
        assert mr.positions().tolist() == list(range(6))
        feed(mr, [[0, 0, 0, 0, 1, 2], [0, 1, 0, 0, 0, 0]])
        assert mr._pivcols.tolist() == [4, 1]
        assert mr.positions().tolist() == [0, 5, 1, 2, 4, 3]
        feed(mr, [[1, 0, 0, 0, 0, 0]])
        assert mr.positions().tolist() == [5, 4, 0, 1, 3, 2]

    @pytest.mark.parametrize(
        "block",
        [np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=object), np.zeros((2, 4)), np.zeros((2, 6))[:, ::2]],
        ids=["int64", "object", "too-wide", "strided"],
    )
    def test_only_c_ordered_float64_blocks_of_its_width_are_taken(self, block, monkeypatch):
        # one input path: the engine hands its row source C-ordered float64
        # slabs of its width, in turn, so whatever array a source reads
        # from, the engine reduces only such slabs; a source whose rows are
        # too wide cannot write them
        monkeypatch.setattr(nullspace, "_SLAB_ROWS", 1)
        slabs = []

        class Source:
            def __len__(self):
                return len(block)

            def write(self, start, out):
                slabs.append((start, out.dtype, out.shape, out.flags.c_contiguous))
                out[...] = block[start : start + len(out)]

        mr = ModularRREF(3, PRIMES[0])
        if block.shape[1] != 3:
            with pytest.raises(ValueError, match="could not broadcast"):
                mr.process_block(Source())
            return
        assert mr.process_block(Source()) == 0
        assert slabs == [(0, np.float64, (1, 3), True), (1, np.float64, (1, 3), True)]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
    def test_engine_fixes_the_mmap_threshold(self):
        # importing the package turns glibc's adaptive thresholds off, which
        # keeps the peak RSS of a run independent of what the process ran or
        # freed before it: an 8 MiB block then comes from the heap, not from
        # a mapping of its own as at glibc's default 128 KiB threshold
        assert _fix_malloc_thresholds()
        assert mmapped_blocks_of_8_mib("import torusjones") == 0
        assert mmapped_blocks_of_8_mib("") == 1


def exact_rows(J, block, slots, m_degree, l_degree):
    """The rows of one color as Python ints in the natural column order,
    read off ``QTElem.apply``: the column of x * t^alpha M^k L^j holds the
    coefficients of (t^alpha M^k L^j J)(n) on the rows t^(beta_min + 2i)."""
    mwidth, lwidth = m_degree + 1, l_degree + 1
    rows = [[0] * (len(slots) * mwidth * lwidth) for _ in range(block.width)]
    for ai, alpha in enumerate(slots):
        for k in range(mwidth):
            for j in range(lwidth):
                for e, c in QTElem({(k, j): TPoly({alpha: 1})}).apply(J, block.n).terms.items():
                    rows[(e - block.beta_min) // 2][(ai * mwidth + k) * lwidth + j] = c
    return rows


def assert_engines_match(engines, rows, exact):
    """Each engine equals rref_mod_p / standard_nullspace_mod_p of the
    integer rows mod its prime, and the rank and the standard basis, mod p,
    of ``exact``, an ExactEliminator fed the same rows."""
    for e in engines:
        p = e.p
        piv, R = rref_mod_p([[v % p for v in row] for row in rows], p)
        assert e.rank == len(piv) == exact.rank
        assert sorted(e._pivcols.tolist()) == piv == sorted(exact.pivots)
        assert e.nullspace_mod_p() == standard_nullspace_mod_p(piv, R, e.ncols, p)
        lifted = []
        for v in exact.nullspace():
            inv = pow(v[max(v)], -1, p)
            lifted.append({c: x * inv % p for c, x in v.items() if x * inv % p})
        assert e.nullspace_mod_p() == lifted


def assert_colors_match_the_references(big):
    """Colors of a sequence with J(n+1) = (1 + t^2n) J(n), which L - 1 - M
    annihilates, so that the kernel stays nonzero and depends on every
    coefficient, are built by _color_matrix in each engine's column order
    and fed in turn; J(1) is random, with a gap that leaves zero rows and,
    unless big is 0, a coefficient of magnitude big. A second engine at
    another prime joins after the third color and is re-fed the colors so
    far, as the kernel search's draw() does. After every color the engines
    match the references (``assert_engines_match``)."""
    rng = random.Random(15)
    first = {0: rng.randint(1, 3), 2 * rng.randint(2, 6): -rng.randint(1, 3), 60: rng.randint(1, 3)}
    if big:
        first[2 * rng.randint(0, 30)] = rng.choice((-1, 1)) * big
    table = {1: TPoly(first)}
    for n in range(1, 8):
        table[n + 1] = table[n] + TPoly({2 * n: 1}) * table[n]
    J = DiscreteSeq("random", lambda n: table.get(n, TPoly.zero()))
    slots, m_degree, l_degree = [-8, -6, -4, -2, 0, 2], 3, 1
    ncols = len(slots) * (m_degree + 1) * (l_degree + 1)
    engines, fed, rows = [ModularRREF(ncols, PRIMES[0])], [], []
    exact = ExactEliminator(ncols)
    seen = dict(zero_rows=0, dependent_rows=0, refed=0)
    for block in _color_blocks(J, slots, m_degree, l_degree, (1, 7)):
        if len(fed) == 3:
            engines.append(ModularRREF(ncols, PRIMES[1]))
            for old in fed:
                engines[-1].process_block(_color_matrix(old, slots, m_degree + 1, l_degree + 1, engines[-1]))
                seen["refed"] += 1
        new = [e.process_block(_color_matrix(block, slots, m_degree + 1, l_degree + 1, e)) for e in engines]
        fed.append(block)
        block_rows = exact_rows(J, block, slots, m_degree, l_degree)
        rows += block_rows
        for row in block_rows:
            exact.add_row({c: v for c, v in enumerate(row) if v})
        seen["zero_rows"] += not all(map(any, block_rows))
        seen["dependent_rows"] += sum(map(any, block_rows)) > new[0]
        assert_engines_match(engines, rows, exact)
    assert len(fed) == 7 and min(seen.values()) >= 1, seen
    assert 0 < exact.rank < ncols


class TestEngineLayout:
    @pytest.mark.parametrize(
        "big", [0, nullspace.FLOAT_INPUT_BOUND, 2**53 + 1, 2**63 + 1], ids=["small", "bound", "2^53+1", "2^63+1"]
    )
    def test_blocks_in_the_engine_order_match_the_references(self, big):
        assert_colors_match_the_references(big)


class TestSlabBoundaries:
    """The engine reads each block ``_SLAB_ROWS`` rows at a time, and
    back-reduces X as many rows at a time; here slabs of 1, 3 and 8 rows put
    block and slab boundaries everywhere."""

    @pytest.mark.parametrize("slab_rows", [1, 3, 8])
    def test_blocks_across_slab_boundaries_match_the_references(self, slab_rows, monkeypatch):
        # Blocks of one row, of exactly one slab and of one slab plus one row
        # are fed through ``Rows``. The last row of each longer block, past
        # its first slab, is a zero row, twice the block's first row, or a
        # row with a coefficient of 2^52, 2^53 + 1 or 2^63 + 1 (written as
        # residues, as the block builder writes such a value). The rows span
        # a rank-24 space of 30 columns, so the rank grows over many blocks.
        # A second engine at another prime joins after the third block and
        # is re-fed the blocks so far, as the kernel search's draw() does.
        # After every block each engine equals rref_mod_p /
        # standard_nullspace_mod_p of the rows so far mod its prime, and
        # ExactEliminator's rank and standard basis, mod p
        # (``assert_engines_match``).
        monkeypatch.setattr(nullspace, "_SLAB_ROWS", slab_rows)
        rng = random.Random(16 + slab_rows)
        ncols, span = 30, 24
        base = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(span)]

        def combination():
            coef = [rng.randint(-2, 2) for _ in range(span)]
            return [sum(c * row[j] for c, row in zip(coef, base)) for j in range(ncols)]

        lasts = ["zero", "double", 2**52, 2**53 + 1, 2**63 + 1]
        sizes = [1, slab_rows] + [slab_rows + 1] * len(lasts) + [1, slab_rows + 1]
        blocks = []
        for size in sizes:
            block = [combination() for _ in range(size)]
            if size == slab_rows + 1:
                last = lasts[len(blocks) % len(lasts)]
                if last == "zero":
                    block[-1] = [0] * ncols
                elif last == "double":
                    block[-1] = [2 * v for v in block[0]]
                else:
                    block[-1] = [last * v + w for v, w in zip(base[rng.randrange(span)], block[-1])]
            blocks.append(block)
        engines, rows = [ModularRREF(ncols, PRIMES[0])], []
        exact = ExactEliminator(ncols)
        seen = dict(zero_rows=0, dependent_rows=0, refed=0, big=0, new_in_last_slab=0)
        for i, blk in enumerate(blocks):
            if i == 3:
                engines.append(ModularRREF(ncols, PRIMES[1]))
                for old in blocks[:3]:
                    feed(engines[-1], np.array(old, dtype=object))
                    seen["refed"] += 1
            before = exact.rank
            new = [feed(e, np.array(blk, dtype=object)) for e in engines]
            rows += blk
            for row in blk:
                exact.add_row({c: v for c, v in enumerate(row) if v})
            seen["zero_rows"] += not all(map(any, blk))
            seen["dependent_rows"] += sum(map(any, blk)) > new[0]
            seen["big"] += max(abs(v) for row in blk for v in row) >= nullspace.FLOAT_INPUT_BOUND
            head = ExactEliminator(ncols)
            for row in rows[: len(rows) - len(blk) + slab_rows]:
                head.add_row({c: v for c, v in enumerate(row) if v})
            seen["new_in_last_slab"] += len(blk) > slab_rows and exact.rank > head.rank
            assert_engines_match(engines, rows, exact)
            assert new[0] == exact.rank - before
        assert min(seen.values()) >= 1, seen
        assert 0 < exact.rank < ncols

    @pytest.mark.parametrize("slab_rows", [1, 3, 8])
    @pytest.mark.parametrize("big", [0, 2**63 + 1], ids=["small", "2^63+1"])
    def test_colors_across_slab_boundaries_match_the_references(self, slab_rows, big, monkeypatch):
        # the colors of TestEngineLayout, written by _color_matrix's row
        # source a slab of 1, 3 or 8 rows at a time
        monkeypatch.setattr(nullspace, "_SLAB_ROWS", slab_rows)
        assert_colors_match_the_references(big)


#: prints how many mappings malloc makes for one 8 MiB block, after ``{setup}``
MALLOC_PROBE = """
import ctypes
{setup}
libc = ctypes.CDLL(None)
size_t = ctypes.c_size_t if hasattr(libc, "mallinfo2") else ctypes.c_int
fields = ("arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")
Info = type("Info", (ctypes.Structure,), {{"_fields_": [(name, size_t) for name in fields]}})
mallinfo = getattr(libc, "mallinfo2", None) or libc.mallinfo
mallinfo.restype = Info
libc.malloc.restype = ctypes.c_void_p
libc.free.argtypes = (ctypes.c_void_p,)
before = mallinfo().hblks
block = libc.malloc(8 << 20)
print(mallinfo().hblks - before)
libc.free(block)
"""


def mmapped_blocks_of_8_mib(setup: str) -> int:
    """Run ``MALLOC_PROBE`` in a fresh interpreter that finds this package."""
    src = os.path.dirname(os.path.dirname(nullspace.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", MALLOC_PROBE.format(setup=setup)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    ).stdout
    return int(out)


def exact_eliminator(rows, ncols):
    elim = ExactEliminator(ncols)
    for r in rows:
        elim.add_row(dict(enumerate(r)))
    return elim


def fed_engines(rows, primes):
    ncols = len(rows[0])
    engines = [ModularRREF(ncols, p) for p in primes]
    for e in engines:
        feed(e, rows)
    return engines


P0 = PRIMES[0]


class TestCombine:
    # The leading 2 x 2 minors of both systems are P0. In the first, every
    # row is a multiple of (1, 3) mod P0 on columns 0 and 1, so pivot 1 moves
    # right and the rank stays; in the second the rank drops.
    UNLUCKY = {
        "pivots-move": [
            [1, 3, 2, 0, 5, -1, 4],
            [2, 6 + P0, 0, 1, -3, 2, 2],
            [-1, -3, -4, 3, 1, 0, -2],
            [0, 0, 1, -1, 0, 2, 1],
        ],
        "rank-drops": [[1, 3, 5, 2], [2, 6 + P0, 10, 4]],
    }

    @pytest.mark.parametrize("case", sorted(UNLUCKY))
    def test_unlucky_prime_is_dropped(self, case):
        rows = self.UNLUCKY[case]
        exact = exact_eliminator(rows, len(rows[0]))
        # kernel entries near 7 P0 need three lucky primes to lift
        engines = fed_engines(rows, PRIMES[:4])
        unlucky, lucky = engines[0], engines[1:]
        reference = (exact.rank, sorted(exact.pivots))
        assert (unlucky.rank, sorted(unlucky._pivcols.tolist())) != reference
        assert (unlucky.rank == exact.rank) == (case == "pivots-move")
        for e in lucky:
            assert (e.rank, sorted(e._pivcols.tolist())) == reference
        kept, residues, m = combine(engines)
        assert kept == lucky
        assert m == math.prod(PRIMES[1:4])
        assert [reconstruct_vector(v, m) for v in residues] == exact.nullspace()

    def test_two_primes_lift_past_the_one_prime_bound(self):
        # the kernel vector (999, 1000) is past sqrt(p/2) ~ 511 for one prime
        rows = [[1000, -999]]
        exact = exact_eliminator(rows, 2)
        assert exact.nullspace() == [{0: 999, 1: 1000}]
        for primes in (PRIMES[:1], PRIMES[:2], PRIMES[:3]):
            kept, residues, m = combine(fed_engines(rows, primes))
            lifted = [reconstruct_vector(v, m) for v in residues]
            assert len(kept) == len(primes)
            assert lifted == ([None] if len(primes) == 1 else exact.nullspace())

    def test_prime_supply(self):
        # PRIMES, then every prime below them down to 2^18, by a sieve
        sieve = np.ones(PRIMES[-1], dtype=bool)
        for d in range(2, math.isqrt(PRIMES[-1]) + 1):
            sieve[d * d :: d] = False
        below = [n for n in range(PRIMES[-1] - 1, 2**18, -1) if sieve[n]]
        assert list(prime_supply()) == list(PRIMES) + below


class TestRationalReconstruction:
    def test_small_fractions_roundtrip(self):
        p = PRIMES[0]
        for num in range(-30, 31):
            for den in (1, 2, 3, 7, 11):
                if math.gcd(abs(num), den) != 1:
                    continue
                u = num * pow(den, p - 2, p) % p
                assert rational_reconstruct(u, p) == (num, den)

    def test_zero(self):
        assert rational_reconstruct(0, PRIMES[0]) == (0, 1)

    def test_denominator_sharing_a_factor_with_the_modulus_is_rejected(self):
        # u is 0 mod p0 and a/b mod p1 p2; the pair (p0 a, p0 b) fits the
        # bound sqrt(m/2) and matches u mod m, but p0 b has no inverse mod m
        p0, p1, p2 = PRIMES[:3]
        q, m = p1 * p2, p0 * p1 * p2
        for a, b in ((1, 2), (3, 7), (-5, 11)):
            u = a * pow(b, -1, q) % q
            u += q * (-u * pow(q, -1, p0) % p0)
            assert u % p0 == 0 and (p0 * a - u * p0 * b) % m == 0
            assert rational_reconstruct(u, m) is None

    def test_vector_lift_is_primitive(self):
        p = PRIMES[0]
        vec = {0: 2 % p, 3: (p - 4) % p, 5: 6 % p}
        lifted = reconstruct_vector(vec, p)
        assert lifted == {0: 1, 3: -2, 5: 3}
