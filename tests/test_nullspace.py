import random
from fractions import Fraction

import numpy as np
import pytest

from torusjones.nullspace import (
    PRIMES,
    ExactEliminator,
    ModularRREF,
    rational_reconstruct,
    reconstruct_vector,
)


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
            B = np.zeros((len(rows), ncols))
            for i, r in enumerate(rows):
                for c, v in r.items():
                    B[i, c] = v
            mr.process_block(B)
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
            chunk = rows[start : start + 7]
            B = np.zeros((len(chunk), ncols))
            for i, r in enumerate(chunk):
                for c, v in r.items():
                    B[i, c] = v
            mr.process_block(B)
        assert mr.rank == ref_rank

    def test_large_block_recursion(self):
        rng = random.Random(10)
        p = PRIMES[0]
        ncols = 300
        rows = random_rows(rng, 400, ncols, density=0.2)
        ref = ExactEliminator(ncols)
        for r in rows:
            ref.add_row(r)
        mr = ModularRREF(ncols, p)
        B = np.zeros((len(rows), ncols))
        for i, r in enumerate(rows):
            for c, v in r.items():
                B[i, c] = v
        mr.process_block(B)
        assert mr.rank == ref.rank


    @pytest.mark.parametrize("dtype", [object, np.int64])
    def test_integer_input_is_reduced_before_the_float_cast(self, dtype):
        # v = 1 mod p, but float64(v) rounds away the 1 and reads as 0 mod p
        p = PRIMES[0]
        v = p * 2**35 + 1
        assert float(v) % p == 0
        mr = ModularRREF(1, p)
        assert mr.process_block(np.array([[v]], dtype=dtype)) == 1


class TestExactProcessBlock:
    def test_matches_rows_fed_one_by_one(self):
        rng = random.Random(11)
        ncols = 12
        rows = random_rows(rng, 25, ncols)
        ref = ExactEliminator(ncols)
        for r in rows:
            ref.add_row(r)
        B = np.zeros((len(rows) + 1, ncols), dtype=np.int64)  # plus one zero row
        for i, r in enumerate(rows):
            for c, v in r.items():
                B[i, c] = v
        elim = ExactEliminator(ncols)
        assert elim.process_block(B) == ref.rank
        assert elim.pivots == ref.pivots


class TestRationalReconstruction:
    def test_small_fractions_roundtrip(self):
        p = PRIMES[0]
        for num in range(-30, 31):
            for den in (1, 2, 3, 7, 11):
                import math

                if math.gcd(abs(num), den) != 1:
                    continue
                u = num * pow(den, p - 2, p) % p
                assert rational_reconstruct(u, p) == (num, den)

    def test_zero(self):
        assert rational_reconstruct(0, PRIMES[0]) == (0, 1)

    def test_vector_lift_is_primitive(self):
        p = PRIMES[0]
        vec = {0: 2 % p, 3: (p - 4) % p, 5: 6 % p}
        lifted = reconstruct_vector(vec, p)
        assert lifted == {0: 1, 3: -2, 5: 3}
