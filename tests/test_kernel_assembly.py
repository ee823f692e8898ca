"""The kernel search's constraint blocks, its two methods and its parity
classes.

The block builder is checked column by column against ``QTElem.apply``, the
action it encodes. Both methods are checked on random small queries against
``ExactEliminator`` fed the same blocks, and so is the kernel of the parity
class read off the solved basis."""

import random
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusjones.jones import TorusKnot
from torusjones.laurent import TPoly
from torusjones.nullspace import FLOAT_INPUT_BOUND, ExactEliminator
from torusjones.operators import (
    KernelQuery,
    KernelResult,
    MAX_CANDIDATE_NULLITY,
    Underdetermined,
    _color_blocks,
    _color_matrix,
    _parity_plan,
    _vector_to_qtelem,
    minimality_kernel,
)
from torusjones.qtorus import DiscreteSeq, QTElem

M_DEGREE = 3
N_RANGE = (-3, 2)  # negative colors and the zero color J(0) = 0


def assert_columns_match_apply(J, slots, m_degree, l_degree, n_range):
    """The column of x * t^alpha M^k L^j at color n holds the coefficients of
    (t^alpha M^k L^j J)(n) on the rows t^(beta_min + 2i) and nothing else."""
    mwidth, lwidth = m_degree + 1, l_degree + 1
    blocks = _color_blocks(J, slots, m_degree, l_degree, n_range)
    for n, block in zip(range(n_range[0], n_range[1] + 1), blocks):
        B = None if block is None else _color_matrix(block, slots, mwidth, lwidth)
        if B is not None:
            assert B.shape == (block.width, len(slots) * mwidth * lwidth)
        for ai, alpha in enumerate(slots):
            for k in range(mwidth):
                for j in range(lwidth):
                    expected = QTElem({(k, j): TPoly({alpha: 1})}).apply(J, n).terms
                    if B is None:
                        assert not expected
                        continue
                    column = B[:, (ai * mwidth + k) * lwidth + j]
                    rows = np.flatnonzero(column).tolist()
                    got = {block.beta_min + 2 * i: int(column[i]) for i in rows}
                    assert got == expected, (n, alpha, k, j)


@pytest.mark.parametrize("ab", [(2, 3), (3, 4)], ids=lambda ab: f"{ab[0]},{ab[1]}")
@pytest.mark.parametrize("l_degree", [0, 1, 2, 3])
@pytest.mark.parametrize("window", [(-7, 2), (-6, 3)], ids=["odd-start", "even-start"])
def test_block_columns_match_apply(ab, l_degree, window, jcache):
    for parity in (0, 1):
        slots = [alpha for alpha in range(window[0], window[1] + 1) if alpha % 2 == parity]
        assert_columns_match_apply(jcache(TorusKnot(*ab)), slots, M_DEGREE, l_degree, N_RANGE)


def test_block_past_int64_holds_python_ints():
    table = {n: TPoly({2 * n: 2**70 + n, 2 * n + 4: -3}) for n in (-1, 1, 2, 3)}
    J = DiscreteSeq("wide", lambda n: table.get(n, TPoly.zero()))
    assert_columns_match_apply(J, [-4, -2, 0], 2, 1, (-1, 2))


@pytest.mark.parametrize(
    "big, dtype",
    [
        (FLOAT_INPUT_BOUND - 1, np.float64),
        (FLOAT_INPUT_BOUND, np.int64),
        (2**53 + 1, np.int64),
        (2**63, object),
    ],
)
def test_block_dtype_follows_the_largest_coefficient(big, dtype):
    # float64 only while every value's max |coefficient| is below
    # FLOAT_INPUT_BOUND; from there on the exact integer construction, which
    # holds 2^53 + 1 (not a float64) exactly
    table = {n: TPoly({2 * n: big, 2 * n + 4: -3 - n}) for n in (1, 2, 3)}
    J = DiscreteSeq("big", lambda n: table.get(n, TPoly.zero()))
    slots, mwidth, lwidth = [-4, -2, 0], 3, 2
    for block in _color_blocks(J, slots, mwidth - 1, lwidth - 1, (1, 2)):
        assert _color_matrix(block, slots, mwidth, lwidth).dtype == dtype
    assert_columns_match_apply(J, slots, mwidth - 1, lwidth - 1, (1, 2))


#: The solved class of each certify query of the benchmark: (knot, l_degree,
#: m_degree, t_window, n_range).
CERTIFY_QUERIES = [
    ((2, 3), 1, 10, (-20, 2), (1, 12)),
    ((2, 3), 2, 10, (-20, 2), (1, 12)),
    ((2, 7), 2, 18, (-44, 2), (1, 19)),
    ((3, 4), 2, 38, (-40, 16), (1, 12)),
]


@pytest.mark.parametrize("query", CERTIFY_QUERIES, ids=lambda q: "{},{} L{}".format(*q[0], q[1]))
def test_float_blocks_equal_the_integer_construction(query, jcache):
    # every color of the certify queries: the float64 block equals, entry
    # for entry, the int64 block that the same values give when their max
    # |coefficient| is read as FLOAT_INPUT_BOUND
    ab, l_degree, m_degree, window, n_range = query
    J = jcache(TorusKnot(*ab))
    slots, _derived = _parity_plan(*window)
    mwidth, lwidth = m_degree + 1, l_degree + 1
    colors = 0
    for block in _color_blocks(J, slots, m_degree, l_degree, n_range):
        if block is None:
            continue
        got = _color_matrix(block, slots, mwidth, lwidth)
        values = [None if v is None else (*v[:3], FLOAT_INPUT_BOUND, *v[4:]) for v in block.values]
        ref = _color_matrix(block._replace(values=values), slots, mwidth, lwidth)
        assert got.dtype == np.float64 and ref.dtype == np.int64
        assert np.array_equal(got.astype(np.int64), ref)
        assert np.abs(got).max() < FLOAT_INPUT_BOUND
        colors += 1
    assert colors == n_range[1] - n_range[0] + 1


def oracle_basis(J, slots, m_degree, l_degree, n_range) -> list:
    """The standard kernel basis of one parity class on the whole n_range, as
    operator strings: ``ExactEliminator`` fed every row of every color's
    ``_color_matrix``, as Python ints (the block may be float64)."""
    if not slots:
        return []
    mwidth, lwidth = m_degree + 1, l_degree + 1
    elim = ExactEliminator(len(slots) * mwidth * lwidth)
    for block in _color_blocks(J, slots, m_degree, l_degree, n_range):
        if block is not None and elim.rank < elim.ncols:
            for row in _color_matrix(block, slots, mwidth, lwidth):
                nz = np.flatnonzero(row)
                elim.add_row(dict(zip(nz.tolist(), map(int, row[nz].tolist()))))
    return [str(_vector_to_qtelem(v, slots, m_degree, l_degree)) for v in elim.nullspace()]


@st.composite
def small_queries(draw):
    knot = draw(st.sampled_from([TorusKnot(2, 3), TorusKnot(2, 5), TorusKnot(3, 4)]))
    lo = draw(st.integers(-40, 10))
    n_lo = draw(st.integers(-4, 11))
    return KernelQuery(
        knot,
        draw(st.integers(0, 2)),
        draw(st.integers(0, 6)),
        (lo, lo + draw(st.integers(0, 14))),
        (n_lo, draw(st.integers(n_lo, 11))),
    )


@pytest.mark.filterwarnings("ignore:kernel system is underdetermined")
@settings(max_examples=50, deadline=None, derandomize=True)
@given(small_queries())
def test_exact_and_modular_kernels_agree(jcache, query):
    J = jcache(query.knot)
    args = (query.m_degree, query.l_degree, query.n_range)
    solved, derived = _parity_plan(*query.t_window)
    expected = oracle_basis(J, solved, *args) + oracle_basis(J, derived, *args)
    exact = minimality_kernel(replace(query, method="exact"))
    assert [str(e) for e in exact.basis] == expected
    assert exact.rank == exact.unknowns - len(expected)
    try:
        modular = minimality_kernel(replace(query, method="modular"))
    except Underdetermined:
        # the modular engine reads off candidates only up to this nullity
        assert exact.dimension > MAX_CANDIDATE_NULLITY
        return
    for f in fields(KernelResult):
        if f.name not in ("method", "prime"):
            assert getattr(modular, f.name) == getattr(exact, f.name), f.name


@pytest.mark.parametrize(
    "window, solved, derived",
    [
        ((0, 4), [0, 2, 4], [1, 3]),
        ((-3, 3), [-3, -1, 1, 3], [-2, 0, 2]),
        ((0, 3), [0, 2], [1, 3]),
        ((-1, 2), [0, 2], [-1, 1]),
        ((5, 5), [5], []),
    ],
)
def test_parity_plan(window, solved, derived):
    # the larger class is solved, evens on a tie
    assert _parity_plan(*window) == (solved, derived)


def t_parity(elem: QTElem) -> int:
    """The parity of the t-exponents of a kernel basis operator (one parity
    class holds them all)."""
    return min(next(iter(elem.terms.values())).terms) % 2


@pytest.mark.filterwarnings("ignore:kernel system is underdetermined")
def test_derived_class_matches_its_own_elimination(jcache):
    """The derived parity class's basis, read off the solved one, equals the
    oracle's basis of the derived slots' own blocks, in order."""
    rng = random.Random(12)
    nonempty = {"exact": 0, "modular": 0}  # cases compared with a nonempty derived basis
    for case in range(160):
        knot = TorusKnot(*rng.choice([(2, 3), (2, 5), (3, 4)]))
        l_degree, m_degree = rng.randint(0, 2), rng.randint(0, 6)
        # every (lo mod 2, hi mod 2) case in turn, with at least two slots
        lo = 2 * rng.randint(-20, 5) + case % 2
        hi = lo + 1 + 2 * rng.randint(0, 6)
        hi += (hi - case // 2) % 2
        n_lo = rng.randint(-4, 10)
        n_range = (n_lo, n_lo + rng.choice([0, 0, 1, 1, 2, 4]))
        query = KernelQuery(knot, l_degree, m_degree, (lo, hi), n_range)
        _solved, derived = _parity_plan(lo, hi)
        expected = oracle_basis(jcache(knot), derived, m_degree, l_degree, n_range)
        for method in ("exact", "modular"):
            try:
                result = minimality_kernel(replace(query, method=method))
            except Underdetermined:
                assert method == "modular"
                continue
            got = [str(e) for e in result.basis if t_parity(e) == derived[0] % 2]
            assert got == expected, (query, method)
            assert result.rank + result.dimension == result.unknowns
            nonempty[method] += bool(expected)
    assert min(nonempty.values()) >= 40
