"""The kernel search's constraint blocks, its two methods and its parity
classes.

The block builder is checked column by column against ``QTElem.apply``, the
action it encodes. Both methods are checked on random small queries against
``ExactEliminator`` fed the same blocks, and so is the kernel of the parity
class read off the solved basis."""

import random
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusjones import nullspace, operators
from torusjones.jones import TorusKnot
from torusjones.laurent import TPoly
from torusjones.nullspace import FLOAT_INPUT_BOUND, PRIMES, ExactEliminator, ModularRREF
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
from torusjones.qtorus import DiscreteSeq, QTElem, _expand

M_DEGREE = 3
N_RANGE = (-3, 2)  # negative colors and the zero color J(0) = 0


def assert_columns_match_apply(J, slots, m_degree, l_degree, n_range, p=PRIMES[0]):
    """The column of x * t^alpha M^k L^j at color n holds the coefficients of
    (t^alpha M^k L^j J)(n) on the rows t^(beta_min + 2i) and nothing else,
    at its position in the column order of the engine the block is built
    for: the coefficients themselves, or their residues mod p when J(n+j)
    has a coefficient of magnitude ``FLOAT_INPUT_BOUND`` or more. Each block
    is fed to the engine after the check, so later colors are built in the
    order its pivots leave."""
    mwidth, lwidth = m_degree + 1, l_degree + 1
    engine = ModularRREF(len(slots) * mwidth * lwidth, p)
    blocks = _color_blocks(J, slots, m_degree, l_degree, n_range)
    for n, block in zip(range(n_range[0], n_range[1] + 1), blocks):
        source = None if block is None else _color_matrix(block, slots, mwidth, lwidth, engine)
        B = None if source is None else block_of(source, engine.ncols)
        if B is not None:
            assert len(source) == block.width
            position = engine.positions()
        for ai, alpha in enumerate(slots):
            for k in range(mwidth):
                for j in range(lwidth):
                    expected = QTElem({(k, j): TPoly({alpha: 1})}).apply(J, n).terms
                    if B is None:
                        assert not expected
                        continue
                    if block.values[j] is not None and block.values[j][3] >= FLOAT_INPUT_BOUND:
                        expected = {e: c % p for e, c in expected.items() if c % p}
                    column = B[:, position[(ai * mwidth + k) * lwidth + j]]
                    rows = np.flatnonzero(column).tolist()
                    got = {block.beta_min + 2 * i: int(column[i]) for i in rows}
                    assert got == expected, (n, alpha, k, j)
        if source is not None:
            engine.process_block(source)


def block_of(rows, ncols):
    """The rows x ncols float64 block that a row source writes."""
    B = np.empty((len(rows), ncols))
    rows.write(0, B)
    return B


def natural_block(block, slots, mwidth, lwidth):
    """``_color_matrix``'s block in the natural column order: the order of
    an engine that has found no pivot."""
    ncols = len(slots) * mwidth * lwidth
    return block_of(_color_matrix(block, slots, mwidth, lwidth, ModularRREF(ncols, PRIMES[0])), ncols)


@pytest.mark.parametrize("ab", [(2, 3), (3, 4)], ids=lambda ab: f"{ab[0]},{ab[1]}")
@pytest.mark.parametrize("l_degree", [0, 1, 2, 3])
@pytest.mark.parametrize("window", [(-7, 2), (-6, 3)], ids=["odd-start", "even-start"])
def test_block_columns_match_apply(ab, l_degree, window, jcache):
    for parity in (0, 1):
        slots = [alpha for alpha in range(window[0], window[1] + 1) if alpha % 2 == parity]
        assert_columns_match_apply(jcache(TorusKnot(*ab)), slots, M_DEGREE, l_degree, N_RANGE)


def test_block_past_int64_holds_residues():
    table = {n: TPoly({2 * n: 2**70 + n, 2 * n + 4: -3}) for n in (-1, 1, 2, 3)}
    J = DiscreteSeq("wide", lambda n: table.get(n, TPoly.zero()))
    for p in PRIMES[:2]:
        assert_columns_match_apply(J, [-4, -2, 0], 2, 1, (-1, 2), p)


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
    # every block is float64. While every value's max |coefficient| is
    # below FLOAT_INPUT_BOUND it holds the coefficients themselves (dtype
    # float64 here); from there on the residues mod the engine's prime of
    # the value's exact coefficient array, of dtype int64 (which holds
    # 2^53 + 1, not a float64, exactly) or object (Python ints past 2^63)
    table = {n: TPoly({2 * n: big, 2 * n + 4: -3 - n}) for n in (1, 2, 3)}
    J = DiscreteSeq("big", lambda n: table.get(n, TPoly.zero()))
    slots, mwidth, lwidth = [-4, -2, 0], 3, 2
    for p in PRIMES[:2]:
        engine = ModularRREF(len(slots) * mwidth * lwidth, p)
        for block in _color_blocks(J, slots, mwidth - 1, lwidth - 1, (1, 2)):
            B = block_of(_color_matrix(block, slots, mwidth, lwidth, engine), engine.ncols)
            if dtype is np.float64:
                assert float(big) in B
            else:
                assert _expand(block.values[0]).dtype == dtype
                assert big % p in B and np.abs(B).max() < p
        assert_columns_match_apply(J, slots, mwidth - 1, lwidth - 1, (1, 2), p)


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
    # every color of the certify queries: the block of coefficients equals,
    # mod p, the block of residues that the builder reduces from the exact
    # coefficient arrays when the values' max |coefficient| is read as
    # FLOAT_INPUT_BOUND
    ab, l_degree, m_degree, window, n_range = query
    J = jcache(TorusKnot(*ab))
    slots, _derived = _parity_plan(*window)
    mwidth, lwidth = m_degree + 1, l_degree + 1
    engine = ModularRREF(len(slots) * mwidth * lwidth, PRIMES[0])
    colors = 0
    for block in _color_blocks(J, slots, m_degree, l_degree, n_range):
        if block is None:
            continue
        got = block_of(_color_matrix(block, slots, mwidth, lwidth, engine), engine.ncols)
        values = [None if v is None else (*v[:3], FLOAT_INPUT_BOUND, *v[4:]) for v in block.values]
        ref = block_of(_color_matrix(block._replace(values=values), slots, mwidth, lwidth, engine), engine.ncols)
        assert np.array_equal(got.astype(np.int64) % engine.p, ref.astype(np.int64))
        assert np.abs(got).max() < FLOAT_INPUT_BOUND
        colors += 1
    assert colors == n_range[1] - n_range[0] + 1


def test_each_value_is_expanded_once_per_query(monkeypatch):
    # the (2,3) L-degree 2 exact query of the benchmark stops early, after
    # feeding colors 1..6 of 1..12: each J(m) that a fed color reads is
    # expanded once, however many colors read it and at however many primes
    # they are fed, and no value that only later colors read is expanded
    expanded, fed = [], []

    def counting(v):
        expanded.append(v)  # kept alive, so ids stay distinct
        return real_expand(v)

    def recording(block, *args):
        fed.append(block)
        return real_matrix(block, *args)

    real_expand, real_matrix = operators._expand, operators._color_matrix
    monkeypatch.setattr(operators, "_expand", counting)
    monkeypatch.setattr(operators, "_color_matrix", recording)
    result = minimality_kernel(KernelQuery(TorusKnot(2, 3), 2, 10, (-20, 2), (1, 12), method="exact"))
    assert result.dimension > 0
    read = {id(v): v for block in fed for v in block.values if v is not None}
    assert len(expanded) == len({id(v) for v in expanded}) == len(read)
    assert {id(v) for v in expanded} == set(read)
    assert len(read) < 14  # of J(1), ..., J(14)


#: What the memory guard allows beyond X, one reduced block and the
#: engine's two slab buffers: a row source's gather index, ``_mod``'s
#: temporaries and small arrays. A full-width block (8.6 MiB at the (2,7)
#: query's last color) does not fit in it.
SMALL_ALLOWANCE = 1 << 20


@pytest.mark.parametrize("slab_rows", [64, nullspace._SLAB_ROWS])
def test_peak_memory_is_one_x_one_reduced_block_and_two_slabs(monkeypatch, slab_rows):
    # the (2,7) L-degree 2 query of the benchmark: its largest stored pivot
    # rows X and its largest reduced block, the color's rows x the free
    # columns at its feed, are read off a first run, and a second run under
    # tracemalloc may peak at no more than their sum, the engine's two slab
    # buffers of slab_rows x ncols and SMALL_ALLOWANCE. At 64-row slabs it
    # peaks at 7.8 MiB of 8.1 allowed, and at 128 rows at 9.1 of 9.4; an
    # engine that took each color as a full-width block peaked at 9.5 MiB
    # with 64-row product slabs (10.1 at its 256 rows)
    monkeypatch.setattr(nullspace, "_SLAB_ROWS", slab_rows)
    query = KernelQuery(TorusKnot(2, 7), 2, 18, (-44, 2), (1, 19))
    xs, reduced, slabs = [], [], []
    real = ModularRREF.process_block

    def recording(engine, rows):
        reduced.append(len(rows) * engine._free.size * 8)
        slabs.append(2 * slab_rows * engine.ncols * 8)
        new = real(engine, rows)
        xs.append(engine._X.nbytes)
        return new

    monkeypatch.setattr(ModularRREF, "process_block", recording)
    minimality_kernel(query)
    monkeypatch.setattr(ModularRREF, "process_block", real)
    tracemalloc.start()
    try:
        minimality_kernel(query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(xs) + max(reduced) + max(slabs) + SMALL_ALLOWANCE


def oracle_basis(J, slots, m_degree, l_degree, n_range) -> list:
    """The standard kernel basis of one parity class on the whole n_range, as
    operator strings: ``ExactEliminator`` fed every row of every color's
    block in the natural column order, as Python ints (the block is
    float64)."""
    if not slots:
        return []
    mwidth, lwidth = m_degree + 1, l_degree + 1
    elim = ExactEliminator(len(slots) * mwidth * lwidth)
    for block in _color_blocks(J, slots, m_degree, l_degree, n_range):
        if block is not None and elim.rank < elim.ncols:
            for row in natural_block(block, slots, mwidth, lwidth):
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
