"""Differential tests: the dense ``QTElem.apply``, on one color and on a
range of colors, against the sparse loop sum of (c * f(n+l)).shift(2kn) in
exact TPoly arithmetic; and the reports of the sweeps, which apply each
operator once per range, against a per-color loop of that sparse action."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusjones import jones, operators, qtorus
from torusjones.jones import SUITE_KNOTS, TorusKnot, g_seq, h_seq, h_sequence, jones_sequence
from torusjones.laurent import TPoly
from torusjones.operators import (
    NamedOperator,
    VerifyReport,
    build_named,
    recurrence_operator,
    verify_annihilation,
    verify_lemma_P,
    verify_lemma_Q,
    verify_recurrence,
)
from torusjones.qtorus import DiscreteSeq, QTElem, _dense, _expand, parse

COLORS = range(1, 21)


def sparse_apply(op: QTElem, f, n: int) -> TPoly:
    """The exact slow path: one TPoly product and sum per operator term."""
    acc = TPoly.zero()
    for (k, l), c in op.terms.items():
        acc = acc + (c * f(n + l)).shift(2 * k * n)
    return acc


def named_cases():
    """(operator name, knot index) for every named operator on every suite
    knot it applies to."""
    for i, K in enumerate(SUITE_KNOTS):
        names = ("F", "P", "Q", "PQ") if K.a > 2 else ("G", "R")
        for name in names:
            yield pytest.param(name, i, id=f"{name}-{K.a},{K.b}")


@pytest.mark.parametrize("name,index", list(named_cases()))
def test_named_operator_matches_sparse(name, index, jcache):
    K = SUITE_KNOTS[index]
    op = build_named(name, K).element
    own = h_sequence(K) if name == "P" else jcache(K)
    # J of another suite knot is not annihilated, so the results are nonzero
    other = jcache(SUITE_KNOTS[(index + 1) % len(SUITE_KNOTS)])
    nonzero = 0
    for f in (own, other):
        dense = op.apply(f, COLORS)
        for n, value in zip(COLORS, dense, strict=True):
            assert value == sparse_apply(op, f, n), (name, str(K), f.name, n)
            nonzero += not value.is_zero()
    assert nonzero >= len(COLORS)


def layout(v: TPoly) -> tuple:
    """``_dense(v)`` with its length checked against its marks, and the
    coefficient array the marks expand to in place of the length."""
    dense = _dense(v)
    arr = _expand(dense)
    assert dense[2] == len(arr) == dense[4][-1]
    return *dense[:2], arr, *dense[3:]


class TestBoundRule:
    def test_overflowing_values_become_object_arrays(self):
        lo, stride, arr, vmax, pos, marks = layout(TPoly({3: 2**63, 7: -1}))
        assert (lo, stride, vmax) == (3, 4, 2**63)
        assert arr.dtype == object and arr.tolist() == [2**63, -1]
        assert marks.dtype == object and pos.tolist() == [0, 1, 2]
        assert marks.tolist() == [2**63, -1 - 2**63, 1]

    def test_int64_values_keep_int64(self):
        lo, stride, arr, vmax, pos, marks = layout(TPoly({-4: -(2**63), 2: 5, 8: 1}))
        assert (lo, stride, vmax) == (-4, 6, 2**63)
        assert arr.dtype.name == "int64" and arr.tolist() == [-(2**63), 5, 1]
        # the differences leave int64, so the marks are Python ints
        assert marks.dtype == object and pos.tolist() == [0, 1, 2, 3]
        assert marks.tolist() == [-(2**63), 5 + 2**63, -4, -1]

    def test_int64_extremes_give_object_marks(self):
        lo, stride, arr, vmax, pos, marks = layout(TPoly({0: 2**63 - 1, 4: -(2**63)}))
        assert (lo, stride, vmax) == (0, 4, 2**63)
        assert arr.dtype.name == "int64" and arr.tolist() == [2**63 - 1, -(2**63)]
        assert marks.dtype == object and pos.tolist() == [0, 1, 2]
        assert marks.tolist() == [2**63 - 1, 1 - 2**64, 2**63]
        f = DiscreteSeq("extremes", lambda n: TPoly({0: 2**63 - 1, 4: -(2**63)}))
        op = parse("L^-1")
        for n in range(-2, 3):
            assert op.apply(f, n) == sparse_apply(op, f, n)

    def test_small_values_keep_int64_marks(self):
        lo, stride, arr, vmax, pos, marks = layout(TPoly({0: 2**60, 2: 2**60, 6: -3}))
        assert (lo, stride, vmax) == (0, 2, 2**60)
        assert arr.tolist() == [2**60, 2**60, 0, -3]
        assert marks.dtype.name == "int64" and pos.tolist() == [0, 2, 3, 4]
        assert marks.tolist() == [2**60, -(2**60), -3, 3]

    @pytest.mark.parametrize(
        "op_text,value",
        [
            ("2", 2**62),  # the result 2^63 leaves int64
            ("L + 1", 2**62 - 1),  # bound 2^63 - 2 with an in-range result
            ("L - 1", 2**61 - 1),  # bound 2^62 - 2: twice it takes the object accumulator
            ("L - 1", 2**60 - 1),  # twice the bound is 2^62 - 4: int64 accumulator
            ("M + t^2", 2**61),  # two contributions meet at one exponent
            ("3*L^-1 - M^-1*L", -(2**63)),
        ],
    )
    def test_results_past_int64(self, op_text, value):
        op = parse(op_text)
        f = DiscreteSeq("big", lambda n: TPoly({2 * n: value, 2 * n + 4: -value}))
        for n in range(-3, 4):
            assert op.apply(f, n) == sparse_apply(op, f, n)

    def test_zero_sequence_and_zero_operator(self):
        zero = DiscreteSeq("zero", lambda n: TPoly.zero())
        assert parse("M*L + t^3").apply(zero, 5).is_zero()
        assert parse("M*L + t^3").apply(zero, range(-2, 3)) == [TPoly.zero()] * 5
        one = DiscreteSeq("one", lambda n: TPoly.one())
        assert QTElem.zero().apply(one, 5).is_zero()
        assert QTElem.zero().apply(one, range(0, 3)) == [TPoly.zero()] * 3
        assert parse("L - 1").apply(one, 5).is_zero()

    def test_empty_range(self):
        one = DiscreteSeq("one", lambda n: TPoly.one())
        assert parse("M*L + t^3").apply(one, range(4, 4)) == []
        assert QTElem.zero().apply(one, range(2, 1)) == []


def test_mixed_strides_in_one_call():
    """Stride-4, stride-6 and single-term values, with interior zeros, read
    by one operator: two gaps and a value that fits either."""
    table = {
        0: TPoly({0: 1, 4: -2, 12: 3}),
        1: TPoly({1: 5, 7: -1, 19: 2}),
        2: TPoly({5: 7}),
    }
    f = DiscreteSeq("mixed", lambda n: table.get(n, TPoly.zero()))
    op = parse("t + 3*M*L - 2*t^3*L^2 + M^-1*L^2 + (t^2 - 1)*L")
    for n in range(-3, 4):
        dense = op.apply(f, n)
        assert dense == sparse_apply(op, f, n), n
    assert not op.apply(f, 0).is_zero()
    assert op.apply(f, range(-3, 4)) == [sparse_apply(op, f, n) for n in range(-3, 4)]


# --- property test over random sparse sequences and parsed operators --------

SMALL = st.integers(-4, 4)
# near 2^62 and past 2^63: these cases take the object-dtype accumulator
WIDE = st.one_of(
    SMALL,
    st.sampled_from([2**62 - 1, 2**62, -(2**62), 2**63 - 1, -(2**63), 2**63, -(2**64) - 3]),
    st.integers(-(2**70), 2**70),
)


@st.composite
def exponent_sets(draw):
    """Exponents on a residue class mod a stride, or of mixed parity."""
    if draw(st.booleans()):
        stride = draw(st.sampled_from([1, 2, 4, 6]))
        offset = draw(st.integers(-7, 7))
        steps = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=8, unique=True))
        return [offset + stride * s for s in steps]
    return draw(st.lists(st.integers(-40, 40), min_size=1, max_size=8, unique=True))


@st.composite
def sequences(draw, coeffs):
    """A sequence that is zero outside a small table of colors."""
    table = {}
    for n in draw(st.lists(st.integers(-6, 6), max_size=9, unique=True)):
        exps = draw(exponent_sets())
        # a table color may hold zero
        table[n] = TPoly({e: draw(coeffs) for e in exps}) if draw(st.integers(0, 5)) else TPoly.zero()
    return DiscreteSeq("table", lambda n: table.get(n, TPoly.zero()))


@st.composite
def operator_texts(draw, coeffs):
    """Operator text whose factors come in a random written order, so the
    parser's commutation rule produces odd t-powers and mixed signs."""
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        factors = [
            f"t^{draw(st.integers(-9, 9))}",
            f"M^{draw(st.integers(-3, 3))}",
            f"L^{draw(st.integers(-3, 3))}",
        ]
        factors = draw(st.permutations(factors))
        coeff = draw(coeffs)
        sign = "-" if coeff < 0 else "+"
        terms.append(f"{sign} {abs(coeff)}*{'*'.join(factors)}")
    return " ".join(terms).removeprefix("+ ")


@st.composite
def cases(draw):
    """Operator text, sequence, one color, a color range in -6..6 (maybe
    empty) and a chunk limit: the default one, or small ones that split the
    range into chunks of colors and the scatter into blocks of marks."""
    coeffs = draw(st.sampled_from([SMALL, WIDE]))
    lo = draw(st.integers(-6, 6))
    colors = range(lo, draw(st.integers(lo - 1, 6)) + 1)
    limit = draw(st.sampled_from([qtorus._CHUNK_LIMIT, 1, 24]))
    return draw(operator_texts(coeffs)), draw(sequences(coeffs)), draw(st.integers(-4, 4)), colors, limit


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=cases())
def test_dense_apply_matches_sparse(case):
    text, f, n, colors, limit = case
    op = parse(text)
    with mock.patch.object(qtorus, "_CHUNK_LIMIT", limit):
        assert op.apply(f, n) == sparse_apply(op, f, n)
        assert op.apply(f, colors) == [sparse_apply(op, f, m) for m in colors]


# --- the TPoly adapter against the array-and-diff layout ---------------------


def array_and_diff_layout(v: TPoly):
    """v in the run-mark layout by way of its coefficient array: the array on
    v's lattice, its first difference with a closing zero, and marks as
    Python ints when 2 * max |coefficient| reaches 2^62. The oracle of
    ``_dense``, which builds no such array."""
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
    wide = arr.astype(object) if 2 * vmax >= 2**62 else arr
    diff = np.diff(wide, prepend=0, append=0)
    pos = np.flatnonzero(diff)
    return lo, stride, len(arr), vmax, pos, diff[pos]


@st.composite
def tpolys(draw):
    """Zero, single terms and values on a lattice or of mixed parity, with
    coefficients near 2^62 and past 2^63."""
    if not draw(st.integers(0, 9)):
        return TPoly.zero()
    return TPoly({e: draw(WIDE) for e in draw(exponent_sets())})


@settings(max_examples=500, deadline=None, derandomize=True)
@given(v=tpolys())
def test_dense_matches_the_array_and_diff_layout(v):
    got, expected = _dense(v), array_and_diff_layout(v)
    if expected is None:
        assert got is None
        return
    assert got[:4] == expected[:4]
    for x, y in zip(got[4:], expected[4:], strict=True):
        assert x.dtype == y.dtype and x.tolist() == y.tolist()


def test_a_tpoly_value_needs_no_coefficient_array():
    """h(10^4) of (3,4) has 4 terms on a lattice of 130,001 points, 1 MB as
    int64; its layout peaks far below that array."""
    v = h_seq(TorusKnot(3, 4), 10**4)
    _dense(v)
    tracemalloc.start()
    try:
        _dense(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 1024


# --- the sweeps: one apply per range, the witness of a per-color loop --------


def per_color_report(identity: str, K: TorusKnot, colors: range, residual) -> VerifyReport:
    """The report of a sweep that computes residual(n) color by color."""
    for n in colors:
        value = residual(n)
        if not value.is_zero():
            return VerifyReport(identity, K.a, K.b, colors[0], colors[-1], "fail", n, str(value))
    return VerifyReport(identity, K.a, K.b, colors[0], colors[-1], "pass")


def off_at(fn, color: int):
    """fn, off by t^7 at one color; fn(n) or fn(K, n)."""
    return lambda *args: fn(*args) + TPoly({7: 1}) if args[-1] == color else fn(*args)


def at_position(colors: range, where: str) -> int:
    return {"first": colors[0], "middle": colors[len(colors) // 2], "last": colors[-1]}[where]


ANNIHILATORS = [
    ("F", TorusKnot(3, 4), (1, 20)),
    ("PQ", TorusKnot(5, 7), (4, 20)),
    ("G", TorusKnot(2, 7), (1, 20)),
    ("R", TorusKnot(2, 7), (3, 20)),
]


@pytest.mark.parametrize("where", ["operator", "first", "middle", "last"])
@pytest.mark.parametrize("name,K,n_range", ANNIHILATORS, ids=lambda v: str(v) if isinstance(v, TorusKnot) else None)
def test_annihilator_witness_matches_per_color_loop(name, K, n_range, where, jcache):
    """A perturbed operator fails at the first color; J off at color w + (top
    L-degree of the operator) first fails at w."""
    op = build_named(name, K)
    colors = range(n_range[0], n_range[1] + 1)
    f = jcache(K)
    if where == "operator":
        op = NamedOperator(name, K.a, K.b, op.element + parse("t^3*M*L"))
        witness = colors[0]
    else:
        witness = at_position(colors, where)
        top = max(l for _k, l in op.element.terms)
        f = DiscreteSeq("J off at one color", off_at(f, witness + top))
    expected = per_color_report(name, K, colors, lambda n: sparse_apply(op.element, f, n))
    assert expected.witness_n == witness
    assert verify_annihilation(op, f, n_range) == expected


@pytest.mark.parametrize(
    "name,K,n_range,limit",
    [("PQ", TorusKnot(5, 7), (4, 20), None), ("G", TorusKnot(2, 7), (-6, 30), 1500)],
)
def test_witness_inside_a_later_chunk(name, K, n_range, limit, monkeypatch, jcache):
    """The range is split into chunks of colors (at the default limit, or
    at a lower one that puts several colors in a chunk), and J is off so
    that the first failing color lies inside a later chunk."""
    if limit is not None:
        monkeypatch.setattr(qtorus, "_CHUNK_LIMIT", limit)
    seen = []
    chunks = qtorus._chunks
    monkeypatch.setattr(qtorus, "_chunks", lambda cells: seen.append(list(chunks(cells))) or iter(seen[-1]))
    op = build_named(name, K)
    colors = range(n_range[0], n_range[1] + 1)
    assert verify_annihilation(op, jcache(K), n_range).passed
    (layout,) = seen
    assert len(layout) > 2
    start, stop = max(layout[1:], key=lambda chunk: chunk[1] - chunk[0])
    witness = colors[(start + stop) // 2]
    top = max(l for _k, l in op.element.terms)
    f = DiscreteSeq("J off at one color", off_at(jcache(K), witness + top))
    expected = per_color_report(name, K, colors, lambda n: sparse_apply(op.element, f, n))
    assert expected.witness_n == witness
    assert verify_annihilation(op, f, n_range) == expected


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_recurrence_witness_matches_per_color_loop(where, monkeypatch, jcache):
    K, n_range = TorusKnot(3, 4), (-5, 24)
    colors = range(n_range[0], n_range[1] + 1)
    witness = at_position(colors, where)
    monkeypatch.setattr(operators, "g_seq", off_at(g_seq, witness + 1))
    D = recurrence_operator(K)
    J = jcache(K)
    expected = per_color_report("recurrence3", K, colors, lambda n: sparse_apply(D, J, n) - operators.g_seq(K, n + 1))
    assert expected.witness_n == witness
    assert verify_recurrence(K, J, n_range) == expected


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_lemma_Q_witness_matches_per_color_loop(where, monkeypatch, jcache):
    K, n_range = TorusKnot(3, 5), (-4, 16)
    colors = range(n_range[0], n_range[1] + 1)
    witness = at_position(colors, where)
    monkeypatch.setattr(operators, "h_seq", off_at(h_seq, witness))
    Q = operators.build_Q(K.a, K.b)
    cleared = TPoly({2: 1, -2: -1}) * Q.element
    factor = (operators.lambda_poly(K.a + K.b) - operators.lambda_poly(K.a - K.b)).shift(2 * K.a * K.b - 2)
    J = jcache(K)
    expected = per_color_report("lemmaQ", K, colors, lambda n: sparse_apply(cleared, J, n) - factor * operators.h_seq(K, n))
    assert expected.witness_n == witness
    assert verify_lemma_Q(Q, J, n_range) == expected


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_lemma_P_witness_matches_per_color_loop(where, monkeypatch):
    K, n_range = TorusKnot(3, 4), (-5, 15)
    colors = range(n_range[0], n_range[1] + 1)
    witness = at_position(colors, where)
    P = operators.build_P(K.a, K.b)
    top = max(l for _k, l in P.element.terms)
    monkeypatch.setattr(jones, "h_seq", off_at(h_seq, witness + top))
    h = h_sequence(K)
    expected = per_color_report("lemmaP", K, colors, lambda n: sparse_apply(P.element, h, n))
    assert expected.witness_n == witness
    assert verify_lemma_P(P, n_range) == expected


def test_range_needs_about_the_memory_of_its_largest_color():
    """With J filled, one call over the sweep's colors 4..60 peaks at most at
    twice the scratch memory of its largest color alone."""
    op = build_named("PQ", TorusKnot(5, 7)).element
    J = jones_sequence(TorusKnot(5, 7))
    op.apply(J, range(4, 61))  # fills J(-2..66)

    def peak(n) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            op.apply(J, n)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    assert peak(range(4, 61)) <= 2 * peak(60)


# --- chunks whose accumulator is zero after the scatter ---------------------


@pytest.fixture
def residue_sums(monkeypatch) -> list:
    """The axes of the per-residue-class cumulative sums that ``_act`` runs
    (its only ``np.cumsum`` calls with an axis), recorded while the test
    runs."""
    calls = []
    cumsum = np.cumsum

    def counting(x, *args, **kw):
        if "axis" in kw:
            calls.append(kw["axis"])
        return cumsum(x, *args, **kw)

    monkeypatch.setattr(np, "cumsum", counting)
    return calls


def test_cancelling_gaps_take_the_full_path(residue_sums):
    """1 + t^4, 1 + t^6 and 2 + t^4 + t^6 sit at gaps 2, 3 and 1 of the
    output lattice t^2. Each gap's accumulator is nonzero after the
    scatter, so the chunk takes the cumulative sums, one per gap, and only
    their sum cancels to zero."""
    table = {0: TPoly({0: 1, 4: 1}), 1: TPoly({0: 1, 6: 1}), 2: TPoly({0: 2, 4: 1, 6: 1})}
    f = DiscreteSeq("cancelling", lambda n: table.get(n, TPoly.zero()))
    op = parse("1 + L - L^2")
    assert op.apply(f, range(0, 1)) == [TPoly.zero()]
    assert len(residue_sums) == 3
    assert sparse_apply(op, f, 0).is_zero()


def test_a_zero_chunk_skips_the_cumulative_sums(monkeypatch, residue_sums, jcache):
    """PQ annihilates J: with colors 4..20 in one chunk, the accumulator is
    all zero after the scatter, and the chunk returns zeros at once."""
    monkeypatch.setattr(qtorus, "_CHUNK_LIMIT", 1 << 30)
    op = build_named("PQ", TorusKnot(5, 7)).element
    assert op.apply(jcache(TorusKnot(5, 7)), range(4, 21)) == [TPoly.zero()] * 17
    assert residue_sums == []


@pytest.mark.parametrize("where", ["first", "last"])
def test_one_nonzero_color_in_a_chunk(where, monkeypatch, residue_sums, jcache):
    """J off at a color that only the first (or the last) of colors 4..20
    reads, with all of them in one chunk: the chunk takes the full path,
    that color gets its residual, every other color zero, and the sweep
    reports it as its witness."""
    monkeypatch.setattr(qtorus, "_CHUNK_LIMIT", 1 << 30)
    K, colors = TorusKnot(5, 7), range(4, 21)
    op = build_named("PQ", K)
    lvals = [l for _k, l in op.element.terms]
    witness = at_position(colors, where)
    f = DiscreteSeq("J off at one color", off_at(jcache(K), witness + (min(lvals) if where == "first" else max(lvals))))
    values = op.element.apply(f, colors)
    assert residue_sums
    assert [n for n, v in zip(colors, values) if not v.is_zero()] == [witness]
    assert values[witness - colors[0]] == sparse_apply(op.element, f, witness)
    expected = per_color_report("PQ", K, colors, lambda n: sparse_apply(op.element, f, n))
    assert expected.witness_n == witness
    assert verify_annihilation(op, f, (colors[0], colors[-1])) == expected


def test_a_fill_needs_no_coefficient_array():
    """J(60) of (5,7) has 30,810 coefficients, 246 KB as int64; its marks
    take about 2 KB, and the fill peaks far below the array."""
    K = TorusKnot(5, 7)
    jones.colored_jones_dense(K, 60)
    tracemalloc.start()
    try:
        jones.colored_jones_dense(K, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 1024
