"""Differential tests: the dense ``QTElem.apply`` against the sparse loop
sum of (c * f(n+l)).shift(2kn) in exact TPoly arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusjones.jones import SUITE_KNOTS, h_sequence
from torusjones.laurent import TPoly
from torusjones.operators import build_named
from torusjones.qtorus import DiscreteSeq, QTElem, _dense, parse

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
        for n in COLORS:
            dense = op.apply(f, n)
            assert dense == sparse_apply(op, f, n), (name, str(K), f.name, n)
            nonzero += not dense.is_zero()
    assert nonzero >= len(COLORS)


class TestBoundRule:
    def test_overflowing_values_become_object_arrays(self):
        lo, stride, arr, vmax = _dense(TPoly({3: 2**63, 7: -1}))
        assert (lo, stride, vmax) == (3, 4, 2**63)
        assert arr.dtype == object and arr.tolist() == [2**63, -1]

    def test_int64_values_keep_int64(self):
        lo, stride, arr, vmax = _dense(TPoly({-4: -(2**63), 2: 5, 8: 1}))
        assert (lo, stride, vmax) == (-4, 6, 2**63)
        assert arr.dtype.name == "int64" and arr.tolist() == [-(2**63), 5, 1]

    @pytest.mark.parametrize(
        "op_text,value",
        [
            ("2", 2**62),  # the result 2^63 leaves int64
            ("L + 1", 2**62 - 1),  # bound 2^63 - 2 with an in-range result
            ("L - 1", 2**61 - 1),  # bound 2^62 - 2 keeps the int64 accumulator
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
        one = DiscreteSeq("one", lambda n: TPoly.one())
        assert QTElem.zero().apply(one, 5).is_zero()
        assert parse("L - 1").apply(one, 5).is_zero()


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
        table[n] = TPoly({e: draw(coeffs) for e in exps})
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
    coeffs = draw(st.sampled_from([SMALL, WIDE]))
    return draw(operator_texts(coeffs)), draw(sequences(coeffs)), draw(st.integers(-4, 4))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=cases())
def test_dense_apply_matches_sparse(case):
    text, f, n = case
    op = parse(text)
    assert op.apply(f, n) == sparse_apply(op, f, n)
