"""The cyclotomic sum for J(n), term by term: the oracle of the run-mark fill
``jones.colored_jones_dense`` that ``jones_sequence`` and ``colored_jones``
read.

    J(n) = t^{-ab(n^2-1)} * sum over m in {-(n-1), -(n-3), ..., n-1}
           of t^{ab m^2 + 2bm} [am+1],

m = 2j on the doubled grid, extended to all of Z by J(-n) = -J(n). Each
bracket is expanded by ``laurent.quantum_integer`` and summed into one dict,
so nothing here shares the fill's runs, marks or closed forms of the span.
"""

from torusjones.jones import TorusKnot
from torusjones.laurent import TPoly, quantum_integer


def colored_jones_sum(K: TorusKnot, n: int) -> TPoly:
    """The colored Jones polynomial J(n) of K, for any integer color n."""
    if n == 0:
        return TPoly.zero()
    if n < 0:
        return -colored_jones_sum(K, -n)
    a, b = K.a, K.b
    acc: dict = {}
    for m in range(-(n - 1), n, 2):  # m = 2j
        base = a * b * m * m + 2 * b * m
        bracket = quantum_integer(a * m + 1)
        for e, c in bracket.terms.items():
            key = base + e
            v = acc.get(key, 0) + c
            if v:
                acc[key] = v
            else:
                del acc[key]
    shift = -a * b * (n * n - 1)
    return TPoly._wrap({e + shift: c for e, c in acc.items()})
