"""An independent colored Jones oracle: J(n) of the (a,b)-torus knot as the
quantum trace of the braid (sigma_1 ... sigma_{a-1})^b on V_n^{(x) a}.

It shares no formula with the package: no cyclotomic sum, no quantum-torus
code, not even the package's Laurent polynomials. A Laurent polynomial in t
is a dict exponent -> nonzero integer, and v = t^2 throughout.

Conventions, stated once:

* V_n has the basis e_0 .. e_{n-1}, with H e_i = w_i e_i for the weight
  w_i = n - 1 - 2i, E e_i = [n-i] e_{i-1} and F e_i = [i+1] e_{i+1}, where
  [k] = (v^k - v^-k) / (v - v^-1). Then EF - FE = [H].
* The braid generator acts on neighbouring factors by R-check = P R, with P
  the flip and R = v^{H(x)H/2} sum_k v^{k(k-1)/2} (v - v^-1)^k / [k]!
  E^k (x) F^k; v^{H(x)H/2} is t^{w w'} on e_i (x) e_j.
* J(n) = t^{-(a-1) b (n^2-1)} tr(K^{(x) a} beta) with K = v^H: the trace
  of the braid beta, weighted by v^{w} on each factor, and a framing factor
  t^{-(n^2-1)} per crossing. So the unknot's value is [n], and J(1) = 1.

The trefoil's J(2) tells these conventions from their mirror images, such
as the inverse R-matrix or a framing factor of the opposite sign; every
other value the tests compare is then a prediction.
``tests/test_oracle.py`` also checks the braid relation, and the unknot
as the closures of sigma_1 and sigma_1 sigma_2, which checks the framing.
The cost grows like n^a, so only small colors are practical.
"""

from __future__ import annotations

import functools


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e, c in p.items():
        for f, d in q.items():
            out[e + f] = out.get(e + f, 0) + c * d
    return {e: c for e, c in out.items() if c}


def _add_into(acc: dict, p: dict) -> None:
    for e, c in p.items():
        s = acc.get(e, 0) + c
        if s:
            acc[e] = s
        else:
            del acc[e]


def qint(k: int) -> dict:
    """[k] for k >= 0, in t: t^{2(k-1)} + t^{2(k-3)} + ... + t^{-2(k-1)}."""
    return {2 * (k - 1 - 2 * j): 1 for j in range(k)}


@functools.cache
def qbinomial(m: int, k: int) -> dict:
    """The symmetric Gaussian binomial [m choose k] = [m]! / ([k]! [m-k]!),
    by [m, k] = v^k [m-1, k] + v^-(m-k) [m-1, k-1]."""
    if k < 0 or k > m:
        return {}
    if k in (0, m):
        return {0: 1}
    out = {e + 2 * k: c for e, c in qbinomial(m - 1, k).items()}
    _add_into(out, {e - 2 * (m - k): c for e, c in qbinomial(m - 1, k - 1).items()})
    return out


@functools.cache
def rcheck(n: int) -> dict:
    """R-check on V_n (x) V_n: (i, j) -> list of ((i', j'), coefficient)
    with R-check(e_i (x) e_j) = sum coefficient e_i' (x) e_j'."""
    w = [n - 1 - 2 * i for i in range(n)]
    table = {}
    for i in range(n):
        for j in range(n):
            out = []
            for k in range(min(i, n - 1 - j) + 1):
                # E^k e_i = [n-i] ... [n-i+k-1] e_{i-k}, and F^k e_j / [k]!
                # = [j+k choose k] e_{j+k}
                c = {k * (k - 1): 1}  # v^{k(k-1)/2}
                for _ in range(k):
                    c = _mul(c, {2: 1, -2: -1})  # v - v^-1
                for s in range(k):
                    c = _mul(c, qint(n - i + s))
                c = _mul(c, qbinomial(j + k, k))
                c = {e + w[i - k] * w[j + k]: x for e, x in c.items()}  # v^{H(x)H/2}
                out.append(((j + k, i - k), c))  # then the flip
            table[i, j] = out
    return table


def apply_word(n: int, word, vector: dict) -> dict:
    """R-check at factor pairs (s, s+1), s in word in order, applied to a
    vector: basis tuple -> Laurent polynomial."""
    table = rcheck(n)
    for s in word:
        out: dict = {}
        for index, p in vector.items():
            for (i2, j2), c in table[index[s], index[s + 1]]:
                key = index[:s] + (i2, j2) + index[s + 2 :]
                acc = out.setdefault(key, {})
                _add_into(acc, _mul(p, c))
        vector = {key: p for key, p in out.items() if p}
    return vector


def colored_jones(a: int, b: int, n: int) -> dict:
    """J(n) of T(a, b) for n >= 1, as exponent -> coefficient."""
    word = list(range(a - 1)) * b
    total: dict = {}
    for flat in range(n**a):
        index = tuple(flat // n**s % n for s in range(a))
        diagonal = apply_word(n, word, {index: {0: 1}}).get(index)
        if diagonal:
            weight = 2 * sum(n - 1 - 2 * i for i in index)  # K = v^H
            _add_into(total, {e + weight: c for e, c in diagonal.items()})
    framing = -(a - 1) * b * (n * n - 1)
    return {e + framing: c for e, c in total.items()}
