"""The benchmark workloads and the checks of their verdicts.

A workload builds its inputs once (its set-up) and then runs passes. Every
pass starts from fresh program state: no ``DiscreteSeq`` or colored Jones
value built by one pass is reachable from the next. Only calls into the
package are timed; the checks run between them, with tracing paused.

Each verdict is checked against an answer known from the mathematics, not
from the code under test. A wrong verdict or an exception is a failed
operation, recorded with its witness color where there is one; it never
stops the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from dataclasses import dataclass, field

from torusjones import cli, jones, operators
from torusjones.jones import TorusKnot
from torusjones.operators import KernelQuery, NamedOperator

HERE = os.path.dirname(os.path.abspath(__file__))

#: Colors past a query's n_range at which every returned basis element must
#: still annihilate J.
EXTRA_COLORS = 8


@dataclass
class PassResult:
    """What one pass measured and which of its operations failed."""

    wall_s: float = 0.0  # time spent inside the timed calls
    ops: int = 0
    failures: list = field(default_factory=list)  # one line per failed operation
    stdout_bytes: int = 0


def _timed(res: PassResult, fn, *args):
    """Call fn(*args), adding its duration to res.wall_s.

    Returns (value, None), or (None, exception) when the call raised.
    """
    start = time.perf_counter()
    try:
        return fn(*args), None
    except Exception as exc:  # the caller counts it as a failed operation
        return None, exc
    finally:
        res.wall_s += time.perf_counter() - start


def _first_nonzero(elem, seq, colors):
    """The first color n at which (elem seq)(n) is not zero, or None."""
    for n in colors:
        if not elem.apply(seq, n).is_zero():
            return n
    return None


class Sweep:
    """verify_annihilation(PQ(5,7), J, (n, n)) once per color n = 4..60.

    All colors of a pass share one J, as ``torusjones verify PQ -a 5 -b 7
    --n 4..60`` does. PQ annihilates J, so every residual must be zero.
    """

    knot = TorusKnot(5, 7)

    def __init__(self, seed: int, op: NamedOperator | None = None, colors=range(4, 61)):
        self.op = op if op is not None else operators.build_PQ(5, 7)
        self.colors = list(colors)
        random.Random(seed).shuffle(self.colors)

    def run_pass(self, checking=contextlib.nullcontext) -> PassResult:
        res = PassResult()
        seq = jones.jones_sequence(self.knot)
        for n in self.colors:
            res.ops += 1
            report, exc = _timed(res, operators.verify_annihilation, self.op, seq, (n, n))
            with checking():
                if exc is not None:
                    res.failures.append(f"n={n}: {type(exc).__name__}: {exc}")
                elif not report.passed:
                    res.failures.append(f"{self.op} residual is not zero at witness n={report.witness_n}")
        return res


class Suite:
    """``torusjones verify all --suite --json`` in process, stdout captured.

    Every line must pass, the lines must be exactly the hand-checked list in
    suite_expected.json, and the stdout bytes must hash to its golden digest.
    """

    def __init__(self, seed: int):
        with open(os.path.join(HERE, "suite_expected.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.argv = spec["argv"]
        self.golden = spec["stdout_sha256"]
        self.expected = [tuple(line) for line in spec["lines"]]

    def _main(self, buf: io.StringIO) -> int:
        with contextlib.redirect_stdout(buf):
            return cli.main(list(self.argv))

    def run_pass(self, checking=contextlib.nullcontext) -> PassResult:
        res = PassResult()
        buf = io.StringIO()
        rc, exc = _timed(res, self._main, buf)
        with checking():
            out = buf.getvalue()
            res.stdout_bytes = len(out.encode("utf-8"))
            self._check(res, out, rc, exc)
        return res

    def _check(self, res: PassResult, out: str, rc, exc) -> None:
        status: dict = {}
        extra = []
        for line in out.splitlines():
            try:
                rec = json.loads(line)
                key = (rec["identity"], rec["a"], rec["b"], rec["n_from"], rec["n_to"])
            except (ValueError, KeyError, TypeError):
                extra.append(f"unparsable line {line!r}")
                continue
            if key in status:
                extra.append(f"duplicate line {key}")
            elif key not in self.expected:
                extra.append(f"unexpected line {key}")
            else:
                status[key] = rec.get("status"), rec.get("witness_n")
        for key in self.expected:
            res.ops += 1
            got, witness = status.get(key, (None, None))
            if got is None:
                res.failures.append(f"{key}: missing")
            elif got != "pass":
                res.failures.append(f"{key}: {got} at witness n={witness}")
        res.ops += len(extra)
        res.failures.extend(extra)
        if res.failures:
            return
        # Faults that no single line shows count as one failed operation.
        if exc is not None:
            res.failures.append(f"cli.main raised {type(exc).__name__}: {exc}")
        elif rc != 0:
            res.failures.append(f"cli.main returned {rc}")
        elif hashlib.sha256(out.encode("utf-8")).hexdigest() != self.golden:
            res.failures.append("stdout differs from the golden digest")


@dataclass(frozen=True)
class CertifyCase:
    """One kernel query and its known answer: dimension 0, or a kernel that
    contains ``witness`` up to a unit."""

    label: str
    query: KernelQuery
    witness: NamedOperator | None = None


def certify_cases() -> list:
    k23, k27, k34 = TorusKnot(2, 3), TorusKnot(2, 7), TorusKnot(3, 4)
    g3, g7 = operators.build_G(3), operators.build_G(7)
    return [
        CertifyCase("(2,3) L1 exact", KernelQuery(k23, 1, 10, (-20, 2), (1, 12), method="exact")),
        CertifyCase("(2,3) L2 exact", KernelQuery(k23, 2, 10, (-20, 2), (1, 12), method="exact"), g3),
        CertifyCase("(2,7) L2 auto", KernelQuery(k27, 2, 18, (-44, 2), (1, 19)), g7),
        CertifyCase("(3,4) L2 auto", KernelQuery(k34, 2, 38, (-40, 16), (1, 12))),
    ]


def check_kernel(case: CertifyCase, result) -> str | None:
    """Why ``result`` is not the known answer to ``case``, or None if it is."""
    q = case.query
    unknowns = (q.t_window[1] - q.t_window[0] + 1) * (q.m_degree + 1) * (q.l_degree + 1)
    if result.unknowns != unknowns or result.rank + result.dimension != unknowns:
        return (
            f"unknowns {result.unknowns}, rank {result.rank}, dimension "
            f"{result.dimension}; expected {unknowns} unknowns = rank + dimension"
        )
    if case.witness is None:
        if result.dimension:
            return f"dimension {result.dimension}, expected 0"
        return None
    seq = jones.jones_sequence(q.knot)
    n_lo, n_hi = q.n_range
    beyond = range(n_hi + 1, n_hi + 1 + EXTRA_COLORS)
    if not any(operators.matches_up_to_unit(e, case.witness.element) for e in result.basis):
        why = f"none of the {result.dimension} basis elements matches {case.witness} up to a unit"
        n = _first_nonzero(case.witness.element, seq, range(n_lo, beyond.stop))
        return why if n is None else f"{why}; {case.witness} fails at witness n={n}"
    for i, elem in enumerate(result.basis):
        n = _first_nonzero(elem, seq, beyond)
        if n is not None:
            return f"basis[{i}] does not annihilate J at witness n={n}"
    return None


class Certify:
    """Four ``minimality_kernel`` queries with known answers."""

    def __init__(self, seed: int, cases: list | None = None):
        self.cases = certify_cases() if cases is None else list(cases)
        random.Random(seed).shuffle(self.cases)

    def run_pass(self, checking=contextlib.nullcontext) -> PassResult:
        res = PassResult()
        for case in self.cases:
            res.ops += 1
            result, exc = _timed(res, operators.minimality_kernel, case.query)
            with checking():
                why = f"{type(exc).__name__}: {exc}" if exc is not None else check_kernel(case, result)
                if why is not None:
                    res.failures.append(f"{case.label}: {why}")
        return res


WORKLOADS = {"sweep": Sweep, "suite": Suite, "certify": Certify}
