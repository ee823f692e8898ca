"""Command-line interface: computation, verification, reduction and kernel
search as reproducible batch commands with text or JSON-lines output.

``IDENTITY_TABLE`` is the one list of what ``verify`` can check: each record
names an identity, the knot family it applies to, the first color of its
default n-range (None for a static check with no n-range) and how to run it.
What concerns a named operator comes from ``operators.OPERATORS``: the
family of the annihilator rows, the operators the ``sigma`` and ``epsilon``
checks cover, and the choices, knot and printed display of ``reduce``.
``reduce`` with an ``-a`` outside the operator's family exits 2, as
``verify`` does.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 internal error (the traceback goes to stderr) or out of memory (one line
on stderr, no traceback), 141 the reader closed stdout before the output
ended (128 + SIGPIPE, as a shell reports it).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import traceback
from dataclasses import dataclass
from typing import Callable

from . import classical
from .jones import (
    PRINT_LIMIT,
    SUITE_KNOTS,
    BadParams,
    TorusKnot,
    color_length,
    colored_jones,
    jones_sequence,
    lowest_degree_formula,
)
from .operators import (
    OPERATORS,
    KernelQuery,
    WrongCase,
    build_named,
    in_family,
    minimality_kernel,
    verify_annihilation,
    verify_lemma_P,
    verify_lemma_Q,
    verify_recurrence,
    verify_sigma_fixed,
)

#: last color of every default n-range
DEFAULT_LAST_N = 20


@dataclass(frozen=True)
class Identity:
    """One identity ``verify`` can check.

    ``run(K, n_range, ops, jser)`` returns a list of VerifyReports; n_range
    is None for a static check. ``verify`` gives each knot K one colored
    Jones sequence ``jser`` and one build of each named operator, which
    ``ops(name)`` makes at its first call and returns after (PQ from K's P
    and Q), so every check of K reads the same J(n) and the same
    operators. Runners look
    their callees up when they run, so a wrapper patched over a module
    attribute sees every call.
    """

    name: str
    family: str  # "a=2", "a>2" or "any"
    first_n: int | None  # first color of the default n-range; None: static
    run: Callable

    @property
    def static(self) -> bool:
        return self.first_n is None

    def applies(self, K: TorusKnot) -> bool:
        return in_family(self.family, K)


def _annihilator(name: str, first_n: int) -> Identity:
    def run(K, n_range, ops, jser):
        return [verify_annihilation(ops(name), jser, n_range)]

    return Identity(name, OPERATORS[name].family, first_n, run)


def _epsilon_checks(K, n_range, ops, jser):
    return [
        classical.check_epsilon_factorization(ops(name))
        for name, facts in OPERATORS.items()
        if facts.displays is not None and in_family(facts.family, K)
    ]


def _sigma_checks(K, n_range, ops, jser):
    reports = [
        verify_sigma_fixed(ops(name))
        for name, facts in OPERATORS.items()
        if facts.sigma_fixed and in_family(facts.family, K)
    ]
    reports.append(classical.check_a_prime_sigma(K))
    return reports


# PQ reaches J(n-3) and R reaches J(n-2): their default n-ranges start at the
# first color where every value consumed has a positive color.
IDENTITY_TABLE = (
    Identity("recurrence3", "a>2", 1, lambda K, rng, _, J: [verify_recurrence(K, J, rng)]),
    Identity("recurrence2", "a=2", 1, lambda K, rng, _, J: [verify_recurrence(K, J, rng)]),
    _annihilator("F", 1),
    _annihilator("G", 1),
    _annihilator("PQ", 4),
    _annihilator("R", 3),
    Identity("lemmaQ", "a>2", 1, lambda K, rng, ops, J: [verify_lemma_Q(ops("Q"), J, rng)]),
    Identity("lemmaP", "a>2", 1, lambda K, rng, ops, _: [verify_lemma_P(ops("P"), rng)]),
    Identity("epsilon", "any", None, _epsilon_checks),
    Identity("sigma", "any", None, _sigma_checks),
    Identity(
        "p-membership", "any", None,
        lambda K, rng, ops, _: [classical.check_p_membership_powers(K, ops("R" if K.a == 2 else "PQ"))],
    ),
)
IDENTITIES = {entry.name: entry for entry in IDENTITY_TABLE}

_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


def parse_range(text: str) -> tuple:
    """Parse 'N' or 'LO..HI' into an inclusive pair."""
    text = text.strip()
    m = _RANGE_RE.match(text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            raise BadParams(f"empty range {text!r}")
        return lo, hi
    try:
        return int(text), int(text)
    except ValueError:
        raise BadParams(f"not a color or range LO..HI: {text!r}") from None


def run_check(identity: str, K: TorusKnot, n_range: tuple | None, ops: Callable, jser) -> list:
    """Run one named verification; returns a list of VerifyReports.
    ``ops`` and ``jser`` are K's shared ``Identity.run`` arguments."""
    entry = IDENTITIES.get(identity)
    if entry is None:
        raise BadParams(f"unknown identity {identity!r}")
    return entry.run(K, n_range, ops, jser)


def cmd_jones(args) -> int:
    K = TorusKnot(args.a, args.b)
    lo, hi = parse_range(args.n)
    # the largest |n| has the longest value: refused before any output
    color_length(K, max(abs(lo), abs(hi)), PRINT_LIMIT)
    status = 0
    for n in range(lo, hi + 1):
        poly = colored_jones(K, n)
        record = {"a": K.a, "b": K.b, "n": n, "poly": str(poly)}
        if args.check_degree and n >= 1:
            expected = lowest_degree_formula(K, n)
            actual = poly.lowest_degree()
            record["lowest_degree"] = actual
            record["degree_formula"] = expected
            if actual != expected:
                record["status"] = "fail"
                status = 1
        if args.json:
            record["terms"] = poly.to_json()
            print(json.dumps(record, sort_keys=True))
        else:
            line = str(poly) if (lo, hi) == (n, n) else f"J({n}) = {poly}"
            if "degree_formula" in record:
                line += f"   [lowest degree {record['lowest_degree']}, formula {record['degree_formula']}]"
            print(line)
    return status


def cmd_verify(args) -> int:
    if args.suite:
        if args.a is not None or args.b is not None:
            raise BadParams("give -a and -b, or --suite, not both")
        knots = list(SUITE_KNOTS)
    else:
        if args.a is None or args.b is None:
            raise BadParams("give -a and -b, or --suite")
        knots = [TorusKnot(args.a, args.b)]
    entries = IDENTITY_TABLE if args.identity == "all" else (IDENTITIES[args.identity],)
    n_range = parse_range(args.n) if args.n else None

    reports = []
    for K in knots:
        # K's checks share one J and one build of each operator; dropped after K
        jser, ops = jones_sequence(K), functools.cache(lambda name: build_named(name, K, ops))
        for entry in entries:
            if not entry.applies(K):
                if not args.suite and args.identity != "all":
                    raise WrongCase(f"identity {entry.name} does not apply to {K}")
                continue
            rng = None if entry.static else n_range or (entry.first_n, DEFAULT_LAST_N)
            reports += run_check(entry.name, K, rng, ops, jser)
    reports.sort(key=lambda r: (r.a, r.b, r.identity, r.n_from))
    failed = False
    for r in reports:
        if args.json:
            print(json.dumps(r.to_json(), sort_keys=True))
        else:
            rng = f" n={r.n_from}..{r.n_to}" if r.n_from != r.n_to or r.n_from else ""
            line = f"{r.identity} a={r.a} b={r.b}{rng}: {r.status}"
            if r.status == "fail" and r.witness_n is not None:
                line += f" (witness n={r.witness_n})"
            print(line)
        failed = failed or not r.passed
    return 1 if failed else 0


def cmd_reduce(args) -> int:
    name = args.operator
    a = args.a
    if a is None:
        if OPERATORS[name].family != "a=2":
            raise BadParams(f"operator {name} needs -a")
        a = 2
    op = build_named(name, TorusKnot(a, args.b))
    image = op.element.epsilon()
    printed = op.displays[0]
    report = classical.check_epsilon_factorization(op)
    if args.json:
        print(
            json.dumps(
                {
                    "operator": name,
                    "a": op.a,
                    "b": op.b,
                    "epsilon": str(image),
                    "terms": image.to_json(),
                    "factorization": printed,
                    "status": report.status,
                },
                sort_keys=True,
            )
        )
    else:
        print(f"epsilon({op}) = {image}")
        print(f"= {printed}")
        print(f"status: {report.status}")
    return 0 if report.passed else 1


def cmd_kernel(args) -> int:
    K = TorusKnot(args.a, args.b)
    query = KernelQuery(
        knot=K,
        l_degree=args.l_deg,
        m_degree=args.m_deg,
        t_window=parse_range(args.t_window),
        n_range=parse_range(args.n_range),
        method=args.method,
    )
    result = minimality_kernel(query)
    if args.json:
        print(
            json.dumps(
                {
                    "a": K.a,
                    "b": K.b,
                    "unknowns": result.unknowns,
                    "rank": result.rank,
                    "dimension": result.dimension,
                    "method": result.method,
                    "prime": result.prime,
                    "constraint_rows": result.constraint_rows,
                    "basis": [str(e) for e in result.basis],
                },
                sort_keys=True,
            )
        )
    else:
        print(f"unknowns: {result.unknowns}")
        print(f"rank: {result.rank}")
        print(f"dimension: {result.dimension}")
        for i, e in enumerate(result.basis):
            print(f"basis[{i}] = {e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusjones",
        description="Exact colored Jones polynomials of torus knots and their recurrence operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_jones = sub.add_parser("jones", help="print colored Jones polynomials")
    p_jones.add_argument("-a", type=int, required=True)
    p_jones.add_argument("-b", type=int, required=True)
    p_jones.add_argument("-n", "--n", dest="n", required=True, help="color N or range LO..HI")
    p_jones.add_argument("--check-degree", action="store_true", help="assert the lowest-degree formula")
    p_jones.add_argument("--json", action="store_true")
    p_jones.set_defaults(fn=cmd_jones)

    p_verify = sub.add_parser("verify", help="verify operator identities")
    p_verify.add_argument("identity", choices=(*IDENTITIES, "all"))
    p_verify.add_argument("-a", type=int)
    p_verify.add_argument("-b", type=int)
    p_verify.add_argument("--n", dest="n", help="range LO..HI (use --n=LO..HI for negatives)")
    p_verify.add_argument("--suite", action="store_true", help="run over the default knot set")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(fn=cmd_verify)

    p_reduce = sub.add_parser("reduce", help="print the t=-1 image and its factorization")
    p_reduce.add_argument(
        "operator", choices=[name for name, facts in OPERATORS.items() if facts.displays is not None]
    )
    p_reduce.add_argument("-a", type=int)
    p_reduce.add_argument("-b", type=int, required=True)
    p_reduce.add_argument("--json", action="store_true")
    p_reduce.set_defaults(fn=cmd_reduce)

    p_kernel = sub.add_parser("kernel", help="bounded annihilator search")
    p_kernel.add_argument("-a", type=int, required=True)
    p_kernel.add_argument("-b", type=int, required=True)
    p_kernel.add_argument("--L-deg", dest="l_deg", type=int, required=True)
    p_kernel.add_argument("--M-deg", dest="m_deg", type=int, required=True)
    p_kernel.add_argument("--t-window", required=True, help="LO..HI (use --t-window=LO..HI)")
    p_kernel.add_argument("--n-range", required=True, help="LO..HI")
    p_kernel.add_argument("--method", choices=("auto", "exact", "modular"), default="auto")
    p_kernel.add_argument("--json", action="store_true")
    p_kernel.set_defaults(fn=cmd_kernel)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # stdout's reader is gone: point stdout at devnull so that the flush
        # at interpreter exit stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except BadParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # no traceback, which could need the memory that ran out; the
        # message is a constant of the compiled code, so it allocates nothing
        sys.stderr.write("error: out of memory\n")
        return 3
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
