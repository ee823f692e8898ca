"""Outside-in tracing of the package's layers, for the traced run only.

Each wrapper is patched where the caller looks the name up: class attributes
such as ``TPoly.__mul__`` and ``ModularRREF.process_block``, and module
attributes such as ``torusjones.jones.colored_jones`` in every module that
imported the name. A wrapper records a span (name, start, end, parent, run
id) and counts at that boundary. Spans stay in memory until the run ends.
A span's self time is its duration minus the time its child spans cover.

The layers are the package modules; ``PER_LAYER`` maps the counts and self
times to the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Spans and counts of one traced process; ``run_id`` numbers the pass."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, run id)
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.run_id = 0
        self.paused = False
        self._stack: list = []  # [span index, seconds covered by children]

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside are not traced (the benchmark's own checks)."""
        prev, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = prev

    def begin_pass(self, run_id: int) -> None:
        self.run_id = run_id
        self.counts.clear()
        self.self_s.clear()

    def wrap(self, name: str, fn, count=None):
        """A traced stand-in for fn; count(counts, result, *args, **kwargs) adds
        counts, so its parameters carry fn's names."""
        spans, stack, counts, self_s = self.spans, self._stack, self.counts, self.self_s
        clock = time.perf_counter
        calls = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = (name, start, end, parent, self.run_id)
                self_s[name] += end - start - frame[1]
                counts[calls] += 1
            if count is not None and result is not NotImplemented:
                count(counts, result, *args, **kwargs)
            return result

        return traced


def _term_pairs(counts, result, poly, other):
    counts["laurent.tpoly_mul.term_pairs"] += len(poly.terms) * (len(other.terms) if hasattr(other, "terms") else 1)


def _apply_terms(counts, result, op, f, n):
    counts["qtorus.apply.terms"] += len(op.terms)


def _terms_out(counts, result, K, n):
    counts["jones.colored_jones.terms_out"] += len(result.terms)


def _kernel(counts, result, query):
    counts["operators.kernel.unknowns"] += result.unknowns
    counts["operators.kernel.constraint_rows"] += result.constraint_rows
    counts["operators.kernel.rank"] += result.rank


def _add_row(counts, result, elim, row):
    counts["nullspace.add_row.pivots"] += bool(result)


def _modular_rref(counts, result, mr, ncols, p):
    counts["nullspace.modular_rref.alloc_bytes"] += ncols * ncols * 8


def _process_block(counts, result, mr, B):
    counts["nullspace.process_block.rows_in"] += len(B)
    counts["nullspace.process_block.cells_in"] += len(B) * mr.ncols
    counts["nullspace.process_block.pivots_new"] += result


def _reconstruct(counts, result, vec, p):
    counts["nullspace.reconstruct.failures"] += result is None


VERIFY_NAMES = (
    "verify_annihilation",
    "verify_lemma_P",
    "verify_lemma_Q",
    "verify_pq_consistency",
    "verify_recurrence",
    "verify_sigma_fixed",
)
AUX_NAMES = ("g_seq", "h_seq")
BUILD_NAMES = ("build_F", "build_G", "build_P", "build_PQ", "build_Q", "build_R", "build_named")
CHECK_NAMES = ("check_a_prime_sigma", "check_epsilon_factorization", "check_p_membership_powers")


def _sites():
    """(owner, attribute, span name, count hook) for every traced call site:
    each module that imported a name gets its own wrapper."""
    from torusjones import classical, cli, jones, laurent, nullspace, operators, qtorus

    sites = [
        (laurent.TPoly, "__mul__", "laurent.tpoly_mul", _term_pairs),
        (laurent.TPoly, "__rmul__", "laurent.tpoly_mul", _term_pairs),
        (laurent.TPoly, "__add__", "laurent.tpoly_add", None),
        (laurent.TPoly, "__radd__", "laurent.tpoly_add", None),
        (laurent.MLPoly, "__mul__", "laurent.mlpoly_mul", None),
        (laurent.MLPoly, "__rmul__", "laurent.mlpoly_mul", None),
        (qtorus.QTElem, "apply", "qtorus.apply", _apply_terms),
        (qtorus.QTElem, "__mul__", "qtorus.qtelem_mul", None),
        (qtorus.DiscreteSeq, "__call__", "qtorus.seq", None),
        (nullspace.ExactEliminator, "add_row", "nullspace.add_row", _add_row),
        (nullspace.ExactEliminator, "nullspace", "nullspace.exact_nullspace", None),
        (nullspace.ModularRREF, "__init__", "nullspace.modular_rref", _modular_rref),
        (nullspace.ModularRREF, "process_block", "nullspace.process_block", _process_block),
        (nullspace.ModularRREF, "nullspace_mod_p", "nullspace.nullspace_mod_p", None),
        (operators, "reconstruct_vector", "nullspace.reconstruct", _reconstruct),
        (cli, "main", "cli.main", None),
        (cli, "run_check", "cli.run_check", None),
        (jones, "colored_jones", "jones.colored_jones", _terms_out),
        (cli, "colored_jones", "jones.colored_jones", _terms_out),
        (cli, "build_named", "operators.build", None),
    ]
    sites += [(module, name, "jones.aux", None) for module in (jones, operators) for name in AUX_NAMES]
    sites += [(operators, name, "operators.verify", None) for name in VERIFY_NAMES]
    sites += [(cli, name, "operators.verify", None) for name in VERIFY_NAMES if name != "verify_pq_consistency"]
    sites += [(module, "minimality_kernel", "operators.kernel", _kernel) for module in (operators, cli)]
    sites += [(operators, name, "operators.build", None) for name in BUILD_NAMES]
    sites += [(classical, name, "operators.build", None) for name in ("build_PQ", "build_R")]
    sites += [(classical, name, "classical.check", None) for name in CHECK_NAMES]
    return sites


def install(tracer: Tracer) -> None:
    """Patch every call site that exists; name the missing ones on stderr."""
    missing = []
    for owner, attr, name, count in _sites():
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{owner.__name__}.{attr}")
            continue
        traced = tracer.wrap(name, fn, count)
        if attr == "__call__":
            traced = _count_misses(tracer, traced)
        setattr(owner, attr, traced)
    if missing:
        print(f"perfbench: not traced (absent): {', '.join(missing)}", file=sys.stderr)


def _count_misses(tracer: Tracer, traced_call):
    """A miss is a lookup the DiscreteSeq cache cannot answer."""
    counts = tracer.counts

    @functools.wraps(traced_call)
    def lookup(seq, n):
        cache = getattr(seq, "_cache", None)
        if not tracer.paused and cache is not None and n not in cache:
            counts["qtorus.seq.misses"] += 1
        return traced_call(seq, n)

    return lookup


def _count(key):
    return lambda c, s: c[key]


def _self(name):
    return lambda c, s: s[name]


def _ratio(num, den):
    return lambda c, s: c[num] / c[den] if c[den] else 0.0


#: (metric, unit, value from (counts, self seconds)) of one traced pass.
PER_LAYER = [
    ("laurent.tpoly_mul.calls", "count", _count("laurent.tpoly_mul.calls")),
    ("laurent.tpoly_mul.term_pairs", "count", _count("laurent.tpoly_mul.term_pairs")),
    ("laurent.tpoly_mul.self_s", "s", _self("laurent.tpoly_mul")),
    ("laurent.tpoly_add.calls", "count", _count("laurent.tpoly_add.calls")),
    ("laurent.tpoly_add.self_s", "s", _self("laurent.tpoly_add")),
    ("laurent.mlpoly_mul.calls", "count", _count("laurent.mlpoly_mul.calls")),
    ("laurent.mlpoly_mul.self_s", "s", _self("laurent.mlpoly_mul")),
    ("qtorus.apply.calls", "count", _count("qtorus.apply.calls")),
    ("qtorus.apply.terms", "count", _count("qtorus.apply.terms")),
    ("qtorus.apply.self_s", "s", _self("qtorus.apply")),
    ("qtorus.seq.lookups", "count", _count("qtorus.seq.calls")),
    ("qtorus.seq.misses", "count", _count("qtorus.seq.misses")),
    (
        "qtorus.seq.hit_ratio",
        "ratio",
        lambda c, s: 1 - c["qtorus.seq.misses"] / c["qtorus.seq.calls"] if c["qtorus.seq.calls"] else 0.0,
    ),
    ("qtorus.qtelem_mul.calls", "count", _count("qtorus.qtelem_mul.calls")),
    ("qtorus.qtelem_mul.self_s", "s", _self("qtorus.qtelem_mul")),
    ("jones.colored_jones.calls", "count", _count("jones.colored_jones.calls")),
    ("jones.colored_jones.terms_out", "count", _count("jones.colored_jones.terms_out")),
    ("jones.colored_jones.self_s", "s", _self("jones.colored_jones")),
    ("jones.aux.calls", "count", _count("jones.aux.calls")),
    ("jones.aux.self_s", "s", _self("jones.aux")),
    ("operators.verify.calls", "count", _count("operators.verify.calls")),
    ("operators.verify.self_s", "s", _self("operators.verify")),
    ("operators.build.calls", "count", _count("operators.build.calls")),
    ("operators.build.self_s", "s", _self("operators.build")),
    ("operators.kernel.calls", "count", _count("operators.kernel.calls")),
    ("operators.kernel.self_s", "s", _self("operators.kernel")),
    ("operators.kernel.unknowns", "count", _count("operators.kernel.unknowns")),
    ("operators.kernel.constraint_rows", "count", _count("operators.kernel.constraint_rows")),
    ("operators.kernel.rank", "count", _count("operators.kernel.rank")),
    ("nullspace.add_row.calls", "count", _count("nullspace.add_row.calls")),
    ("nullspace.add_row.pivots", "count", _count("nullspace.add_row.pivots")),
    ("nullspace.add_row.pivot_ratio", "ratio", _ratio("nullspace.add_row.pivots", "nullspace.add_row.calls")),
    ("nullspace.add_row.self_s", "s", _self("nullspace.add_row")),
    ("nullspace.exact_nullspace.self_s", "s", _self("nullspace.exact_nullspace")),
    ("nullspace.process_block.calls", "count", _count("nullspace.process_block.calls")),
    ("nullspace.process_block.rows_in", "count", _count("nullspace.process_block.rows_in")),
    ("nullspace.process_block.cells_in", "count", _count("nullspace.process_block.cells_in")),
    ("nullspace.process_block.pivots_new", "count", _count("nullspace.process_block.pivots_new")),
    (
        "nullspace.process_block.pivot_ratio",
        "ratio",
        _ratio("nullspace.process_block.pivots_new", "nullspace.process_block.rows_in"),
    ),
    ("nullspace.process_block.self_s", "s", _self("nullspace.process_block")),
    ("nullspace.modular_rref.instances", "count", _count("nullspace.modular_rref.calls")),
    (
        "nullspace.modular_rref.alloc_mb",
        "MB",
        lambda c, s: c["nullspace.modular_rref.alloc_bytes"] / 2**20,
    ),
    ("nullspace.nullspace_mod_p.self_s", "s", _self("nullspace.nullspace_mod_p")),
    ("nullspace.reconstruct.calls", "count", _count("nullspace.reconstruct.calls")),
    ("nullspace.reconstruct.failures", "count", _count("nullspace.reconstruct.failures")),
    ("nullspace.reconstruct.self_s", "s", _self("nullspace.reconstruct")),
    ("classical.check.calls", "count", _count("classical.check.calls")),
    ("classical.check.self_s", "s", _self("classical.check")),
    ("cli.main.self_s", "s", _self("cli.main")),
    ("cli.run_check.calls", "count", _count("cli.run_check.calls")),
    ("cli.run_check.self_s", "s", _self("cli.run_check")),
    ("cli.stdout_bytes", "bytes", _count("cli.stdout_bytes")),
]


def layer_metrics(tracer: Tracer) -> dict:
    """metric -> [value, unit] for the pass just traced."""
    return {name: [value(tracer.counts, tracer.self_s), unit] for name, unit, value in PER_LAYER}
