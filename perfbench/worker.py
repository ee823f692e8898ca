"""One benchmark process: set up a workload, run its passes, print one JSON line.

    python3 perfbench/worker.py --workload sweep --seed 1 --seconds 20 --trace 0

``run.py`` starts this script and reads the last line of its stdout. With
``--setup-only`` the process stops once the inputs are built. Untraced, it
runs passes until ``--seconds`` have elapsed, at least one. Traced, it runs
exactly two passes and writes its spans under ``perfbench/out/``.
The package is imported from the checkout's ``src/`` and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
TRACED_PASSES = 2


def import_package() -> None:
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import torusjones

    if not os.path.abspath(torusjones.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: torusjones came from {torusjones.__file__}, not {src}")


def blas_threads(numpy) -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    for lib in glob.glob(os.path.dirname(numpy.__file__) + ".libs/*openblas*"):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads(numpy),
    }


def run(args) -> dict:
    import_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return {"ready": time.monotonic()}
    tracer = None
    checking = contextlib.nullcontext
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        checking = tracer.pause
    ready = time.monotonic()
    start = time.perf_counter()
    passes = []
    while True:
        if tracer is not None:
            tracer.begin_pass(len(passes))
        res = workload.run_pass(checking)
        record = {"wall_s": res.wall_s, "ops": res.ops, "failures": res.failures}
        if tracer is not None:
            tracer.counts["cli.stdout_bytes"] += res.stdout_bytes
            record["layers"] = tracing.layer_metrics(tracer)
        passes.append(record)
        if tracer is not None:
            if len(passes) == TRACED_PASSES:
                break
        elif time.perf_counter() - start >= args.seconds:
            break
    out = {
        "ready": ready,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(),
    }
    if tracer is not None:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        out["spans_file"] = os.path.relpath(path, ROOT)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "suite", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    out = run(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
