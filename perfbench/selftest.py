"""Self-test of the benchmark: its checks catch wrong answers, its counts
are deterministic, and its metric names match BENCHMARK.json.

    python3 perfbench/selftest.py

1. A PQ(5,7) with one perturbed coefficient must fail the sweep check, and
   a perturbed G(3) must fail the certify check, each with a witness color;
   the unperturbed operators must pass the same checks.
2. For every workload, two traced runs with different seeds must report
   identical count metrics (calls, term pairs, rows, pivots,
   reconstructions, primes and cli.stdout_bytes).
3. The per-layer metrics a traced run prints are exactly those that
   BENCHMARK.json names.

Exits 0 when every check holds. It takes a few minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from torusjones.laurent import TPoly  # noqa: E402
from torusjones.operators import NamedOperator, build_G, build_PQ  # noqa: E402
from torusjones.qtorus import QTElem  # noqa: E402

SEEDS = (11, 12)


def perturb(op: NamedOperator) -> NamedOperator:
    """op with its first normal-form coefficient changed by one t-monomial."""
    terms = dict(op.element.terms)
    key = min(terms)
    terms[key] = terms[key] + TPoly.t_pow(min(terms[key].terms))
    return NamedOperator(op.name + "'", op.a, op.b, QTElem(terms))


def with_witness(failures: list) -> bool:
    return bool(failures) and all("witness n=" in f for f in failures)


def check_perturbed() -> list:
    problems = []
    colors = range(4, 12)
    good = workloads.Sweep(0, build_PQ(5, 7), colors).run_pass()
    bad = workloads.Sweep(0, perturb(build_PQ(5, 7)), colors).run_pass()
    print(f"sweep, PQ(5,7) at n=4..11: {len(good.failures)} failed of {good.ops}")
    print(f"sweep, perturbed PQ(5,7): {len(bad.failures)} failed of {bad.ops}: {bad.failures[:2]}")
    if good.failures or not with_witness(bad.failures):
        problems.append("sweep check does not separate PQ(5,7) from its perturbation")

    g3_case = next(c for c in workloads.certify_cases() if c.witness is not None and c.query.knot.b == 3)
    bad_case = workloads.CertifyCase(g3_case.label, g3_case.query, perturb(build_G(3)))
    good = workloads.Certify(0, [g3_case]).run_pass()
    bad = workloads.Certify(0, [bad_case]).run_pass()
    print(f"certify, {g3_case.label} with G(3): {len(good.failures)} failed of {good.ops}")
    print(f"certify, with perturbed G(3): {len(bad.failures)} failed of {bad.ops}: {bad.failures}")
    if good.failures or not with_witness(bad.failures):
        problems.append("certify check does not separate G(3) from its perturbation")
    return problems


def traced_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_determinism() -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    problems = []
    for workload in workloads.WORKLOADS:
        runs = [traced_run(workload, seed) for seed in SEEDS]
        if list(runs[0]["metrics"]) != declared:
            problems.append(f"{workload}: traced metrics differ from BENCHMARK.json per_layer")
        counts = [
            {k: m["value"] for k, m in r["metrics"].items() if m["unit"] in ("count", "bytes", "MB")}
            for r in runs
        ]
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        ok = all(r["correct"] for r in runs) and not differ
        print(f"{workload}: seeds {SEEDS}: {len(counts[0])} count metrics, "
              f"{'identical' if ok else 'DIFFERENT: ' + ', '.join(differ)}")
        if not ok:
            problems.append(f"{workload}: traced runs disagree or failed")
    return problems


def main() -> int:
    problems = check_perturbed() + check_determinism()
    for p in problems:
        print(f"selftest FAIL: {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
