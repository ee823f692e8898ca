"""Run one benchmark workload and print its metrics; the last stdout line is JSON.

    python3 perfbench/run.py --workload {sweep,suite,certify} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout. Every workload is a closed loop: one
caller in one fresh worker process, which runs passes back to back. The
seed only permutes the order of work, never the set of work.

--trace 0 prints the end-to-end metrics: wall_s (median time of a pass
inside the package's calls), setup_s (median time from process start to
the first timed call, over several set-ups) and peak_rss_mb (peak resident
memory of the timed process).

--trace 1 prints the per-layer metrics of a traced worker, which runs two
passes that must agree on every count, and trace.overhead_ratio against
an untraced worker.

Failed operations (wrong verdicts or exceptions) are reported by the
"attempted" and "failed" fields; each is listed on a FAIL line. The
process exits 0 with a result, or non-zero without one when the benchmark
itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
#: set-up-only processes per untraced run; their set-up times and the timed
#: worker's give the setup_s median
SETUP_PROBES = 10
#: seconds all worker processes of one run may take together
TIME_LIMIT = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(args, deadline: float, *extra: str) -> dict:
    """Start one worker, wait for it, and return its JSON with setup_s added."""
    cmd = [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *extra,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - spawned)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(extra)} ran past the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(extra)} exited with {proc.returncode}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - spawned
    return out


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_medians(passes: list, problems: list) -> dict:
    """Per-layer metrics of the traced passes: the median of each time, and
    each count, which every pass must repeat exactly (fresh state)."""
    out = {}
    for name, (value, unit) in passes[0]["layers"].items():
        values = [p["layers"][name][0] for p in passes]
        if unit == "s":
            value = statistics.median(values)
        elif len(set(values)) > 1:
            problems.append(f"fresh state: {name} differs between passes: {values}")
        out[name] = metric(value, unit)
    return out


def measure(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT
    env = {"git_sha": git_sha(), "nproc": os.cpu_count(), "load_before": os.getloadavg()}
    setups = []
    if not args.trace:
        setups = [run_worker(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    timed = run_worker(args, deadline, "--trace", "0")
    setups.append(timed["setup_s"])
    traced = run_worker(args, deadline, "--trace", "1") if args.trace else None
    env["load_after"] = os.getloadavg()
    env.update(timed["env"])

    passes = timed["passes"] + (traced["passes"] if traced else [])
    walls = [p["wall_s"] for p in timed["passes"]]
    problems: list = []
    if traced:
        metrics = layer_medians(traced["passes"], problems)
        traced_wall = statistics.median(p["wall_s"] for p in traced["passes"])
        metrics["trace.overhead_ratio"] = metric(traced_wall / statistics.median(walls), "ratio")
        n = len(traced["passes"])
        how = {name: f"median of {n} traced passes" if m["unit"] == "s" else f"each of {n} traced passes"
               for name, m in metrics.items()}
        how["trace.overhead_ratio"] = f"traced over untraced median, {n} and {len(walls)} passes"
    else:
        metrics = {
            "wall_s": metric(statistics.median(walls), "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(timed["peak_rss_mb"], "MB"),
        }
        how = {
            "wall_s": f"median of {len(walls)} passes",
            "setup_s": f"median of {len(setups)} set-ups",
            "peak_rss_mb": "the timed process",
        }
    return {
        "env": env,
        "metrics": metrics,
        "how": how,
        "walls": walls,
        "setups": setups,
        "ops_per_pass": timed["passes"][0]["ops"],
        "attempted": sum(p["ops"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]],
        "problems": problems,
        "spans_file": traced["spans_file"] if traced else None,
    }


def report(args, res: dict) -> dict:
    """Print the human-readable lines and return the result object."""
    failed = len(res["failures"])
    attempted = res["attempted"]
    print("perfbench env " + json.dumps(res["env"], sort_keys=True))
    for line in res["failures"] + res["problems"]:
        print(f"perfbench FAIL {args.workload}: {line}")
    print(
        f"perfbench {args.workload}: fail_ratio {failed / attempted:.4g} "
        f"({failed} failed of {attempted} ops; {res['ops_per_pass']} ops per pass)"
    )
    for name, m in res["metrics"].items():
        print(f"perfbench {args.workload}: {name} = {m['value']:.6g} {m['unit']} ({res['how'][name]})")
    if res["spans_file"]:
        print(f"perfbench spans written to {res['spans_file']}")
    return {
        "correct": failed == 0 and not res["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": res["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "suite", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "torusjones", "__init__.py")):
        print(f"perfbench: {ROOT} holds no src/torusjones; run from a repository checkout", file=sys.stderr)
        return 2
    try:
        res = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = report(args, res)
    os.makedirs(OUT, exist_ok=True)
    record = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), **res, "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
