"""Mutation checks that stay: a registry of deliberate faults and the test
files that must catch each one.

A record names a file of the repository, a text that occurs exactly once in
it (``test_mutants.py`` keeps that true), the text the mutant puts in its
place, the test files that must fail on it, and the check it came from.
Run

    python tests/mutants.py [NAME ...]

to replay the named mutants, or all of them. Each one is applied to a fresh
temporary copy of ``src/`` and ``tests/`` (with ``perfbench/``, whose digest
the golden tests read, and ``pytest.ini``), and its test files run there
under ``pytest -x`` with the copy's ``src`` first on the path. A mutant is
caught when a test fails. The script prints one line per mutant and exits 1
unless every one was caught.

``IGNORED`` is the one warning the replay lets through: with
mypy_extensions installed, Hypothesis's report of a failing example raises
its DeprecationWarning, which ``filterwarnings = error`` turns into a
pytest internal error (exit 3) instead of a failure (exit 1).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: what a replay copies, relative to the repository root
COPIED = ("src", "tests", "perfbench", "pytest.ini")

#: seconds one mutant's tests may take before the replay gives up on it
TIMEOUT = 900

IGNORED = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    catchers: tuple  # test files under tests/, run together
    origin: str


MUTANTS = (
    Mutant(
        "fill-mirrored-exponent",
        "src/torusjones/jones.py",
        "a * b * m * m + 2 * b * m - 2 * (abs(k) - 1)",
        "a * b * m * m - 2 * b * m - 2 * (abs(k) - 1)",
        ("test_oracle.py", "test_jones.py"),
        "the R-matrix oracle: 2bm -> -2bm in the runs of colored_jones_dense",
    ),
    Mutant(
        "fill-framing",
        "src/torusjones/jones.py",
        "low - a * b * (n * n - 1)",
        "low - (a * b + 1) * (n * n - 1)",
        ("test_oracle.py", "test_jones.py"),
        "the R-matrix oracle: the framing shift ab -> ab + 1",
    ),
    Mutant(
        "fill-stride-2",
        "src/torusjones/jones.py",
        "4 if n > 1 else 0",
        "2 if n > 1 else 0",
        ("test_jones.py",),
        "the run-mark fill: stride 4 -> 2",
    ),
    Mutant(
        "color-length-every-seventh",
        "src/torusjones/jones.py",
        "length = (top - lowest_degree_formula(K, n)) // 4 + 1 if n else 0",
        "length = (top - lowest_degree_formula(K, n)) // 4 + 1 + (n % 7 == 0) if n else 0",
        ("test_jones.py",),
        "the closed-form length: off by one at every seventh color",
    ),
    Mutant(
        "negated-keeps-sign",
        "src/torusjones/qtorus.py",
        "return lo, stride, length, vmax, pos, -marks",
        "return lo, stride, length, vmax, pos, marks",
        ("test_jones.py", "test_golden.py"),
        "J(-n) from the cached J(n): _negated not negating",
    ),
    Mutant(
        "run-marks-int64-past-the-bound",
        "src/torusjones/qtorus.py",
        "dtype = object if 2 * vmax >= _INT64_SAFE else np.int64",
        "dtype = object if vmax >= 2 * _INT64_SAFE else np.int64",
        ("test_apply.py",),
        "the run-mark writer: int64 marks at 2^62 <= max |coefficient| < 2^63",
    ),
)


def _copy(tmp: str) -> None:
    for entry in COPIED:
        src, dst = os.path.join(ROOT, entry), os.path.join(tmp, entry)
        if os.path.isdir(src):
            shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", "out"))
        else:
            shutil.copy2(src, dst)


def _mutate(mutant: Mutant, tmp: str) -> None:
    path = os.path.join(tmp, mutant.file)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: its old text does not occur exactly once in {mutant.file}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def replay(mutant: Mutant) -> str:
    """'caught', 'survived', 'timed out', or the pytest exit code that is
    none of these."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.name}-") as tmp:
        _copy(tmp)
        _mutate(mutant, tmp)
        path = [os.path.join(tmp, "src"), os.environ.get("PYTHONPATH")]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-W", IGNORED,
                 *(os.path.join("tests", f) for f in mutant.catchers)],
                cwd=tmp,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return "timed out"
    return {0: "survived", 1: "caught"}.get(proc.returncode, f"error (pytest exit {proc.returncode})")


def main(names: list) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in [known[name] for name in names] or MUTANTS:
        start = time.perf_counter()
        status = replay(mutant)
        print(f"{mutant.name}: {status} in {time.perf_counter() - start:.1f} s", flush=True)
        failed += status != "caught"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
