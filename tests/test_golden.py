"""Byte-level golden outputs of the CLI.

``data/golden_cli.json`` holds the stdout and exit code of ``reduce`` for
every named operator on every applicable suite knot, of the (2,3)
``kernel`` queries, text and JSON, and of two modular engine queries: the
(2,7) L-deg 2 query, text and JSON, and the (3,4) L-deg 2 query of the
benchmark (6,669 unknowns, dimension 0), JSON. The last exact (2,3) query's
kernel has coefficients up to 26,361, past what one prime lifts (about
511). Four ``verify`` runs cover the sweeps over n-ranges:
``verify all --suite --full-z --json``, ``verify all`` on (3,4) over
n = -5..24 and on (2,9) over n = -6..6, both JSON (these ranges cross 0,
where J(0) is zero and J(+-1) has one term), and ``verify PQ`` on (5,7)
over n = 4..60 as text. ``jones`` on (2,3) over n = -3..6, as text, JSON
and with ``--check-degree``, and on (5,7) over n = 1..4 as JSON, covers the
colored Jones printer. The ``verify all --suite --json`` digest is the one
the benchmark pins in ``perfbench/suite_expected.json``.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from torusjones import cli

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(HERE, "data", "golden_cli.json"), encoding="utf-8") as fh:
    GOLDEN = json.load(fh)


def run_main(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_cli_stdout_bytes(case):
    code, out = run_main(case["argv"])
    assert code == case["exit"]
    assert out == case["stdout"]


def test_suite_digest():
    with open(os.path.join(ROOT, "perfbench", "suite_expected.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["argv"] == ["verify", "all", "--suite", "--json"]
    code, out = run_main(spec["argv"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == spec["stdout_sha256"]
