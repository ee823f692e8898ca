"""Byte-level golden outputs of the CLI.

``data/golden_cli.json`` holds the stdout and exit code of ``reduce`` for
every named operator on every applicable suite knot and of the (2,3)
``kernel`` queries, text and JSON. The last exact query's kernel has
coefficients up to 26,361, past what one prime lifts (about 511). The
``verify all --suite --json`` digest
is the one the benchmark pins in ``perfbench/suite_expected.json``.
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
