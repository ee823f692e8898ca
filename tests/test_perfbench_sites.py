"""Every call site the benchmark traces must exist in the package.

``perfbench/tracing.py`` patches names where callers look them up; a
refactor that drops or renames one only shows as a "not traced" line on the
benchmark's stderr. This test turns that into a failure.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_exists():
    sites = load_tracing()._sites()
    assert sites
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in sites
        if getattr(owner, attr, None) is None
    ]
    assert missing == []
