"""Every call site the benchmark traces, and every package name its
workloads read, must exist in the package.

``perfbench/tracing.py`` patches names where callers look them up; a
refactor that drops or renames one only shows as a "not traced" line on the
benchmark's stderr. A name that ``perfbench/workloads.py`` calls and the
package no longer has only shows as failed operations. These tests turn
both into failures.
"""

import ast
import importlib
import importlib.util
import os
import sys

from torusjones import operators
from torusjones.nullspace import ModularRREF

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_perfbench(name):
    path = os.path.join(ROOT, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_perfbench("tracing")


def test_every_traced_site_exists():
    sites = load_tracing()._sites()
    assert sites
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in sites
        if getattr(owner, attr, None) is None
    ]
    assert missing == []


#: what ``package_reads`` gives for a name the package does not have
MISSING = object()


def lookup(module_name, attr):
    """module_name's attribute attr, importing it when it is a submodule."""
    module = importlib.import_module(module_name)
    if not hasattr(module, attr) and importlib.util.find_spec(f"{module_name}.{attr}"):
        importlib.import_module(f"{module_name}.{attr}")
    return getattr(module, attr, MISSING)


def package_reads(path):
    """(dotted name, object or MISSING) for every package attribute that
    the file at path reads: each name it imports with ``from torusjones...
    import``, and each attribute chain it reads on one, found in its AST."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    bound = {}  # a local name -> (dotted name, object or MISSING)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "torusjones":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}", lookup(node.module, alias.name)
    reads = list(bound.values())

    def resolve(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = resolve(node.value)
            if owner is not None and owner[1] is not MISSING:
                return f"{owner[0]}.{node.attr}", getattr(owner[1], node.attr, MISSING)
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            got = resolve(node)
            if got is not None:
                reads.append(got)
    return reads


def test_every_package_name_the_workloads_read_exists():
    # a workload or self-test that calls a deleted name only shows as
    # failed operations in the benchmark; here it fails tier-1
    reads = [
        read
        for name in ("workloads.py", "selftest.py")
        for read in package_reads(os.path.join(ROOT, "perfbench", name))
    ]
    names = {name for name, _ in reads}
    assert {
        "torusjones.cli.main",
        "torusjones.jones.jones_sequence",
        "torusjones.operators.build_PQ",
        "torusjones.operators.matches_up_to_unit",
        "torusjones.operators.minimality_kernel",
        "torusjones.operators.verify_annihilation",
    } <= names
    assert sorted(name for name, found in reads if found is MISSING) == []


def test_process_block_counts_keep_their_meaning(monkeypatch):
    # perfbench counts a process_block call's rows as len() of what it is
    # fed and its cells as len() times the engine's width. Every row source
    # has len() equal to its color's width, and over the four certify
    # queries, through perfbench's own wrapper and count hook, the totals
    # are those of a traced certify run at seed 1: 28 calls, 9,344 rows,
    # 21,054,435 cells and 5,419 new pivots
    tracing = load_tracing()
    tracer = tracing.Tracer()
    real_matrix = operators._color_matrix
    widths = []

    def checked(block, *args):
        rows = real_matrix(block, *args)
        widths.append((len(rows), block.width))
        return rows

    monkeypatch.setattr(operators, "_color_matrix", checked)
    traced = tracer.wrap("nullspace.process_block", ModularRREF.process_block, tracing._process_block)
    monkeypatch.setattr(ModularRREF, "process_block", traced)
    for case in load_perfbench("workloads").certify_cases():
        operators.minimality_kernel(case.query)
    assert widths and all(n == width for n, width in widths)
    counts = {name: tracer.counts[f"nullspace.process_block.{name}"] for name in ("calls", "rows_in", "cells_in", "pivots_new")}
    assert counts == {"calls": 28, "rows_in": 9344, "cells_in": 21054435, "pivots_new": 5419}
