"""Every function in the package is entered by some command.

The command lines of ``data/golden_cli.json`` run in process under
``sys.setprofile``. A ``def`` in ``src/torusjones`` that none of them
enters is code that no command reaches, and it fails this test unless
``UNREACHED`` names it with its reason. An entry that names no ``def``, or
one that a command now enters, fails it too, so the list stays exact.
"""

import ast
import contextlib
import io
import json
import os
import sys

import torusjones
from torusjones import cli

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.dirname(os.path.abspath(torusjones.__file__))

#: module.qualname of each def that no command enters -> why it stays
UNREACHED = {
    "nullspace.ExactEliminator.__init__": "the tests' exact oracle; perfbench/tracing.py patches the class",
    "nullspace.ExactEliminator.add_row": "the tests' exact oracle; perfbench/tracing.py patches it",
    "nullspace.ExactEliminator.nullspace": "the tests' exact oracle; perfbench/tracing.py patches it",
    "nullspace.ExactEliminator.rank": "the tests' exact oracle, with the class perfbench/tracing.py patches",
    "operators.verify_pq_consistency": "perfbench/tracing.py patches it",
    "operators.matches_up_to_unit": "perfbench/workloads.py checks the certify answers with it",
    "jones.g_seq": "the reference of operators.recurrence_rhs in the tests; perfbench/tracing.py patches it",
    "jones.h_seq": "the reference of operators.h_form in the tests; perfbench/tracing.py patches it",
    "laurent.quantum_integer": "the brackets of g_seq, the reference of operators.recurrence_rhs in the tests",
    "cli._annihilator": "runs at import, building IDENTITY_TABLE",
    "operators.SystemTooLarge.__init__": "error path: a kernel query over the unknown cap",
    "qtorus.OperatorSyntaxError.__init__": "error path: operator text that does not parse",
    "laurent.SparseRing.__rsub__": "ring interface: a scalar minus an element",
    "laurent.SparseRing.__repr__": "ring interface: the printable form",
    "qtorus.DiscreteSeq.__repr__": "the printable form",
    "laurent.TPoly.t_pow": "ring interface; perfbench/selftest.py builds its operators with it",
    "laurent.TPoly._invert_term": "ring interface: negative powers of a unit; no command text takes one in t",
    "qtorus.QTElem._invert_term": "ring interface: negative powers of a unit; commands parse displays as MLPolys",
    "qtorus.QTElem.coefficient": "ring interface: reads one coefficient of the normal form",
}


def defined() -> dict:
    """(file, first line) -> module.qualname of every def in the package.
    The first line is a code object's ``co_firstlineno``: the first
    decorator's, if the def has one."""
    names = {}

    def walk(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                names[file, first] = prefix + child.name
                walk(child, file, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, file, f"{prefix}{child.name}.")
            else:
                walk(child, file, prefix)

    for file in sorted(os.listdir(PACKAGE)):
        if file.endswith(".py"):
            with open(os.path.join(PACKAGE, file), encoding="utf-8") as fh:
                walk(ast.parse(fh.read()), file, file[:-3] + ".")
    return names


def entered() -> set:
    """(file, first line) of every package function that the golden
    command lines enter."""
    with open(os.path.join(HERE, "data", "golden_cli.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        for case in golden:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(list(case["argv"]))
    finally:
        sys.setprofile(previous)
    return {
        (os.path.basename(code.co_filename), code.co_firstlineno)
        for code in codes
        if os.path.dirname(os.path.abspath(code.co_filename)) == PACKAGE
    }


def test_every_def_is_entered_by_a_command():
    defs = defined()
    names = set(defs.values())
    reached = {defs[key] for key in entered() if key in defs}
    assert sorted(names - reached - UNREACHED.keys()) == []
    assert sorted(UNREACHED.keys() - names) == []
    assert sorted(UNREACHED.keys() & reached) == []
