import collections
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import torusjones
from torusjones import cli, jones, operators
from torusjones.jones import BadParams
from torusjones.laurent import ZeroPolynomial
from torusjones.operators import VerifyReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def start_cli(*argv):
    """The CLI as a child process with piped stdout and stderr."""
    src = os.path.dirname(os.path.dirname(torusjones.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.Popen(
        [sys.executable, "-m", "torusjones.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestJonesCommand:
    def test_exact_string(self, capsys):
        code, out, _ = run(capsys, "jones", "-a", "2", "-b", "3", "-n", "2")
        assert code == 0
        assert out.strip() == "-t^-18 + t^-10 + t^-6 + t^-2"

    def test_zero_and_one(self, capsys):
        code, out, _ = run(capsys, "jones", "-a", "3", "-b", "4", "-n", "0")
        assert code == 0 and out.strip() == "0"
        code, out, _ = run(capsys, "jones", "-a", "3", "-b", "4", "-n", "1")
        assert code == 0 and out.strip() == "1"

    def test_range_with_json(self, capsys):
        code, out, _ = run(capsys, "jones", "-a", "2", "-b", "3", "-n", "1..3", "--json")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["n"] for r in records] == [1, 2, 3]
        assert records[1]["terms"] == [[-1, -18], [1, -10], [1, -6], [1, -2]]

    def test_check_degree(self, capsys):
        code, out, _ = run(
            capsys, "jones", "-a", "3", "-b", "4", "-n", "1..6", "--check-degree", "--json"
        )
        assert code == 0
        for rec in map(json.loads, out.strip().splitlines()):
            assert rec["lowest_degree"] == rec["degree_formula"]

    def test_oversized_color_is_refused_before_any_work(self, capsys):
        # the length of J(5000), from the closed forms of its span, is past
        # the command's limit of 2^22 printed terms, so nothing is computed
        # or printed, and a range is refused by its largest |n| before its
        # first color
        start = time.perf_counter()
        code, out, err = run(capsys, "jones", "-a", "3", "-b", "4", "-n", "5000")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == "error: color 5000 of T(3,4) spans 74,987,500 coefficients, above the limit of 4,194,304\n"
        code, out, err = run(capsys, "jones", "-a", "3", "-b", "4", "-n=-5000..3")
        assert (code, out) == (2, "") and "color 5000 " in err

    def test_a_color_the_fill_admits_is_refused_for_printing(self, capsys):
        # J(2000) spans 11,995,000 coefficients: within the fill's 2^26
        # cells, but its TPoly and text would take about 1.4 GB
        start = time.perf_counter()
        code, out, err = run(capsys, "jones", "-a", "3", "-b", "4", "-n", "2000")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == "error: color 2000 of T(3,4) spans 11,995,000 coefficients, above the limit of 4,194,304\n"

    def test_invalid_knot_exits_2(self, capsys):
        code, _, err = run(capsys, "jones", "-a", "4", "-b", "6", "-n", "1")
        assert code == 2
        assert "error" in err


class TestVerifyCommand:
    def test_single_identity_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "F", "-a", "3", "-b", "4", "--n", "1..6", "--json"
        )
        assert code == 0
        rec = json.loads(out.strip())
        assert rec == {
            "identity": "F",
            "a": 3,
            "b": 4,
            "n_from": 1,
            "n_to": 6,
            "status": "pass",
        }

    def test_gcd_guard_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "F", "-a", "4", "-b", "6")
        assert code == 2

    def test_wrong_family_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "G", "-a", "3", "-b", "4", "--n", "1..3")
        assert code == 2
        code, _, err = run(capsys, "reduce", "PQ", "-a", "2", "-b", "3")
        assert code == 2
        assert err == "error: operator PQ applies to knots with a > 2, not T(2,3)\n"

    def test_default_range_shifts_for_R(self, capsys):
        code, out, _ = run(capsys, "verify", "R", "-a", "2", "-b", "3", "--json")
        rec = json.loads(out.strip())
        assert code == 0 and rec["n_from"] == 3

    def test_full_z_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "R", "-a", "2", "-b", "3", "--full-z", "--json")
        rec = json.loads(out.strip())
        assert code == 0 and rec["n_from"] == 1

    def test_all_for_one_knot(self, capsys):
        code, out, _ = run(
            capsys, "verify", "all", "-a", "2", "-b", "3", "--n", "1..5", "--json"
        )
        assert code == 0
        idents = {json.loads(line)["identity"] for line in out.strip().splitlines()}
        assert {"recurrence2", "G", "R", "epsilon(G)", "epsilon(R)", "sigma(R)",
                "sigma(A')", "p-membership"} <= idents

    def test_suite_fills_each_colored_jones_value_once(self, capsys, monkeypatch):
        # every call counts, nested ones included, keyed by (knot, |color|):
        # a sequence fills J(-n) from its own cached J(n)
        fills = collections.Counter()
        fill = jones.colored_jones_dense

        def counting(K, n):
            fills[K, abs(n)] += 1
            return fill(K, n)

        monkeypatch.setattr(jones, "colored_jones_dense", counting)
        code, _, _ = run(capsys, "verify", "all", "--suite", "--json")
        assert code == 0
        assert [pair for pair, count in fills.items() if count > 1] == []
        assert len(fills) == 174

    def test_failure_exits_1(self, capsys, monkeypatch):
        def fake(identity, K, n_range, *shared):
            return [VerifyReport(identity, K.a, K.b, *n_range, "fail", 2, "t")]

        monkeypatch.setattr(cli, "run_check", fake)
        code, out, _ = run(capsys, "verify", "F", "-a", "3", "-b", "4", "--n", "1..5")
        assert code == 1
        assert "fail" in out

    def test_child_process_output_matches_suite_digest(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "perfbench", "suite_expected.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        proc = start_cli(*spec["argv"])
        out, err = proc.communicate(timeout=300)
        assert (proc.returncode, err) == (0, b"")
        assert hashlib.sha256(out).hexdigest() == spec["stdout_sha256"]


class TestExitCodes:
    def test_non_integer_color_is_configuration_error(self, capsys):
        code, _, err = run(capsys, "verify", "G", "-a", "2", "-b", "3", "--n", "abc")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("knot", [["-a", "3", "-b", "4"], ["-b", "4"]], ids=["a-and-b", "b-alone"])
    def test_suite_with_a_knot_is_configuration_error(self, capsys, knot):
        code, out, err = run(capsys, "verify", "all", "--suite", *knot)
        assert code == 2
        assert out == ""
        assert err == "error: give -a and -b, or --suite, not both\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["verify", "G", "-a", "2", "-b", "3", "--workers", "2"], "--workers 2"),
            (
                ["kernel", "-a", "2", "-b", "3", "--L-deg", "1", "--M-deg", "2",
                 "--t-window=-2..2", "--n-range", "1..3", "--cap", "5"],
                "--cap 5",
            ),
        ],
        ids=["workers", "cap"],
    )
    def test_workers_is_unknown_argument(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_internal_error_exits_3_with_traceback(self, capsys, monkeypatch):
        def broken(identity, K, n_range, *shared):
            raise ZeroPolynomial("the zero polynomial has no lowest degree")

        monkeypatch.setattr(cli, "run_check", broken)
        code, out, err = run(capsys, "verify", "G", "-a", "2", "-b", "3", "--n", "1..3")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error:")
        assert "Traceback" in err and "ZeroPolynomial: the zero polynomial has no lowest degree" in err

    def test_out_of_memory_exits_3_without_a_traceback(self, capsys, monkeypatch):
        def exhausted(identity, K, n_range, *shared):
            raise MemoryError

        monkeypatch.setattr(cli, "run_check", exhausted)
        code, out, err = run(capsys, "verify", "G", "-a", "2", "-b", "3", "--n", "1..3")
        assert (code, out, err) == (3, "", "error: out of memory\n")

    def test_oversized_color_is_configuration_error(self, capsys):
        # the fill refuses J(100000) from its closed-form length, before F
        # reads any value
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "F", "-a", "3", "-b", "4", "--n=100000..100000")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == "error: color 100000 of T(3,4) spans 29,999,750,000 coefficients, above the limit of 67,108,864\n"

    def test_large_color_on_a_coarse_lattice_passes(self, capsys):
        # h(n) has four terms however large n is, so lemmaP stays small
        code, out, _err = run(capsys, "verify", "lemmaP", "-a", "3", "-b", "4", "--n=1000000..1000000")
        assert code == 0
        assert out == "lemmaP a=3 b=4 n=1000000..1000000: pass\n"

    def test_reader_closing_stdout_exits_141_quietly(self):
        proc = start_cli("jones", "-a", "5", "-b", "7", "-n", "1..40")
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read()
        assert proc.wait(timeout=300) == 141
        assert err == b""

    def test_failed_modular_lift_exits_2_after_one_prime(self, capsys, monkeypatch):
        # the exact kernel (dimension 11) has coefficients past the
        # single-prime reconstruction bound sqrt(p/2), so no prime lifts it
        built = []

        class CountingRREF(operators.ModularRREF):
            def __init__(self, ncols, p):
                built.append(p)
                super().__init__(ncols, p)

        monkeypatch.setattr(operators, "ModularRREF", CountingRREF)
        code, out, err = run(
            capsys, "kernel", "-a", "2", "-b", "3", "--L-deg", "2", "--M-deg", "6",
            "--t-window=-6..6", "--n-range=-4..-2", "--method", "modular",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "use the exact method" in err
        assert built == [operators.PRIMES[0]]


class TestReduceCommand:
    def test_reduce_R(self, capsys):
        code, out, _ = run(capsys, "reduce", "R", "-b", "3")
        assert code == 0
        assert "= (L^-1*M^-3*(L-1)*(L*M^6+1))^2" in out
        assert "status: pass" in out

    def test_reduce_F_cofactor(self, capsys):
        code, out, _ = run(capsys, "reduce", "F", "-a", "3", "-b", "4")
        assert code == 0
        assert "M^-24*(M^3-M^-3)*(M^4-M^-4)" in out

    def test_reduce_PQ_fourth_power(self, capsys):
        code, out, _ = run(capsys, "reduce", "PQ", "-a", "3", "-b", "4", "--json")
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["status"] == "pass"
        assert rec["factorization"].endswith("^4")

    def test_reduce_with_a_outside_the_family_exits_2(self, capsys):
        for name in ("G", "R"):
            code, out, err = run(capsys, "reduce", name, "-a", "3", "-b", "5")
            assert (code, out) == (2, "")
            assert err == f"error: operator {name} applies to the (2,b) family, not T(3,5)\n"


class TestKernelCommand:
    def test_small_query(self, capsys):
        code, out, _ = run(
            capsys, "kernel", "-a", "2", "-b", "3", "--L-deg", "1",
            "--M-deg", "10", "--t-window=-20..2", "--n-range", "1..10",
        )
        assert code == 0
        assert "dimension: 0" in out

    def test_basis_printed(self, capsys):
        code, out, _ = run(
            capsys, "kernel", "-a", "2", "-b", "3", "--L-deg", "2",
            "--M-deg", "10", "--t-window=-20..2", "--n-range", "1..10", "--json",
        )
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["dimension"] == 1
        assert len(rec["basis"]) == 1

    def test_cap_exceeded_exits_2(self, capsys):
        code, _, err = run(
            capsys, "kernel", "-a", "3", "-b", "4", "--L-deg", "3",
            "--M-deg", "100", "--t-window=-300..300", "--n-range", "1..10",
        )
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize(
        "colors, message",
        [
            # J(4000) fills, but the color's strip is about 2.3 GB of float64
            ("4000..4000", "error: the kernel rows of color 4000 need 287,939,997 strip cells, above the limit of 67,108,864\n"),
            ("20000..20000", "error: color 20000 of T(3,4) spans 1,199,950,000 coefficients, above the limit of 67,108,864\n"),
        ],
        ids=["strip", "fill"],
    )
    def test_oversized_color_exits_2_before_its_rows(self, capsys, colors, message):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "kernel", "-a", "3", "-b", "4", "--L-deg", "0", "--M-deg", "0",
            "--t-window", "0..0", "--n-range", colors,
        )
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", message)

    def test_underdetermined_modular_exits_2_after_one_prime(self, capsys, monkeypatch):
        built = []

        class CountingRREF(operators.ModularRREF):
            def __init__(self, ncols, p):
                built.append(p)
                super().__init__(ncols, p)

        monkeypatch.setattr(operators, "ModularRREF", CountingRREF)
        code, out, err = run(
            capsys, "kernel", "-a", "2", "-b", "3", "--L-deg", "2", "--M-deg", "10",
            "--t-window=-22..4", "--n-range", "1..2", "--method", "modular",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "widen n_range or use the exact method" in err
        assert built == [operators.PRIMES[0]]

    def test_exact_lift_builds_the_primes_it_needs(self, capsys, monkeypatch):
        # the kernel (dimension 11) has coefficients up to 26,361, past one
        # prime's bound of about 511 and within the bound of two primes;
        # the output is pinned in data/golden_cli.json
        built = []

        class CountingRREF(operators.ModularRREF):
            def __init__(self, ncols, p):
                built.append(p)
                super().__init__(ncols, p)

        monkeypatch.setattr(operators, "ModularRREF", CountingRREF)
        code, out, _ = run(
            capsys, "kernel", "-a", "2", "-b", "3", "--L-deg", "2", "--M-deg", "6",
            "--t-window=-6..6", "--n-range=-4..-2", "--method", "exact", "--json",
        )
        assert code == 0
        rec = json.loads(out)
        assert (rec["dimension"], rec["method"], rec["prime"]) == (11, "exact", None)
        assert built == list(operators.PRIMES[:2])


class TestRangeParsing:
    def test_forms(self):
        assert cli.parse_range("5") == (5, 5)
        assert cli.parse_range("1..20") == (1, 20)
        assert cli.parse_range("-5..15") == (-5, 15)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            cli.parse_range("7..3")

    def test_rejects_non_integer(self):
        with pytest.raises(BadParams):
            cli.parse_range("abc")
