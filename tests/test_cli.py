"""CLI contract tests: exit codes, formats, determinism, config precedence."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import alphafn
from alphafn.cli import main
from alphafn.errors import InvalidQueryError
from alphafn.report import compare_methods, evaluate_method

I0_OF_2 = 2.2795853023360673
ALPHA_1_3 = 2.1297025489833064
# e^-30 and e^-20 from mpmath at 40 digits
EXP_MINUS_30 = 9.357622968840175e-14
EXP_MINUS_20 = 2.061153622438558e-09


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def printed_value(out: str) -> float:
    return float(out.splitlines()[0].split(" = ")[1])


def run_module(*argv):
    """`python -m alphafn.cli` in a child process that imports the same
    alphafn package as these tests, installed or not."""
    src = os.path.dirname(os.path.dirname(alphafn.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "alphafn.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


class TestEval:
    def test_series_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--x", "0", "--s", "3", "--method", "series")
        assert code == 0
        assert printed_value(out) == 1.0

    def test_bessel_route(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--x", "1", "--s", "2", "--method", "bessel")
        assert code == 0
        assert abs(printed_value(out) - I0_OF_2) <= 1e-11
        assert "nodes = " in out

    def test_hadamard_route(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--x", "1", "--s", "3", "--method", "hadamard")
        assert code == 0
        assert abs(printed_value(out) - ALPHA_1_3) <= 1e-9

    def test_series_metadata(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--x", "1", "--s", "3")
        assert code == 0
        assert "terms_used = " in out
        assert "tail_bound = " in out

    def test_invalid_s_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--x", "1", "--s", "0")
        assert code == 2
        assert "error:" in err

    def test_bessel_needs_s2(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--x", "1", "--s", "3", "--method", "bessel")
        assert code == 2

    def test_bessel_needs_nonnegative_x(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--x", "-1", "--s", "2", "--method", "bessel")
        assert code == 2

    @pytest.mark.parametrize("x", ["nan", "inf", "1e6"])
    def test_bessel_rejects_unrepresentable_x(self, capsys, x):
        # rejected up front: no ladder run (exit 3) and no OverflowError traceback
        code, _, err = run_cli(capsys, "eval", "--x", x, "--s", "2", "--method", "bessel")
        assert code == 2
        assert err.startswith("error: bessel: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_hadamard_rejects_nonfinite_x(self, capsys, x):
        # the lift's ladder refuses a non-finite exp peak before any node
        code, out, err = run_cli(capsys, "eval", f"--x={x}", "--s", "3", "--method", "hadamard")
        assert code == 2
        assert out == ""
        assert err.startswith("error: alpha_via_hadamard: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("x", [math.nan, math.inf, 1e6])
    def test_bessel_library_rejects_unrepresentable_x(self, x):
        with pytest.raises(InvalidQueryError):
            evaluate_method(x, 2, "bessel")

    @pytest.mark.parametrize("method, tol", [("hadamard", -1.0), ("bessel", 0.0),
                                             ("hadamard", math.nan)])
    def test_library_rejects_bad_tol_through_the_config(self, method, tol):
        # QuadratureConfig owns the check, and its message
        with pytest.raises(InvalidQueryError, match="tol must be positive"):
            evaluate_method(1.0, 2, method, tol)

    def test_series_exp_at_large_negative_x(self, capsys):
        # 1/e^30 from the all-positive sum; the alternating sum printed -3.07e-05
        code, out, _ = run_cli(capsys, "eval", "--x", "-30", "--s", "1")
        assert code == 0
        assert math.isclose(printed_value(out), EXP_MINUS_30, rel_tol=1e-14)

    def test_nonconvergence_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--x", "300", "--s", "1")
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize("x, s, reason", [
        # the terms overflow (sum|t_n| is nan) long before the budget ends
        ("1e6", "2", "passed the double range"),
        ("1e200", "1", "passed the double range"),
        # sum|t_n| stays finite (1.04e211, 1.94e130): the budget was the limit
        ("6e4", "2", "within 500 terms"),
        ("300", "1", "within 500 terms"),
    ])
    def test_nonconvergence_names_its_reason(self, capsys, x, s, reason):
        code, out, err = run_cli(capsys, "eval", "--x", x, "--s", s)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert reason in err


class TestNegativeValues:
    """A negative value in exponent notation or -inf, given after its option
    as a separate token, reads as that option's value."""

    def test_exponent_notation_matches_equals_form(self, capsys):
        spaced = run_cli(capsys, "eval", "--x", "-2e0", "--s", "3")
        joined = run_cli(capsys, "eval", "--x=-2e0", "--s", "3")
        assert spaced == joined
        assert spaced[0] == 0

    def test_negative_infinity_reaches_the_series_check(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--x", "-inf", "--s", "3")
        assert code == 2
        assert out == ""
        assert err == "error: x must be finite, got (-inf+0j)\n"

    def test_table_range(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--x-min", "-1e0", "--x-max", "1e0",
                               "--steps", "3", "--s", "2")
        assert code == 0
        rows = out.splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [-1.0, 0.0, 1.0]


class TestReadme:
    """The `$ alphafn eval` blocks README quotes are what the CLI prints."""

    @staticmethod
    def blocks():
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks, current = [], None
        for line in readme.read_text(encoding="utf-8").splitlines():
            text = line.strip()
            if text.startswith("$ alphafn eval "):
                current = (text[len("$ alphafn "):].split(), [])
                blocks.append(current)
            elif current is not None and text != "```":
                current[1].append(text)
            else:
                current = None
        return blocks

    def test_quotes_both_eval_blocks(self):
        assert [argv for argv, _ in self.blocks()] == [
            ["eval", "--x", "1", "--s", "3"], ["eval", "--x", "-30", "--s", "1"]]

    def test_output_matches_byte_for_byte(self, capsys):
        for argv, lines in self.blocks():
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            assert out == "".join(line + "\n" for line in lines)


class TestCompare:
    def test_s3_methods_and_note(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--x", "1", "--s", "3", "--format", "json")
        assert code == 0
        report = json.loads(out)
        names = [m["name"] for m in report["methods"]]
        assert names == [
            "series",
            "hadamard-2d-complex",
            "hadamard-2d-real",
            "hadamard-iterated",
        ]
        assert report["passed"] is True
        assert report["max_pairwise_delta"] <= 1e-8
        assert any("1.1297" in note for note in report["notes"])

    def test_trivial_point_all_methods_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--x", "0", "--s", "5", "--tol", "1e-12", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        for m in report["methods"]:
            assert abs(m["value"] - 1.0) <= 1e-12

    def test_s2_includes_bessel(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--x", "1", "--s", "2", "--tol", "1e-10", "--format", "json"
        )
        assert code == 0
        names = [m["name"] for m in json.loads(out)["methods"]]
        assert "bessel" in names

    def test_unattainable_tolerance_exits_1(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--x", "1", "--s", "3", "--tol", "1e-16")
        assert code == 1
        assert "passed = False" in out

    def test_large_agreeing_values_pass(self, capsys):
        # series and exp agree to ~1e-16 relative; the delta is judged
        # against tolerance * max(1, max |value|), not absolutely
        code, out, _ = run_cli(capsys, "compare", "--x", "20", "--s", "1", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["max_pairwise_delta"] > report["tolerance"]

    def test_small_exp_value_matches_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--x", "-20", "--s", "1", "--format", "json")
        assert code == 0
        report = json.loads(out)
        values = {m["name"]: m["value"] for m in report["methods"]}
        assert report["passed"] is True
        assert math.isclose(values["series"], EXP_MINUS_20, rel_tol=1e-14)
        assert math.isclose(values["series"], values["exp-closed-form"], rel_tol=1e-14)

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ALPHA_TOL", "1e-16")
        code, out, _ = run_cli(
            capsys, "compare", "--x", "1", "--s", "3", "--tol", "1e-8", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["tolerance"] == 1e-8

    def test_env_sets_default(self, capsys, monkeypatch):
        monkeypatch.setenv("ALPHA_TOL", "1e-5")
        code, out, _ = run_cli(capsys, "compare", "--x", "1", "--s", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["tolerance"] == 1e-5

    def test_bad_env_value_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("ALPHA_TOL", "not-a-number")
        code, _, _ = run_cli(capsys, "compare", "--x", "1", "--s", "3")
        assert code == 2

    def test_default_tolerance_is_the_library_default(self, capsys, monkeypatch):
        monkeypatch.delenv("ALPHA_TOL", raising=False)
        code, out, _ = run_cli(capsys, "compare", "--x", "1", "--s", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["tolerance"] == compare_methods(1.0, 3).tolerance == 1e-8

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "compare", "--x", "1", "--s", "3", "--format", "json")
        _, second, _ = run_cli(capsys, "compare", "--x", "1", "--s", "3", "--format", "json")
        assert first == second


class TestVerify:
    def test_stirling_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "stirling_gf")
        assert code == 0
        assert "failures=0" in out

    def test_theorem1_runs_200_cases(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "theorem1", "--seed", "42")
        assert code == 0
        assert "cases=200" in out
        assert "failures=0" in out

    def test_deterministic_for_fixed_seed(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--suite", "bessel_eq1", "--seed", "0")
        _, second, _ = run_cli(capsys, "verify", "--suite", "bessel_eq1", "--seed", "0")
        assert first == second


class TestTable:
    def test_single_point_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--x-min", "0", "--x-max", "0", "--steps", "1",
            "--s", "3", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,alpha_series,alpha_hadamard,abs_delta"
        x, a, h, d = (float(v) for v in lines[1].split(","))
        assert x == 0.0
        assert abs(a - 1.0) <= 1e-12
        assert abs(h - 1.0) <= 1e-12
        assert d <= 1e-12
        assert out.endswith("\n")

    def test_grid_csv_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--x-min", "0", "--x-max", "2", "--steps", "9",
            "--s", "2", "--format", "csv",
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 9
        for row in rows:
            x, a, h, d = (float(v) for v in row.split(","))
            # 17-significant-digit repr round-trips doubles losslessly,
            # so the delta column must reproduce exactly
            assert d == abs(a - h)
            assert d < 1e-9

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--x-min", "-1", "--x-max", "1", "--steps", "5",
            "--s", "3", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 5
        assert [row["x"] for row in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
        for row in rows:
            assert set(row) == {"x", "alpha_series", "alpha_hadamard", "abs_delta"}

    def test_bad_range_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "table", "--x-min", "2", "--x-max", "0", "--steps", "3", "--s", "2"
        )
        assert code == 2

    def test_bad_steps_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "table", "--x-min", "0", "--x-max", "1", "--steps", "0", "--s", "2"
        )
        assert code == 2

    def test_s1_has_no_lift_column(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "--x-min", "0", "--x-max", "1", "--steps", "3", "--s", "1"
        )
        assert code == 2
        assert "s >= 2" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code = main(
            [
                "table", "--x-min", "0", "--x-max", "1", "--steps", "2",
                "--s", "2", "--format", "csv", "--output", str(target),
            ]
        )
        capsys.readouterr()
        assert code == 0
        content = target.read_text(encoding="utf-8")
        assert content.startswith("x,alpha_series")
        assert content.endswith("\n")
        assert "\r" not in content


class TestUnwritableOutput:
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_exits_2_with_one_error_line(self, capsys, tmp_path, where):
        target = tmp_path / "missing" / "o.txt" if where == "missing-dir" else tmp_path
        code, out, err = run_cli(capsys, "eval", "--x", "1", "--s", "3", "--output", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write --output {str(target)!r}: ")
        assert err.count("\n") == 1

    def test_module_invocation_has_no_traceback(self, tmp_path):
        proc = run_module(
            "compare", "--x", "1", "--s", "2", "--output", str(tmp_path / "missing" / "o.txt")
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: cannot write --output ")
        assert "Traceback" not in proc.stderr


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_module("verify", "--suite", "bessel_eq1")
        assert proc.returncode == 0
        assert "failures=0" in proc.stdout

    def test_module_invocation_invalid(self):
        proc = run_module("eval", "--x", "1", "--s", "0")
        assert proc.returncode == 2


class TestLargeS:
    """(n+1)^s passes DBL_MAX within the first terms: the series stops on
    a bounded ratio where it can and exits 3 where it cannot, never with a
    traceback."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("eval", "--x", "1", "--s", "1024"), 0),
            (("eval", "--x", "1e200", "--s", "700"), 3),
            (("compare", "--x", "1", "--s", "1024"), 0),
            (("eval", "--x", "1", "--s", "1025", "--method", "hadamard"), 0),
        ],
    )
    def test_exits_without_traceback(self, argv, code):
        proc = run_module(*argv)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        if code == 0:
            assert proc.stderr == ""
            assert " 2.0" in proc.stdout  # alpha(1, s) = 2 + 2^-s + ...
        else:
            assert proc.stderr.startswith("error: ")
            assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--x", "1", "--s", str(2**1024)),
            ("eval", "--x", "1", "--s", str(2**1024), "--method", "hadamard"),
            ("compare", "--x", "1", "--s", str(2**1024)),
        ],
    )
    def test_s_past_double_range_exits_2(self, argv):
        proc = run_module(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert "fit a double" in proc.stderr
        assert proc.stderr.count("\n") == 1
