"""CLI contract tests: exit codes, formats, determinism, config precedence."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import alphafn
from alphafn import cli
from alphafn.cli import main
from alphafn.errors import InvalidQueryError
from alphafn.hadamard import _ladder, _lift_level
from alphafn.report import compare_methods, evaluate_method
from alphafn.verify import CaseResult

I0_OF_2 = 2.2795853023360673
ALPHA_1_3 = 2.1297025489833064
# e^-30 and e^-20 from mpmath at 40 digits
EXP_MINUS_30 = 9.357622968840175e-14
EXP_MINUS_20 = 2.061153622438558e-09
# alpha(-12, 3) and alpha(12, 4) from mpmath's hyper at 40 digits
ALPHA_MINUS_12_3 = 0.3637265696892947
ALPHA_12_4 = 23.397044500139852
# alpha(-30, 4) from mpmath's hyper at 40 digits
ALPHA_MINUS_30_4 = 8.7435644430977974


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

    def test_hadamard_bounds_cover_the_error(self, capsys):
        # the ladder printed est_error = 6.3e-13 here for an error of 1.2e-11
        code, out, _ = run_cli(capsys, "eval", "--x", "-12", "--s", "3", "--method", "hadamard")
        assert code == 0
        fields = dict(line.split(" = ") for line in out.splitlines()[1:])
        assert set(fields) == {"nodes", "alias_bound", "rounding_bound"}
        error = float(fields["alias_bound"]) + float(fields["rounding_bound"])
        assert abs(printed_value(out) - ALPHA_MINUS_12_3) <= error

    def test_hadamard_past_the_ladder_stall(self, capsys):
        # the doubling ladder stalled at N = 1024 from about x = 10.3
        code, out, _ = run_cli(capsys, "eval", "--x", "12", "--s", "4", "--method", "hadamard")
        assert code == 0
        assert math.isclose(printed_value(out), ALPHA_12_4, rel_tol=1e-10)

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
        # rejected up front: no ladder run (exit 3) and no OverflowError
        # traceback; a non-finite x by the query check the series runs, a
        # finite one past the exp peak limit by the route's guard
        code, _, err = run_cli(capsys, "eval", "--x", x, "--s", "2", "--method", "bessel")
        assert code == 2
        assert err.startswith("error: bessel: " if x == "1e6"
                              else f"error: x must be finite, got ({x}+0j)")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_hadamard_rejects_nonfinite_x(self, capsys, x):
        # refused before any node by the query check the series runs, with
        # its message
        code, out, err = run_cli(capsys, "eval", f"--x={x}", "--s", "3", "--method", "hadamard")
        assert code == 2
        assert out == ""
        assert err == f"error: x must be finite, got ({x}+0j)\n"

    @pytest.mark.parametrize("x", [math.nan, math.inf, 1e6])
    def test_bessel_library_rejects_unrepresentable_x(self, x):
        with pytest.raises(InvalidQueryError):
            evaluate_method(x, 2, "bessel")

    @pytest.mark.parametrize("method, tol", [("hadamard", -1.0), ("bessel", 0.0),
                                             ("hadamard", math.nan)])
    def test_library_rejects_bad_tol_through_the_config(self, method, tol):
        # the circle routes' level search checks the tol, with the message
        # the series and compare_methods give
        with pytest.raises(InvalidQueryError, match="tol must be positive"):
            evaluate_method(1.0, 2, method, tol)

    def test_series_exp_at_large_negative_x(self, capsys):
        # 1/e^30 from the all-positive sum; the alternating sum printed -3.07e-05
        code, out, _ = run_cli(capsys, "eval", "--x", "-30", "--s", "1")
        assert code == 0
        assert math.isclose(printed_value(out), EXP_MINUS_30, rel_tol=1e-14)

    def test_nonconvergence_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--x", "1e6", "--s", "2")
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize("x, s, reason", [
        # the terms overflow (sum|t_n| is nan)
        ("1e6", "2", "passed the double range"),
        ("1e200", "1", "passed the double range"),
        # the terms cancel: the rounding bound passes |value|
        ("-1e4", "3", "no digit is certified"),
        ("-6e4", "2", "no digit is certified"),
    ])
    def test_nonconvergence_names_its_reason(self, capsys, x, s, reason):
        code, out, err = run_cli(capsys, "eval", "--x", x, "--s", s)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert reason in err


    @pytest.mark.parametrize("x, s, exact", [
        # e^300 and I0(2 sqrt(6e4)) take 841 and 677 terms, with no budget
        ("300", "1", mpmath.exp(300)),
        ("6e4", "2", mpmath.besseli(0, 2 * mpmath.sqrt(60000))),
    ], ids=["e^300", "I0"])
    def test_many_terms_print_within_their_bounds(self, capsys, x, s, exact):
        code, out, err = run_cli(capsys, "eval", "--x", x, "--s", s)
        assert code == 0
        assert err == ""
        fields = dict(line.split(" = ") for line in out.splitlines()[1:])
        error = float(fields["tail_bound"]) + float(fields["rounding_bound"])
        assert abs(mpmath.mpf(printed_value(out)) - exact) <= error

    def test_overflow_names_the_first_nonfinite_term(self, capsys):
        # 1e6^112/(112!)^2 = 2.6e307 is the last term below DBL_MAX, and
        # term 113 (2.0e309) is the first that is not a double: the product
        # term * 1e6 overflows from term 111 on, but x / d is taken first then
        code, out, err = run_cli(capsys, "eval", "--x", "1e6", "--s", "2")
        assert code == 3
        assert out == ""
        assert "after 113 terms the series passed the double range" in err


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

    def test_a_dash_token_that_is_no_number_stays_an_option(self):
        # -foo is not joined to --x, so argparse finds --x without a value
        proc = run_module("eval", "--x", "-foo", "--s", "3")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.endswith("alphafn eval: error: argument --x: expected one argument\n")
        assert "Traceback" not in proc.stderr

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
    def test_s2_past_the_ladder_stall(self, capsys):
        # every s = 2 circle route stalled here on the doubling ladder
        code, out, _ = run_cli(capsys, "compare", "--x", "12", "--s", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert [m["name"] for m in data["methods"]] == [
            "series", "alpha2-closed-form", "bessel", "hadamard-iterated"]

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

    def test_series_with_no_certified_digit_exits_3(self, capsys):
        # the series runs first and fails before the torus routes' range check
        code, out, err = run_cli(capsys, "compare", "--x=-1e4", "--s", "3")
        assert code == 3
        assert out == ""
        assert err.startswith("error: series: ") and err.endswith("no digit is certified\n")

    def test_disagreement_past_the_error_bounds_exits_1(self, capsys, monkeypatch):
        # the lift moved by 1e-6 keeps its bound of ~4e-13, so the pair
        # (series, lift) lies apart by more than e_i + e_j + tol * scale;
        # compare's lift entry runs the lift's level, (value, N, alias, rounding)
        def shifted(x, s, tol):
            value, n, alias, rounding = _lift_level(x, s, tol)
            return value + 1e-6, n, alias, rounding

        monkeypatch.setattr("alphafn.report._lift_level", shifted)
        code, out, _ = run_cli(capsys, "compare", "--x", "1", "--s", "4")
        assert code == 1
        assert "passed = False" in out

    def test_tight_tolerance_passes_within_the_error_bounds(self, capsys):
        # at tol 1e-16 the deltas, up to 6.5e-14, exceed tol * scale, but
        # every pair lies within the sum of its two error bounds
        code, out, _ = run_cli(
            capsys, "compare", "--x", "1", "--s", "2", "--tol", "1e-16", "--format", "json")
        assert code == 0
        report_json = json.loads(out)
        assert report_json["passed"] is True
        assert report_json["max_pairwise_delta"] > 1e-16 * I0_OF_2

    def test_verdict_reads_the_error_bounds(self, capsys, monkeypatch):
        # the lift widened to a bound of 3.77 with its value moved 1.1e-4
        # off (the unit split's figures at (-30, 4)): the routes agree
        # within that bound, although the delta is 1e4 times tol * scale
        def widened_lift(x, s, tol):
            value, n, _, _ = _lift_level(x, s, tol)
            return value + 1.1e-4, n, 3.77, 0.0

        monkeypatch.setattr("alphafn.report._lift_level", widened_lift)
        code, out, _ = run_cli(capsys, "compare", "--x=-30", "--s", "4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        (series, lift) = data["methods"]
        assert math.isclose(series["value"], ALPHA_MINUS_30_4, rel_tol=1e-15)
        assert abs(lift["value"] - ALPHA_MINUS_30_4) <= lift["error"]
        assert data["max_pairwise_delta"] > 1e3 * data["tolerance"] * ALPHA_MINUS_30_4
        assert data["max_pairwise_delta"] <= series["error"] + lift["error"]

    def test_lift_certifies_out_to_50(self, capsys):
        # the unit split's lift bound was 3.0e9 at both points (exit 3)
        for argv in (("--x=-50", "--s", "4"), ("--x", "50", "--s", "5")):
            code, out, _ = run_cli(capsys, "compare", *argv, "--format", "json")
            assert code == 0, argv
            data = json.loads(out)
            assert data["passed"] is True
            assert [m["name"] for m in data["methods"]] == ["series", "hadamard-iterated"]
            assert all(m["error"] < 3e-9 for m in data["methods"]), argv

    def test_verdict_checks_every_pair(self, monkeypatch):
        # the torus entries moved by 1e-6 with their ~1e-13 errors disagree
        # with the series, although the extremes (series, lift) agree within
        # the lift's error, widened to 1e-5
        def shifted_ladder(route, x, kernel_name):
            res = _ladder(route, x, kernel_name)
            return res._replace(value=res.value + 1e-6)

        def widened_lift(x, s, tol):
            value, n, _, _ = _lift_level(x, s, tol)
            return value + 2e-6, n, 1e-5, 0.0

        monkeypatch.setattr("alphafn.report._ladder", shifted_ladder)
        monkeypatch.setattr("alphafn.report._lift_level", widened_lift)
        rep = compare_methods(1.0, 3)
        values = {m.name: m.value for m in rep.method_values}
        assert values["hadamard-iterated"] == max(values.values())
        assert values["series"] == min(values.values())
        assert rep.passed is False

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

    def test_worst_delta_keeps_a_nan(self, capsys, monkeypatch):
        cases = [CaseResult("ode", f"case-{i}", False, delta, 1.0)
                 for i, delta in enumerate((0.5, math.nan, 2.0))]
        monkeypatch.setattr(cli, "run_suite", lambda suite, seed: cases)
        code, out, _ = run_cli(capsys, "verify", "--suite", "ode")
        assert code == 1
        assert out.splitlines()[-1].endswith("failures=3 worst_delta=nan")

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


class TestLayouts:
    """The text layouts, each derived from the same call's csv or json, so
    that the layout is pinned and not the numerics."""

    TABLE = ("table", "--x-min", "-1", "--x-max", "1", "--steps", "3", "--s", "2")

    def test_table_text_pads_the_csv_columns(self, capsys):
        _, csv_out, _ = run_cli(capsys, *self.TABLE, "--format", "csv")
        code, out, err = run_cli(capsys, *self.TABLE, "--format", "text")
        assert (code, err) == (0, "")
        # the header too: x, alpha_series and alpha_hadamard padded to 24, 26, 26
        lines = ["{:<24}{:<26}{:<26}{}".format(*row.split(","))
                 for row in csv_out.splitlines()]
        assert out == "".join(line + "\n" for line in lines)

    def test_compare_text_lists_the_json_report(self, capsys):
        _, json_out, _ = run_cli(capsys, "compare", "--x", "1", "--s", "3", "--format", "json")
        code, out, err = run_cli(capsys, "compare", "--x", "1", "--s", "3")
        assert (code, err) == (0, "")
        report = json.loads(json_out)
        assert report["notes"]
        lines = ["compare alpha(x=1.0, s=3)"]
        lines += [f"  {m['name']:<22} {m['value']!r}  (error <= {m['error']!r})"
                  for m in report["methods"]]
        lines += [f"max_pairwise_delta = {report['max_pairwise_delta']!r}",
                  f"tolerance = {report['tolerance']!r}", "passed = True"]
        lines += [f"note: {note}" for note in report["notes"]]
        assert out == "".join(line + "\n" for line in lines)

    def test_verify_case_and_summary_lines(self, capsys, monkeypatch):
        cases = [CaseResult("ode", "a", True, 1.5e-14, 1e-10),
                 CaseResult("stirling_gf", "b", False, 0.25, 1e-12)]
        monkeypatch.setattr(cli, "run_suite", lambda suite, seed: cases)
        code, out, err = run_cli(capsys, "verify", "--suite", "ode", "--seed", "7")
        assert (code, err) == (1, "")
        assert out == (
            "ok    ode           a                        delta=1.500e-14 (<= 1.000e-10)\n"
            "FAIL  stirling_gf   b                        delta=2.500e-01 (<= 1.000e-12)\n"
            "suite=ode seed=7 cases=2 failures=1 worst_delta=2.500e-01\n"
        )


class TestOutputFile:
    """--output writes the bytes that stdout would get."""

    @pytest.mark.parametrize("argv", [
        ("eval", "--x", "1", "--s", "3"),
        ("compare", "--x", "1", "--s", "3"),
        ("compare", "--x", "1", "--s", "3", "--format", "json"),
        ("verify", "--suite", "bessel_eq1"),
        ("table", "--x-min", "0", "--x-max", "1", "--steps", "3", "--s", "2", "--format", "csv"),
        ("table", "--x-min", "0", "--x-max", "1", "--steps", "3", "--s", "2", "--format", "json"),
        ("table", "--x-min", "0", "--x-max", "1", "--steps", "3", "--s", "2", "--format", "text"),
    ], ids=["eval", "compare-text", "compare-json", "verify",
            "table-csv", "table-json", "table-text"])
    def test_file_matches_stdout(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv)
        target = tmp_path / "out.txt"
        assert run_cli(capsys, *argv, "--output", str(target)) == (code, "", err)
        assert code == 0
        assert target.read_bytes() == out.encode("utf-8")


class TestTolerance:
    """main resolves --tol, then ALPHA_TOL, once, for the commands with --tol."""

    def test_verify_ignores_a_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("ALPHA_TOL", "not-a-number")
        code, out, err = run_cli(capsys, "verify", "--suite", "stirling_gf")
        assert (code, err) == (0, "")
        assert "failures=0" in out

    def test_bad_env_value_is_named_before_the_table_arguments(self, capsys, monkeypatch):
        monkeypatch.setenv("ALPHA_TOL", "bad")
        code, out, err = run_cli(
            capsys, "table", "--x-min", "0", "--x-max", "1", "--steps", "0", "--s", "2"
        )
        assert (code, out) == (2, "")
        assert err == "error: ALPHA_TOL must be a number, got 'bad'\n"


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
            # the ratio is 0.95 at n + 1 = 2, and the sum passes DBL_MAX
            (("eval", "--x", "1.7e308", "--s", "1024"), 3),
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

    def test_ratio_past_dbl_max_is_followed(self, capsys):
        # 3^700 passes DBL_MAX at the third term; the sum of mpmath's terms is
        # 1.0000000000190109157e200
        code, out, _ = run_cli(capsys, "eval", "--x", "1e200", "--s", "700")
        assert code == 0
        fields = dict(line.split(" = ") for line in out.splitlines()[1:])
        error = float(fields["tail_bound"]) + float(fields["rounding_bound"])
        assert abs(printed_value(out) - 1.0000000000190109157e200) <= error
        assert math.isclose(printed_value(out), 1.0000000000190109157e200, rel_tol=1e-15)

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
