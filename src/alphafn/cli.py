"""Command-line frontend: evaluate, cross-compare, verify, and tabulate.

Each cmd_* returns its text and exit code.  `main` resolves the tolerance
once, for the commands that take --tol: the --tol flag, then the ALPHA_TOL
environment variable, then built-in defaults.  It then writes the text
once, to stdout or --output.  --tol sets eval's route tolerance, compare's
agreement tolerance (every route at its defaults) and table's lift
tolerance (the series at its default).
Exit codes: 0 success, 1 a comparison or verification failed, 2 invalid
query, domain violation or unwritable --output, 3 a series or quadrature
failed to converge or certified no digit.  All output is deterministic for
fixed flags and seed; floats are printed with repr (shortest lossless form).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .errors import AlphaFnError, InvalidQueryError
from .report import METHODS, compare_methods, evaluate_method
from .series import _check_tol
from .verify import SUITE_NAMES, run_suite, worst_delta

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3


def _resolve_tol(flag_value: float | None) -> float | None:
    """Flag beats ALPHA_TOL beats None (meaning built-in defaults)."""
    if flag_value is not None:
        _check_tol(flag_value, "--tol")
        return flag_value
    env = os.environ.get("ALPHA_TOL")
    if env is not None:
        try:
            value = float(env)
        except ValueError:
            raise InvalidQueryError(f"ALPHA_TOL must be a number, got {env!r}")
        _check_tol(value, "ALPHA_TOL")
        return value
    return None


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise InvalidQueryError(
            f"cannot write --output {output!r}: {exc.strerror or exc}"
        ) from exc


def cmd_eval(args: argparse.Namespace) -> tuple[str, int]:
    result = evaluate_method(args.x, args.s, args.method, args.tol)
    lines = [f"alpha(x={args.x!r}, s={args.s}) [{args.method}] = {result.value!r}"]
    lines += [f"{key} = {value!r}" for key, value in result.info.items()]
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_compare(args: argparse.Namespace) -> tuple[str, int]:
    report = compare_methods(args.x, args.s, args.tol)
    code = EXIT_OK if report.passed else EXIT_FAILED
    if args.format == "json":
        return json.dumps(report.to_json_dict(), indent=2) + "\n", code
    lines = [f"compare alpha(x={args.x!r}, s={args.s})"]
    lines += [f"  {m.name:<22} {m.value!r}  (error <= {m.error!r})"
              for m in report.method_values]
    lines.append(f"max_pairwise_delta = {report.max_pairwise_delta!r}")
    lines.append(f"tolerance = {report.tolerance!r}")
    lines.append(f"passed = {report.passed}")
    lines += [f"note: {note}" for note in report.notes]
    return "\n".join(lines) + "\n", code


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    cases = run_suite(args.suite, args.seed)
    failures = sum(not case.passed for case in cases)
    lines = [
        f"{'ok ' if case.passed else 'FAIL':<5} {case.suite:<13} {case.name:<24} "
        f"delta={case.delta:.3e} (<= {case.threshold:.3e})"
        for case in cases
    ]
    lines.append(
        f"suite={args.suite} seed={args.seed} cases={len(cases)} "
        f"failures={failures} worst_delta={worst_delta(c.delta for c in cases):.3e}"
    )
    return "\n".join(lines) + "\n", EXIT_OK if failures == 0 else EXIT_FAILED


_TABLE_COLUMNS = ("x", "alpha_series", "alpha_hadamard", "abs_delta")
_TABLE_ROW = {"csv": "{},{},{},{}", "text": "{:<24}{:<26}{:<26}{}"}


def cmd_table(args: argparse.Namespace) -> tuple[str, int]:
    if args.steps < 1:
        raise InvalidQueryError(f"--steps must be >= 1, got {args.steps}")
    if args.x_min > args.x_max:
        raise InvalidQueryError(
            f"--x-min ({args.x_min!r}) must not exceed --x-max ({args.x_max!r})"
        )
    if args.steps == 1:
        grid = [args.x_min]
    else:
        span = args.x_max - args.x_min
        grid = [args.x_min + i * span / (args.steps - 1) for i in range(args.steps)]

    rows = []
    for x in grid:
        a = evaluate_method(x, args.s, "series").value
        h = evaluate_method(x, args.s, "hadamard", args.tol).value
        rows.append((x, a, h, abs(a - h)))

    if args.format == "json":
        text = json.dumps([dict(zip(_TABLE_COLUMNS, row)) for row in rows], indent=2)
    else:
        row = _TABLE_ROW[args.format]
        text = "\n".join([row.format(*_TABLE_COLUMNS)]
                         + [row.format(*map(repr, values)) for values in rows])
    return text + "\n", EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphafn",
        description="Evaluate sum(x^n/(n!)^s) by independent routes and "
        "cross-verify the identities connecting them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--x": {"type": float, "required": True},
        "--s": {"type": int, "required": True},
        "--tol": {"type": float, "default": None},
        "--output": {"default": None},
    }
    x_end = {"type": float, "required": True}
    # command, handler, help, --format choices (the first is the default),
    # and the options in --help order: a bare name is one of `shared` or --format
    commands = (
        ("eval", cmd_eval, "evaluate alpha(x, s) by one method", (),
         ("--x", "--s", ("--method", {"choices": tuple(METHODS), "default": "series"}),
          "--tol", "--output")),
        ("compare", cmd_compare, "run every applicable method and compare", ("text", "json"),
         ("--x", "--s", "--tol", "--format", "--output")),
        ("verify", cmd_verify, "run a named property suite", (),
         (("--suite", {"choices": (*SUITE_NAMES, "all"), "default": "all"}),
          ("--seed", {"type": int, "default": 0}), "--output")),
        ("table", cmd_table, "tabulate series vs lift over an x grid", ("csv", "json", "text"),
         (("--x-min", x_end), ("--x-max", x_end), ("--steps", {"type": int, "required": True}),
          "--s", "--format", "--tol", "--output")),
    )
    for name, func, help_text, formats, options in commands:
        command = sub.add_parser(name, help=help_text)
        for option in options:
            if option == "--format":
                option = (option, {"choices": formats, "default": formats[0]})
            elif isinstance(option, str):
                option = (option, shared[option])
            command.add_argument(option[0], **option[1])
        command.set_defaults(func=func)
    return parser


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list[str]) -> list[str]:
    """Read `--x -1e4` as `--x=-1e4`: argparse takes a plain negative number
    such as -1000 as an option's value, but not -1e4 or -inf."""
    joined = []
    for token in argv:
        option = joined and re.fullmatch(r"--[\w-]+", joined[-1])
        if option and token[:1] == "-" and _is_float(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        if "tol" in args:
            args.tol = _resolve_tol(args.tol)
        text, code = args.func(args)
        _emit(text, args.output)
        return code
    except AlphaFnError as exc:  # ValueError: a bad query; ArithmeticError: no result
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID if isinstance(exc, ValueError) else EXIT_NO_CONVERGENCE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
