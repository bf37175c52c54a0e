"""Command-line frontend: evaluate, cross-compare, verify, and tabulate.

Exit codes: 0 success, 1 a comparison or verification failed, 2 invalid
query, domain violation or unwritable --output, 3 a series or quadrature
failed to converge.
Tolerance precedence: --tol flag, then the ALPHA_TOL environment variable,
then built-in defaults.  All output is deterministic for fixed flags and
seed; floats are printed with repr (shortest lossless form).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .errors import (
    DomainViolationError,
    ImaginaryResidueError,
    InvalidQueryError,
    NonConvergenceError,
    ToleranceNotReachedError,
)
from .report import METHODS, compare_methods, evaluate_method
from .verify import SUITE_NAMES, run_suite, worst_delta

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3


def _resolve_tol(flag_value: float | None) -> float | None:
    """Flag beats ALPHA_TOL beats None (meaning built-in defaults)."""
    if flag_value is not None:
        if not flag_value > 0:
            raise InvalidQueryError(f"--tol must be positive, got {flag_value!r}")
        return flag_value
    env = os.environ.get("ALPHA_TOL")
    if env is not None:
        try:
            value = float(env)
        except ValueError:
            raise InvalidQueryError(f"ALPHA_TOL must be a number, got {env!r}")
        if not value > 0:
            raise InvalidQueryError(f"ALPHA_TOL must be positive, got {env!r}")
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


def cmd_eval(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args.tol)
    result = evaluate_method(args.x, args.s, args.method, tol)
    lines = [f"alpha(x={args.x!r}, s={args.s}) [{args.method}] = {result.value!r}"]
    lines += [f"{key} = {value!r}" for key, value in result.info.items()]
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    report = compare_methods(args.x, args.s, _resolve_tol(args.tol))
    if args.format == "json":
        text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    else:
        lines = [f"compare alpha(x={args.x!r}, s={args.s})"]
        for m in report.method_values:
            lines.append(f"  {m.name:<22} {m.value!r}  (error <= {m.error!r})")
        lines.append(f"max_pairwise_delta = {report.max_pairwise_delta!r}")
        lines.append(f"tolerance = {report.tolerance!r}")
        lines.append(f"passed = {report.passed}")
        for note in report.notes:
            lines.append(f"note: {note}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK if report.passed else EXIT_FAILED


def cmd_verify(args: argparse.Namespace) -> int:
    cases = run_suite(args.suite, args.seed)
    lines = []
    failures = 0
    for case in cases:
        status = "ok " if case.passed else "FAIL"
        if not case.passed:
            failures += 1
        lines.append(
            f"{status:<5} {case.suite:<13} {case.name:<24} "
            f"delta={case.delta:.3e} (<= {case.threshold:.3e})"
        )
    lines.append(
        f"suite={args.suite} seed={args.seed} cases={len(cases)} "
        f"failures={failures} worst_delta={worst_delta(c.delta for c in cases):.3e}"
    )
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if failures == 0 else EXIT_FAILED


def cmd_table(args: argparse.Namespace) -> int:
    if args.steps < 1:
        raise InvalidQueryError(f"--steps must be >= 1, got {args.steps}")
    if args.x_min > args.x_max:
        raise InvalidQueryError(
            f"--x-min ({args.x_min!r}) must not exceed --x-max ({args.x_max!r})"
        )
    tol = _resolve_tol(args.tol)
    if args.steps == 1:
        grid = [args.x_min]
    else:
        span = args.x_max - args.x_min
        grid = [args.x_min + i * span / (args.steps - 1) for i in range(args.steps)]

    rows = []
    for x in grid:  # --tol is the lift's ladder tolerance; the series keeps its default
        a = evaluate_method(x, args.s, "series").value
        h = evaluate_method(x, args.s, "hadamard", tol).value
        rows.append((x, a, h, abs(a - h)))

    if args.format == "csv":
        lines = ["x,alpha_series,alpha_hadamard,abs_delta"]
        for x, a, h, d in rows:
            lines.append(f"{x!r},{a!r},{h!r},{d!r}")
        text = "\n".join(lines) + "\n"
    elif args.format == "json":
        text = (
            json.dumps(
                [
                    {"x": x, "alpha_series": a, "alpha_hadamard": h, "abs_delta": d}
                    for x, a, h, d in rows
                ],
                indent=2,
            )
            + "\n"
        )
    else:
        lines = [f"{'x':<24}{'alpha_series':<26}{'alpha_hadamard':<26}abs_delta"]
        for x, a, h, d in rows:
            lines.append(f"{x!r:<24}{a!r:<26}{h!r:<26}{d!r}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphafn",
        description="Evaluate sum(x^n/(n!)^s) by independent routes and "
        "cross-verify the identities connecting them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate alpha(x, s) by one method")
    p_eval.add_argument("--x", type=float, required=True)
    p_eval.add_argument("--s", type=int, required=True)
    p_eval.add_argument("--method", choices=tuple(METHODS), default="series")
    p_eval.add_argument("--tol", type=float, default=None)
    p_eval.add_argument("--output", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="run every applicable method and compare")
    p_cmp.add_argument("--x", type=float, required=True)
    p_cmp.add_argument("--s", type=int, required=True)
    p_cmp.add_argument("--tol", type=float, default=None)
    p_cmp.add_argument("--format", choices=("text", "json"), default="text")
    p_cmp.add_argument("--output", default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_ver = sub.add_parser("verify", help="run a named property suite")
    p_ver.add_argument("--suite", choices=(*SUITE_NAMES, "all"), default="all")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--output", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_tab = sub.add_parser("table", help="tabulate series vs lift over an x grid")
    p_tab.add_argument("--x-min", dest="x_min", type=float, required=True)
    p_tab.add_argument("--x-max", dest="x_max", type=float, required=True)
    p_tab.add_argument("--steps", type=int, required=True)
    p_tab.add_argument("--s", type=int, required=True)
    p_tab.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    p_tab.add_argument("--tol", type=float, default=None)
    p_tab.add_argument("--output", default=None)
    p_tab.set_defaults(func=cmd_table)

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
        return args.func(args)
    except (InvalidQueryError, DomainViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (NonConvergenceError, ToleranceNotReachedError, ImaginaryResidueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
