"""Seeded inputs and the timed operation of each workload.

A run repeats whole rounds: the same list of items, in the same order, for
as long as the run lasts, so every count the traced run takes per operation
is the same in every round.  Inputs are stratified (one draw per bin of s and
|x|) so that two seeds give rounds of nearly the same cost.

This module imports nothing from alphafn at import time: the orchestrator
uses it to build inputs before the program is loaded.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys

WORKLOADS = ("series", "compare", "verify", "cli")

# Tail percentiles, fixed per workload so that every run reads the same one:
# the highest of 99/95/90/75 that keeps at least ten samples beyond it.
# TAIL_PERCENTILE is over all operations of a run, with a margin of 1.5 on a
# 2-core machine in 55-second runs of compare and verify and 25-second runs
# of series and cli (see README.md).  BEST_TAIL_PERCENTILE is over the items
# of one round (144 for compare, 40 for verify); series and cli have fewer
# than forty items, so theirs is the largest item time.
TAIL_PERCENTILE = {"series": 99.0, "compare": 99.0, "verify": 95.0, "cli": 90.0}
BEST_TAIL_PERCENTILE = {"series": 100.0, "compare": 90.0, "verify": 75.0, "cli": 100.0}

SERIES_BATCHES = 8  # operations per round
SERIES_BINS = 15  # real and complex points per s in one batch: 180 points, ~10 ms
# |x| bins per s in [0, 8].  s = 1 queries cost ~0.03 ms, the s = 4 and 5
# queries at |x| < 5.5 ~0.55 ms and the s = 2 queries ~1 ms.  With equal
# weights the median falls on the jump from the s = 4/5 plateau to the s = 2
# one, where one query more or less moves p50 by 70 %; twice the s = 1
# queries put it in the middle of the s = 4/5 plateau.
COMPARE_BINS = {1: 48, 2: 24, 3: 24, 4: 24, 5: 24}
VERIFY_SEEDS = 40  # run_suite("all", seed) calls per round

# One well-conditioned item per workload for the self-test of the checks.
SELFTEST_ITEM = {
    "series": [[2.5, None, 3]],
    "compare": [3.0, 3],
    "verify": 0,
    "cli": ["eval", "--x=2.5", "--s=3"],
}


def make_round(workload: str, seed: int) -> list:
    """The items of one round; the same seed gives the same items."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "series":
        # each batch: for s = 1..6, one real x per bin of [-30, 30] and one
        # complex x per bin of Re in [-20, 20] with Im uniform in [-20, 20]
        batches = []
        for _ in range(SERIES_BATCHES):
            points = []
            for s in range(1, 7):
                for b in range(SERIES_BINS):
                    lo = -30.0 + 60.0 * b / SERIES_BINS
                    points.append([rng.uniform(lo, lo + 60.0 / SERIES_BINS), None, s])
                    lo = -20.0 + 40.0 * b / SERIES_BINS
                    re = rng.uniform(lo, lo + 40.0 / SERIES_BINS)
                    points.append([re, rng.uniform(-20.0, 20.0), s])
            rng.shuffle(points)
            batches.append(points)
        return batches
    if workload == "compare":
        # signs alternate by bin: the routes' cost depends on the sign of x
        queries = []
        for s, bins in COMPARE_BINS.items():
            for b in range(bins):
                mag = rng.uniform(8.0 * b / bins, 8.0 * (b + 1) / bins)
                queries.append([mag if b % 2 == 0 else -mag, s])
        rng.shuffle(queries)
        return queries
    if workload == "verify":
        return [rng.randrange(2**31) for _ in range(VERIFY_SEEDS)]
    if workload == "cli":
        table_lo = rng.uniform(-3.0, 3.0)
        return [
            ["eval", f"--x={rng.uniform(-4.0, 4.0)!r}", "--s=3"],
            ["eval", f"--x={rng.uniform(-4.0, 4.0)!r}", "--s=4", "--method=hadamard"],
            ["compare", f"--x={rng.uniform(-4.0, 4.0)!r}", "--s=2", "--format=json"],
            ["verify", "--suite=bessel_eq1", f"--seed={rng.randrange(1000)}"],
            ["table", f"--x-min={table_lo!r}", f"--x-max={table_lo + 1.0!r}",
             "--steps=5", "--s=2"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def cli_value(argv: list[str], flag: str) -> str:
    """The value of a --flag=value argument."""
    prefix = f"--{flag}="
    return next(a[len(prefix):] for a in argv if a.startswith(prefix))


def table_grid(argv: list[str]) -> list[float]:
    """The x grid `alphafn table` tabulates, computed as the CLI does."""
    lo, hi = float(cli_value(argv, "x-min")), float(cli_value(argv, "x-max"))
    steps = int(cli_value(argv, "steps"))
    if steps == 1:
        return [lo]
    return [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]


def child_env(root: str) -> dict:
    """Environment for a Python child that imports alphafn from the checkout."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def make_op(workload: str, root: str, in_process_cli: bool = False):
    """The timed operation: item -> output.

    Functions are looked up on their modules when the operation is built,
    so an operation built after the tracer is installed calls the traced
    bindings.
    """
    if workload == "series":
        from alphafn import series

        alpha_series = series.alpha_series
        derivative = series.alpha_derivative_series

        def op(points):
            out = []
            for re, im, s in points:
                x = re if im is None else complex(re, im)
                out.append(alpha_series(x, s))
                for k in (1, 2, 3):
                    out.append(derivative(x, s, k))
            return out

        return op
    if workload == "compare":
        from alphafn import report

        compare_methods = report.compare_methods
        return lambda item: compare_methods(item[0], item[1])
    if workload == "verify":
        from alphafn import verify

        run_suite = verify.run_suite
        return lambda seed: run_suite("all", seed)
    if workload == "cli" and in_process_cli:
        from alphafn import cli

        main = cli.main

        def op(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            return code, out.getvalue(), err.getvalue()

        return op
    if workload == "cli":
        env = child_env(root)

        def op(argv):
            proc = subprocess.run(
                [sys.executable, "-m", "alphafn.cli", *argv],
                capture_output=True, text=True, env=env, cwd=root, timeout=60,
            )
            return proc.returncode, proc.stdout, proc.stderr

        return op
    raise ValueError(f"unknown workload {workload!r}")
