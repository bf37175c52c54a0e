"""Closed-loop benchmark of alphafn: one workload per run.

    python3 perfbench/run.py --workload {series,compare,verify,cli} --seed N
                             --seconds S --trace {0,1}

Run from anywhere inside a checkout; alphafn is imported from the
checkout's src/.  The inputs come from --seed, the references from mpmath
(before anything is timed), and every output is checked against them.

--trace 0 prints the end-to-end metrics: best_ops_per_s, best_p50_ms,
best_tail_ms, setup_s and peak_rss_mb (best-of-run figures: see
worker.py), and the same figures over all operations as notes.  --trace 1
alternates untraced and traced rounds, prints the per-layer metrics per
operation and writes the spans to perfbench/out/trace-<workload>.json.
Every metric is printed as a "name value unit" line; the last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

from workloads import WORKLOADS, child_env, make_round  # noqa: E402

CLI_PROBES = 5  # interpreter start and import time: median of this many processes
CHILD_TIMEOUT = 60
RUN_LIMIT = 170  # seconds a whole run may take before the worker is stopped


def _median_of(runs: int, measure) -> float:
    measure()  # discarded: the first child compiles bytecode and warms the file cache
    return statistics.median(measure() for _ in range(runs))


def interpreter_ms(env: dict) -> float:
    """Bare interpreter start: `python -c pass`."""

    def measure():
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True,
                       timeout=CHILD_TIMEOUT)
        return (time.perf_counter() - t0) * 1e3

    return _median_of(CLI_PROBES, measure)


def import_ms(env: dict) -> float:
    """Cumulative `-X importtime` of the alphafn package."""

    def measure():
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import alphafn"],
                              env=env, cwd=ROOT, capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT)
        match = re.search(r"^import time:\s*\d+ \|\s*(\d+) \| alphafn$", proc.stderr, re.M)
        if match is None:
            raise RuntimeError("no alphafn line in -X importtime output")
        return int(match.group(1)) / 1e3

    return _median_of(CLI_PROBES, measure)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "alphafn", "__init__.py")):
        print(f"no alphafn sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    from reference import references

    items = make_round(args.workload, args.seed)
    refs, selftest_ref = references(args.workload, items)
    env = child_env(ROOT)

    metrics = {}
    if args.trace:
        metrics["cli.interpreter_ms"] = (interpreter_ms(env), "ms")
        metrics["cli.import_ms"] = (import_ms(env), "ms")

    os.makedirs(OUT, exist_ok=True)
    spec = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "items": items, "refs": refs,
        "selftest_ref": selftest_ref,
        "trace_path": os.path.join(OUT, f"trace-{args.workload}.json"),
    }
    if args.trace:
        spec["cli_items"] = make_round("cli", args.seed)
        spec["cli_refs"], _ = references("cli", spec["cli_items"])
    # The worker starts set-up probes and cli processes of its own, so it
    # leads a process group of its own: on time-out the whole group is killed.
    proc = subprocess.Popen([sys.executable, WORKER, "run"], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(json.dumps(spec),
                                          timeout=RUN_LIMIT - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"worker stopped after {RUN_LIMIT} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    sys.stderr.write(stderr)
    if proc.returncode != 0:
        print(f"worker exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(stdout.splitlines()[-1])
    metrics.update({k: tuple(v) for k, v in result["metrics"].items()})

    for message in result["messages"]:
        print(f"WRONG: {message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for note in result.get("notes", []):
        print(note)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
