"""The workload's own process: one closed-loop caller, one thread.

    worker.py probe <workload> <seed>   import alphafn, run one operation,
                                        print "ready" (the set-up probe)
    worker.py run                       read the run spec (JSON) from stdin,
                                        run the timed loop, print one JSON line

The run spec holds the round's items and the mpmath references, made by
run.py before this process starts, so neither mpmath nor the references'
cost shows in this process's time or memory.

The gated figures are best-of-run figures.  Every item of the round runs
once per round, and each item's latency is the least time it took in any
round; the set-up time is the least of the set-up probes made between
rounds.  The host alternates between a fast and a slow state and the share
of fast time drifts over minutes, so a median over all samples follows
that share; the least time of an item repeated all through the run does
not, as long as the run holds some fast time.  The figures over all samples
are printed too, ungated.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import monotonic, perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from checks import CHECKS, selftest  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BEST_TAIL_PERCENTILE, SELFTEST_ITEM, TAIL_PERCENTILE, child_env, make_op, make_round,
)

MIN_OPS = 40  # a tail percentile needs forty samples; rounds go on until there are
CLI_MAIN_ROUNDS = 5
PROBE_INTERVAL = 2.0  # seconds of timed rounds between two set-up probes
MIN_PROBES = 3  # rounds go on until this many set-up probes have run
PROBE_TIMEOUT = 60


def probe(workload: str, seed: int) -> None:
    op = make_op(workload, ROOT, in_process_cli=True)
    op(make_round(workload, seed)[0])
    print(f"ready {monotonic()!r}", flush=True)


def setup_seconds(workload: str, seed: int, env: dict) -> float:
    """One set-up probe: from the spawn of a fresh process through
    `import alphafn` and one warm-up operation.

    The probe prints time.monotonic() when it is ready; that clock is
    system-wide, so the difference from this process's reading before the
    spawn leaves out the probe's exit."""
    t0 = monotonic()
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "probe", workload,
                           str(seed)], capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=PROBE_TIMEOUT)
    word, _, ready = proc.stdout.strip().partition(" ")
    if proc.returncode != 0 or word != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): "
                           f"{proc.stderr.strip()}")
    return float(ready) - t0


@dataclass
class Tally:
    """Latencies of the completed operations, each item's least latency,
    failures and check messages."""

    items: int
    latencies: list = field(default_factory=list)
    best: list = field(init=False)
    failed: int = 0
    wrong: list = field(default_factory=list)

    def __post_init__(self):
        self.best = [math.inf] * self.items

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed


def run_round(op, check, items, refs, tally: Tally) -> None:
    for i, (item, ref) in enumerate(zip(items, refs)):
        t0 = perf_counter()
        try:
            output = op(item)
        except Exception as exc:  # counted as failed; the loop goes on
            tally.failed += 1
            if tally.failed <= 3:
                print(f"failed: {item!r}: {exc!r}", file=sys.stderr)
            continue
        latency = perf_counter() - t0
        tally.latencies.append(latency)
        tally.best[i] = min(tally.best[i], latency)
        message = check(item, output, ref)
        if message is not None:
            tally.wrong.append(message)


def tail(latencies, percentile):
    """(percentile, value): the given percentile, or the next lower of
    95/90/75 when fewer than ten samples lie beyond it.  Percentile 100 is
    the largest sample, with no fallback."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in [percentile] + [q for q in (95.0, 90.0, 75.0) if q < percentile]:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10 or p == 100.0:
            break
    return p, ordered[rank - 1]


def ops_per_s(latencies):
    """Operations per second of time spent inside them."""
    return len(latencies) / math.fsum(latencies)


def cli_main_ms(items, refs):
    """Mean time of an in-process `alphafn.cli.main(argv)` call over the cli
    rotation, untraced, after one warm-up round; and the check messages.
    Measured in every traced run, so the cli layer is measured whichever
    workload runs."""
    op = make_op("cli", ROOT, in_process_cli=True)
    warm, calls = Tally(len(items)), Tally(len(items))
    run_round(op, CHECKS["cli"], items, refs, warm)
    for _ in range(CLI_MAIN_ROUNDS):
        run_round(op, CHECKS["cli"], items, refs, calls)
    messages = warm.wrong[:5] + calls.wrong[:5]
    if warm.failed or calls.failed:
        messages.append(f"cli.main_ms: {warm.failed + calls.failed} calls raised")
    return math.fsum(calls.latencies) / len(calls.latencies) * 1e3, messages


def run(spec: dict) -> dict:
    """Whole rounds until the run's seconds have passed and MIN_OPS ran.

    An untraced run makes a set-up probe after every PROBE_INTERVAL seconds
    of rounds, and goes on until MIN_PROBES probes have run.  A traced run
    alternates an untraced and a traced round, so that both see the same
    machine; the per-layer metrics come from the traced rounds and
    trace.overhead compares the two."""
    workload, traced = spec["workload"], spec["trace"]
    items, refs = spec["items"], spec["refs"]
    check = CHECKS[workload]
    in_process = traced and workload == "cli"
    op = make_op(workload, ROOT, in_process_cli=in_process)

    item = SELFTEST_ITEM[workload]
    warm = [check(items[0], op(items[0]), refs[0]),
            selftest(workload, item, op(item), spec["selftest_ref"])]

    plain, with_trace = Tally(len(items)), Tally(len(items))
    tracer = Tracer() if traced else None
    env = child_env(ROOT)
    probes = []
    if tracer is None:
        setup_seconds(workload, spec["seed"], env)  # discarded: compiles bytecode
    start = last_probe = perf_counter()
    while (perf_counter() - start < spec["seconds"] or plain.attempted < MIN_OPS
           or (tracer is None and len(probes) < MIN_PROBES)):
        run_round(op, check, items, refs, plain)
        if tracer is None and perf_counter() - last_probe >= PROBE_INTERVAL:
            probes.append(setup_seconds(workload, spec["seed"], env))
            last_probe = perf_counter()
        if tracer is not None:
            tracer.install()
            try:
                traced_op = make_op(workload, ROOT, in_process_cli=in_process)
                run_round(traced_op, check, items, refs, with_trace)
            finally:
                tracer.uninstall()

    messages = [m for m in warm if m] + plain.wrong[:5] + with_trace.wrong[:5]
    result = {
        "attempted": plain.attempted + with_trace.attempted,
        "failed": plain.failed + with_trace.failed,
        "correct": not messages,
        "messages": messages,
    }
    if tracer is None:
        best = [b for b in plain.best if b < math.inf]
        best_p, best_tail = tail(best, BEST_TAIL_PERCENTILE[workload])
        all_p, all_tail = tail(plain.latencies, TAIL_PERCENTILE[workload])
        # for cli: the peak of the child processes, set-up probes included
        who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
        result["notes"] = [
            f"{len(items)} items, {len(plain.latencies)} operations, "
            f"{len(probes)} set-up probes; best_tail_ms is p{best_p:g} of the items",
            f"over all operations: ops_per_s {ops_per_s(plain.latencies)!r} 1/s, "
            f"latency_p50_ms {statistics.median(plain.latencies) * 1e3!r} ms, "
            f"p{all_p:g} {all_tail * 1e3!r} ms; "
            f"set-up median {statistics.median(probes)!r} s",
        ]
        result["metrics"] = {
            "best_ops_per_s": (ops_per_s(best), "1/s"),
            "best_p50_ms": (statistics.median(best) * 1e3, "ms"),
            "best_tail_ms": (best_tail * 1e3, "ms"),
            "setup_s": (min(probes), "s"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        }
        return result

    metrics = tracer.metrics(with_trace.attempted)
    metrics["trace.overhead"] = (
        ops_per_s(plain.latencies) / ops_per_s(with_trace.latencies), "ratio")
    main_ms, main_messages = cli_main_ms(spec["cli_items"], spec["cli_refs"])
    metrics["cli.main_ms"] = (main_ms, "ms")
    result["messages"] += main_messages
    result["correct"] = not result["messages"]
    result["metrics"] = metrics
    tracer.write(spec["trace_path"],
                 {"workload": workload, "seed": spec["seed"], "ops": with_trace.attempted})
    return result


def main(argv: list[str]) -> int:
    if argv[:1] == ["probe"] and len(argv) == 3:
        probe(argv[1], int(argv[2]))
        return 0
    if argv == ["run"]:
        print(json.dumps(run(json.load(sys.stdin))))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
