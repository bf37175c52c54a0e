"""Checks of alphafn's outputs against the references, and their self-test.

Each check returns None when the output is right and a message otherwise.
The references come from `reference.py`; this module needs neither mpmath
nor alphafn, so it runs inside the timed process without loading either.
"""

from __future__ import annotations

import dataclasses
import json

U = 2.0**-53
REL_TOL = 1e-8  # routes against mpmath: |value - ref| <= REL_TOL * max(1, |ref|)
SCALE = 1.0 + 1e-6  # the wrong value the self-test feeds each check


def _near(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * max(1.0, abs(ref))


def check_series(points, results, refs):
    """Truncation bound plus a running rounding bound:
    |value - ref| <= tail_bound + 2 * terms_used * 2^-53 * sum|terms|."""
    if len(results) != len(refs):
        return f"{len(results)} results for {len(refs)} calls"
    for i, (res, (hr, hi, lr, li, scale)) in enumerate(zip(results, refs)):
        v = complex(res.value)
        err = abs(complex((v.real - hr) - lr, (v.imag - hi) - li))
        bound = res.tail_bound + 2 * res.terms_used * U * scale
        if not err <= bound:
            re, im, s = points[i // 4]
            return (f"alpha^({i % 4})(x={re!r}{'' if im is None else f'{im:+}j'}, s={s}) "
                    f"= {v!r}: |error| {err:.3e} > bound {bound:.3e}")
    return None


def check_compare(query, report, ref):
    if not report.passed:
        return f"compare{tuple(query)}: passed is False"
    for m in report.method_values:
        if not _near(m.value, ref):
            return f"compare{tuple(query)}: {m.name} = {m.value!r}, mpmath {ref!r}"
    return None


def check_verify(seed, cases, ref):
    if not cases:
        return f"run_suite('all', {seed}) returned no cases"
    failed = [f"{c.suite}/{c.name}" for c in cases if not c.passed]
    if failed:
        return f"run_suite('all', {seed}): {len(failed)} cases failed, first {failed[0]}"
    return None


def _cli_values(argv, stdout):
    """The values an alphafn CLI call printed, in the order of its references."""
    command = argv[0]
    if command == "eval":
        return [float(stdout.splitlines()[0].rsplit(" = ", 1)[1])]
    if command == "compare":
        data = json.loads(stdout)
        if data["passed"] is not True:
            raise ValueError("passed is not true")
        return [m["value"] for m in data["methods"]]
    if command == "table":
        rows = [line.split(",") for line in stdout.splitlines()[1:]]
        return [(float(r[1]), float(r[2])) for r in rows]
    return []


def check_cli(argv, output, ref):
    code, stdout, stderr = output
    where = "alphafn " + " ".join(argv)
    if code != 0:
        return f"{where}: exit {code}: {stderr.strip()}"
    try:
        values = _cli_values(argv, stdout)
    except (ValueError, IndexError, KeyError) as exc:
        return f"{where}: unreadable output ({exc}): {stdout[:200]!r}"
    if argv[0] == "verify":
        last = stdout.splitlines()[-1] if stdout else ""
        return None if " failures=0 " in last else f"{where}: {last!r}"
    if argv[0] == "table":
        if len(values) != len(ref):
            return f"{where}: {len(values)} rows for {len(ref)} grid points"
        bad = [(pair, r) for pair, r in zip(values, ref) if not all(_near(v, r) for v in pair)]
    else:
        bad = [(v, ref) for v in values if not _near(v, ref)]
    return f"{where}: printed {bad[0][0]!r}, mpmath {bad[0][1]!r}" if bad else None


CHECKS = {
    "series": check_series,
    "compare": check_compare,
    "verify": check_verify,
    "cli": check_cli,
}


def _scaled(workload, output):
    """The output with every value it carries scaled by SCALE."""
    if workload == "series":
        return [dataclasses.replace(r, value=r.value * SCALE) for r in output]
    if workload == "compare":
        return dataclasses.replace(output, method_values=[
            dataclasses.replace(m, value=m.value * SCALE) for m in output.method_values
        ])
    if workload == "cli":
        code, stdout, stderr = output
        head, _, rest = stdout.partition("\n")
        prefix, value = head.rsplit(" = ", 1)
        return code, f"{prefix} = {float(value) * SCALE!r}\n{rest}", stderr
    return None


def selftest(workload, item, output, ref):
    """Show that the workload's check rejects a wrong output: a value scaled
    by (1 + 1e-6), a failed CaseResult and a non-zero exit code.

    Raises AssertionError when the check lets one pass, since the benchmark
    is then broken.  Returns the check's message on the real output, which
    is a fault of the program, not of the check."""
    check = CHECKS[workload]
    wrong = []
    if workload == "verify":
        wrong.append(("failed CaseResult",
                      output[:-1] + [dataclasses.replace(output[-1], passed=False)]))
    else:
        wrong.append(("value scaled by 1+1e-6", _scaled(workload, output)))
    if workload == "cli":
        wrong.append(("exit code 1", (1,) + tuple(output[1:])))
    for what, bad in wrong:
        if check(item, bad, ref) is None:
            raise AssertionError(f"self-test: the {workload} check accepts a {what}")
    return check(item, output, ref)
