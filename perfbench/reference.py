"""Reference values made with mpmath, apart from alphafn.

alpha(x, s) = sum x^n/(n!)^s is the hypergeometric 0F_{s-1}(; 1, ..., 1; x),
and its k-th derivative is 0F_{s-1}(; k+1, ..., k+1; x)/(k!)^(s-1); at s = 1
both are exp(x).  mpmath raises its working precision inside `hyper` to
cover cancellation, so the 40 digits asked for hold at negative and complex
arguments too.
"""

from __future__ import annotations

import mpmath
from mpmath import mp

from workloads import SELFTEST_ITEM, table_grid, cli_value

DPS = 40


def alpha(x, s: int, k: int = 0):
    """k-th derivative of alpha(., s) at x, as an mpmath number."""
    with mp.workdps(DPS):
        z = mpmath.mpmathify(x)
        if s == 1:
            return +mpmath.exp(z)
        return mpmath.hyper([], [k + 1] * (s - 1), z) / mpmath.factorial(k) ** (s - 1)


def _split(value) -> list[float]:
    """A value as a double-double [hi.re, hi.im, lo.re, lo.im], so that the
    check can form |computed - reference| without rounding the reference."""
    with mp.workdps(DPS):
        z = mpmath.mpc(value)
        hi = complex(z)
        lo = complex(z - hi)
    return [hi.real, hi.imag, lo.real, lo.imag]


def _series_refs(points) -> list:
    refs = []
    for re, im, s in points:
        x = re if im is None else complex(re, im)
        for k in range(4):
            # the second entry scales the rounding bound: the sum of |terms|
            refs.append(_split(alpha(x, s, k)) + [float(alpha(abs(x), s, k))])
    return refs


def _cli_ref(argv):
    command = argv[0]
    if command in ("eval", "compare"):
        return float(alpha(float(cli_value(argv, "x")), int(cli_value(argv, "s"))))
    if command == "table":
        s = int(cli_value(argv, "s"))
        return [float(alpha(x, s)) for x in table_grid(argv)]
    return None


def reference(workload: str, item):
    """What the check for one item compares the program's output against."""
    if workload == "series":
        return _series_refs(item)
    if workload == "compare":
        return float(alpha(item[0], item[1]))
    if workload == "verify":
        return None
    if workload == "cli":
        return _cli_ref(item)
    raise ValueError(f"unknown workload {workload!r}")


def references(workload: str, items: list) -> tuple[list, object]:
    """References for a round's items and for the workload's self-test item."""
    return (
        [reference(workload, item) for item in items],
        reference(workload, SELFTEST_ITEM[workload]),
    )
