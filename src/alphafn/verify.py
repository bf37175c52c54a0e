"""Named property suites behind `alphafn verify`.

Each suite returns one CaseResult per checked case; a case passes when its
observed delta stays at or below its threshold.  Randomized cases draw
from a seeded generator so runs are reproducible.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

from .hadamard import (
    AnalyticFunction,
    alpha3_integrand_complex,
    alpha3_integrand_real,
    alpha3_quadrature_complex,
    alpha3_quadrature_real,
    bessel_identity_check,
    hadamard_eval,
)
from .quadrature import TWO_PI
from .series import alpha_series
from .stirling import ode_residual, stirling2, stirling_genfunc_residual


@dataclass(frozen=True)
class CaseResult:
    suite: str
    name: str
    passed: bool
    delta: float
    threshold: float


def _case(suite: str, name: str, delta: float, threshold: float) -> CaseResult:
    return CaseResult(suite, name, delta <= threshold, delta, threshold)


def worst_delta(deltas) -> float:
    """The largest delta, 0.0 for none, or nan if any is nan, which max()
    would drop: max(0.0, nan) is 0.0."""
    deltas = list(deltas)
    return math.nan if any(map(math.isnan, deltas)) else max(deltas, default=0.0)


def suite_theorem1(seed: int = 0) -> list[CaseResult]:
    """Circle-integral product rule vs direct coefficient convolution.

    200 random real-coefficient polynomial pairs of degree <= 8 with
    coefficients in [-1, 1], evaluated at random u, v in (-1, 1).
    f(u e^{it}) g(v e^{-it}) has frequencies in [-deg g, deg f], so one
    trapezoid level of more nodes than either degree aliases nothing and
    is exact up to rounding: each pair runs that level, not the ladder.
    """
    rng = random.Random(seed)
    # uniform(-1, 1) is -1 + 2 random() and randint(0, 8) is randrange(9):
    # the same draws without two calls per draw
    random_, randrange = rng.random, rng.randrange
    cases = []
    for trial in range(200):
        ca = [-1.0 + 2.0 * random_() for _ in range(randrange(9) + 1)]
        cb = [-1.0 + 2.0 * random_() for _ in range(randrange(9) + 1)]
        u = -1.0 + 2.0 * random_()
        v = -1.0 + 2.0 * random_()
        f = AnalyticFunction.from_coefficients(ca)
        g = AnalyticFunction.from_coefficients(cb)
        n = max(4, len(ca), len(cb))
        got = hadamard_eval(f, g, u, v, nodes=n).value.real
        expected = sum(
            a * b * (u * v) ** n for n, (a, b) in enumerate(zip(ca, cb))
        )
        cases.append(_case("theorem1", f"trial-{trial:03d}", abs(got - expected), 1e-11))
    return cases


def suite_bessel_eq1(seed: int = 0) -> list[CaseResult]:
    """Circle integral of e^{a cos t + b sin t} against the I0 series."""
    cases = []
    lhs = {}
    for a, b in ((0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (3.0, 4.0), (1.0, 1.0)):
        lhs[a, b], rhs = bessel_identity_check(a, b)
        cases.append(_case("bessel_eq1", f"a={a:g},b={b:g}", abs(lhs[a, b] - rhs), 1e-10))
    # the left side depends on (a, b) only through a^2 + b^2
    lhs50, _ = bessel_identity_check(5.0, 0.0)
    lhs05, _ = bessel_identity_check(0.0, 5.0)
    cases.append(_case("bessel_eq1", "rotation(3,4)vs(5,0)", abs(lhs[3.0, 4.0] - lhs50), 1e-11))
    cases.append(_case("bessel_eq1", "rotation(5,0)vs(0,5)", abs(lhs50 - lhs05), 1e-11))
    return cases


def suite_ode(seed: int = 0) -> list[CaseResult]:
    """Residual of the Stirling-coefficient differential equation."""
    cases = []
    for s in (1, 2, 3, 4):
        for x in (-2.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            r = ode_residual(x, s)
            bound = 1e-10 * (1.0 + math.exp(abs(x)))
            cases.append(_case("ode", f"s={s},x={x:g}", abs(r), bound))
    return cases


@functools.cache
def _set_partitions_by_blocks(max_n: int) -> tuple[tuple[int, ...], ...]:
    """Count set partitions of {0..n-1} by block count for every n <= max_n.

    Row n, entry k counts the partitions with k blocks.  The independent
    oracle is an exhaustive walk over restricted growth strings, one length
    at a time: each string of the current length is kept as one list entry,
    its block count b, and is counted in row[b] of its length.  A string with
    b blocks has b + 1 extensions (the next element joins one of its b
    blocks or opens a new one), so the next level holds [b] * b + [b + 1]
    for each entry.  The walk runs once per max_n in a process; its rows are
    shared, so they are returned as tuples.
    """
    rows = [[0] * (n + 1) for n in range(max_n + 1)]
    rows[0][0] = 1
    level = [1]  # the one string of length 1
    for length in range(1, max_n + 1):
        row = rows[length]
        for blocks in level:
            row[blocks] += 1
        if length < max_n:
            longer = []
            for blocks in level:
                longer += [blocks] * blocks
                longer.append(blocks + 1)
            level = longer
    return tuple(map(tuple, rows))


def suite_stirling_gf(seed: int = 0) -> list[CaseResult]:
    """Exhaustive partition counts plus the generating-function residual."""
    cases = []
    table = _set_partitions_by_blocks(9)
    for n in range(1, 10):
        enumerated = table[n]
        worst = max(
            abs(stirling2(n, k) - enumerated[k]) for k in range(0, n + 1)
        )
        cases.append(_case("stirling_gf", f"partitions-n={n}", float(worst), 0.0))
    for k in (1, 2, 3):
        for x in (0.0, 0.5, 1.0):
            r = stirling_genfunc_residual(k, x, 20)
            cases.append(_case("stirling_gf", f"genfunc-k={k},x={x:g}", r, 1e-10))
    return cases


def suite_expansion_s3(seed: int = 0) -> list[CaseResult]:
    """Real expansion vs complex product for the s=3 torus integrand.

    Pointwise on a 16 x 16 grid at five x drawn from the seed in [-1, 2],
    then both torus routes against the series at the fixed x -1, 0, 0.5, 1
    and 2, each at its one level certified to alias by at most 1e-10 (fixed,
    so that the routes' level search stays cached).  Each route's real part
    is held to 1e-9 and to its own bound: the level's est_error plus the
    series' tail and rounding bounds.
    """
    cases = []
    rng = random.Random(seed)
    angles = [(TWO_PI * i) / 16 for i in range(16)]
    for x in [rng.uniform(-1.0, 2.0) for _ in range(5)]:
        worst = worst_delta(
            abs(alpha3_integrand_complex(x, theta, t).real - alpha3_integrand_real(x, theta, t))
            for theta in angles
            for t in angles
        )
        bound = 1e-12 * (1.0 + math.exp(abs(x) + 2.0))
        cases.append(_case("expansion_s3", f"pointwise-x={x:g}", worst, bound))
    for x in (-1.0, 0.0, 0.5, 1.0, 2.0):
        series = alpha_series(x, 3)
        reference = series.value.real
        qc = alpha3_quadrature_complex(x, 1e-10)
        qr = alpha3_quadrature_real(x, 1e-10)
        threshold = min(1e-9, qr.est_error + series.tail_bound + series.rounding_bound)
        cases.append(
            _case("expansion_s3", f"torus-real-x={x:g}", abs(qr.value.real - reference), threshold)
        )
        cases.append(
            _case(
                "expansion_s3",
                f"torus-complex-x={x:g}",
                abs(qc.value.real - reference),
                threshold,
            )
        )
        cases.append(
            _case("expansion_s3", f"torus-imag-x={x:g}", abs(qc.value.imag), 1e-10)
        )
    return cases


_SUITES = {
    "theorem1": suite_theorem1,
    "bessel_eq1": suite_bessel_eq1,
    "ode": suite_ode,
    "stirling_gf": suite_stirling_gf,
    "expansion_s3": suite_expansion_s3,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0) -> list[CaseResult]:
    """Run one named suite, or every suite for name == 'all'."""
    if name == "all":
        cases = []
        for suite in SUITE_NAMES:
            cases.extend(_SUITES[suite](seed))
        return cases
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return _SUITES[name](seed)
