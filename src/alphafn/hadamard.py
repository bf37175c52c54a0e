"""Coefficient-wise (Hadamard) products of power series via circle integrals.

For entire/real-coefficient series f(x) = sum a_n x^n and g(x) = sum b_n x^n
with radii R and R', the series h(x) = sum a_n b_n x^n satisfies

    h(u v) = (1/2pi) int_0^{2pi} f(u e^{i t}) g(v e^{-i t}) dt,   |u|<R, |v|<R'.

Specializing f = g = exp gives the closed forms for s = 2, the reduction to
the modified Bessel function I0, and (iterating against exp once more) the
double-integral identity for s = 3; the same iteration lifts alpha(., s-1)
to alpha(., s) for any s >= 2.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

from .backend import kernels
from .errors import (
    DomainViolationError,
    ImaginaryResidueError,
    InvalidQueryError,
    ToleranceNotReachedError,
)
from .quadrature import (
    CIRCLE_LADDER,
    TORUS_LADDER,
    TWO_PI,
    QuadratureResult,
    converge,
    one_level,
    # not called here: bound so that perfbench/tracing.py can wrap it here
    trapezoid_periodic_1d,  # noqa: F401
)
from .series import _UNIT_ROUNDOFF, _check_s_fits, _check_tol, _real, bessel_i0

# exp overflows doubles just above 709; the closed-form integrands peak at
# exp of the values guarded here, so reject inputs past this point with a
# message that names the route instead of an OverflowError from a kernel
_EXP_PEAK_LIMIT = 700.0


def _guard_exp_peak(peak: float, route: str) -> None:
    if not math.isfinite(peak):
        raise InvalidQueryError(
            f"{route}: integrand peak exp({peak!r}) is not finite; "
            "the arguments must be finite"
        )
    if peak > _EXP_PEAK_LIMIT:
        raise InvalidQueryError(
            f"{route}: integrand peak exp({peak:.1f}) exceeds the "
            "double-precision range; use alpha_series instead"
        )


def _ladder(route: str, x: float, kernel_name: str) -> QuadratureResult:
    """compare's s = 3 torus route: guard the integrand's exp peak, then run
    the torus means kernels.<kernel_name>(x, n) through TORUS_LADDER.

    est_error is the ladder's |value_N - value_{N/2}|, an estimate.  The
    ladder's levels are nested: level n's nodes are the even ones of level
    2n, so level 2n evaluates only the (j, k) with j or k odd,
    kernel(x, 2n, fresh=True), and combines them with level n's mean as
    (prev + 3 fresh)/4, which saves a quarter of each level.  The kernel is
    looked up on `kernels` at call time.
    """
    _guard_exp_peak(abs(x) + 2.0, route)
    kernel = getattr(kernels, kernel_name)
    last_n, last = 0, 0j

    def node_mean(n: int) -> complex:
        nonlocal last_n, last
        if n == 2 * last_n:
            value = (last + 3.0 * kernel(x, n, fresh=True)) / 4.0
        else:
            value = kernel(x, n)
        last_n, last = n, value
        return value

    return converge(node_mean, TORUS_LADDER)


def _certified(
    route: str, value: complex, n: int, truncation: float, rounding: float
) -> QuadratureResult:
    """QuadratureResult(value, n, truncation + rounding, truncation,
    rounding) of one certified level, refused with ToleranceNotReachedError
    (best that result) when est_error is not below |value|, since then no
    digit is certified."""
    result = QuadratureResult(value, n, truncation + rounding, truncation, rounding)
    if not result.est_error < abs(value.real) < math.inf:
        raise ToleranceNotReachedError(
            f"{route}: error bound {result.est_error:.3e} at N={n} is not below "
            f"|value| = {abs(value.real):.3e}; no digit is certified",
            best=result,
        )
    return result


def _circle_level(
    route: str, ru: float, rv: float, tol: float | None,
    kernel: Callable[..., complex], *args: float, g_error: float = 0.0,
) -> QuadratureResult:
    """One certified trapezoid level of a circle route.

    kernel(*args, N) is the N-node mean of F(t) = f(u e^{it}) g(v e^{-it}),
    whose coefficient magnitudes |a_m| |u|^m and |b_p| |v|^p are at most
    ru^m/m! and rv^p/p!.  That mean keeps the terms of F with
    m - p = 0 (mod N), the integral only m = p, so the error is at most the
    aliasing sum over m - p = jN, j != 0 (Trefethen & Weideman, "The
    exponentially convergent trapezoidal rule", SIAM Rev. 2014):
        A_N <= e^{rv} T(ru, N) + e^{ru} T(rv, N),  T(r, N) = sum_{m>=N} r^m/m!.
    N is the first of 16 * 2^k up to 1024 (CIRCLE_LADDER's node counts)
    with A_N <= tol (None means CIRCLE_LADDER's 1e-12; a tol that is not a
    positive number raises InvalidQueryError), and the kernel runs that one
    level.  alias_bound = A_N + e^{ru} g_error, g_error being the
    caller's bound on what the second factor's value leaves out at a node
    (the lift's inner series tail), since |f(u e^{it})| <= e^{ru}.

    rounding_bound = (N + 48 + 32 (ru + rv)) 2^-53 M, with M = e^{ru + rv}
    >= |F| on the circle (after Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3-4):
      - the ascending sum of the N node values and the division by N add at
        most N 2^-53 M;
      - a node angle (TWO_PI j)/N is within 3 * 2pi 2^-53 < 19 * 2^-53 of
        the exact one, and |F'| <= (ru + rv) M;
      - cos and sin of it are within 2 * 2^-53, so the arguments of exp and
        cos are within 8 (ru + rv) 2^-53 of exact, which exp and cos turn
        into as much relative error;
      - exp, cos and the products add a few 2^-53 M, and the lift's inner
        series (at most 18 terms, sum|t_n| <= e) at most 36 * 2^-53 e^{ru} e
        more, which 48 * 2^-53 M covers.
    est_error = alias_bound + rounding_bound.  Raises
    ToleranceNotReachedError (exit 3) when no level reaches tol, and
    _certified's refusal when no digit is certified.
    """
    n, max_nodes, default_tol = CIRCLE_LADDER
    if tol is None:
        tol = default_tol
    _check_tol(tol)
    peak = ru + rv
    _guard_exp_peak(peak, route)
    e_ru, e_rv = math.exp(ru), math.exp(rv)
    log_ru = math.log(ru) if ru else -math.inf
    log_rv = math.log(rv) if rv else -math.inf
    while True:
        # T(r, N) <= (r^N/N!)/(1 - r/(N+1)), the geometric bound for r < N + 1
        alias = math.inf
        if ru < n + 1 and rv < n + 1:
            log_fact = math.lgamma(n + 1)
            alias = (e_rv * math.exp(n * log_ru - log_fact) / (1.0 - ru / (n + 1))
                     + e_ru * math.exp(n * log_rv - log_fact) / (1.0 - rv / (n + 1)))
        if alias <= tol:
            break
        if 2 * n > max_nodes:
            raise ToleranceNotReachedError(
                f"{route}: no level of at most {max_nodes} nodes "
                f"has an alias bound <= tol={tol:g} (N={n}: {alias:.3e})",
                best=None,
            )
        n *= 2
    rounding = (n + 48.0 + 32.0 * peak) * _UNIT_ROUNDOFF * e_ru * e_rv
    return _certified(route, complex(kernel(*args, n)), n, alias + e_ru * g_error, rounding)


# hadamard_eval's promised ceiling for the imaginary residue of a result
# that is real in exact arithmetic, per unit of the largest integrand value
_IMAG_LIMIT_EVAL = 1e-10
# node counts whose root tables hadamard_eval keeps: verify's theorem1 runs
# one level of 4..9 nodes, the ladder 16, 32, ..., 1024
ROOT_CACHE_SIZE = 16


@functools.lru_cache(maxsize=ROOT_CACHE_SIZE)
def _roots(n: int) -> tuple[tuple[complex, complex], ...]:
    """(e^{i t_j}, e^{-i t_j}) at the n nodes t_j = (TWO_PI * j) / n, in
    ascending j, e^{i t_j} formed as cmath.exp(1j * t_j)."""
    points = [cmath.exp(1j * ((TWO_PI * j) / n)) for j in range(n)]
    return tuple((point, point.conjugate()) for point in points)


@dataclass(frozen=True)
class AnalyticFunction:
    """A real-coefficient power series, given by an evaluator and its radius.

    The evaluator must accept complex arguments; radius may be math.inf.
    Real coefficients mean evaluator(conj(z)) == conj(evaluator(z)), which
    the property suite samples rather than this class enforcing per call.
    """

    evaluator: Callable[[complex], complex]
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise InvalidQueryError(f"radius must be positive, got {self.radius!r}")

    def __call__(self, z: complex) -> complex:
        return self.evaluator(z)

    @classmethod
    def from_coefficients(cls, coefficients: list[float]) -> "AnalyticFunction":
        """Polynomial with the given real coefficients (radius infinite)."""
        # leading coefficient first; no coefficients is the zero polynomial
        leading_first = [float(c) for c in coefficients][::-1] or [0.0]
        lead, rest = complex(leading_first[0]), leading_first[1:]

        def evaluate(z: complex) -> complex:
            acc = lead
            for c in rest:
                acc = acc * z + c
            return acc

        return cls(evaluate, math.inf)


EXP = AnalyticFunction(cmath.exp, math.inf)


def _check_imag(value: complex, limit: float, what: str) -> None:
    if abs(value.imag) > limit:
        raise ImaginaryResidueError(
            f"{what}: imaginary residue {value.imag:.3e} exceeds {limit:.1e}"
        )


def hadamard_eval(
    f: AnalyticFunction,
    g: AnalyticFunction,
    u: float,
    v: float,
    nodes: int | None = None,
) -> QuadratureResult:
    """Evaluate h(u v) = (1/2pi) int f(u e^{i t}) g(v e^{-i t}) dt, h being
    the coefficient-wise product of f and g.

    u and v must lie strictly inside the respective radii.  nodes None runs
    the doubling ladder (converge with CIRCLE_LADDER), an int the one level
    of that many nodes (one_level), for example one known to be exact.
    Each level's mean sums F(t_j) = f(u e^{i t_j}) g(v e^{-i t_j}) in
    ascending j over _roots(n), a cached table of the node points, and
    divides by n: the same doubles as trapezoid_periodic_1d over the
    integrand t -> f(u e^{it}) g(v e^{-it}), without a Python call or an
    exp per node.  The value is returned as complex: its imaginary part is
    a consistency diagnostic and must stay below
    1e-10 * max(1, max_j |F(t_j)|) for real-coefficient input, the maximum
    taken over the nodes evaluated: rounding in the node sum scales with
    them.
    """
    if not abs(u) < f.radius:
        raise DomainViolationError(
            f"|u|={abs(u)!r} is not inside the first factor's radius {f.radius!r}"
        )
    if not abs(v) < g.radius:
        raise DomainViolationError(
            f"|v|={abs(v)!r} is not inside the second factor's radius {g.radius!r}"
        )
    f, g = f.evaluator, g.evaluator  # no __call__ layer per node
    peak = 1.0

    def node_mean(n: int) -> complex:
        nonlocal peak
        total = 0j
        for point, conj_point in _roots(n):
            value = f(u * point) * g(v * conj_point)
            size = abs(value)
            if size > peak:
                peak = size
            total += value
        return total / n

    result = converge(node_mean, CIRCLE_LADDER) if nodes is None else one_level(node_mean, nodes)
    _check_imag(result.value, _IMAG_LIMIT_EVAL * peak, "hadamard_eval")
    return result


def alpha2_integrand(x: float, t: float) -> float:
    """exp((x+1)cos t) * cos((x-1)sin t): the real circle integrand whose
    mean over [0, 2pi) is alpha(x, 2)."""
    return math.exp((x + 1.0) * math.cos(t)) * math.cos((x - 1.0) * math.sin(t))


def alpha2_quadrature(x: float, tol: float | None = None) -> QuadratureResult:
    """alpha(x, 2) as the circle mean of alpha2_integrand, the real part of
    exp(x e^{it}) exp(e^{-it}).

    One certified level (_circle_level with ru = |x|, rv = 1) for tol, None
    meaning 1e-12: the result's est_error = alias_bound + rounding_bound
    bounds its error.
    """
    x = _real(x)
    return _circle_level("alpha2_quadrature", abs(x), 1.0, tol, kernels.alpha2_mean, x)


def bessel_identity_check(
    a: float, b: float, tol: float | None = None
) -> tuple[float, float]:
    """Both sides of (1/2pi) int e^{a cos t + b sin t} dt = I0(sqrt(a^2+b^2)).

    Returns (quadrature lhs, series rhs); the window [0, 2pi) replaces the
    symmetric one by periodicity.  The lhs is _bessel_quadrature's one
    level certified to tol, None meaning 1e-12.
    """
    a, b = _real(a, "a"), _real(b, "b")
    lhs = _bessel_quadrature(a, b, tol)
    rhs = bessel_i0(math.hypot(a, b))
    return lhs.value.real, rhs.value.real


def _bessel_quadrature(a: float, b: float, tol: float | None = None) -> QuadratureResult:
    """I0(hypot(a, b)) as the circle mean of exp(a cos t + b sin t), one
    certified level.

    a cos t + b sin t = (c/2) e^{it} + (conj(c)/2) e^{-it} with c = a - ib,
    so both factors are exp at radius r = hypot(a, b)/2 (_circle_level with
    ru = rv = r); est_error = alias_bound + rounding_bound bounds the error.
    """
    r = math.hypot(a, b) / 2.0
    return _circle_level("bessel", r, r, tol, kernels.bessel_mean, a, b)


def alpha3_integrand_complex(x: float, theta: float, t: float) -> complex:
    """exp(x e^{i theta}) exp((e^{-i theta}+1)cos t) cos((e^{-i theta}-1)sin t).

    All three factors are complex; the cosine takes a complex argument,
    cos(a+bi) = cos a cosh b - i sin a sinh b.  The torus mean of this
    integrand is alpha(x, 3).
    """
    point = cmath.exp(1j * theta)
    conj_point = point.conjugate()
    return (
        cmath.exp(x * point)
        * cmath.exp((conj_point + 1.0) * math.cos(t))
        * cmath.cos((conj_point - 1.0) * math.sin(t))
    )


def alpha3_integrand_real(x: float, theta: float, t: float) -> float:
    """Fully expanded real form of alpha3_integrand_complex's real part.

    Two products share the common factor exp(x cos th + cos th cos t + cos t);
    the hyperbolic factors come from the complex cosine expansion.
    """
    cth = math.cos(theta)
    sth = math.sin(theta)
    ct = math.cos(t)
    st = math.sin(t)
    common = math.exp(x * cth + cth * ct + ct)
    a1 = x * sth - sth * ct
    a2 = cth * st - st
    a3 = sth * st
    return common * (
        math.cos(a1) * math.cos(a2) * math.cosh(a3)
        - math.sin(a1) * math.sin(a2) * math.sinh(a3)
    )


def alpha3_quadrature_real(x: float, tol: float = TORUS_LADDER[2]) -> QuadratureResult:
    """alpha(x, 3) as the torus mean of the expanded real integrand, at the
    one n x n level _torus_level certifies to alias by at most tol
    (default 1e-10): est_error = alias_bound + rounding_bound bounds the
    error."""
    return _torus_level("alpha3_quadrature_real", x, tol, kernels.alpha3_real_mean)


def alpha3_quadrature_complex(x: float, tol: float = TORUS_LADDER[2]) -> QuadratureResult:
    """alpha(x, 3) as the torus mean of the complex-product integrand, at
    the level and with the bounds of alpha3_quadrature_real.

    The imaginary part of the returned value is the torus average of the
    integrand's imaginary component and is reported, not dropped.
    """
    return _torus_level("alpha3_quadrature_complex", x, tol, kernels.alpha3_complex_mean)


def _torus_alias_sum(wx: list[float], w1: list[float], n: int) -> float:
    """Sum of wx[a] w1[b] w1[c] over a = b = c (mod n), a, b, c not all equal.

    Per residue class this is SX SY^2 - sum wx[a] w1[a]^2; it is summed as
    wx[a] (SY - w1[a]) (SY + w1[a]) with SY - w1[a] added up from the other
    members, so that no difference of nearly equal sums is formed.
    """
    total = 0.0
    for rho in range(n):
        xs, ys = wx[rho::n], w1[rho::n]
        sy = sum(ys)
        for i, wa in enumerate(xs):
            total += wa * (sum(ys[:i]) + sum(ys[i + 1:])) * (sy + ys[i])
    return total


def _torus_level(
    route: str, x: float, tol: float, kernel: Callable[..., complex]
) -> QuadratureResult:
    """kernel(x, n), the mean of either paper integrand over the smallest
    certified n x n torus grid, as _certified's result.

    The n x n trapezoid mean of either paper integrand is the mean of
    E = exp(x e^{i th} + e^{-i th} e^{it} + e^{-it}), which is
    sum x^a/(a! b! c!) over a = b = c (mod n); alpha(x, 3) keeps only
    a = b = c.  So |mean - alpha(x, 3)| <= alias_bound, the sum of
    |x|^a/(a! b! c!) over the other triples (Trefethen & Weideman, "The
    exponentially convergent trapezoidal rule", SIAM Rev. 2014), and n is
    the smallest n >= 4 with alias_bound <= tol.  Both depend on |x| and
    tol alone, so _torus_search finds them once per (|x|, tol) for both
    routes.  rounding_bound = 2 n^2 2^-53 e^{|x|+2} covers the rounding of
    n^2 node values of modulus at most e^{|x|+2} and of their sum; more
    nodes cannot lower it, so it is left out of the search.  Raises
    ToleranceNotReachedError (best None), naming the route and x, when n
    would pass TORUS_LADDER's 512 max nodes.
    """
    x = _real(x)
    _check_tol(tol)
    ax = abs(x)
    _guard_exp_peak(ax + 2.0, route)
    found = _torus_search(ax, tol)
    if found is None:
        raise ToleranceNotReachedError(
            f"{route}: no grid of at most {TORUS_LADDER[1]}^2 nodes "
            f"reaches tol={tol:g} at x={x!r}",
            best=None,
        )
    n, alias = found
    rounding = 2.0 * n * n * _UNIT_ROUNDOFF * math.exp(ax + 2.0)
    return _certified(route, complex(kernel(x, n)), n, alias, rounding)


# (|x|, tol) keys of the torus level search kept across calls; verify's
# expansion_s3 asks for five, the same in every seed
TORUS_SEARCH_CACHE_SIZE = 64


@functools.lru_cache(maxsize=TORUS_SEARCH_CACHE_SIZE)
def _torus_search(ax: float, tol: float) -> tuple[int, float] | None:
    """(n, alias_bound) of _torus_level at |x| = ax, a finite ax <= 698, for
    a positive tol: the smallest n >= 4 of at most TORUS_LADDER's 512 max
    nodes whose alias bound is at most tol, None when there is none."""
    # wx[k] = |x|^k/k! and w1[k] = 1/k! for k <= K, the first K >= 2|x| - 1 at
    # which the triples with an index past K weigh at most tol/1024 in all:
    # by the union bound tail(wx) e^2 + 2 e^{|x|+1} tail(w1), with the
    # geometric tails tail(wx) <= wx[K] r/(1-r), r = |x|/(K+1) <= 1/2, and
    # tail(w1) <= 2 w1[K]/(K+1)
    wx, w1 = [1.0], [1.0]
    while True:
        k = len(wx)
        r = ax / k
        if r <= 0.5:
            omitted = (math.e**2 * wx[-1] * r / (1.0 - r)
                       + 4.0 * math.exp(ax + 1.0) * w1[-1] / k)
            if omitted <= tol / 1024.0:
                break
        wx.append(wx[-1] * r)
        w1.append(w1[-1] / k)
    # the aliasing sum at n holds (n, 0, 0), (0, n, 0) and (0, 0, n), of weight
    # (|x|^n + 2)/n!, so no n below the first with that weight <= tol can pass
    n = 4
    while n < len(wx) and wx[n] + 2.0 * w1[n] > tol:
        n += 1
    while n <= TORUS_LADDER[1]:
        alias = _torus_alias_sum(wx, w1, n) + omitted
        if alias <= tol:
            return n, alias
        n += 1
    return None


def alpha_via_hadamard(x: float, s: int, tol: float | None = None) -> QuadratureResult:
    """alpha(x, s) through the coefficient-product lift, for s >= 2.

    One circle integral of exp(x e^{i theta}) * alpha(e^{-i theta}, s-1)
    with the inner factor evaluated by the complex-argument series; both
    factors are entire, so no radius precondition can fail.  It runs one
    level certified to tol, None meaning 1e-12 (_circle_level with
    ru = |x| and rv = 1, since
    1/(p!)^(s-1) <= 1/p!); alias_bound also holds the inner series' tail,
    at most 2 INNER_TOL per node value, so 2 INNER_TOL e^{|x|} in the mean.
    est_error = alias_bound + rounding_bound bounds the error.  The exact
    value is real, so an imaginary residue above est_error would prove the
    bound wrong and raises ImaginaryResidueError.
    """
    if not isinstance(s, int) or s < 2:
        raise InvalidQueryError(f"the lift needs integer s >= 2, got {s!r}")
    _check_s_fits(s)
    x = _real(x)
    result = _circle_level("alpha_via_hadamard", abs(x), 1.0, tol, kernels.exp_alpha_mean,
                           x, s, g_error=2.0 * kernels.INNER_TOL)
    _check_imag(result.value, result.est_error, "alpha_via_hadamard")
    return result
