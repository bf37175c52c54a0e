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
from typing import Callable, Iterable, NamedTuple, Sequence

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
    QuadratureResult,
    _level,
    converge,
    one_level,
    # not called here: bound so that perfbench/tracing.py can wrap it here
    trapezoid_periodic_1d,  # noqa: F401
)
from .series import _UNIT_ROUNDOFF, _check_query, _real, _summed, _tol, bessel_i0

# exp overflows doubles just above 709; the closed-form integrands peak at
# exp of the values guarded here, so reject inputs past this point with a
# message that names the route instead of an OverflowError from a kernel
_EXP_PEAK_LIMIT = 700.0


def _guard_exp_peak(peak: float, route: str) -> None:
    # every caller checks its arguments finite first; a NaN peak is refused
    # here all the same, since _torus_search would never end on one
    if not peak <= _EXP_PEAK_LIMIT:
        raise InvalidQueryError(
            f"{route}: integrand peak exp({peak:.1f}) exceeds the "
            "double-precision range; use alpha_series instead"
        )


def _ladder(route: str, x: float, kernel: Callable[..., complex]) -> QuadratureResult:
    """compare's s = 3 torus route: guard the integrand's exp peak, then run
    the per-node torus mean kernel(x, n) through TORUS_LADDER.

    est_error is the ladder's |value_N - value_{N/2}|, an estimate.  The
    ladder's levels are nested: level n's nodes are the even ones of level
    2n, so level 2n evaluates only the (j, k) with j or k odd,
    kernel(x, 2n, fresh=True), and combines them with level n's mean as
    (prev + 3 fresh)/4, which saves a quarter of each level.  The caller
    passes the kernel: report.ROUTES reads kernels.alpha3_real_mean or
    kernels.alpha3_complex_mean at call time.
    """
    _guard_exp_peak(abs(x) + 2.0, route)
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


# one certified level: (value, N, alias_bound, rounding_bound)
_Level = tuple[complex, int, float, float]


def _result(level: _Level) -> QuadratureResult:
    """The public routes' QuadratureResult of a certified level, est_error =
    alias_bound + rounding_bound."""
    value, n, truncation, rounding = level
    return QuadratureResult(value, n, truncation + rounding, truncation, rounding)


# _circle_level's second factor: (rv, q, A, log A, truncation, rounding)
_Factor = tuple[float, int, float, float, float, float]


def _exp_factor(r: float) -> _Factor:
    """exp as _circle_level's second factor at radius r, (r, 1, e^r, r, 0, 0),
    e^r taken as inf past the limit, where the peak guard refuses it."""
    return r, 1, (math.exp(r) if r <= _EXP_PEAK_LIMIT else math.inf), r, 0.0, 0.0


def _circle_level(
    route: str, ru: float, g: _Factor, tol: float | None,
    kernel: Callable[..., complex], *args: float,
) -> _Level:
    """One certified trapezoid level of a circle route, unchecked but for
    tol: the core of the circle routes, which report's entries call, and
    the one place their tol is resolved and checked (series._tol: None
    means CIRCLE_LADDER's 1e-12, anything but a positive number raises
    InvalidQueryError).

    kernel(*args, N) is the N-node mean of F(t) = f(u e^{it}) g(v e^{-it}).
    The second factor g = (rv, q, A, log A, truncation, rounding) (exp's,
    _exp_factor, or the lift's alpha(., s-1), _inner_series) says that the
    coefficient magnitudes |a_m| |u|^m and |b_p| |v|^p are at most ru^m/m!
    and rv^p/(p!)^q, q >= 1, so that |f| <= e^{ru} and
    |g| <= alpha(rv, q) <= A on the circle, and bounds what g's value at a
    node leaves out and its rounding.  The mean keeps the terms of F with
    m - p = 0 (mod N), the integral only m = p, so the error is at most the
    aliasing sum over m - p = jN, j != 0 (Trefethen & Weideman, "The
    exponentially convergent trapezoidal rule", SIAM Rev. 2014):
        A_N <= A T_1(ru, N) + e^{ru} T_q(rv, N),
        T_q(r, N) = sum_{p>=N} r^p/(p!)^q.
    N is the first of 16 * 2^k up to 1024 (CIRCLE_LADDER's node counts)
    with A_N <= tol, and the kernel runs that one level, alias_bound =
    A_N + e^{ru} truncation.  The peak guard reads ru + log A before e^{ru}
    is formed.

    rounding_bound = (N + 48 + 32 (ru + rv)) 2^-53 M + e^{ru} rounding, with
    M = e^{ru} A >= |F| on the circle (after Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3-4):
      - the ascending sum of the N node values and the division by N add at
        most N 2^-53 M;
      - a node angle (TWO_PI j)/N is within 3 * 2pi 2^-53 < 19 * 2^-53 of
        the exact one, and |F'| <= (ru + rv) M, since |v g'(v e^{-it})| <=
        sum_p p rv^p/(p!)^q <= rv alpha(rv, q) (p/(p!)^q <= 1/((p-1)!)^q);
      - cos and sin of it are within 2 * 2^-53, so the arguments of f and g
        are within 8 (ru + rv) 2^-53 of exact, which turns into as much
        relative error by the same bound on F';
      - exp, cos and the products add a few 2^-53 M, which 48 * 2^-53 M
        covers.
    It returns (value, N, alias_bound, rounding_bound), whose sum bounds
    the error (_result's est_error), also where that sum is not below
    |value|: report._certified refuses such a value, the library returns
    it.  Raises ToleranceNotReachedError (exit 3) when no level reaches
    tol, and quadrature._level's refusal when the level mean is not finite.
    """
    n, max_nodes, default_tol = CIRCLE_LADDER
    tol = _tol(tol, default_tol)
    rv, q, a_rv, log_a_rv, g_truncation, g_rounding = g
    _guard_exp_peak(ru + log_a_rv, route)
    e_ru = math.exp(ru)
    log_ru = math.log(ru) if ru else -math.inf
    log_rv = math.log(rv) if rv else -math.inf
    while True:
        # T_q(r, N) <= (r^N/(N!)^q)/(1 - r/(N+1)^q), the geometric bound for
        # r < (N+1)^q
        alias = math.inf
        if ru < n + 1 and rv < (n + 1) ** q:
            log_fact = math.lgamma(n + 1)
            alias = (a_rv * math.exp(n * log_ru - log_fact) / (1.0 - ru / (n + 1))
                     + e_ru * math.exp(n * log_rv - q * log_fact) / (1.0 - rv / (n + 1) ** q))
        if alias <= tol:
            break
        if 2 * n > max_nodes:
            raise ToleranceNotReachedError(
                f"{route}: no level of at most {max_nodes} nodes "
                f"has an alias bound <= tol={tol:g} (N={n}: {alias:.3e})",
                best=None,
            )
        n *= 2
    rounding = (n + 48.0 + 32.0 * (ru + rv)) * _UNIT_ROUNDOFF * e_ru * a_rv + e_ru * g_rounding
    value = _level(functools.partial(kernel, *args), n, route)
    return value, n, alias + e_ru * g_truncation, rounding


# hadamard_eval's promised ceiling for the imaginary residue of a result
# that is real in exact arithmetic, per unit of the largest integrand value
_IMAG_LIMIT_EVAL = 1e-10


class _AnalyticFields(NamedTuple):
    evaluator: Callable[[complex], complex]
    radius: float


class AnalyticFunction(_AnalyticFields):
    """A real-coefficient power series, given by an evaluator and its radius:
    an immutable NamedTuple (evaluator, radius).

    The evaluator must accept complex arguments; radius may be math.inf.
    Real coefficients mean evaluator(conj(z)) == conj(evaluator(z)), which
    the property suite samples rather than this class enforcing per call.
    """

    __slots__ = ()

    def __new__(cls, evaluator: Callable[[complex], complex], radius: float):
        if not radius > 0:
            raise InvalidQueryError(f"radius must be positive, got {radius!r}")
        return tuple.__new__(cls, (evaluator, radius))

    @classmethod
    def _make(cls, iterable) -> "AnalyticFunction":
        # _replace builds through _make, which would skip the radius check
        return cls(*iterable)

    def __call__(self, z: complex) -> complex:
        return self.evaluator(z)

    @classmethod
    def from_coefficients(cls, coefficients: Iterable[float]) -> "AnalyticFunction":
        """Polynomial with the given real coefficients, constant term first
        (radius infinite), evaluated by Horner's rule from the leading one."""
        # no coefficients is the zero polynomial
        rest = list(map(float, coefficients))
        lead = complex(rest.pop()) if rest else 0j
        rest.reverse()

        def evaluate(z: complex) -> complex:
            acc = lead
            for c in rest:
                acc = acc * z + c
            return acc

        # an infinite radius needs no check
        return tuple.__new__(cls, (evaluate, math.inf))


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
    of that many nodes (one_level), whose est_error 0.0 only repeats the
    caller's claim that it is exact: nodes=4 at f = g = EXP, u = v = 1
    returns 2.3810978455418152 for I0(2) = 2.2795853023360673.
    Each level's mean sums F(t_j) = f(u e^{i t_j}) g(v e^{-i t_j}) in
    ascending j over the node points of the kernels' shared table,
    kernels._nodes(n), and divides by n: the same doubles as
    trapezoid_periodic_1d over the integrand t -> f(u e^{it}) g(v e^{-it}),
    without a Python call or an exp per node.  The value is returned as
    complex: its imaginary part is a consistency diagnostic and must stay below
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
        for point, conj_point in kernels._nodes(n)[2]:
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
    _check_query(x, 2)
    return _result(_alpha2_level(x, tol))


def _alpha2_level(x: float, tol: float | None) -> _Level:
    """alpha2_quadrature's level for a real x."""
    return _circle_level(
        "alpha2_quadrature", abs(x), _exp_factor(1.0), tol, kernels.alpha2_mean, x)


def bessel_identity_check(
    a: float, b: float, tol: float | None = None
) -> tuple[float, float]:
    """Both sides of (1/2pi) int e^{a cos t + b sin t} dt = I0(sqrt(a^2+b^2)).

    Returns (quadrature lhs, series rhs); the window [0, 2pi) replaces the
    symmetric one by periodicity.  The lhs is _bessel_level's one level
    certified to tol, None meaning 1e-12.  a and b must be real and finite.
    """
    a, b = _real(a, "a"), _real(b, "b")
    for name, value in (("a", a), ("b", b)):
        if not math.isfinite(value):
            raise InvalidQueryError(f"{name} must be finite, got {value!r}")
    lhs = _bessel_level(a, b, tol)[0]
    rhs = bessel_i0(math.hypot(a, b))
    return lhs.real, rhs.value.real


def _bessel_level(a: float, b: float, tol: float | None) -> _Level:
    """I0(hypot(a, b)) as the circle mean of exp(a cos t + b sin t), one
    certified level.

    a cos t + b sin t = (c/2) e^{it} + (conj(c)/2) e^{-it} with c = a - ib,
    so both factors are exp at radius r = hypot(a, b)/2 (_circle_level with
    ru = rv = r); alias_bound + rounding_bound bounds the error.
    """
    r = math.hypot(a, b) / 2.0
    return _circle_level("bessel", r, _exp_factor(r), tol, kernels.bessel_mean, a, b)


def _alpha3_complex_row(
    x: float, point: complex, conj_point: complex, cos_t: Sequence[float], sin_t: Sequence[float]
) -> list[complex]:
    """alpha3_integrand_complex along the row theta with e^{i theta} = point
    and e^{-i theta} = conj_point, at the columns t given by their cos and
    sin: exp(x e^{i theta}) and e^{-i theta} +- 1 are formed once per row."""
    row = cmath.exp(x * point)
    conj_p1 = conj_point + 1.0
    conj_m1 = conj_point - 1.0
    return [row * cmath.exp(conj_p1 * ct) * cmath.cos(conj_m1 * st)
            for ct, st in zip(cos_t, sin_t)]


def _alpha3_real_row(
    x: float, cth: float, sth: float, cos_t: Sequence[float], sin_t: Sequence[float]
) -> list[float]:
    """alpha3_integrand_real along the row theta with cos theta = cth and
    sin theta = sth, at the columns t given by their cos and sin: x cos th
    and x sin th are formed once per row."""
    x_cth = x * cth
    x_sth = x * sth
    values = []
    for ct, st in zip(cos_t, sin_t):
        common = math.exp(x_cth + cth * ct + ct)
        a1 = x_sth - sth * ct
        a2 = cth * st - st
        a3 = sth * st
        values.append(common * (
            math.cos(a1) * math.cos(a2) * math.cosh(a3)
            - math.sin(a1) * math.sin(a2) * math.sinh(a3)
        ))
    return values


def alpha3_integrand_complex(x: float, theta: float, t: float) -> complex:
    """exp(x e^{i theta}) exp((e^{-i theta}+1)cos t) cos((e^{-i theta}-1)sin t).

    All three factors are complex; the cosine takes a complex argument,
    cos(a+bi) = cos a cosh b - i sin a sinh b.  The torus mean of this
    integrand is alpha(x, 3).  It is _alpha3_complex_row at the one column
    t, with e^{i theta} = cmath.exp(1j * theta).
    """
    point = cmath.exp(1j * theta)
    return _alpha3_complex_row(x, point, point.conjugate(), (math.cos(t),), (math.sin(t),))[0]


def alpha3_integrand_real(x: float, theta: float, t: float) -> float:
    """Fully expanded real form of alpha3_integrand_complex's real part.

    Two products share the common factor exp(x cos th + cos th cos t + cos t);
    the hyperbolic factors come from the complex cosine expansion.  It is
    _alpha3_real_row at the one column t.
    """
    return _alpha3_real_row(
        x, math.cos(theta), math.sin(theta), (math.cos(t),), (math.sin(t),))[0]


def alpha3_quadrature_real(x: float, tol: float | None = None) -> QuadratureResult:
    """alpha(x, 3) as the torus mean of the expanded real integrand, at the
    one n x n level _torus_level certifies to alias by at most tol
    (None meaning 1e-10), as its _result: est_error = alias_bound +
    rounding_bound bounds the error.

    The mean is summed by rows, kernels.alpha3_real_row_mean: n cached
    x-free row sums, each weighted by e^{x cos th} times cos(x sin th) or
    sin(x sin th).  It differs from the node-by-node sum by rounding only,
    and _torus_level shows that rounding_bound covers this order.
    """
    x = _real(x)
    _check_query(x, 3)
    return _result(_torus_level(
        "alpha3_quadrature_real", x, tol, kernels.alpha3_real_row_mean))


def alpha3_quadrature_complex(x: float, tol: float | None = None) -> QuadratureResult:
    """alpha(x, 3) as the torus mean of the complex-product integrand, at
    the level, with the bounds and the tol (None meaning 1e-10) of
    alpha3_quadrature_real, as _torus_level's _result, summed by rows
    as kernels.alpha3_complex_row_mean: n cached x-free row sums, each
    weighted by exp(x e^{i th}).

    The imaginary part of the returned value is the torus average of the
    integrand's imaginary component and is reported, not dropped.
    """
    x = _real(x)
    _check_query(x, 3)
    return _result(_torus_level(
        "alpha3_quadrature_complex", x, tol, kernels.alpha3_complex_row_mean))


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
    route: str, x: float, tol: float | None, kernel: Callable[..., complex]
) -> _Level:
    """kernel(x, n), the mean of either paper integrand over the smallest
    certified n x n torus grid, at a real, finite x (the public routes
    check it with _real and _check_query): the torus routes' core, which returns (value, n,
    alias_bound, rounding_bound), also where their sum is not below |value|
    (report._certified refuses that).  It resolves and checks tol once
    (series._tol: None means TORUS_LADDER's 1e-10, anything but a positive
    number raises InvalidQueryError).

    The n x n trapezoid mean of either paper integrand is the mean of
    E = exp(x e^{i th} + e^{-i th} e^{it} + e^{-it}), which is
    sum x^a/(a! b! c!) over a = b = c (mod n); alpha(x, 3) keeps only
    a = b = c.  So |mean - alpha(x, 3)| <= alias_bound, the sum of
    |x|^a/(a! b! c!) over the other triples (Trefethen & Weideman, "The
    exponentially convergent trapezoidal rule", SIAM Rev. 2014), and n is
    the smallest n >= 4 with alias_bound <= tol.  Both depend on |x| and
    tol alone, so _torus_search finds them once per (|x|, tol) for both
    routes.  Raises ToleranceNotReachedError (best None), naming the route
    and x, when n would pass TORUS_LADDER's 512 max nodes, and
    quadrature._level's refusal when the mean is not finite.

    rounding_bound = 2 n^2 2^-53 M, M = e^{|x|+2}, bounds the rounding
    (after Higham, Accuracy and Stability of Numerical Algorithms, ch. 3-4);
    more nodes cannot lower it, so it is left out of the search.  The
    complex node value is G = exp(x e^{i th}) h with
    h = exp((e^{-i th}+1) cos t) cos((e^{-i th}-1) sin t), and
    |h| <= e^{(1 + cos th) cos t + |sin th sin t|} <= e^{sqrt(2 + 2 cos th)}
    <= e^2 by Cauchy-Schwarz; the real route's row summands are Re h and
    -Im h, pointwise, so every summand is at most e^2 and every node value
    at most M.  Let K 2^-53 M bound the cost of forming one node value from
    the node table: exp, cos, sin, cosh and sinh within an ulp, their
    arguments and the products within a few.  Node by node, n^2 values and
    their ascending sum cost (K + n^2) 2^-53 M, which the bound covers while
    K <= n^2.  The kernel sums by rows instead (kernel(x, n) being
    alpha3_real_row_mean or alpha3_complex_row_mean), and per row:
      - the ascending sum of n summands of size <= e^2 adds
        (n - 1) 2^-53 n e^2, which the row factor of size <= e^{|x|} makes
        (n - 1) 2^-53 n M (the real route's pair (U_j, V_j) is the complex
        row sum's parts, summed componentwise, so it costs no more);
      - forming the summands, the row factor and their product costs the
        same K 2^-53 M per node as the node order, n K 2^-53 M per row;
      - the ascending sum of the n rows, of total size <= n^2 M, adds
        (n - 1) 2^-53 n M per row.
    Divided by n^2, with 2^-53 M for the division, that is
    (K + 2n - 1) 2^-53 M, so the bound covers the row order while
    K <= 2n^2 - 2n + 1 = n^2 + 9 + (n - 4)(n + 2): for every n >= 4 that
    leaves each node at least 9 2^-53 M more than the node order did.
    """
    tol = _tol(tol, TORUS_LADDER[2])
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
    return _level(functools.partial(kernel, x), n, route), n, alias, rounding


@functools.lru_cache(maxsize=kernels.CACHE_SIZE)
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


@functools.lru_cache(maxsize=kernels.CACHE_SIZE)
def _inner_series(rv: float, q: int) -> _Factor:
    """_circle_level's second factor g = (rv, q, A, log A, 2 INNER_TOL,
    rounding) for the lift's alpha(z, q) at |z| = rv > 0, summed within
    INNER_TOL, which leaves a tail of at most 2 INNER_TOL.

    A = value + tail + rounding of series._summed at z = rv, whose terms
    are all positive, bounds alpha(rv, q), which bounds |alpha(z, q)| and
    the sum of the magnitudes of its terms.  At |z| = rv the terms have the same
    magnitudes to within rounding, and one term more brings the stop's
    t_n r_n below half of INNER_TOL, so every inner sum on the circle adds
    at most K terms, K being the count at z = rv plus one.  Each term is
    formed by a complex product, a division and a pow, within 6 2^-53 per
    step, so term p is within 6 p 2^-53 |t_p|, and sum p |t_p| <= rv A
    (p/(p!)^q <= 1/((p-1)!)^q); the K additions add at most K 2^-53 A.  So
    rounding = (K + 6 rv) 2^-53 A bounds the rounding of each inner value.
    At q = 1, A and log A are exp's, e^{rv} and rv, as in _exp_factor.
    """
    value, terms, tail, rounding = _summed(complex(rv), q, 0, kernels.INNER_TOL)
    bound = value.real + tail + rounding
    rounding = (terms + 1 + 6.0 * rv) * _UNIT_ROUNDOFF * bound
    a, log_a = (math.exp(rv), rv) if q == 1 else (bound, math.log(bound))
    return rv, q, a, log_a, 2.0 * kernels.INNER_TOL, rounding


def alpha_via_hadamard(x: float, s: int, tol: float | None = None) -> QuadratureResult:
    """alpha(x, s) through the coefficient-product lift, for s >= 2.

    One circle integral of exp((x/rv) e^{i theta}) * alpha(rv e^{-i theta},
    s-1), whose coefficient-wise product is sum x^m/(m!)^s for any rv > 0
    (kernels.exp_alpha_mean), the inner factor evaluated by the
    complex-argument series; both factors are entire, so no radius
    precondition can fail.  It runs one level certified to tol, None
    meaning 1e-12: _circle_level with ru = |x|/rv and q = min(s - 1, 64),
    since 1/(p!)^(s-1) <= 1/(p!)^q (a smaller q only loosens the bounds,
    and keeps (N+1)^q a double).

    The split: rv = 2^k, k the integer nearest to log2 of
    |x|^(q/(q+1)) 2^((q-1)/2), kept within [0, 6] (k = 0 at x = 0).  The
    first factor |x|^(q/(q+1)) sets ru = rv^(1/q), where log M = ru +
    log alpha(rv, q), about ru + q rv^(1/q), is least; the second raises
    rv, since exp's alias term alpha(rv, q) T_1(ru, N) falls the slowest
    in N.  On the compare workload (|x| <= 8) this runs 16 nodes at s >= 4,
    where the unit split ru = |x|, rv = 1 ran up to 64, and at |x| <= 5 no
    level is above the unit split's.  A power of two keeps x/rv and
    rv e^{-i theta} exact, and the cap bounds the inner series and the
    node tables, one per (s, N, rv).

    alias_bound also holds the inner series' tail, at most 2 INNER_TOL per
    node value, and rounding_bound its rounding, _inner_series(rv, q)'s
    bound per node value.  est_error = alias_bound + rounding_bound bounds
    the error.  The exact value is real, so an imaginary residue above
    est_error would prove the bound wrong and raises ImaginaryResidueError.
    x is checked real, then s by _lift_refusal, then both by _check_query.
    """
    x = _real(x)
    if (reason := _lift_refusal(s)) is not None:
        raise InvalidQueryError(reason)
    _check_query(x, s)
    return _result(_lift_level(x, s, tol))


def _lift_refusal(s: int) -> str | None:
    """Why the lift does not serve s (an integer >= 2), None where it does."""
    return None if isinstance(s, int) and s >= 2 else f"the lift needs integer s >= 2, got {s!r}"


def _lift_level(x: float, s: int, tol: float | None) -> _Level:
    """alpha_via_hadamard's level for a checked real x and an s it accepts:
    the radius split, _circle_level and the imaginary-residue check."""
    ax, q = abs(x), min(s - 1, 64)
    k = min(6, max(0, round(q / (q + 1) * math.log2(ax) + (q - 1) / 2))) if ax else 0
    rv = 2.0**k
    # the kernel is read at call time, so that a tracer rebinding it reaches it
    value, n, alias, rounding = _circle_level(
        "alpha_via_hadamard", ax / rv, _inner_series(rv, q), tol,
        lambda n: kernels.exp_alpha_mean(x, s, n, rv))
    _check_imag(value, alias + rounding, "alpha_via_hadamard")
    return value, n, alias, rounding
