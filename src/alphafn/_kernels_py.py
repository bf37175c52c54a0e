"""Numerical kernels, bound for the package as `alphafn.backend.kernels`.

Everything here is scalar double-precision Python arithmetic.

Series kernels return ``(value, terms_used, tail_bound, abs_sum,
converged)``, abs_sum being the sum of the magnitudes of the added terms,
and never raise; the callers own the error contract.  The lift calls
`alpha_sum` and `alphafn.series` calls `alpha_deriv_sum`, two names over
one term loop, `_term_sum`; a tracer wrapping both counts each call once.

Mean kernels return the equal-weight average of an integrand over ``n``
uniformly spaced circle (or torus) nodes ``theta_j = 2*pi*j/n``,
accumulated in ascending node order for reproducibility.  There are two
contracts:

- the circle kernels `alpha2_mean`, `bessel_mean` and `exp_alpha_mean`
  take ``(params..., n)`` and average over all n nodes; the circle routes
  run one level each;
- the torus kernels `alpha3_real_mean` and `alpha3_complex_mean` take
  ``(params..., n, fresh=False)``; the torus routes run one full level
  each.  With ``fresh=True`` they average over only the nodes that level
  ``n/2`` lacks (`_torus_rows`), for compare's nested torus ladder,
  `alphafn.hadamard._ladder`.

A tracer reads ``n`` positionally, so it stays a positional parameter.

`exp_alpha_mean`, the lift's kernel, is the one kernel with state across
calls: `_lift_nodes` sums its x-free factor alpha(e^{-i th}, s-1) once per
(s, n) and keeps the node tables in a bounded lru_cache.

The torus kernels build one trig table per call, ``cos`` and ``sin`` of
``(TWO_PI * k) / n`` for k < n, and read both the row angle and the node
angle from it; the row constants are formed once per row.  The table lives
only for the call.  Each expression keeps its order of operations and the
sum its order, cached or not, so the results are the same doubles as
evaluating the integrand node by node.
"""

import cmath
import functools
import itertools
import math
import sys

from .quadrature import TWO_PI

# At |z| = 1 the ratio bound is at most 1/2 from n = 1 and t_n <= 1/n!, so
# alpha_sum stops within 18 terms at this tol for any s fitting a double
INNER_TOL = 1e-15
# (s, n) keys of the lift's node table kept across calls; compare's lift
# takes s = 2..5 at one level of 16..64 nodes each
LIFT_CACHE_SIZE = 64


def _term_sum(x, s, k, tol):
    """Sum the k-th term-wise derivative of alpha, k = 0 being alpha itself.

    Term n >= k, n!/(n-k)! x^(n-k)/(n!)^s, starts at (k!)^(1-s), the empty
    product 1 for k <= 1, and follows term_{n+1} = term_n * x/d_n with
    d_n = (n+1)^s (n+1-k)/(n+1) for every k (the factor is exactly 1.0 at
    k = 0), never forming (n!)**s.  The ratio bound r_n = |x|/d_n only
    falls, so after term n the loop stops once t_n*r_n <= tol and
    r_n <= 1/2, with the geometric tail bound t_n*r_n/(1-r_n).  Where
    (n+1)^s passes DBL_MAX (math.pow raises; the callers pass only an s
    that fits a double), the ratio is taken through its logarithm,
    log|x| + log((n+1)/(n+1-k)) - s log(n+1), plus the least double so
    that it still bounds a ratio that underflows, and the terms follow as
    term_n * (x/|x|) * r_n under the same stop.  Where term_n * x
    overflows, the step is retried as term_n * (x/d_n).  Since r_n falls
    to 0, every finite x ends at the stop or gives up at the first term
    that is still not finite or whose modulus passes DBL_MAX, reporting the
    count of terms added before it; after a subnormal first coefficient it
    gives up unless the first term stops.  A sum whose magnitudes pass
    DBL_MAX is not converged either, though every term is a double.
    A tail bound that underflows to 0 at x != 0 is raised to the least
    double, since the terms it drops are positive.

    A real x (zero imaginary part) is summed in floats and its total
    returned as a complex: complex arithmetic on operands whose imaginary
    parts are zero rounds the real parts exactly as float arithmetic does,
    so the value is the same double at a fraction of the cost.
    """
    x = complex(x)
    if not x.imag:
        x = x.real
    number = type(x)  # float or complex: the type of the terms and the total
    ax = abs(x)
    c = 1.0  # (k!)^(1-s); a loop costs less than math.prod over a generator
    for i in range(2, k + 1):
        c *= math.pow(i, 1 - s)
    term = number(c)
    total = number()
    abs_sum = 0.0
    steps = itertools.count(k + 1) if c >= sys.float_info.min else (k + 1,)
    for n1 in steps:  # n1 = n + 1
        total += term
        t_mag = abs(term)
        abs_sum += t_mag
        try:
            d = math.pow(n1, s) * ((n1 - k) / n1)
            r = ax / d
        except OverflowError:  # (n+1)^s > DBL_MAX: follow the ratio through logs
            r = 0.0
            if ax:
                r = math.exp(math.log(ax) + math.log(n1 / (n1 - k)) - s * math.log(n1))
                r += math.ulp(0.0)
            if r <= 0.5 and t_mag * r <= tol:
                break
            term = term * (x / ax) * r
            if not math.hypot(term.real, term.imag) <= sys.float_info.max:
                return complex(total), n1 - k, math.inf, abs_sum, False
            continue
        if r <= 0.5 and t_mag * r <= tol:
            break
        step = term * x / d
        if not cmath.isfinite(step):  # term * x passed DBL_MAX, the next term may not
            step = term * (x / d)
            # abs() raises past DBL_MAX; hypot is inf there and NaN on a NaN
            if not math.hypot(step.real, step.imag) <= sys.float_info.max:
                return complex(total), n1 - k, math.inf, abs_sum, False
        term = step
    else:  # only the first term of a subnormal coefficient is summed
        return complex(total), 1, math.inf, abs_sum, False
    tail = t_mag * r / (1.0 - r)
    if not tail and ax:
        tail = math.ulp(0.0)
    return complex(total), n1 - k, tail, abs_sum, math.isfinite(abs_sum)


def alpha_sum(x, s, tol):
    """Sum x^n/(n!)^s by _term_sum at k = 0."""
    return _term_sum(x, s, 0, tol)


def alpha_deriv_sum(x, s, k, tol):
    """Sum the k-th term-wise derivative: sum_{n>=k} n!/(n-k)! x^(n-k)/(n!)^s."""
    return _term_sum(x, s, k, tol)


def alpha2_mean(x, n):
    """Circle mean of exp((x+1)cos t)*cos((x-1)sin t) over n nodes."""
    xp1 = x + 1.0
    xm1 = x - 1.0
    total = 0.0
    for j in range(n):
        t = (TWO_PI * j) / n
        total += math.exp(xp1 * math.cos(t)) * math.cos(xm1 * math.sin(t))
    return total / n


def bessel_mean(a, b, n):
    """Circle mean of exp(a*cos t + b*sin t) over n nodes."""
    total = 0.0
    for j in range(n):
        t = (TWO_PI * j) / n
        total += math.exp(a * math.cos(t) + b * math.sin(t))
    return total / n


def _torus_rows(n, fresh=False):
    """Rows (j, ks) of the level-n torus grid, ascending in j; with fresh,
    only the nodes with j or k odd, which level n/2 lacks."""
    every = range(n)
    odd = range(1, n, 2) if fresh else every
    return [(j, every if j % 2 else odd) for j in every]


def _trig_table(n):
    """cos and sin of the level-n angles (TWO_PI * k) / n, k < n."""
    angles = [(TWO_PI * k) / n for k in range(n)]
    return [math.cos(t) for t in angles], [math.sin(t) for t in angles]


def alpha3_real_mean(x, n, fresh=False):
    """Torus mean of the expanded real integrand for the s=3 identity.

    Integrand: exp(x cos th + cos th cos t + cos t) *
      [cos(x sin th - sin th cos t) cos(cos th sin t - sin t) cosh(sin th sin t)
       - sin(x sin th - sin th cos t) sin(cos th sin t - sin t) sinh(sin th sin t)]
    """
    cos_t, sin_t = _trig_table(n)
    total = 0.0
    count = 0
    for j, ks in _torus_rows(n, fresh):
        cth = cos_t[j]
        sth = sin_t[j]
        x_cth = x * cth
        x_sth = x * sth
        for kk in ks:
            ct = cos_t[kk]
            st = sin_t[kk]
            common = math.exp(x_cth + cth * ct + ct)
            a1 = x_sth - sth * ct
            a2 = cth * st - st
            a3 = sth * st
            total += common * (
                math.cos(a1) * math.cos(a2) * math.cosh(a3)
                - math.sin(a1) * math.sin(a2) * math.sinh(a3)
            )
        count += len(ks)
    return total / count


def alpha3_complex_mean(x, n, fresh=False):
    """Torus mean of exp(x e^{i th}) exp((e^{-i th}+1)cos t) cos((e^{-i th}-1)sin t)."""
    cos_t, sin_t = _trig_table(n)
    total = 0j
    count = 0
    for j, ks in _torus_rows(n, fresh):
        eith = complex(cos_t[j], sin_t[j])
        emith = eith.conjugate()
        f1 = cmath.exp(x * eith)
        emith_p1 = emith + 1.0
        emith_m1 = emith - 1.0
        for kk in ks:
            total += f1 * cmath.exp(emith_p1 * cos_t[kk]) * cmath.cos(emith_m1 * sin_t[kk])
        count += len(ks)
    return total / count


@functools.lru_cache(maxsize=LIFT_CACHE_SIZE)
def _lift_nodes(s, n):
    """exp_alpha_mean's nodes in ascending order as pairs (e^{i th},
    alpha(e^{-i th}, s-1)), the inner alpha summed within INNER_TOL."""
    nodes = []
    for j in range(n):
        th = (TWO_PI * j) / n
        eith = complex(math.cos(th), math.sin(th))
        inner = alpha_sum(eith.conjugate(), s - 1, INNER_TOL)[0]
        nodes.append((eith, inner))
    return tuple(nodes)


def exp_alpha_mean(x, s, n):
    """Circle mean of exp(x e^{i th}) * alpha(e^{-i th}, s-1) over n nodes,
    the second factor taken from _lift_nodes(s, n)."""
    total = 0j
    for eith, inner in _lift_nodes(s, n):
        total += cmath.exp(x * eith) * inner
    return total / n
