"""Numerical kernels, bound for the package as `alphafn.backend.kernels`.

Everything here is scalar double-precision Python arithmetic.

Series kernels return ``(value, terms_used, tail_bound, abs_sum,
converged)``, abs_sum being the sum of the magnitudes of the added terms,
and never raise; the callers own the error contract.  The lift calls
`alpha_sum` and `alphafn.series` calls `alpha_deriv_sum`, two names over
one term loop, `_term_sum`; a tracer wrapping both counts each call once.

Mean kernels return the equal-weight average of an integrand over ``n``
uniformly spaced circle (or torus) nodes ``t_k = (TWO_PI * k) / n``.  Every
mean reads its nodes from one bounded lru_cache table, `_nodes(n)`: cos t_k,
sin t_k and the points e^{+-i t_k}, which `hadamard.hadamard_eval` reads
too.  There are three contracts:

- the circle kernels `alpha2_mean`, `bessel_mean` and `exp_alpha_mean`
  take ``(params..., n)`` (`exp_alpha_mean` ``(x, s, n, rv)``) and average
  over all n nodes; the circle routes run one level each;
- the per-node torus kernels `alpha3_real_mean` and `alpha3_complex_mean`
  take ``(params..., n, fresh=False)`` and run compare's nested torus
  ladder, `alphafn.hadamard._ladder`: with ``fresh=True`` they average
  over only the nodes that level ``n/2`` lacks (`_torus_rows`);
- the torus row means `alpha3_real_row_mean` and `alpha3_complex_row_mean`
  take ``(x, n)`` and run the certified torus routes' one n x n level.

The circle and per-node torus kernels accumulate in ascending node order,
and each expression keeps its order of operations, so their results are
the same doubles as evaluating the integrand node by node.  The row means
sum in another order: x enters the torus integrands only through
exp(x e^{i th}), so `_torus_row_sums` sums each row's x-free rest over t
once per n, in a bounded lru_cache, and a call adds up n row factors times
row sums, over n^2, instead of n^2 node values.  They differ from the
per-node kernels by rounding only; `alphafn.hadamard._torus_level` shows
that its rounding bound covers this order.

A tracer reads ``n`` positionally, so it stays a positional parameter.

`exp_alpha_mean(x, s, n, rv)`, the lift's kernel, also keeps state
across calls: `_lift_nodes` sums its x-free factor alpha(rv e^{-i th}, s-1)
once per (s, n, rv), each value to within INNER_TOL, and keeps those node
tables in a bounded lru_cache; its sum over exp((x/rv) e^{i th}) is the
loop of `alpha3_complex_row_mean`, `_exp_sum`.  The lift picks rv from
the powers of two 1 to 64, so x/rv and rv e^{-i th} are exact, and
`alphafn.hadamard._inner_series` bounds the inner sums' terms and
rounding at |z| = rv.
"""

import cmath
import functools
import itertools
import math
import sys

from .quadrature import TWO_PI

# The lift's inner sums alpha(z, s-1) at |z| = rv stop once a term times
# its ratio bound is at most this absolute tol, with the ratio at most 1/2,
# so each leaves a tail of at most 2 INNER_TOL.  Their term counts grow
# with rv (within 18 at rv = 1 for any s fitting a double, about 200 at
# rv = 64 and s = 2); hadamard._inner_series counts them at each rv and
# bounds their rounding from that count
INNER_TOL = 1e-15
# keys kept by each lru_cache: _nodes and _torus_row_sums (n), _lift_nodes
# (s, n, rv), hadamard._inner_series (rv, s-1), hadamard._torus_search
# (|x|, tol) and report._serving (s).  A compare round uses 4 node tables,
# 17 lift tables, 14 inner-series factors and 5 route lists; a verify round
# 10 node and 2 row-sum tables and 4 torus searches
CACHE_SIZE = 32


def _term_sum(x, s, k, tol):
    """Sum the k-th term-wise derivative of alpha, k = 0 being alpha itself.

    Term n >= k, n!/(n-k)! x^(n-k)/(n!)^s, starts at (k!)^(1-s), the empty
    product 1 for k <= 1, and follows term_{n+1} = term_n * x/d_n with
    d_n = (n+1)^s (n+1-k)/(n+1), the factor (n+1-k)/(n+1) applied only at
    k > 0 (it is exactly 1.0 at k = 0), never forming (n!)**s.  The ratio
    bound r_n = |x|/d_n only falls, so after term n the loop stops once
    t_n*r_n <= tol and r_n <= 1/2, with the geometric tail bound
    t_n*r_n/(1-r_n).  Where (n+1)^s passes DBL_MAX (math.pow raises; the
    callers pass only an s that fits a double), the ratio is taken through
    its logarithm, log|x| + log((n+1)/(n+1-k)) - s log(n+1), plus the
    least double so that it still bounds a ratio that underflows, and the
    terms follow as term_n * (x/|x|) * r_n under the same stop.  Where term_n * x
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
    isfinite = math.isfinite if number is float else cmath.isfinite
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
            d = math.pow(n1, s)
            if k:
                d *= (n1 - k) / n1
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
        if not isfinite(step):  # term * x passed DBL_MAX, the next term may not
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


@functools.lru_cache(maxsize=CACHE_SIZE)
def _nodes(n):
    """(cos t_k, sin t_k, (e^{i t_k}, e^{-i t_k})) as three tuples over the
    n nodes t_k = (TWO_PI * k) / n in ascending k, e^{i t_k} formed as
    complex(cos t_k, sin t_k), which is cmath.exp(1j * t_k) bit for bit."""
    angles = [(TWO_PI * k) / n for k in range(n)]
    cos_t = tuple(map(math.cos, angles))
    sin_t = tuple(map(math.sin, angles))
    points = map(complex, cos_t, sin_t)
    return cos_t, sin_t, tuple((point, point.conjugate()) for point in points)


def alpha2_mean(x, n):
    """Circle mean of exp((x+1)cos t)*cos((x-1)sin t) over n nodes."""
    xp1 = x + 1.0
    xm1 = x - 1.0
    cos_t, sin_t, _ = _nodes(n)
    total = 0.0
    for ct, st in zip(cos_t, sin_t):
        total += math.exp(xp1 * ct) * math.cos(xm1 * st)
    return total / n


def bessel_mean(a, b, n):
    """Circle mean of exp(a*cos t + b*sin t) over n nodes."""
    cos_t, sin_t, _ = _nodes(n)
    total = 0.0
    for ct, st in zip(cos_t, sin_t):
        total += math.exp(a * ct + b * st)
    return total / n


def _torus_rows(n, fresh):
    """The column cos and sin tuples of each row of the level-n torus grid,
    ascending in j: every column, or with fresh only the odd ones in even
    rows, which leaves the n^2 - ceil(n/2)^2 nodes (3n^2/4 at even n) that
    level n/2 lacks."""
    cos_t, sin_t, _ = _nodes(n)
    even = (cos_t[1::2], sin_t[1::2]) if fresh else (cos_t, sin_t)
    return [(cos_t, sin_t) if j % 2 else even for j in range(n)]


def alpha3_real_mean(x, n, fresh=False):
    """Torus mean of the expanded real integrand for the s=3 identity.

    Integrand: exp(x cos th + cos th cos t + cos t) *
      [cos(x sin th - sin th cos t) cos(cos th sin t - sin t) cosh(sin th sin t)
       - sin(x sin th - sin th cos t) sin(cos th sin t - sin t) sinh(sin th sin t)]
    """
    cos_t, sin_t, _ = _nodes(n)
    total = 0.0
    for cth, sth, (cols_c, cols_s) in zip(cos_t, sin_t, _torus_rows(n, fresh)):
        x_cth = x * cth
        x_sth = x * sth
        for ct, st in zip(cols_c, cols_s):
            common = math.exp(x_cth + cth * ct + ct)
            a1 = x_sth - sth * ct
            a2 = cth * st - st
            a3 = sth * st
            total += common * (
                math.cos(a1) * math.cos(a2) * math.cosh(a3)
                - math.sin(a1) * math.sin(a2) * math.sinh(a3)
            )
    return total / (n * n - ((n + 1) // 2) ** 2 if fresh else n * n)


def alpha3_complex_mean(x, n, fresh=False):
    """Torus mean of exp(x e^{i th}) exp((e^{-i th}+1)cos t) cos((e^{-i th}-1)sin t)."""
    total = 0j
    for (eith, emith), (cols_c, cols_s) in zip(_nodes(n)[2], _torus_rows(n, fresh)):
        f1 = cmath.exp(x * eith)
        emith_p1 = emith + 1.0
        emith_m1 = emith - 1.0
        for ct, st in zip(cols_c, cols_s):
            total += f1 * cmath.exp(emith_p1 * ct) * cmath.cos(emith_m1 * st)
    return total / (n * n - ((n + 1) // 2) ** 2 if fresh else n * n)


def _exp_sum(x, pairs):
    """Sum exp(x * point) * weight over (point, weight) pairs in ascending
    order: the loop of the lift's and the complex torus row mean."""
    total = 0j
    for point, weight in pairs:
        total += cmath.exp(x * point) * weight
    return total


@functools.lru_cache(maxsize=CACHE_SIZE)
def _torus_row_sums(n):
    """The x-free row sums of the level-n torus grid, as the pairs
    (e^{i th_j}, R_j) and the pairs (U_j, V_j), ascending in row j.

    x enters both torus integrands only through exp(x e^{i th}), so a row's
    sum over the n columns t_k of the rest does not depend on x:
      R_j = sum_k exp((e^{-i th_j}+1) cos t_k) cos((e^{-i th_j}-1) sin t_k),
    the complex integrand's.  The real integrand's, by the angle-difference
    expansion of cos and sin of a1 = x sin th - b, b = sin th cos t, are
      U_j = sum_k E (cos b cos a2 cosh a3 + sin b sin a2 sinh a3),
      V_j = sum_k E (sin b cos a2 cosh a3 - cos b sin a2 sinh a3),
    with E = exp(cos th cos t + cos t) and a2, a3 those of alpha3_real_mean:
    the factors of cos(x sin th) and sin(x sin th), so that U_j - i V_j
    = R_j in exact arithmetic.  Each sum runs in ascending k.
    """
    cos_t, sin_t, points = _nodes(n)
    pairs, uv = [], []
    for cth, sth, (eith, emith) in zip(cos_t, sin_t, points):
        emith_p1 = emith + 1.0
        emith_m1 = emith - 1.0
        r = 0j
        u = v = 0.0
        for ct, st in zip(cos_t, sin_t):
            r += cmath.exp(emith_p1 * ct) * cmath.cos(emith_m1 * st)
            e = math.exp(cth * ct + ct)
            b = sth * ct
            a2 = cth * st - st
            a3 = sth * st
            cb, sb = math.cos(b), math.sin(b)
            p = math.cos(a2) * math.cosh(a3)
            q = math.sin(a2) * math.sinh(a3)
            u += e * (cb * p + sb * q)
            v += e * (sb * p - cb * q)
        pairs.append((eith, r))
        uv.append((u, v))
    return tuple(pairs), tuple(uv)


def alpha3_real_row_mean(x, n):
    """Torus mean of the expanded real integrand over the n x n grid, as
    (1/n^2) sum_j e^{x cos th_j} (cos(x sin th_j) U_j + sin(x sin th_j) V_j)
    over _torus_row_sums(n)."""
    pairs, uv = _torus_row_sums(n)
    total = 0.0
    for (eith, _), (u, v) in zip(pairs, uv):
        x_sth = x * eith.imag
        total += math.exp(x * eith.real) * (math.cos(x_sth) * u + math.sin(x_sth) * v)
    return total / (n * n)


def alpha3_complex_row_mean(x, n):
    """Torus mean of the complex-product integrand over the n x n grid, as
    (1/n^2) sum_j exp(x e^{i th_j}) R_j over _torus_row_sums(n)."""
    return _exp_sum(x, _torus_row_sums(n)[0]) / (n * n)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _lift_nodes(s, n, rv):
    """exp_alpha_mean's nodes in ascending order as pairs (e^{i th},
    alpha(rv e^{-i th}, s-1)), the inner alpha summed within INNER_TOL and
    rv e^{-i th} scaled part by part, exact for the lift's powers of two."""
    return tuple((eith, alpha_sum(complex(rv * emith.real, rv * emith.imag), s - 1, INNER_TOL)[0])
                 for eith, emith in _nodes(n)[2])


def exp_alpha_mean(x, s, n, rv):
    """Circle mean of exp((x/rv) e^{i th}) * alpha(rv e^{-i th}, s-1) over n
    nodes, the second factor taken from _lift_nodes(s, n, rv)."""
    return _exp_sum(x / rv, _lift_nodes(s, n, rv)) / n
