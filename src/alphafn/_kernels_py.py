"""Numerical kernels, bound for the package as `alphafn.backend.kernels`.

Everything here is scalar double-precision Python arithmetic.

Series kernels return ``(value, terms_used, tail_bound, abs_sum,
converged)``, abs_sum being the sum of the magnitudes of the added terms,
and never raise; the callers own the error contract.  The lift calls
`alpha_sum` and `alphafn.series` calls `alpha_deriv_sum`, two names over
one term loop, `_term_sum`; a tracer wrapping both counts each call once.

Mean kernels take ``(params..., n, fresh=False)`` and return the
equal-weight average of an integrand over ``n`` uniformly spaced circle (or
torus) nodes ``theta_j = 2*pi*j/n``, accumulated in ascending node order for
reproducibility.  With ``fresh=True`` they average over only the nodes that
level ``n/2`` lacks, for the nested ladder of
`alphafn.quadrature.nested_node_mean`.  `exp_alpha_mean`, the lift's kernel,
sums each inner alpha(e^{-i th}, s-1) within INNER_TOL and INNER_MAX_TERMS.

The torus kernels build one trig table per call, ``cos`` and ``sin`` of
``(TWO_PI * k) / n`` for k < n, and read both the row angle and the node
angle from it; the row constants are formed once per row.  Each expression
keeps its order of operations and the sum its order, so the results are
the same doubles as evaluating the integrand node by node.  The table lives
only for the call: no state is kept between calls.
"""

import cmath
import math
import sys

from .quadrature import TWO_PI, circle_nodes, torus_rows

# At |z| = 1 the ratio bound is at most 1/2 from n = 1 and t_n <= 1/n!, so
# alpha_sum stops within 18 terms under this budget for any s fitting a double
INNER_TOL = 1e-15
INNER_MAX_TERMS = 500


def _term_sum(x, s, k, tol, max_terms):
    """Sum the k-th term-wise derivative of alpha, k = 0 being alpha itself.

    Term n >= k, n!/(n-k)! x^(n-k)/(n!)^s, starts at (k!)^(1-s) and follows
    term_{n+1} = term_n * x/d_n, d_n = (n+1)^s (n+1-k)/(n+1), never forming
    (n!)**s.  The ratio bound r_n = |x|/d_n only falls, so after term n the
    loop stops once t_n*r_n <= tol and r_n <= 1/2, with the geometric tail
    bound t_n*r_n/(1-r_n).  Past DBL_MAX (math.pow raises; the callers pass
    only an s that fits a double) DBL_MAX still bounds the ratio, but no
    term can be followed further, nor after a subnormal first coefficient.
    A tail bound that underflows to 0 at x != 0 is raised to the least
    double, since the terms it drops are positive.
    """
    x = complex(x)
    ax = abs(x)
    term = 1 + 0j
    den = math.pow  # d_n from n + 1 and s, which at k = 0 is (n+1)^s itself
    if k:
        c = math.prod(math.pow(i, 1 - s) for i in range(2, k + 1))
        term = complex(c)
        if c < sys.float_info.min:
            max_terms = 1
        den = lambda n1, s: math.pow(n1, s) * ((n1 - k) / n1)
    total = 0j
    abs_sum = 0.0
    for n1 in range(k + 1, k + 1 + max_terms):  # n1 = n + 1
        total += term
        t_mag = abs(term)
        abs_sum += t_mag
        try:
            d = den(n1, s)
        except OverflowError:  # (n+1)^s > DBL_MAX
            r = ax * (n1 / (n1 - k)) / sys.float_info.max
            if r <= 0.5 and t_mag * r <= tol:
                break
            return total, n1 - k, math.inf, abs_sum, False
        r = ax / d
        if r <= 0.5 and t_mag * r <= tol:
            break
        term = term * x / d
    else:
        return total, max_terms, math.inf, abs_sum, False
    tail = t_mag * r / (1.0 - r)
    if not tail and ax:
        tail = math.ulp(0.0)
    return total, n1 - k, tail, abs_sum, True


def alpha_sum(x, s, tol, max_terms):
    """Sum x^n/(n!)^s by _term_sum at k = 0."""
    return _term_sum(x, s, 0, tol, max_terms)


def alpha_deriv_sum(x, s, k, tol, max_terms):
    """Sum the k-th term-wise derivative: sum_{n>=k} n!/(n-k)! x^(n-k)/(n!)^s."""
    return _term_sum(x, s, k, tol, max_terms)


def alpha2_mean(x, n, fresh=False):
    """Circle mean of exp((x+1)cos t)*cos((x-1)sin t) over n nodes."""
    js = circle_nodes(n, fresh)
    xp1 = x + 1.0
    xm1 = x - 1.0
    total = 0.0
    for j in js:
        t = (TWO_PI * j) / n
        total += math.exp(xp1 * math.cos(t)) * math.cos(xm1 * math.sin(t))
    return total / len(js)


def bessel_mean(a, b, n, fresh=False):
    """Circle mean of exp(a*cos t + b*sin t) over n nodes."""
    js = circle_nodes(n, fresh)
    total = 0.0
    for j in js:
        t = (TWO_PI * j) / n
        total += math.exp(a * math.cos(t) + b * math.sin(t))
    return total / len(js)


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
    for j, ks in torus_rows(n, fresh):
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
    for j, ks in torus_rows(n, fresh):
        eith = complex(cos_t[j], sin_t[j])
        emith = eith.conjugate()
        f1 = cmath.exp(x * eith)
        emith_p1 = emith + 1.0
        emith_m1 = emith - 1.0
        for kk in ks:
            total += f1 * cmath.exp(emith_p1 * cos_t[kk]) * cmath.cos(emith_m1 * sin_t[kk])
        count += len(ks)
    return total / count


def exp_alpha_mean(x, s, n, fresh=False):
    """Circle mean of exp(x e^{i th}) * alpha(e^{-i th}, s-1) over n nodes,
    the inner alpha summed by alpha_sum within INNER_TOL and INNER_MAX_TERMS."""
    js = circle_nodes(n, fresh)
    total = 0j
    for j in js:
        th = (TWO_PI * j) / n
        eith = complex(math.cos(th), math.sin(th))
        inner = alpha_sum(eith.conjugate(), s - 1, INNER_TOL, INNER_MAX_TERMS)[0]
        total += cmath.exp(x * eith) * inner
    return total / len(js)
