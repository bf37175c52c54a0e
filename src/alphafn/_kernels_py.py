"""Numerical kernels, bound for the package as `alphafn.backend.kernels`.

Everything here is scalar double-precision Python arithmetic.

Series kernels return ``(value, terms_used, tail_bound, abs_sum,
converged)``, abs_sum being the sum of the magnitudes of the added terms,
and never raise; the callers own the error contract.  Mean kernels return the
equal-weight average of an integrand over ``n`` uniformly spaced circle
(or torus) nodes ``theta_j = 2*pi*j/n``, accumulated in ascending node
order for reproducibility.  With ``fresh=True`` they average over only the
nodes that level ``n/2`` lacks, for the nested ladder of
`alphafn.quadrature.nested_node_mean`.

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

from .quadrature import circle_nodes, torus_rows

TWO_PI = 6.283185307179586
_DBL_MAX = sys.float_info.max


def _stop_past_range(total, terms, t_mag, r, abs_sum, tol):
    """The series result once (n+1)**s has passed DBL_MAX.

    r bounds the true next-term ratio, and the ratios only fall from there,
    so the stopping rule and the geometric tail bound hold with it.  Where
    they do not, the terms cannot be followed in doubles: not converged.
    The callers pass only an s that converts to a double, so the pow's
    OverflowError means its result passed DBL_MAX.
    """
    if r <= 0.5 and t_mag * r <= tol:
        return total, terms, t_mag * r / (1.0 - r), abs_sum, True
    return total, terms, math.inf, abs_sum, False


def alpha_sum(x, s, tol, max_terms):
    """Sum x^n/(n!)^s with the dual stopping rule.

    Terms follow the recurrence term_{n+1} = term_n * x/(n+1)**s, never
    forming (n!)**s, which overflows doubles near n=58 already for s=3.
    After adding term n the loop stops once the next-term bound
    t_n*r <= tol with r = |x|/(n+1)**s <= 1/2; the geometric tail bound
    is then t_n*r/(1-r).
    """
    x = complex(x)
    ax = abs(x)
    total = 0j
    abs_sum = 0.0
    term = 1 + 0j
    for n in range(max_terms):
        total += term
        t_mag = abs(term)
        abs_sum += t_mag
        try:
            den = math.pow(n + 1, s)
        except OverflowError:  # (n+1)^s > DBL_MAX
            return _stop_past_range(total, n + 1, t_mag, ax / _DBL_MAX, abs_sum, tol)
        r = ax / den
        if r <= 0.5 and t_mag * r <= tol:
            return total, n + 1, t_mag * r / (1.0 - r), abs_sum, True
        term = term * x / den
    return total, max_terms, math.inf, abs_sum, False


def alpha_deriv_sum(x, s, k, tol, max_terms):
    """Sum the k-th term-wise derivative: sum_{n>=k} n!/(n-k)! x^(n-k)/(n!)^s.

    Successive-term ratio r_n = |x|*(n+1)/((n+1-k)*(n+1)**s) is
    nonincreasing in n, so the same geometric tail bound applies.
    """
    x = complex(x)
    ax = abs(x)
    # first coefficient: k!/(k!)^s = (k!)^(1-s)
    c = 1.0
    for i in range(1, k + 1):
        c *= math.pow(i, 1 - s)
    total = 0j
    abs_sum = 0.0
    term = complex(c, 0.0)
    n = k
    for _ in range(max_terms):
        total += term
        t_mag = abs(term)
        abs_sum += t_mag
        try:
            factor = (n + 1) / ((n + 1 - k) * math.pow(n + 1, s))
        except OverflowError:  # (n+1)^s > DBL_MAX
            r = ax * ((n + 1) / (n + 1 - k)) / _DBL_MAX
            return _stop_past_range(total, n - k + 1, t_mag, r, abs_sum, tol)
        r = ax * factor
        if r <= 0.5 and t_mag * r <= tol:
            return total, n - k + 1, t_mag * r / (1.0 - r), abs_sum, True
        term = term * x * factor
        n += 1
    return total, max_terms, math.inf, abs_sum, False


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


def exp_alpha_mean(x, s, n, tol, max_terms, fresh=False):
    """Circle mean of exp(x e^{i th}) * alpha(e^{-i th}, s-1) over n nodes.

    Returns (mean, converged); converged is False if any inner series
    evaluation ran out of terms.
    """
    js = circle_nodes(n, fresh)
    total = 0j
    for j in js:
        th = (TWO_PI * j) / n
        eith = complex(math.cos(th), math.sin(th))
        inner, _, _, _, ok = alpha_sum(eith.conjugate(), s - 1, tol, max_terms)
        if not ok:
            return 0j, False
        total += cmath.exp(x * eith) * inner
    return total / len(js), True
