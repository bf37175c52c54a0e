"""Stirling numbers of the second kind and the ODE satisfied by alpha(., s).

S(n, k) counts partitions of an n-set into k nonempty blocks.  They are
the coefficients of the differential equation

    sum_{k=1}^{s} S(s, k) x^(k-1) y^(k) - y = 0,   y = alpha(., s),

and satisfy the generating function (1/k!)(e^x - 1)^k = sum_{n>=k} S(n,k) x^n/n!.
Both statements are verified numerically here as residuals.
"""

from __future__ import annotations

import math

from .series import DEFAULT_TOL, _check_query, _summed, _tol

# Exact-integer contract is capped so the table stays desk-sized; S(64,.)
# already exceeds 2**63 and marks the documented end of the domain.
MAX_N = 64


def _build_rows(max_n: int) -> list[list[int]]:
    rows = [[1]]
    for n in range(1, max_n + 1):
        prev = rows[n - 1]
        row = [0] * (n + 1)
        row[n] = 1
        for k in range(1, n):
            row[k] = k * prev[k] + prev[k - 1]
        rows.append(row)
    return rows


# rows 0..MAX_N of exact S(n, k), 0 <= k <= n, built once at import
_ROWS = _build_rows(MAX_N)


def stirling2(n: int, k: int) -> int:
    """Exact S(n, k) via the recurrence S(n,k) = k S(n-1,k) + S(n-1,k-1)."""
    if n < 0 or k < 0:
        raise ValueError(f"require n, k >= 0, got n={n}, k={k}")
    if n > MAX_N:
        raise OverflowError(f"stirling2 is limited to n <= {MAX_N}, got n={n}")
    if k > n:
        raise ValueError(f"require k <= n, got n={n}, k={k}")
    return _ROWS[n][k]


def stirling_genfunc_residual(k: int, x: float, order: int) -> float:
    """|(1/k!)(e^x - 1)^k - sum_{n=k}^{order} S(n,k) x^n/n!|.

    The left side is evaluated directly (expm1 keeps small x accurate);
    the right side is the truncated series, so the residual is expected
    to sit at the truncation level for |x| <= 1.
    """
    if k < 1:
        raise ValueError(f"require k >= 1, got {k}")
    if order < k:
        raise ValueError(f"require order >= k, got order={order}, k={k}")
    if order > 20:
        raise ValueError(f"require order <= 20, got {order}")
    if not abs(x) <= 1:  # NaN fails this too
        raise ValueError(f"require |x| <= 1, got x={x}")
    lhs = math.expm1(x) ** k / math.factorial(k)
    rhs = 0.0
    x_pow_over_fact = x**k / math.factorial(k)  # x^n/n! at n=k
    for n in range(k, order + 1):
        rhs += stirling2(n, k) * x_pow_over_fact
        x_pow_over_fact *= x / (n + 1)
    return abs(lhs - rhs)


def ode_residual(x: complex, s: int, tol: float | None = None) -> complex:
    """Residual sum_{k=1}^{s} S(s,k) x^(k-1) y^(k)(x) - y(x) at y = alpha(., s),
    every series summed to tol (None meaning the series' 1e-13).

    Zero up to series truncation error; derivative factors come from the
    term-wise derivative series, never finite differences.  x, s and tol
    are checked once, at entry, by the series' rules, and the s + 1 sums
    are series._summed's, the values and refusals of alpha_series and
    alpha_derivative_series without a SeriesResult each.  At a real x the
    residual sums the values' real parts, a float for a float x; at a
    non-real x it sums the complex values and is complex.
    """
    z = _check_query(x, s)
    tol = _tol(tol, DEFAULT_TOL)
    part = (lambda value: value) if z.imag else (lambda value: value.real)
    total = 0.0
    for k in range(1, s + 1):
        total += stirling2(s, k) * x ** (k - 1) * part(_summed(z, s, k, tol)[0])
    return total - part(_summed(z, s, 0, tol)[0])
