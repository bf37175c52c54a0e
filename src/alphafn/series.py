"""Direct series evaluation of alpha(x, s) = sum_{n>=0} x^n/(n!)^s.

Covers real and complex arguments, term-wise derivatives, and the
modified Bessel function I0 through the reduction I0(z) = alpha(z^2/4, 2).
Every result carries a rigorous geometric tail bound for the truncation
and a running bound for the rounding of the summation.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .backend import kernels
from .errors import InvalidQueryError, NonConvergenceError

DEFAULT_TOL = 1e-13
_UNIT_ROUNDOFF = 2.0**-53


def _tol(tol, default: float | None = None, name: str = "tol") -> float | None:
    """The one tolerance rule: None means default, the caller's own; any
    other tol must be a positive real number, InvalidQueryError (not a
    TypeError from the comparison) for anything else, and is returned."""
    if tol is None:
        return default
    if not (isinstance(tol, (int, float)) and not isinstance(tol, bool) and tol > 0):
        raise InvalidQueryError(f"{name} must be positive, got {tol!r}")
    return tol


def _real(x, name: str = "x") -> float:
    """x as a float, for the routes that take real arguments only."""
    z = complex(x)
    if z.imag:
        raise InvalidQueryError(f"{name} must be real, got {x!r}")
    return z.real


def _check_query(x: complex, s: int) -> complex:
    """x as a complex after the one (x, s) check of every entry point: s an
    integer >= 1, not a bool, that fits a double (the kernels' math.pow
    needs it), and x finite with |x| a double.  The order is: x real
    (_real, where the route needs it), the route's own refusal, this
    check, then tol in the route's core."""
    if not isinstance(s, int) or isinstance(s, bool):
        raise InvalidQueryError(f"s must be an integer >= 1, got {s!r}")
    if s < 1:
        raise InvalidQueryError(f"s must be >= 1, got {s}")
    if s > sys.float_info.max:
        raise InvalidQueryError(f"s must fit a double, got an integer of {s.bit_length()} bits")
    x = complex(x)
    if not cmath.isfinite(x):
        raise InvalidQueryError(f"x must be finite, got {x!r}")
    if x.imag and math.hypot(x.real, x.imag) > sys.float_info.max:  # abs(x) would raise
        raise InvalidQueryError(f"|x| must fit a double, got {x!r}")
    return x


@dataclass(frozen=True)
class SeriesResult:
    """Truncated-series value with the number of summed terms and two bounds.

    ``tail_bound`` majorizes the truncation error: it is the geometric bound
    t*r/(1-r) from the last added term t and the next-term ratio r <= 1/2.
    ``rounding_bound`` is the running rounding bound
    2 * terms_used * 2^-53 * sum|t_n| over the added terms t_n; for s >= 2
    it dominates the truncation bound where the terms cancel (large
    negative x).  At s = 1 and real x < 0 the value is 1/S for the
    all-positive sum S = e^{-x}, and both bounds are those of that
    reciprocal (see _reciprocal).
    |exact - value| <= tail_bound + rounding_bound.
    """

    value: complex
    terms_used: int
    tail_bound: float
    rounding_bound: float


def _reciprocal(total: float, tail: float, rounding: float) -> tuple[complex, float, float]:
    """(1/S, tail, rounding) from the all-positive sum S = e^{-x}, x < 0.

    With E = tail + rounding of S, |1/S - 1/(S + d)| <= |d|/(S(S - E)) for
    |d| <= E, split between the two bounds; the division adds 2^-53/S.
    """
    scale = total * (total - tail - rounding)
    if not scale > 0:  # only with a tol so loose that S itself is unknown
        return complex(1.0 / total), math.inf, math.inf
    if scale == math.inf:  # S(S - E) passes DBL_MAX below x = -354.9: divide twice
        tail, rounding, scale = tail / total, rounding / total, total - tail - rounding
    return complex(1.0 / total), tail / scale, rounding / scale + _UNIT_ROUNDOFF / total


def _summed(x: complex, s: int, k: int, tol: float | None) -> tuple[complex, int, float, float]:
    """The k-th derivative of alpha(., s) at x, k = 0 being alpha itself, as
    SeriesResult's fields (value, terms_used, tail_bound, rounding_bound),
    summed to tol (None meaning DEFAULT_TOL, 1e-13), which it checks.

    Unchecked but for tol: x is a complex that _check_query returned and k
    an integer >= 0, as _checked_sum and report's series entry see to."""
    tol = _tol(tol, DEFAULT_TOL)
    # every derivative of e^x is e^x: at s = 1, x < 0 sum S = e^{-x}, return 1/S
    reciprocal = s == 1 and x.imag == 0 and x.real < 0
    value, terms, tail, abs_sum, ok = kernels.alpha_deriv_sum(
        -x if reciprocal else x, s, 0 if reciprocal else k, tol
    )
    if not ok:
        what = f"alpha^({k})" if k else "alpha"
        raise NonConvergenceError(
            f"{what}({x!r}, {s}) did not reach tol={tol:g}: "
            f"after {terms} terms the series passed the double range"
        )
    rounding = 2 * terms * _UNIT_ROUNDOFF * abs_sum
    if reciprocal:
        value, tail, rounding = _reciprocal(value.real, tail, rounding)
    return value, terms, tail, rounding


def _checked_sum(x, s: int, k: int, tol: float | None) -> SeriesResult:
    """_summed's numbers as a SeriesResult, after the query and k checks."""
    x = _check_query(x, s)
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise InvalidQueryError(f"k must be an integer >= 0, got {k!r}")
    return SeriesResult(*_summed(x, s, k, tol))


def alpha_series(x: complex | float, s: int, tol: float | None = None) -> SeriesResult:
    """Evaluate alpha(x, s) by direct summation.

    Terms are generated forward by term_{n+1} = term_n * x/(n+1)**s.
    Summation stops once the next term is bounded by ``tol`` (None meaning
    DEFAULT_TOL, 1e-13; anything but a positive number raises
    InvalidQueryError) and the term ratio has fallen to 1/2 or below, which
    makes the attached tail bound rigorous.  The ratio falls to 0, so no
    term budget is needed: raises NonConvergenceError only where a term or
    the sum of the magnitudes passes the double range.  The bounds are
    honest but may exceed |value|, as for large negative x at s >= 2,
    where the terms cancel.

    At s = 1 and real x < 0 the alternating terms would cancel, so the
    all-positive series S = e^{-x} is summed instead and 1/S returned, with
    both bounds carried through the reciprocal.
    """
    return _checked_sum(x, s, 0, tol)


def alpha_derivative_series(
    x: complex | float, s: int, k: int, tol: float | None = None
) -> SeriesResult:
    """Evaluate the k-th derivative of alpha(., s) at x, term by term.

    The summand is n(n-1)...(n-k+1) x^(n-k)/(n!)^s for n >= k, with
    successive-term ratio r_n = |x|(n+1)/((n+1-k)(n+1)**s); the ratio is
    nonincreasing, so the geometric tail bound carries over unchanged.

    At s = 1 and real x < 0 every derivative of e^x is e^x, so this returns
    alpha_series' reciprocal result for every k instead of an alternating sum.
    """
    return _checked_sum(x, s, k, tol)


def bessel_i0(z: float, tol: float | None = None) -> SeriesResult:
    """Modified Bessel function I0(z) = sum (z^2/4)^n/(n!)^2 = alpha(z^2/4, 2),
    summed as alpha_series sums it, with its tol.

    A finite z whose I0 passes the double range (|z| past about 714)
    raises NonConvergenceError naming z, also where z^2/4 itself overflows
    (|z| past 1.34e154): that argument is taken as DBL_MAX, where the
    series fails at its second term."""
    if not math.isfinite(z):
        raise InvalidQueryError(f"z must be finite, got {z!r}")
    try:
        return alpha_series(min(z * z / 4.0, sys.float_info.max), 2, tol)
    except NonConvergenceError as exc:
        raise NonConvergenceError(f"I0({z!r}) passes the double range") from exc
