"""Direct series evaluation of alpha(x, s) = sum_{n>=0} x^n/(n!)^s.

Covers real and complex arguments, term-wise derivatives, and the
modified Bessel function I0 through the reduction I0(z) = alpha(z^2/4, 2).
Every result carries a rigorous geometric tail bound for the truncation
and a running bound for the rounding of the summation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .backend import kernels
from .errors import InvalidQueryError, NonConvergenceError

DEFAULT_TOL = 1e-13
DEFAULT_MAX_TERMS = 500
_UNIT_ROUNDOFF = 2.0**-53


def _check_s_fits(s: int) -> None:
    """The kernels take (n+1)**s with math.pow, which needs s as a double."""
    if s > sys.float_info.max:
        raise InvalidQueryError(
            f"s must fit a double, got an integer of {s.bit_length()} bits"
        )


def _check_query(x: complex, s: int) -> complex:
    if not isinstance(s, int):
        raise InvalidQueryError(f"s must be an integer >= 1, got {s!r}")
    if s < 1:
        raise InvalidQueryError(f"s must be >= 1, got {s}")
    _check_s_fits(s)
    x = complex(x)
    if not (math.isfinite(x.real) and math.isfinite(x.imag)):
        raise InvalidQueryError(f"x must be finite, got {x!r}")
    return x


@dataclass(frozen=True)
class AlphaQuery:
    """An evaluation request: argument x (complex allowed) and power s >= 1."""

    x: complex
    s: int

    def __post_init__(self):
        object.__setattr__(self, "x", _check_query(self.x, self.s))


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
    reciprocal (see _reciprocal_result).
    |exact - value| <= tail_bound + rounding_bound.
    """

    value: complex
    terms_used: int
    tail_bound: float
    rounding_bound: float


def _reciprocal_result(positive: SeriesResult) -> SeriesResult:
    """1/S from the result for the all-positive sum S = e^{-x}, x < 0.

    With E = tail + rounding of S, |1/S - 1/(S + d)| <= |d|/(S(S - E)) for
    |d| <= E, split between the two bounds; the division adds 2^-53/S.
    """
    total = positive.value.real
    tail, rounding = positive.tail_bound, positive.rounding_bound
    scale = total * (total - tail - rounding)
    if not scale > 0:  # only with a tol so loose that S itself is unknown
        return SeriesResult(complex(1.0 / total), positive.terms_used, math.inf, math.inf)
    return SeriesResult(
        complex(1.0 / total), positive.terms_used, tail / scale,
        rounding / scale + _UNIT_ROUNDOFF / total,
    )


def _summed(x, s: int, k: int, tol: float, max_terms: int) -> SeriesResult:
    """The k-th derivative of alpha(., s) at x, k = 0 being alpha itself."""
    x = _check_query(x, s)
    if not tol > 0:
        raise InvalidQueryError(f"tol must be positive, got {tol!r}")
    if max_terms < 2:
        raise InvalidQueryError(f"max_terms must be >= 2, got {max_terms!r}")
    if not isinstance(k, int) or k < 0:
        raise InvalidQueryError(f"k must be an integer >= 0, got {k!r}")
    # every derivative of e^x is e^x: at s = 1, x < 0 sum S = e^{-x}, return 1/S
    reciprocal = s == 1 and x.imag == 0 and x.real < 0
    k = 0 if reciprocal else k
    value, terms, tail, abs_sum, ok = kernels.alpha_deriv_sum(
        -x if reciprocal else x, s, k, tol, max_terms
    )
    if not ok:
        reason = f" within {max_terms} terms"
        if terms < max_terms or not math.isfinite(abs_sum):  # past the double range
            reason = (f": after {terms} terms the series passed the double range "
                      "and its terms could not be followed")
        what = f"alpha^({k})" if k else "alpha"
        raise NonConvergenceError(f"{what}({x!r}, {s}) did not reach tol={tol:g}{reason}")
    result = SeriesResult(value, terms, tail, 2 * terms * _UNIT_ROUNDOFF * abs_sum)
    return _reciprocal_result(result) if reciprocal else result


def alpha_series(
    x: complex | float,
    s: int,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesResult:
    """Evaluate alpha(x, s) by direct summation.

    Terms are generated forward by term_{n+1} = term_n * x/(n+1)**s.
    Summation stops once the next term is bounded by ``tol`` and the term
    ratio has fallen to 1/2 or below, which makes the attached tail bound
    rigorous.  Raises NonConvergenceError when ``max_terms`` is exhausted
    first (|x| too large for the budget).

    At s = 1 and real x < 0 the alternating terms would cancel, so the
    all-positive series S = e^{-x} is summed instead and 1/S returned, with
    both bounds carried through the reciprocal.
    """
    return _summed(x, s, 0, tol, max_terms)


def alpha_derivative_series(
    x: complex | float,
    s: int,
    k: int,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesResult:
    """Evaluate the k-th derivative of alpha(., s) at x, term by term.

    The summand is n(n-1)...(n-k+1) x^(n-k)/(n!)^s for n >= k, with
    successive-term ratio r_n = |x|(n+1)/((n+1-k)(n+1)**s); the ratio is
    nonincreasing, so the geometric tail bound carries over unchanged.

    At s = 1 and real x < 0 every derivative of e^x is e^x, so this returns
    alpha_series' reciprocal result for every k instead of an alternating sum.
    """
    return _summed(x, s, k, tol, max_terms)


def bessel_i0(
    z: float,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesResult:
    """Modified Bessel function I0(z) = sum (z^2/4)^n/(n!)^2 = alpha(z^2/4, 2)."""
    if not math.isfinite(z):
        raise InvalidQueryError(f"z must be finite, got {z!r}")
    return alpha_series(z * z / 4.0, 2, tol, max_terms)
