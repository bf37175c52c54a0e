"""Equal-weight trapezoidal quadrature for smooth 2*pi-periodic integrands.

The node average (1/N) sum_j f(2*pi*j/N) equals the normalized integral
(1/2pi) int_0^{2pi} f, and converges geometrically for integrands analytic
in a strip around the real axis, so node doubling with an empirical error
estimate controls any such integrand: `converge` drives a node-count ->
mean function through a ladder (initial nodes, max nodes, tol), and
est_error is |value_N - value_{N/2}| between the last two levels.  Where
one level is known to suffice, `one_level` runs just that node count.
Each level of the generic rule here evaluates all of its nodes.  Where
the Taylor coefficients of the integrand's factors are known, the routes
pick one level from a certified aliasing bound instead
(`hadamard._circle_level` on the circle, `hadamard._torus_level` on the
s = 3 torus); only compare's torus ladder, `hadamard._ladder`, still
doubles, evaluating at each doubling only the nodes the previous level
lacks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .errors import InvalidQueryError, ToleranceNotReachedError

TWO_PI = 2.0 * math.pi

# (initial nodes, max nodes, tol) of the doubling ladder: the generic
# circle rule's, whose node counts also bound the circle routes' level
# search, and compare's torus ladder's, whose max nodes and tol are also
# the torus routes' node cap and default tol
CIRCLE_LADDER = (16, 1024, 1e-12)
TORUS_LADDER = (16, 512, 1e-10)


@dataclass(frozen=True)
class QuadratureResult:
    """A node average over `nodes` nodes per dimension and its error.

    From the doubling ladder (`converge`: `trapezoid_periodic_1d`,
    `hadamard_eval` and compare's s = 3 torus ladder), est_error is
    |value_N - value_{N/2}| of the final doubling, an estimate, and the two
    bounds are None.  From one level asked for by its node count
    (`nodes=n`, for a level known to be exact), est_error is 0.0 and the
    bounds are None.  The quadrature routes (`alpha2_quadrature`, the
    Bessel route, `alpha_via_hadamard` and both `alpha3_quadrature_*`) take
    a tol and run one level certified by an aliasing bound: there
    est_error = alias_bound + rounding_bound is a bound on |value - exact|,
    also where it is not below |value|: `eval` and `compare` refuse such a
    value, the library returns it.
    """

    value: complex
    nodes: int
    est_error: float
    alias_bound: float | None = None
    rounding_bound: float | None = None


def _level(node_mean: Callable[[int], complex], n: int, route: str = "") -> complex:
    """node_mean(n), refused with ToleranceNotReachedError (best None), its
    message led by a given route's name, when it is not finite or
    overflows on the way."""
    where = f"{route}: " if route else ""
    try:
        value = complex(node_mean(n))
    except OverflowError as exc:
        raise ToleranceNotReachedError(
            f"{where}the level mean at N={n} overflowed: {exc}", best=None
        ) from exc
    if not cmath.isfinite(value):
        raise ToleranceNotReachedError(
            f"{where}the level mean at N={n} is not finite: {value!r}", best=None
        )
    return value


def one_level(node_mean: Callable[[int], complex], nodes: int) -> QuadratureResult:
    """The one level of `nodes` nodes, an int >= 4, with est_error 0.0."""
    if not (isinstance(nodes, int) and nodes >= 4):
        raise InvalidQueryError(f"nodes must be an integer >= 4, got {nodes!r}")
    return QuadratureResult(_level(node_mean, nodes), nodes, 0.0)


def converge(
    node_mean: Callable[[int], complex], ladder: tuple[int, int, float]
) -> QuadratureResult:
    """Drive any node-count -> mean function through the doubling ladder
    (initial nodes, max nodes, tol), one of the constants above.

    Doubles N from the initial nodes until successive values differ by at
    most tol.  Raises ToleranceNotReachedError (carrying the best result)
    if the next doubling would exceed the max nodes, and at once, with best
    None, at a level whose mean is not finite.
    """
    n, max_nodes, tol = ladder
    value = _level(node_mean, n)
    while True:
        n2 = 2 * n
        value2 = _level(node_mean, n2)
        delta = abs(value2 - value)
        if delta <= tol:
            return QuadratureResult(value2, n2, delta)
        if 2 * n2 > max_nodes:
            raise ToleranceNotReachedError(
                f"node doubling stalled at N={n2}: |delta|={delta:.3e} > tol={tol:g}",
                best=QuadratureResult(value2, n2, delta),
            )
        n, value = n2, value2


def trapezoid_periodic_1d(
    f: Callable[[float], complex], nodes: int | None = None
) -> QuadratureResult:
    """Normalized circle integral (1/2pi) int_0^{2pi} f(theta) dtheta.

    Equal weights 1/N at theta_j = 2*pi*j/N, summed in ascending j; nodes
    None runs CIRCLE_LADDER, an int runs that one level.
    """

    def mean(n: int) -> complex:
        total = 0j
        for j in range(n):
            total += f((TWO_PI * j) / n)
        return total / n

    return converge(mean, CIRCLE_LADDER) if nodes is None else one_level(mean, nodes)

