"""Equal-weight trapezoidal quadrature for smooth 2*pi-periodic integrands.

The node average (1/N) sum_j f(2*pi*j/N) equals the normalized integral
(1/2pi) int_0^{2pi} f, and converges geometrically for integrands analytic
in a strip around the real axis, so node doubling with an empirical error
estimate controls any such integrand: `converge` drives a node-count ->
mean function through that ladder, and est_error is |value_N - value_{N/2}|
between the last two levels.  Each level of the generic rules here
evaluates all of its nodes.  Where the Taylor coefficients of the
integrand's factors are known, `hadamard._circle_level` picks one level
from a certified aliasing bound instead; `hadamard._ladder`, the s = 3
torus routes' ladder, evaluates at each doubling only the nodes the
previous level lacks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .errors import InvalidQueryError, ToleranceNotReachedError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class QuadratureConfig:
    """Node-doubling policy for `converge`: start at initial_nodes, stop at
    max_nodes.  The circle routes take only a tol; DEFAULT_CONFIG_1D's node
    counts are their level search's floor and cap."""

    initial_nodes: int = 16
    max_nodes: int = 1024
    tol: float = 1e-12

    def __post_init__(self):
        if not (isinstance(self.initial_nodes, int) and isinstance(self.max_nodes, int)):
            raise InvalidQueryError(
                "initial_nodes and max_nodes must be integers, got "
                f"{self.initial_nodes!r} and {self.max_nodes!r}"
            )
        if self.initial_nodes < 4:
            raise InvalidQueryError(
                f"initial_nodes must be >= 4, got {self.initial_nodes}"
            )
        if self.max_nodes < self.initial_nodes:
            raise InvalidQueryError(
                f"max_nodes ({self.max_nodes}) must be >= initial_nodes "
                f"({self.initial_nodes})"
            )
        if not self.tol > 0:
            raise InvalidQueryError(f"tol must be positive, got {self.tol!r}")


DEFAULT_CONFIG_1D = QuadratureConfig(initial_nodes=16, max_nodes=1024, tol=1e-12)
DEFAULT_CONFIG_2D = QuadratureConfig(initial_nodes=16, max_nodes=512, tol=1e-10)


@dataclass(frozen=True)
class QuadratureResult:
    """A node average over `nodes` nodes per dimension and its error.

    From the doubling ladder (`converge`: the s = 3 torus routes, the
    generic trapezoid rules and `hadamard_eval`), est_error is
    |value_N - value_{N/2}| of the final doubling, an estimate (0.0 when
    only one level fit inside the node budget, as with initial_nodes ==
    max_nodes for a level known to be exact), and the two bounds are None.
    The circle routes (`alpha2_quadrature`, the Bessel route and
    `alpha_via_hadamard`) take a tol, not a config, and run one level
    certified by an aliasing bound: there est_error = alias_bound +
    rounding_bound is a bound on |value - exact|.
    """

    value: complex
    nodes: int
    est_error: float
    alias_bound: float | None = None
    rounding_bound: float | None = None


def converge(node_mean: Callable[[int], complex], cfg: QuadratureConfig) -> QuadratureResult:
    """Drive any node-count -> mean function through the doubling ladder.

    Doubles N from cfg.initial_nodes until successive values differ by at
    most cfg.tol.  Raises ToleranceNotReachedError (carrying the best
    result) if the next doubling would exceed cfg.max_nodes, and at once,
    with best None, at a level whose mean is not finite.
    """

    def level(n: int) -> complex:
        value = complex(node_mean(n))
        if not cmath.isfinite(value):
            raise ToleranceNotReachedError(
                f"the level mean at N={n} is not finite: {value!r}", best=None
            )
        return value

    n = cfg.initial_nodes
    value = level(n)
    if 2 * n > cfg.max_nodes:
        return QuadratureResult(value, n, 0.0)
    while True:
        n2 = 2 * n
        value2 = level(n2)
        delta = abs(value2 - value)
        if delta <= cfg.tol:
            return QuadratureResult(value2, n2, delta)
        if 2 * n2 > cfg.max_nodes:
            raise ToleranceNotReachedError(
                f"node doubling stalled at N={n2}: |delta|={delta:.3e} > "
                f"tol={cfg.tol:g}",
                best=QuadratureResult(value2, n2, delta),
            )
        n, value = n2, value2


def trapezoid_periodic_1d(
    f: Callable[[float], complex],
    cfg: QuadratureConfig | None = None,
) -> QuadratureResult:
    """Normalized circle integral (1/2pi) int_0^{2pi} f(theta) dtheta.

    Equal weights 1/N at theta_j = 2*pi*j/N, summed in ascending j.
    """
    if cfg is None:
        cfg = DEFAULT_CONFIG_1D

    def mean(n: int) -> complex:
        total = 0j
        for j in range(n):
            total += f((TWO_PI * j) / n)
        return total / n

    return converge(mean, cfg)


def trapezoid_periodic_2d(
    f: Callable[[float, float], complex],
    cfg: QuadratureConfig | None = None,
) -> QuadratureResult:
    """Normalized torus integral (1/4pi^2) over [0,2pi)^2, tensor-product rule.

    Both dimensions share the same N and double together; nodes in the
    result is the per-dimension count.  Summed ascending j then k.
    """
    if cfg is None:
        cfg = DEFAULT_CONFIG_2D

    def mean(n: int) -> complex:
        total = 0j
        for j in range(n):
            theta = (TWO_PI * j) / n
            for k in range(n):
                total += f(theta, (TWO_PI * k) / n)
        return total / (n * n)

    return converge(mean, cfg)
