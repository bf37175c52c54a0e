"""Equal-weight trapezoidal quadrature for smooth 2*pi-periodic integrands.

The node average (1/N) sum_j f(2*pi*j/N) equals the normalized integral
(1/2pi) int_0^{2pi} f, and converges geometrically for integrands analytic
in a strip around the real axis, so node doubling with an empirical error
estimate controls any such integrand.  Where the Taylor coefficients of the
integrand's factors are known, `hadamard._circle_level` picks one level
from a certified aliasing bound instead.

The levels are nested: the nodes of level N are the even nodes of level 2N.
Level 2N therefore evaluates only the nodes level N lacks (the odd j on the
circle; the (j, k) with j or k odd on the torus) and combines their mean
with the level-N mean, (prev + fresh)/2 on the circle and (prev + 3*fresh)/4
on the torus.  This halves the integrand calls of a 1D ladder and saves a
quarter of each torus level.  The error estimate is unchanged: est_error is
still |value_N - value_{N/2}| between the last two levels.
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
    """Node-doubling policy: start at initial_nodes, stop at max_nodes."""

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

    From the doubling ladder (`converge`: the torus routes and
    `hadamard_eval`), est_error is |value_N - value_{N/2}| of the final
    doubling, an estimate (0.0 when only one level fit inside the node
    budget, as with initial_nodes == max_nodes for a level known to be
    exact), and the two bounds are None.  The circle routes
    (`alpha2_quadrature`, the Bessel route and `alpha_via_hadamard`) run one
    level certified by an aliasing bound instead: there est_error =
    alias_bound + rounding_bound is a bound on |value - exact|.
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


def circle_nodes(n: int, fresh: bool = False) -> range:
    """Indices j of the level-n nodes 2*pi*j/n; with fresh, only the odd j,
    the nodes that level n/2 lacks."""
    return range(1, n, 2) if fresh else range(n)


def torus_rows(n: int, fresh: bool = False) -> list[tuple[int, range]]:
    """Rows (j, ks) of the level-n torus grid, ascending in j; with fresh,
    only the nodes with j or k odd, which level n/2 lacks."""
    every = range(n)
    odd = range(1, n, 2) if fresh else every
    return [(j, every if j % 2 else odd) for j in every]


def nested_node_mean(
    mean: Callable[[int, bool], complex], torus: bool = False
) -> Callable[[int], complex]:
    """The node_mean for converge, reusing the previous level's mean.

    mean(n, fresh) is the mean over the level-n nodes, or with fresh=True
    over only the nodes level n/2 lacks.  When n is twice the previous
    level, only those fresh nodes are evaluated.
    """
    last_n, last = 0, 0j

    def node_mean(n: int) -> complex:
        nonlocal last_n, last
        if n == 2 * last_n:
            fresh = mean(n, True)
            value = (last + 3.0 * fresh) / 4.0 if torus else (last + fresh) / 2.0
        else:
            value = mean(n, False)
        last_n, last = n, value
        return value

    return node_mean


def trapezoid_periodic_1d(
    f: Callable[[float], complex],
    cfg: QuadratureConfig | None = None,
) -> QuadratureResult:
    """Normalized circle integral (1/2pi) int_0^{2pi} f(theta) dtheta.

    Equal weights 1/N at theta_j = 2*pi*j/N; summed in ascending j, and
    each level calls f only at the nodes the previous level lacks.
    """
    if cfg is None:
        cfg = DEFAULT_CONFIG_1D

    def mean(n: int, fresh: bool) -> complex:
        js = circle_nodes(n, fresh)
        total = 0j
        for j in js:
            total += f((TWO_PI * j) / n)
        return total / len(js)

    return converge(nested_node_mean(mean), cfg)


def trapezoid_periodic_2d(
    f: Callable[[float, float], complex],
    cfg: QuadratureConfig | None = None,
) -> QuadratureResult:
    """Normalized torus integral (1/4pi^2) over [0,2pi)^2, tensor-product rule.

    Both dimensions share the same N and double together; nodes in the
    result is the per-dimension count.  Summed ascending j then k, and each
    level calls f only at the nodes the previous level lacks.
    """
    if cfg is None:
        cfg = DEFAULT_CONFIG_2D

    def mean(n: int, fresh: bool) -> complex:
        total = 0j
        count = 0
        for j, ks in torus_rows(n, fresh):
            theta = (TWO_PI * j) / n
            for k in ks:
                total += f(theta, (TWO_PI * k) / n)
            count += len(ks)
        return total / count

    return converge(nested_node_mean(mean, torus=True), cfg)
