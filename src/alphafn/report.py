"""Cross-method evaluation reports backing the CLI `eval`, `compare` and
`table` commands, all three read from one table of routes."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .backend import kernels
from .errors import InvalidQueryError, NonConvergenceError
from .hadamard import _alpha2_level, _bessel_level, _ladder, _lift_level, _lift_refusal
from .series import DEFAULT_TOL, AlphaQuery, _check_query, _check_tol, _real, _summed

# The often-quoted value for sum 1/(n!)^3 = 0F2(;1,1;1); it matches only
# the fractional digits of the actual sum (n=0 alone contributes 1).
QUOTED_0F2_VALUE = 1.1297


@dataclass(frozen=True)
class MethodValue:
    """One evaluation route: its value and an error bound or estimate.

    info is the route's cost and error metadata that `eval` prints:
    terms_used/tail_bound/rounding_bound for the series and
    nodes/alias_bound/rounding_bound for the circle routes (each error is
    the sum of the two bounds), nodes/est_error, a ladder estimate, and
    imag, the imaginary part, for the two torus entries, which run
    hadamard._ladder.  It stays out of equality and the JSON.
    """

    name: str
    value: float
    error: float
    info: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class ComparisonReport:
    """Per-method values for one query plus the pairwise agreement verdict."""

    query: AlphaQuery
    method_values: list[MethodValue]
    max_pairwise_delta: float
    tolerance: float
    passed: bool
    notes: list[str]

    def to_json_dict(self) -> dict:
        return {
            "query": {"x": self.query.x.real, "s": self.query.s},
            "methods": [
                {"name": m.name, "value": m.value, "error": m.error}
                for m in self.method_values
            ],
            "max_pairwise_delta": self.max_pairwise_delta,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "notes": list(self.notes),
        }


class Route(NamedTuple):
    """One route: refuse_s(s) is the InvalidQueryError message where it
    does not serve s (None where it does), and refuse_x(x) the same for x,
    None for a route that serves every x; run(x, s, tol) returns (value,
    error, info), tol None meaning the route's defaults.  method is its
    `eval --method` name, None for a route only `compare` runs."""

    name: str
    method: str | None
    refuse_s: Callable[[int], str | None]
    run: Callable[[float, int, float | None], tuple[float, float, dict]]
    refuse_x: Callable[[float], str | None] | None = None


def _only_s(k: int, what: str = "route") -> Callable[[int], str | None]:
    return lambda s: None if s == k else f"{what} is only valid for s = {k}"


def _series(x, s, tol):
    value, terms, tail, rounding = _summed(complex(x), s, 0, DEFAULT_TOL if tol is None else tol)
    info = {"terms_used": terms, "tail_bound": tail, "rounding_bound": rounding}
    return value.real, tail + rounding, info


def _exp(x, s, tol):
    value = math.exp(x)  # within one ulp
    return value, math.ulp(value), {}


def _circle(level):
    value, n, alias, rounding = level
    info = {"nodes": n, "alias_bound": alias, "rounding_bound": rounding}
    return value.real, alias + rounding, info


def _torus(route, x, kernel):
    q = _ladder(route, x, kernel)
    return q.value.real, q.est_error, {"nodes": q.nodes, "est_error": q.est_error,
                                       "imag": q.value.imag}


def _bessel(x, s, tol):
    a = 2.0 * math.sqrt(x)  # alpha(x, 2) = I0(a), the circle mean of exp(a cos t)
    return _circle(_bessel_level(a, 0.0, tol))


# Every route, in the order compare lists them.  The entries run the
# routes' unchecked cores, since compare and eval check the query once, at
# entry: series._summed and the circle routes' levels, which return
# numbers, not a SeriesResult or QuadratureResult, and the s = 3 torus
# ladder, hadamard._ladder.  The entries hold only the helpers above and
# lambdas, which look the cores and the kernels up by name at call time:
# rebinding such a name (as a tracer or a test does) reaches every caller
# of the table.
ROUTES = (
    Route("series", "series", lambda s: None, _series),
    Route("exp-closed-form", None, _only_s(1), _exp),
    Route("alpha2-closed-form", None, _only_s(2),
          lambda x, s, tol: _circle(_alpha2_level(x, tol))),
    Route("bessel", "bessel", _only_s(2, "method 'bessel'"), _bessel, lambda x: (
        "method 'bessel' needs x >= 0 (argument of I0 is 2*sqrt(x))" if x < 0 else None)),
    Route("hadamard-2d-complex", None, _only_s(3), lambda x, s, tol: _torus(
        "alpha3_quadrature_complex", x, kernels.alpha3_complex_mean)),
    Route("hadamard-2d-real", None, _only_s(3), lambda x, s, tol: _torus(
        "alpha3_quadrature_real", x, kernels.alpha3_real_mean)),
    Route("hadamard-iterated", "hadamard", _lift_refusal,
          lambda x, s, tol: _circle(_lift_level(x, s, tol))),
)
METHODS = {route.method: route for route in ROUTES if route.method is not None}


@functools.lru_cache(maxsize=kernels.CACHE_SIZE)
def _serving(s: int) -> tuple[Route, ...]:
    """The routes of ROUTES that serve s, in table order, found once per s."""
    return tuple(route for route in ROUTES if route.refuse_s(s) is None)


def _certified(route: Route, x: float, s: int, tol: float | None) -> MethodValue:
    """route's MethodValue at (x, s), refused with NonConvergenceError (exit
    3) where its error is not below |value|, since then no digit is
    certified.  This is the one refusal of that kind: the library routes
    return such a value with its honest bound, as a midpoint-radius ball
    does, and only eval and compare refuse it."""
    method = MethodValue(route.name, *route.run(x, s, tol))
    if not method.error < abs(method.value) < math.inf:
        raise NonConvergenceError(
            f"{route.name}: error bound {method.error:.3e} is not below "
            f"|value| = {abs(method.value):.3e}; no digit is certified"
        )
    return method


def evaluate_method(x: float, s: int, method: str, tol: float | None = None) -> MethodValue:
    """Evaluate alpha(x, s) by the route named method in `eval`;
    NonConvergenceError where the route's error is not below |value|.

    After the route's refusals, the query and a given tol are checked once,
    as the series checks them, except that a non-finite x is left to the
    circle routes' integrand peak guard, whose refusal names the route."""
    route = METHODS.get(method)
    if route is None:
        raise InvalidQueryError(f"unknown method {method!r}")
    x = _real(x)
    reason = route.refuse_s(s)
    if reason is None and route.refuse_x is not None:
        reason = route.refuse_x(x)
    if reason is not None:
        raise InvalidQueryError(reason)
    if math.isfinite(x) or route.run is _series:
        _check_query(x, s)
        if tol is not None:
            _check_tol(tol)
    return _certified(route, x, s, tol)


def compare_methods(x: float, s: int, tolerance: float | None = None) -> ComparisonReport:
    """Run every route of ROUTES that applies to (x, s), in table order,
    and report pairwise agreement.

    The routes agree when every pair's delta is within the sum of their
    errors plus tolerance * max(1, max |value|), absolute near zero and
    relative for large values: |v_i - v_j| <= e_i + e_j + tolerance * scale.
    Two routes whose error intervals overlap agree, however far apart
    their values.  tolerance None means 1e-8.  A route that certifies no digit
    raises, as in evaluate_method.  max_pairwise_delta is max - min of the
    values.
    """
    query = AlphaQuery(complex(x), s)
    tolerance = 1e-8 if tolerance is None else tolerance
    _check_tol(tolerance, "tolerance")
    x = _real(x)
    methods = [_certified(r, x, s, None) for r in _serving(s)
               if r.refuse_x is None or r.refuse_x(x) is None]
    notes = [
        f"torus-averaged imaginary residue {m.info['imag']:.3e} exceeds 1e-10"
        for m in methods
        if "imag" in m.info and abs(m.info["imag"]) > 1e-10
    ]
    if x == 1.0 and s == 3:
        notes.append(
            f"sum 1/(n!)^3 = 0F2(;1,1;1) computed as {methods[0].value!r}; "
            f"the often-quoted value {QUOTED_0F2_VALUE} matches the fractional "
            "digits (.1297) but not the integer part -- the n=0 term alone "
            "contributes 1."
        )

    values = [m.value for m in methods]
    low, high = min(values), max(values)
    slack = tolerance * max(1.0, -low, high)
    passed = all(abs(a.value - b.value) <= a.error + b.error + slack
                 for a, b in itertools.combinations(methods, 2))
    return ComparisonReport(query, methods, high - low, tolerance, passed, notes)
