"""Cross-method evaluation reports backing the CLI `eval`, `compare` and
`table` commands, all three read from one table of routes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .errors import InvalidQueryError, NonConvergenceError
from .hadamard import _bessel_quadrature, _ladder, alpha2_quadrature, alpha_via_hadamard
from .series import DEFAULT_TOL, AlphaQuery, _check_tol, _real, alpha_series

# The often-quoted value for sum 1/(n!)^3 = 0F2(;1,1;1); it matches only
# the fractional digits of the actual sum (n=0 alone contributes 1).
QUOTED_0F2_VALUE = 1.1297


@dataclass(frozen=True)
class MethodValue:
    """One evaluation route: its value and an error bound or estimate.

    info is the route's cost and error metadata that `eval` prints:
    terms_used/tail_bound/rounding_bound for the series and
    nodes/alias_bound/rounding_bound for the circle routes (each error is
    the sum of the two bounds), nodes/est_error, a ladder estimate, for the
    two torus entries, which run hadamard._ladder.  It stays out of
    equality and the JSON.
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
    """One route: refuse(x, s) is the InvalidQueryError message where it
    does not apply (None where it does); run(x, s, tol) returns (value,
    error, info), tol None meaning the route's defaults.  method is its
    `eval --method` name, None for a route only `compare` runs."""

    name: str
    method: str | None
    refuse: Callable[[float, int], str | None]
    run: Callable[[float, int, float | None], tuple[float, float, dict]]


def _only_s(k: int) -> Callable[[float, int], str | None]:
    return lambda x, s: None if s == k else f"route only valid for s = {k}"


def _refuse_bessel(x: float, s: int) -> str | None:
    if s != 2:
        return "method 'bessel' is only valid for s = 2"
    if x < 0:
        return "method 'bessel' needs x >= 0 (argument of I0 is 2*sqrt(x))"
    return None


def _refuse_lift(x: float, s: int) -> str | None:
    if isinstance(s, int) and s >= 2:
        return None
    return f"the lift needs integer s >= 2, got {s!r}"


def _series(x, s, tol):
    res = alpha_series(x, s, DEFAULT_TOL if tol is None else tol)
    info = {"terms_used": res.terms_used, "tail_bound": res.tail_bound,
            "rounding_bound": res.rounding_bound}
    return res.value.real, res.tail_bound + res.rounding_bound, info


def _quadrature(q, **info):
    bounds = ({"est_error": q.est_error} if q.alias_bound is None
              else {"alias_bound": q.alias_bound, "rounding_bound": q.rounding_bound})
    return q.value.real, q.est_error, dict(nodes=q.nodes, **bounds, **info)


def _torus_complex(x, s, tol):
    q = _ladder("alpha3_quadrature_complex", x, "alpha3_complex_mean")
    return _quadrature(q, imag=q.value.imag)


def _bessel(x, s, tol):
    a = 2.0 * math.sqrt(x)  # alpha(x, 2) = I0(a), the circle mean of exp(a cos t)
    return _quadrature(_bessel_quadrature(a, 0.0, tol))


# Every route, in the order compare lists them.  The entries hold only the
# helpers above and lambdas, which look the routes up by name at call time:
# rebinding such a name (as a tracer does) reaches every caller of the table.
ROUTES = (
    Route("series", "series", lambda x, s: None, _series),
    Route("exp-closed-form", None, _only_s(1),  # math.exp is within one ulp
          lambda x, s, tol: (math.exp(x), math.ulp(math.exp(x)), {})),
    Route("alpha2-closed-form", None, _only_s(2),
          lambda x, s, tol: _quadrature(alpha2_quadrature(x))),
    Route("bessel", "bessel", _refuse_bessel, _bessel),
    Route("hadamard-2d-complex", None, _only_s(3), _torus_complex),
    Route("hadamard-2d-real", None, _only_s(3), lambda x, s, tol: _quadrature(
        _ladder("alpha3_quadrature_real", x, "alpha3_real_mean"))),
    Route("hadamard-iterated", "hadamard", _refuse_lift,
          lambda x, s, tol: _quadrature(alpha_via_hadamard(x, s, tol))),
)
METHODS = {route.method: route for route in ROUTES if route.method is not None}


def _certified(route: Route, x: float, s: int, tol: float | None) -> MethodValue:
    """route's MethodValue at (x, s), refused with NonConvergenceError (exit
    3) where its error is not below |value|, since then no digit is
    certified: the rule hadamard._circle_level applies to one level."""
    method = MethodValue(route.name, *route.run(x, s, tol))
    if not method.error < abs(method.value) < math.inf:
        raise NonConvergenceError(
            f"{route.name}: error bound {method.error:.3e} is not below "
            f"|value| = {abs(method.value):.3e}; no digit is certified"
        )
    return method


def evaluate_method(x: float, s: int, method: str, tol: float | None = None) -> MethodValue:
    """Evaluate alpha(x, s) by the route named method in `eval`;
    NonConvergenceError where the route's error is not below |value|."""
    route = METHODS.get(method)
    if route is None:
        raise InvalidQueryError(f"unknown method {method!r}")
    x = _real(x)
    reason = route.refuse(x, s)
    if reason is not None:
        raise InvalidQueryError(reason)
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
    methods = [_certified(r, x, s, None) for r in ROUTES if r.refuse(x, s) is None]
    notes = [
        f"torus-averaged imaginary residue {m.info['imag']:.3e} exceeds 1e-10"
        for m in methods
        if abs(m.info.get("imag", 0.0)) > 1e-10
    ]
    if x == 1.0 and s == 3:
        notes.append(
            f"sum 1/(n!)^3 = 0F2(;1,1;1) computed as {methods[0].value!r}; "
            f"the often-quoted value {QUOTED_0F2_VALUE} matches the fractional "
            "digits (.1297) but not the integer part -- the n=0 term alone "
            "contributes 1."
        )

    values = [m.value for m in methods]
    slack = tolerance * max(1.0, max(abs(v) for v in values))
    passed = all(
        abs(a.value - b.value) <= a.error + b.error + slack
        for i, a in enumerate(methods)
        for b in methods[i + 1:]
    )
    return ComparisonReport(
        query=query,
        method_values=methods,
        max_pairwise_delta=max(values) - min(values),
        tolerance=tolerance,
        passed=passed,
        notes=notes,
    )
