"""Cross-method evaluation reports backing the CLI `eval` and `compare` commands."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidQueryError
from .hadamard import (
    _guard_exp_peak,
    alpha2_quadrature,
    alpha3_quadrature_complex,
    alpha3_quadrature_real,
    alpha_via_hadamard,
)
from .quadrature import DEFAULT_CONFIG_1D, QuadratureConfig, converge, nested_node_mean
from .series import DEFAULT_TOL, AlphaQuery, alpha_series
from .backend import kernels

# The often-quoted value for sum 1/(n!)^3 = 0F2(;1,1;1); it matches only
# the fractional digits of the actual sum (n=0 alone contributes 1).
QUOTED_0F2_VALUE = 1.1297


@dataclass(frozen=True)
class MethodValue:
    """One evaluation route: its value and an error bound or estimate."""

    name: str
    value: float
    error: float


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


def evaluate_method(
    x: float,
    s: int,
    method: str,
    tol: float | None = None,
) -> tuple[float, dict]:
    """Evaluate alpha(x, s) by one named route.

    Returns (value, info) where info carries the route's cost and error
    metadata: terms_used/tail_bound for the series, nodes/est_error for
    the quadrature-backed routes.
    """
    if method == "series":
        res = alpha_series(x, s, tol if tol is not None else DEFAULT_TOL)
        return res.value.real, {
            "method": "series",
            "terms_used": res.terms_used,
            "tail_bound": res.tail_bound,
        }
    if method == "hadamard":
        cfg = _cfg_1d(tol)
        q = alpha_via_hadamard(x, s, cfg)
        return q.value.real, {
            "method": "hadamard",
            "nodes": q.nodes,
            "est_error": q.est_error,
        }
    if method == "bessel":
        if s != 2:
            raise InvalidQueryError("method 'bessel' is only valid for s = 2")
        if x < 0:
            raise InvalidQueryError(
                "method 'bessel' needs x >= 0 (argument of I0 is 2*sqrt(x))"
            )
        cfg = _cfg_1d(tol)
        a = 2.0 * math.sqrt(x)
        _guard_exp_peak(a, "bessel")
        q = converge(
            nested_node_mean(lambda n, fresh: kernels.bessel_mean(a, 0.0, n, fresh=fresh)),
            cfg,
        )
        return q.value.real, {
            "method": "bessel",
            "nodes": q.nodes,
            "est_error": q.est_error,
        }
    raise InvalidQueryError(f"unknown method {method!r}")


def _cfg_1d(tol: float | None) -> QuadratureConfig:
    if tol is None:
        return DEFAULT_CONFIG_1D
    if not tol > 0:
        raise InvalidQueryError(f"tolerance must be positive, got {tol!r}")
    return QuadratureConfig(
        initial_nodes=DEFAULT_CONFIG_1D.initial_nodes,
        max_nodes=DEFAULT_CONFIG_1D.max_nodes,
        tol=tol,
    )


def compare_methods(x: float, s: int, tolerance: float = 1e-8) -> ComparisonReport:
    """Run every route applicable to (x, s) and report pairwise agreement.

    Routes: direct series always; for s=2 the explicit circle integrand,
    the I0 reduction (x >= 0), and the lift; for s=3 both torus forms and
    the lift; for s>=4 the lift; for s=1 the exponential closed form.
    The routes agree when the largest pairwise delta is at most
    tolerance * max(1, max |value|): absolute near zero, relative for
    large values.
    """
    query = AlphaQuery(complex(x), s)
    if not tolerance > 0:
        raise InvalidQueryError(f"tolerance must be positive, got {tolerance!r}")
    x = float(x)
    methods: list[MethodValue] = []
    notes: list[str] = []

    res = alpha_series(x, s)
    methods.append(MethodValue("series", res.value.real, res.tail_bound))

    if s == 1:
        methods.append(MethodValue("exp-closed-form", math.exp(x), 0.0))
    if s == 2:
        q = alpha2_quadrature(x)
        methods.append(MethodValue("alpha2-closed-form", q.value.real, q.est_error))
        if x >= 0:
            value, info = evaluate_method(x, 2, "bessel")
            methods.append(MethodValue("bessel", value, info["est_error"]))
    if s == 3:
        qc = alpha3_quadrature_complex(x)
        methods.append(MethodValue("hadamard-2d-complex", qc.value.real, qc.est_error))
        if abs(qc.value.imag) > 1e-10:
            notes.append(
                f"torus-averaged imaginary residue {qc.value.imag:.3e} "
                "exceeds 1e-10"
            )
        qr = alpha3_quadrature_real(x)
        methods.append(MethodValue("hadamard-2d-real", qr.value.real, qr.est_error))
    if s >= 2:
        qh = alpha_via_hadamard(x, s)
        methods.append(MethodValue("hadamard-iterated", qh.value.real, qh.est_error))

    if x == 1.0 and s == 3:
        notes.append(
            f"sum 1/(n!)^3 = 0F2(;1,1;1) computed as {methods[0].value!r}; "
            f"the often-quoted value {QUOTED_0F2_VALUE} matches the fractional "
            "digits (.1297) but not the integer part -- the n=0 term alone "
            "contributes 1."
        )

    values = [m.value for m in methods]
    max_delta = 0.0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            max_delta = max(max_delta, abs(values[i] - values[j]))
    scale = max(1.0, max(abs(v) for v in values))
    return ComparisonReport(
        query=query,
        method_values=methods,
        max_pairwise_delta=max_delta,
        tolerance=tolerance,
        passed=max_delta <= tolerance * scale,
        notes=notes,
    )
