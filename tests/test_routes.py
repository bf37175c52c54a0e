"""The route list: which routes compare runs for each (x, s), in which
order, and the messages eval gives when a route does not apply."""

from __future__ import annotations

import math

import mpmath
import pytest

from alphafn.cli import main
from alphafn.report import compare_methods

S2_FULL = ["series", "alpha2-closed-form", "bessel", "hadamard-iterated"]
S3 = ["series", "hadamard-2d-complex", "hadamard-2d-real", "hadamard-iterated"]
LIFT_ONLY = ["series", "hadamard-iterated"]

EXPECTED_ROUTES = {
    (-2.0, 1): ["series", "exp-closed-form"],
    (0.5, 1): ["series", "exp-closed-form"],
    (3.0, 1): ["series", "exp-closed-form"],
    # the I0 reduction needs x >= 0
    (-2.0, 2): ["series", "alpha2-closed-form", "hadamard-iterated"],
    (0.5, 2): S2_FULL,
    (3.0, 2): S2_FULL,
    (-2.0, 3): S3,
    (0.5, 3): S3,
    (3.0, 3): S3,
    (-2.0, 4): LIFT_ONLY,
    (0.5, 4): LIFT_ONLY,
    (3.0, 4): LIFT_ONLY,
    (-2.0, 5): LIFT_ONLY,
    (0.5, 5): LIFT_ONLY,
    (3.0, 5): LIFT_ONLY,
}


@pytest.mark.parametrize("x, s", sorted(EXPECTED_ROUTES))
def test_compare_route_order(x, s):
    report = compare_methods(x, s)
    assert [m.name for m in report.method_values] == EXPECTED_ROUTES[(x, s)]
    assert report.passed


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--x", "1", "--s", "3", "--method", "bessel"],
         "method 'bessel' is only valid for s = 2"),
        (["--x", "-1", "--s", "2", "--method", "bessel"],
         "method 'bessel' needs x >= 0 (argument of I0 is 2*sqrt(x))"),
        (["--x", "1", "--s", "1", "--method", "hadamard"],
         "the lift needs integer s >= 2, got 1"),
    ],
)
def test_eval_refusal_messages(capsys, argv, message):
    code = main(["eval", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("x", [-20.0, -1.0, 0.0, 0.5, 1.0, 20.0])
def test_exp_closed_form_error_bounds_its_rounding(x):
    # e^x is not a double (e^0 aside): the route reports one ulp, not 0
    route = {m.name: m for m in compare_methods(x, 1).method_values}["exp-closed-form"]
    with mpmath.workdps(40):
        true_error = abs(mpmath.mpf(route.value) - mpmath.exp(x))
    assert route.error > 0
    assert true_error <= route.error
    assert route.error == math.ulp(route.value)
