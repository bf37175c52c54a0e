"""The route list: which routes compare runs for each (x, s), in which
order, and the messages eval gives when a route does not apply."""

from __future__ import annotations

import math

import mpmath
import pytest

from alphafn.cli import main
from alphafn import InvalidQueryError, NonConvergenceError, alpha_series
from alphafn.report import compare_methods, evaluate_method

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


@pytest.mark.parametrize("run", [
    lambda x: compare_methods(x, 3),
    lambda x: evaluate_method(x, 3, "hadamard"),
    # the series route would return alpha(1+i, 3)'s real part alone
    lambda x: evaluate_method(x, 3, "series"),
])
def test_report_refuses_non_real_x(run):
    with pytest.raises(InvalidQueryError, match=r"x must be real, got \(1\+1j\)"):
        run(1 + 1j)


@pytest.mark.parametrize("run, message", [
    (lambda: alpha_series(1.0, 3, "1e-3"), "tol must be positive, got '1e-3'"),
    (lambda: alpha_series(1.0, 3, 1j), r"tol must be positive, got 1j"),
    (lambda: compare_methods(1.0, 3, "x"), "tolerance must be positive, got 'x'"),
    (lambda: evaluate_method(1.0, 3, "series", "x"), "tol must be positive, got 'x'"),
    (lambda: evaluate_method(1.0, 3, "hadamard", "x"), "tol must be positive, got 'x'"),
], ids=["series-str", "series-complex", "compare", "eval-series", "eval-hadamard"])
def test_one_tolerance_check(run, message):
    # one check for every entry point: InvalidQueryError, never a TypeError
    # from comparing a non-number with 0
    with pytest.raises(InvalidQueryError, match=message):
        run()


@pytest.mark.parametrize("x, s", [(-1e4, 3), (-6e4, 2)])
def test_report_refuses_a_value_with_no_certified_digit(x, s):
    # the terms cancel: the library returns the value with its honest
    # bound, which exceeds |value|, and the report refuses it
    res = alpha_series(x, s)
    assert res.tail_bound + res.rounding_bound > abs(res.value)
    for run in (lambda: evaluate_method(x, s, "series"), lambda: compare_methods(x, s)):
        with pytest.raises(NonConvergenceError, match="^series: .*no digit is certified$"):
            run()


# compare's two torus entries still run the doubling ladder, whose levels
# end at 32, 64 and 128 nodes here: (value, error) by float.hex, and nodes
TORUS_LADDER_PINS = {
    1.0: {
        "hadamard-2d-complex": ("0x1.109a17d70baaap+1", "0x1.5b00005baf9bap-43", 32),
        "hadamard-2d-real": ("0x1.109a17d70baabp+1", "0x1.5a00000000000p-43", 32),
    },
    -4.0: {
        "hadamard-2d-complex": ("-0x1.474291d9990cdp+0", "0x1.4bdfb7dc95227p-51", 64),
        "hadamard-2d-real": ("-0x1.474291d9990ccp+0", "0x1.0000000000000p-51", 64),
    },
    8.0: {
        "hadamard-2d-complex": ("0x1.3afb48abc371ep+4", "0x1.af5df01ec8e1dp-42", 128),
        "hadamard-2d-real": ("0x1.3afb48abc3706p+4", "0x1.5000000000000p-42", 128),
    },
    -8.0: {
        "hadamard-2d-complex": ("-0x1.17a44ddec3dc1p+0", "0x1.62be844ac61afp-45", 128),
        "hadamard-2d-real": ("-0x1.17a44ddec3dbap+0", "0x1.3e00000000000p-45", 128),
    },
}


@pytest.mark.parametrize("x", sorted(TORUS_LADDER_PINS))
def test_compare_torus_entries_are_pinned(x):
    got = {
        m.name: (m.value.hex(), m.error.hex(), m.info["nodes"])
        for m in compare_methods(x, 3).method_values
        if m.name.startswith("hadamard-2d")
    }
    assert got == TORUS_LADDER_PINS[x]
