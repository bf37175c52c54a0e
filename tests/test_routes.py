"""The route list: which routes compare runs for each (x, s), in which
order, and the messages eval gives when a route does not apply."""

from __future__ import annotations

import math
import sys

import mpmath
import pytest

from alphafn import _kernels_py, series
from alphafn.cli import main
from alphafn import (
    AlphaFnError,
    InvalidQueryError,
    NonConvergenceError,
    QuadratureResult,
    SeriesResult,
    alpha_series,
    ode_residual,
)
from alphafn.hadamard import (
    _bessel_level,
    _ladder,
    _lift_refusal,
    _result,
    alpha2_quadrature,
    alpha3_quadrature_complex,
    alpha3_quadrature_real,
    alpha_via_hadamard,
)
from alphafn.report import METHODS, ROUTES, compare_methods, evaluate_method
from alphafn.verify import SUITE_NAMES, run_suite

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


@pytest.mark.parametrize("run, message", [
    (lambda: compare_methods(2.0, True), "s must be an integer >= 1, got True"),
    (lambda: compare_methods(2.0, 3, True), "tolerance must be positive, got True"),
    (lambda: evaluate_method(2.0, 4, "hadamard", True), "tol must be positive, got True"),
    (lambda: evaluate_method(2.0, True, "series"), "s must be an integer >= 1, got True"),
    (lambda: alpha_series(2.0, True), "s must be an integer >= 1, got True"),
    (lambda: alpha_series(2.0, 3, True), "tol must be positive, got True"),
    (lambda: alpha2_quadrature(2.0, True), "tol must be positive, got True"),
    (lambda: alpha3_quadrature_real(2.0, True), "tol must be positive, got True"),
    (lambda: alpha_via_hadamard(2.0, True), "the lift needs integer s >= 2, got True"),
], ids=["compare-s", "compare-tol", "eval-hadamard-tol", "eval-series-s", "series-s",
        "series-tol", "alpha2-tol", "torus-tol", "lift-s"])
def test_a_bool_is_neither_an_order_nor_a_tolerance(run, message):
    # bool is an int subclass: True would pass as s = 1 and as tol = 1
    with pytest.raises(InvalidQueryError, match=f"^{message}$"):
        run()


def _direct(route, x, s):
    """(value, error, info) of compare's route called directly: eval's
    method, alpha2_quadrature, math.exp, or the torus ladder."""
    if route.method is not None:
        method = evaluate_method(x, s, route.method)
        return method.value, method.error, method.info
    if route.name == "exp-closed-form":
        value = math.exp(x)
        return value, math.ulp(value), {}
    if route.name == "alpha2-closed-form":
        q = alpha2_quadrature(x)
        return q.value.real, q.est_error, {
            "nodes": q.nodes, "alias_bound": q.alias_bound, "rounding_bound": q.rounding_bound}
    real = route.name == "hadamard-2d-real"
    q = _ladder(f"alpha3_quadrature_{'real' if real else 'complex'}", x,
                _kernels_py.alpha3_real_mean if real else _kernels_py.alpha3_complex_mean)
    return q.value.real, q.est_error, {"nodes": q.nodes, "est_error": q.est_error,
                                       "imag": q.value.imag}


def _hexed(v):
    return v.hex() if isinstance(v, float) else v


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_compare_entries_are_the_direct_route_calls(s):
    # compare's per-s route lookup must run what eval and the library run:
    # each entry's value, error and info, key order included, bit for bit
    routes = {route.name: route for route in ROUTES}
    for x in (-7.5, -3.3, -1.0, -0.25, 0.0, 0.5, 2.0, 4.4, 7.9):
        for m in compare_methods(x, s).method_values:
            value, error, info = _direct(routes[m.name], x, s)
            assert (m.value.hex(), m.error.hex()) == (value.hex(), error.hex()), (m.name, x)
            assert [(k, _hexed(v)) for k, v in m.info.items()] == [
                (k, _hexed(v)) for k, v in info.items()], (m.name, x)


def _public(name, x, s):
    """(value, error, info) of the public route behind a compare entry at
    s != 3: its SeriesResult or QuadratureResult, read as compare reads it."""
    if name == "series":
        r = alpha_series(x, s)
        return r.value.real, r.tail_bound + r.rounding_bound, {
            "terms_used": r.terms_used, "tail_bound": r.tail_bound,
            "rounding_bound": r.rounding_bound}
    if name == "alpha2-closed-form":
        q = alpha2_quadrature(x)
    elif name == "bessel":
        q = _result(_bessel_level(2.0 * math.sqrt(x), 0.0, None))
    else:
        q = alpha_via_hadamard(x, s)
    return q.value.real, q.est_error, {
        "nodes": q.nodes, "alias_bound": q.alias_bound, "rounding_bound": q.rounding_bound}


def _outcome(run):
    """run()'s result, or the AlphaFnError it raised."""
    try:
        return run()
    except AlphaFnError as exc:
        return exc


def _same_method(m, public):
    value, error, info = public
    assert (m.value.hex(), m.error.hex()) == (value.hex(), error.hex()), m.name
    assert [(k, _hexed(v)) for k, v in m.info.items()] == [
        (k, _hexed(v)) for k, v in info.items()], m.name


PARITY_XS = (-50.0, -30.0, -7.5, -1.0, -0.0, 0.0, 1e-320, 0.5, 3.3, 8.0, 12.0, 50.0)


@pytest.mark.parametrize("s", [1, 2, 4, 5])
def test_report_entries_equal_the_public_routes(s):
    # compare and eval run the routes' unchecked cores: every value, error
    # and info must be the public route's, bit for bit, so that a core and
    # its wrapper cannot drift apart
    compared = 0
    for x in PARITY_XS:
        report = _outcome(lambda: compare_methods(x, s))
        if isinstance(report, AlphaFnError):  # a route certifies no digit: eval checks it
            assert "no digit is certified" in str(report), (x, report)
        else:
            for m in report.method_values:
                if m.name != "exp-closed-form":
                    _same_method(m, _public(m.name, x, s))
                    compared += 1
        for method, route in METHODS.items():
            if route.refuse_s(s) is not None or (route.refuse_x and route.refuse_x(x)):
                continue
            public = _outcome(lambda: _public(route.name, x, s))
            got = _outcome(lambda: evaluate_method(x, s, method))
            if isinstance(public, AlphaFnError):  # the public route refuses: so does eval
                assert (type(got), str(got)) == (type(public), str(public)), (method, x)
            elif isinstance(got, AlphaFnError):  # no certified digit: the report's rule
                assert type(got) is NonConvergenceError, (method, x)
                assert not public[1] < abs(public[0]), (method, x)
            else:
                _same_method(got, public)
                compared += 1
    assert compared >= 2 * len(PARITY_XS)


def _rebind_everywhere(monkeypatch, original, replacement):
    """Replace every binding of original in the alphafn modules."""
    for name, module in list(sys.modules.items()):
        if name == "alphafn" or name.startswith("alphafn."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.mark.parametrize("run", [
    lambda: compare_methods(3.3, 4),
    lambda: compare_methods(-7.5, 1),
    lambda: compare_methods(2.5, 2),
    lambda: evaluate_method(3.3, 4, "hadamard"),
    lambda: evaluate_method(3.3, 4, "series", 1e-10),
    lambda: evaluate_method(2.5, 2, "bessel"),
    lambda: ode_residual(1.5, 4),
], ids=["compare-4", "compare-1", "compare-2", "eval-hadamard", "eval-series", "eval-bessel",
        "ode"])
def test_a_report_query_is_checked_once(monkeypatch, run):
    # compare, eval and ode_residual each run series._check_query once, at
    # entry (eval after its route's refusals); the routes' cores neither
    # check it again nor build the public routes' result types
    checks, built = [], []
    original = series._check_query

    def counted_check(x, s):
        checks.append((x, s))
        return original(x, s)

    _rebind_everywhere(monkeypatch, original, counted_check)
    _count_results(monkeypatch, built)
    run()
    assert len(checks) == 1
    assert built == []


def _count_results(monkeypatch, built):
    """Append the type's name to built at each SeriesResult or
    QuadratureResult built: a NamedTuple is built in __new__, a dataclass
    in __init__."""
    for result_type in (SeriesResult, QuadratureResult):
        slot = "__new__" if issubclass(result_type, tuple) else "__init__"

        def counted(*args, build=getattr(result_type, slot), name=result_type.__name__,
                    **kwargs):
            built.append(name)
            return build(*args, **kwargs)

        monkeypatch.setattr(result_type, slot, counted)


def test_result_counting_sees_each_type(monkeypatch):
    built = []
    _count_results(monkeypatch, built)
    alpha_series(1.0, 2)
    alpha_via_hadamard(1.0, 4)
    assert built == ["SeriesResult", "QuadratureResult"]


@pytest.mark.parametrize("x, s, method", [
    (3.3, 4, "series"),
    (3.3, 4, "hadamard"),
    (2.5, 2, "bessel"),
])
def test_eval_checks_a_given_tol_once(monkeypatch, x, s, method):
    # each route's core resolves and checks its own tol with series._tol,
    # and eval adds no check of its own; the lift's inner series checks
    # INNER_TOL as well, so only the given tol is counted
    given, checks = 1e-9, []
    original = series._tol

    def counted_tol(tol, *args, **kwargs):
        checks.append(tol)
        return original(tol, *args, **kwargs)

    _rebind_everywhere(monkeypatch, original, counted_tol)
    evaluate_method(x, s, method, given)
    assert checks.count(given) == 1


def _refusals():
    """pytest params (report call, public call, same message) for each
    refusal the public routes make on the report path."""
    cases = []

    def case(name, report_call, public_call, same_message=True):
        cases.append(pytest.param(report_call, public_call, same_message, id=name))

    for name, s in (("0", 0), ("True", True), ("2**1100", 2**1100)):
        case(f"compare-s={name}", lambda s=s: compare_methods(1.0, s),
             lambda s=s: alpha_series(1.0, s))
        case(f"series-s={name}", lambda s=s: evaluate_method(1.0, s, "series"),
             lambda s=s: alpha_series(1.0, s))
        case(f"hadamard-s={name}", lambda s=s: evaluate_method(1.0, s, "hadamard"),
             lambda s=s: alpha_via_hadamard(1.0, s))
    for x in (math.nan, math.inf, -math.inf):  # alpha_series takes a complex x
        case(f"compare-x={x!r}", lambda x=x: compare_methods(x, 4), lambda x=x: alpha_series(x, 4))
        case(f"series-x={x!r}", lambda x=x: evaluate_method(x, 4, "series"),
             lambda x=x: alpha_series(x, 4))
    for x in (math.nan, math.inf, -math.inf, 1 + 1j):
        case(f"hadamard-x={x!r}", lambda x=x: evaluate_method(x, 4, "hadamard"),
             lambda x=x: alpha_via_hadamard(x, 4))
    for x in (math.nan, math.inf):  # eval's Bessel route refuses -inf as x < 0
        case(f"bessel-x={x!r}", lambda x=x: evaluate_method(x, 2, "bessel"),
             lambda x=x: alpha_series(x, 2))
    for tol in (0, -1, True, "1e-3"):
        # compare's tolerance is its verdict's, and its message says so
        case(f"compare-tol={tol!r}", lambda tol=tol: compare_methods(1.0, 4, tol),
             lambda tol=tol: alpha_series(1.0, 4, tol), same_message=False)
        case(f"series-tol={tol!r}", lambda tol=tol: evaluate_method(1.0, 4, "series", tol),
             lambda tol=tol: alpha_series(1.0, 4, tol))
        case(f"hadamard-tol={tol!r}", lambda tol=tol: evaluate_method(1.0, 4, "hadamard", tol),
             lambda tol=tol: alpha_via_hadamard(1.0, 4, tol))
        case(f"bessel-tol={tol!r}", lambda tol=tol: evaluate_method(1.0, 2, "bessel", tol),
             lambda tol=tol: _bessel_level(2.0, 0.0, tol))
    return cases


@pytest.mark.parametrize("report_call, public_call, same_message", _refusals())
def test_report_refuses_what_the_public_routes_refuse(report_call, public_call, same_message):
    # checked once at entry, compare and eval still refuse each bad s, x
    # and tol that the public route refuses, with its class and message
    with pytest.raises(AlphaFnError) as public:
        public_call()
    with pytest.raises(AlphaFnError) as got:
        report_call()
    assert type(got.value) is type(public.value)
    if same_message:
        assert str(got.value) == str(public.value)


LIFT_ENTRIES = {"eval-hadamard", "lift"}


@pytest.mark.parametrize("x, s, serving", [
    *((x, 3, LIFT_ENTRIES) for x in (math.nan, math.inf, -math.inf)),
    (math.nan, 2, LIFT_ENTRIES | {"eval-bessel"}),
    (math.inf, 2, LIFT_ENTRIES | {"eval-bessel"}),
    (-math.inf, 2, LIFT_ENTRIES),  # the Bessel route's own x < 0 refusal comes first
    (1.0, 0, set()),
    (1.0, True, set()),
    (1.0, 2.5, set()),
    (1.0, 2**1100, LIFT_ENTRIES),
], ids=["nan-3", "inf-3", "-inf-3", "nan-2", "inf-2", "-inf-2", "s=0", "s=True", "s=2.5",
        "s=2**1100"])
def test_every_entry_point_refuses_a_bad_query_alike(x, s, serving):
    # each entry point that takes (x, s) and whose own refusal lets the
    # query through refuses it with series._check_query's class and message
    calls = {"compare": lambda: compare_methods(x, s), "series": lambda: alpha_series(x, s),
             "ode": lambda: ode_residual(x, s)}
    for method, route in METHODS.items():
        if route.refuse_s(s) is None and (route.refuse_x is None or route.refuse_x(x) is None):
            calls[f"eval-{method}"] = lambda method=method: evaluate_method(x, s, method)
    if _lift_refusal(s) is None:
        calls["lift"] = lambda: alpha_via_hadamard(x, s)
    assert set(calls) == {"compare", "series", "ode", "eval-series"} | serving
    outcomes = {}
    for name, call in calls.items():
        with pytest.raises(AlphaFnError) as excinfo:
            call()
        outcomes[name] = (type(excinfo.value), str(excinfo.value))
    assert len(set(outcomes.values())) == 1, outcomes
    assert outcomes["series"][0] is InvalidQueryError


def test_eval_and_verify_refuse_an_unknown_name():
    with pytest.raises(InvalidQueryError, match="^unknown method 'nope'$"):
        evaluate_method(1.0, 3, "nope")
    with pytest.raises(ValueError, match="^unknown suite 'nope'; choose from ") as excinfo:
        run_suite("nope")
    assert all(name in str(excinfo.value) for name in (*SUITE_NAMES, "all"))


@pytest.mark.parametrize("method", sorted(METHODS))
def test_eval_takes_an_integer_s_on_every_route(method):
    # the Bessel route took s = 2.0, since 2.0 == 2, where compare refused it
    with pytest.raises(InvalidQueryError, match=r"integer.*got 2\.0$"):
        evaluate_method(1.0, 2.0, method)


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


def test_compare_torus_entries_read_the_kernels_at_call_time(monkeypatch):
    # a tracer rebinds the per-node torus kernels on the kernels module;
    # compare's torus entries must reach the rebound functions
    calls = {"alpha3_real_mean": 0, "alpha3_complex_mean": 0}
    for name in calls:
        original = getattr(_kernels_py, name)

        def counting(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(_kernels_py, name, counting)
    assert compare_methods(1.0, 3).passed
    assert all(calls.values()), calls


# the library quadrature routes of each s, beside the eval methods
LIBRARY_ROUTES = {2: (alpha2_quadrature,), 3: (alpha3_quadrature_real, alpha3_quadrature_complex)}


def _value_and_error(route, x, s):
    """(value, error) of an eval method, given by name, or of a library route."""
    if isinstance(route, str):
        method = evaluate_method(x, s, route)
        return method.value, method.error
    result = route(x)
    return result.value, result.est_error


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_every_route_returns_a_bounded_value_or_refuses(s):
    # 27 points from x = -1e5 through 1.1 (700/s)^s, past the double range:
    # each route returns a value within its reported error of mpmath's
    # 0F_{s-1}(; 1, ..., 1; x), or refuses with an AlphaFnError that says why
    edge = 1.1 * (700.0 / s) ** s
    xs = ([-1e5 * 10.0 ** (-k / 2) for k in range(13)] + [0.0]
          + [0.1 * (edge / 0.1) ** (k / 12) for k in range(13)])
    routes = [*METHODS, *LIBRARY_ROUTES.get(s, ())]
    answered = set()
    for x in xs:
        with mpmath.workdps(60):
            exact = mpmath.hyper([], [1] * (s - 1), x)
        for route in routes:
            try:
                value, error = _value_and_error(route, x, s)
            except AlphaFnError as exc:
                assert str(exc), (route, x)
                continue
            with mpmath.workdps(60):
                assert abs(mpmath.mpmathify(value) - exact) <= error, (route, x, value, error)
            answered.add(route)
    # every route that applies at this s certifies somewhere on the grid
    assert answered == set(routes) - ({"bessel"} if s != 2 else set())
