"""Tests for the circle-integral product machinery and its closed forms."""

from __future__ import annotations

import cmath
import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphafn import (
    EXP,
    AlphaFnError,
    AnalyticFunction,
    DomainViolationError,
    ImaginaryResidueError,
    InvalidQueryError,
    NonConvergenceError,
    ToleranceNotReachedError,
    alpha2_integrand,
    alpha2_quadrature,
    alpha3_integrand_complex,
    alpha3_integrand_real,
    alpha3_quadrature_complex,
    alpha3_quadrature_real,
    alpha_series,
    alpha_via_hadamard,
    bessel_identity_check,
    compare_methods,
    evaluate_method,
    hadamard_eval,
    trapezoid_periodic_1d,
)
from alphafn import _kernels_py, hadamard, report, verify
from alphafn.hadamard import _bessel_level, _result
from alphafn.quadrature import CIRCLE_LADDER

TWO_PI = 2.0 * math.pi
I0_OF_2 = 2.2795853023360673
I0_OF_5 = 27.239871823604446
E_SQUARED = 7.38905609893065

# sum 1/(n!)^4 from exact rationals, the target of the s=4 lift
ALPHA_1_4 = float(sum(Fraction(1, math.factorial(n) ** 4) for n in range(20)))


class TestAnalyticFunction:
    def test_rejects_nonpositive_radius(self):
        with pytest.raises(InvalidQueryError):
            AnalyticFunction(cmath.exp, 0.0)

    def test_polynomial_matches_power_sum(self):
        coeffs = [0.5, -1.0, 0.25, 2.0]
        poly = AnalyticFunction.from_coefficients(coeffs)
        z = 0.3 - 0.7j
        direct = sum(c * z**n for n, c in enumerate(coeffs))
        assert abs(poly(z) - direct) < 1e-14

    def test_empty_and_constant_polynomials(self):
        empty = AnalyticFunction.from_coefficients([])
        constant = AnalyticFunction.from_coefficients([-2.5])
        for z in (0j, 0.3 - 0.7j, -4.0 + 0j):
            assert empty(z) == 0j
            assert constant(z) == -2.5

    def test_real_coefficient_contract(self):
        rng = random.Random(5)
        poly = AnalyticFunction.from_coefficients(
            [rng.uniform(-1, 1) for _ in range(9)]
        )
        for fn in (EXP, poly):
            for _ in range(25):
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                defect = abs(fn(z.conjugate()) - fn(z).conjugate())
                assert defect <= 1e-12 * max(1.0, abs(fn(z)))


class TestHadamardEval:
    def test_argument_zero_keeps_constant_term(self):
        res = hadamard_eval(EXP, EXP, 0.0, 1.0)
        assert abs(res.value - 1.0) < 1e-12

    def test_linear_polynomials(self):
        one_plus_z = AnalyticFunction.from_coefficients([1.0, 1.0])
        res = hadamard_eval(one_plus_z, one_plus_z, 1.0, 1.0)
        assert abs(res.value - 2.0) < 1e-13

    def test_exp_exp_is_alpha_s2(self):
        res = hadamard_eval(EXP, EXP, 1.0, 1.0)
        assert abs(res.value - I0_OF_2) < 1e-11
        assert abs(res.value.imag) <= 1e-10

    def test_depends_only_on_product_uv(self):
        split = hadamard_eval(EXP, EXP, 0.5, 2.0).value
        direct = hadamard_eval(EXP, EXP, 1.0, 1.0).value
        assert abs(split - direct) <= 1e-11

    def test_radius_is_enforced_strictly(self):
        geometric = AnalyticFunction(lambda z: 1.0 / (1.0 - z), 1.0)
        with pytest.raises(DomainViolationError):
            hadamard_eval(EXP, geometric, 1.0, 1.0)  # |v| == radius exactly
        with pytest.raises(DomainViolationError):
            hadamard_eval(EXP, geometric, 1.0, 1.5)
        for u in (1.0, -1.5):
            with pytest.raises(DomainViolationError, match="first factor's radius"):
                hadamard_eval(geometric, EXP, u, 1.0)

    def test_convolution_oracle_sample(self):
        rng = random.Random(7)
        for _ in range(30):
            ca = [rng.uniform(-1, 1) for _ in range(rng.randint(1, 9))]
            cb = [rng.uniform(-1, 1) for _ in range(rng.randint(1, 9))]
            u, v = rng.uniform(-1, 1), rng.uniform(-1, 1)
            f = AnalyticFunction.from_coefficients(ca)
            g = AnalyticFunction.from_coefficients(cb)
            expected = sum(a * b * (u * v) ** n for n, (a, b) in enumerate(zip(ca, cb)))
            got = hadamard_eval(f, g, u, v).value.real
            assert abs(got - expected) <= 1e-11

    def test_complex_coefficients_trip_the_imag_check(self):
        # e^{iz} against exp keeps coefficient products i^n/(n!)^2, so the
        # result is genuinely complex and the residue check must refuse it
        twisted = AnalyticFunction(lambda z: cmath.exp(1j * z), math.inf)
        with pytest.raises(ImaginaryResidueError):
            hadamard_eval(twisted, EXP, 1.0, 1.0)

    def test_imag_limit_scales_with_the_integrand(self):
        # the integrand reaches 2.5e9 at the nodes, so rounding leaves an
        # imaginary residue near 6e-8 on a real value of 2e8; an absolute
        # 1e-10 limit refused it
        ones = AnalyticFunction.from_coefficients([1.0] * 25)
        u, v = 1.4999, -1.4999
        res = hadamard_eval(ones, ones, u, v, nodes=25)
        expected = sum((u * v) ** n for n in range(25))
        assert math.isclose(res.value.real, expected, rel_tol=1e-13)


def convolution(ca, cb, u, v):
    return sum(a * b * (u * v) ** n for n, (a, b) in enumerate(zip(ca, cb)))


def exact_nodes(*coefficient_lists):
    """The node count of one trapezoid level, more than any of the degrees."""
    return max(4, *map(len, coefficient_lists))


def counted_polynomial(coefficients, calls):
    """from_coefficients' polynomial, appending each argument to calls."""
    poly = AnalyticFunction.from_coefficients(coefficients)

    def evaluate(z):
        calls.append(z)
        return poly(z)

    return AnalyticFunction(evaluate, math.inf)


class TestExactPolynomialLevel:
    """f(u e^{it}) g(v e^{-it}) has frequencies in [-deg g, deg f], so for a
    pair of polynomials one level of max(4, deg f + 1, deg g + 1) nodes is
    exact; suite_theorem1 runs that level instead of the doubling ladder."""

    def test_degree_8_pair_is_one_level_of_9_nodes(self):
        rng = random.Random(11)
        ca = [rng.uniform(-1, 1) for _ in range(9)]
        cb = [rng.uniform(-1, 1) for _ in range(9)]
        f_calls, g_calls = [], []
        f = counted_polynomial(ca, f_calls)
        g = counted_polynomial(cb, g_calls)
        res = hadamard_eval(f, g, 0.8, -0.9, nodes=exact_nodes(ca, cb))
        assert res.nodes == 9
        assert res.est_error == 0.0
        assert len(f_calls) == 9
        assert len(g_calls) == 9
        assert abs(res.value - convolution(ca, cb, 0.8, -0.9)) <= 1e-14

    def test_constant_pair_uses_the_minimum_of_4_nodes(self):
        f = AnalyticFunction.from_coefficients([2.0])
        g = AnalyticFunction.from_coefficients([-1.5])
        res = hadamard_eval(f, g, 0.3, 0.4, nodes=exact_nodes([2.0], [-1.5]))
        assert res.nodes == 4
        assert res.value == -3.0

    def test_degree_many_nodes_alias(self):
        # 1 + z^8 against itself: at 8 nodes e^{+-8it} fold onto the mean
        ca = [1.0] + [0.0] * 7 + [1.0]
        poly = AnalyticFunction.from_coefficients(ca)
        u, v = 0.9, 0.8
        exact = 1.0 + (u * v) ** 8
        aliased = hadamard_eval(poly, poly, u, v, nodes=8)
        assert math.isclose(aliased.value.real, exact + u**8 + v**8, rel_tol=1e-14)
        exact_level = hadamard_eval(poly, poly, u, v, nodes=exact_nodes(ca, ca))
        assert math.isclose(exact_level.value.real, exact, rel_tol=1e-14)

    def test_theorem1_runs_one_level_per_pair(self, monkeypatch):
        seen = []

        def recording(f, g, u, v, nodes=None):
            res = hadamard_eval(f, g, u, v, nodes)
            seen.append(res)
            return res

        monkeypatch.setattr(verify, "hadamard_eval", recording)
        cases = verify.suite_theorem1(seed=4)
        assert all(case.passed for case in cases)
        assert len(seen) == 200
        # degrees <= 8, so at most 9 nodes; the ladder would report 32
        assert all(4 <= res.nodes <= 9 and res.est_error == 0.0 for res in seen)

    # the tolerance is fixed from the rounding of two Horner evaluations
    # and a 25-node mean, each a few ulps of the absolute-value sums; below
    # the smallest normal double rounding is absolute, hence that floor
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=25),
        st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=25),
        st.floats(-1.5, 1.5, exclude_min=True, exclude_max=True),
        st.floats(-1.5, 1.5, exclude_min=True, exclude_max=True),
    )
    def test_exact_up_to_rounding(self, ca, cb, u, v):
        scale = sum(abs(a) * abs(u) ** n for n, a in enumerate(ca)) * sum(
            abs(b) * abs(v) ** n for n, b in enumerate(cb)
        )
        f = AnalyticFunction.from_coefficients(ca)
        g = AnalyticFunction.from_coefficients(cb)
        res = hadamard_eval(f, g, u, v, nodes=exact_nodes(ca, cb))
        error = abs(res.value - convolution(ca, cb, u, v))
        assert error <= 1e-13 * scale + sys.float_info.min


def closure_hadamard_eval(f, g, u, v, nodes=None):
    """hadamard_eval as a per-node integrand closure through
    trapezoid_periodic_1d, the reference for the node-table mean."""
    f, g = f.evaluator, g.evaluator
    peak = 1.0

    def integrand(theta):
        nonlocal peak
        point = cmath.exp(1j * theta)
        value = f(u * point) * g(v * point.conjugate())
        size = abs(value)
        if size > peak:
            peak = size
        return value

    result = trapezoid_periodic_1d(integrand, nodes)
    hadamard._check_imag(result.value, hadamard._IMAG_LIMIT_EVAL * peak, "hadamard_eval")
    return result


def bits(result):
    """A QuadratureResult as float.hex strings and its node count."""
    value = complex(result.value)
    return (value.real.hex(), value.imag.hex(), result.nodes, float(result.est_error).hex(),
            result.alias_bound, result.rounding_bound)


def outcome(evaluate, *args, **kwargs):
    """bits() of evaluate's result, or its exception's type and message."""
    try:
        return bits(evaluate(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 -- the refusal is the outcome
        return type(exc), str(exc)


class TestRootTableMean:
    """hadamard_eval's mean over the shared cached node table gives the
    doubles of the per-node closure through trapezoid_periodic_1d, and
    refuses what it refused."""

    @pytest.mark.parametrize("nodes", range(4, 12))
    def test_polynomial_levels_are_bit_identical(self, nodes):
        rng = random.Random(nodes)
        for _ in range(25):
            ca = [rng.uniform(-1, 1) for _ in range(rng.randint(1, 11))]
            cb = [rng.uniform(-1, 1) for _ in range(rng.randint(1, 11))]
            u, v = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
            f = AnalyticFunction.from_coefficients(ca)
            g = AnalyticFunction.from_coefficients(cb)
            got = bits(hadamard_eval(f, g, u, v, nodes=nodes))
            assert got == bits(closure_hadamard_eval(f, g, u, v, nodes=nodes))
            assert got[2:] == (nodes, "0x0.0p+0", None, None)

    @pytest.mark.parametrize("u, v", [(0.0, 1.0), (1.0, 1.0), (0.5, 2.0), (-1.7, 0.4),
                                      (2.0, -3.0), (5.0, 5.0), (-9.0, 7.5)])
    def test_exp_pair_on_the_ladder_is_bit_identical(self, u, v):
        got = hadamard_eval(EXP, EXP, u, v)
        assert bits(got) == bits(closure_hadamard_eval(EXP, EXP, u, v))
        assert got.nodes in (32, 64, 128) and got.est_error <= CIRCLE_LADDER[2]

    def test_refusals_are_unchanged(self):
        twisted = AnalyticFunction(lambda z: cmath.exp(1j * z), math.inf)
        nan_at_zero = AnalyticFunction(lambda z: math.nan if z.imag == 0 else 1.0, math.inf)
        huge = AnalyticFunction(lambda z: complex(1.5e308, 1.5e308), math.inf)
        one = AnalyticFunction.from_coefficients([1.0])
        ones = AnalyticFunction.from_coefficients([1.0] * 9)
        for f, g, u, v, nodes, error in (
            (EXP, EXP, 800.0, 1.0, None, ToleranceNotReachedError),  # cmath.exp overflows
            (huge, one, 1.0, 1.0, 4, ToleranceNotReachedError),  # abs(F(t_j)) overflows
            (ones, ones, 1e40, 1e40, 9, ToleranceNotReachedError),  # inf - inf, a NaN mean
            (nan_at_zero, EXP, 1.0, 1.0, 4, ToleranceNotReachedError),
            (twisted, EXP, 1.0, 1.0, None, ImaginaryResidueError),  # a genuine imag part
            (twisted, EXP, 1.0, 1.0, 8, ImaginaryResidueError),
            (EXP, EXP, 1.0, 1.0, 3, InvalidQueryError),  # fewer than 4 nodes
            (EXP, EXP, 1.0, 1.0, 16.0, InvalidQueryError),
        ):
            got = outcome(hadamard_eval, f, g, u, v, nodes)
            assert got == outcome(closure_hadamard_eval, f, g, u, v, nodes)
            assert got[0] is error, (u, v, nodes, got)


class TestAlpha2Route:
    def test_integrand_at_t0(self):
        assert abs(alpha2_integrand(1.0, 0.0) - E_SQUARED) < 1e-12

    def test_integrand_at_half_pi(self):
        assert abs(alpha2_integrand(1.0, math.pi / 2) - 1.0) < 1e-12

    def test_integrand_matches_complex_product(self):
        x, t = 0.5, 1.0
        eit = cmath.exp(1j * t)
        product = cmath.exp(x * eit) * cmath.exp(eit.conjugate())
        assert abs(alpha2_integrand(x, t) - product.real) < 1e-13

    def test_quadrature_matches_series(self):
        for x in (-1.0, 0.5, 1.0, 2.0):
            series = alpha_series(x, 2).value.real
            quad = alpha2_quadrature(x).value.real
            assert abs(quad - series) <= 1e-10, x

    def test_fused_kernel_equals_generic_rule(self):
        # at the route's one level, the generic rule over the same nodes
        tol = 1e-12
        x = 0.75
        fused = alpha2_quadrature(x, tol)
        n = fused.nodes
        generic = trapezoid_periodic_1d(lambda t: alpha2_integrand(x, t), n)
        assert generic.nodes == n
        assert abs(fused.value - generic.value) < 1e-13


class TestBesselIdentity:
    def test_degenerate_case(self):
        lhs, rhs = bessel_identity_check(0.0, 0.0)
        assert lhs == 1.0
        assert rhs == 1.0

    def test_axis_case(self):
        lhs, rhs = bessel_identity_check(2.0, 0.0)
        assert abs(lhs - I0_OF_2) < 1e-10
        assert abs(rhs - I0_OF_2) < 1e-12

    def test_three_four_five(self):
        lhs, rhs = bessel_identity_check(3.0, 4.0)
        assert abs(lhs - I0_OF_5) < 1e-10
        assert abs(rhs - I0_OF_5) < 1e-10

    def test_rotational_invariance(self):
        lhs34, _ = bessel_identity_check(3.0, 4.0)
        lhs50, _ = bessel_identity_check(5.0, 0.0)
        lhs05, _ = bessel_identity_check(0.0, 5.0)
        assert abs(lhs34 - lhs50) <= 1e-11
        assert abs(lhs50 - lhs05) <= 1e-11


class TestAlpha3Integrands:
    def test_complex_form_at_origin(self):
        value = alpha3_integrand_complex(0.0, 0.0, 0.0)
        assert abs(value - E_SQUARED) < 1e-12

    def test_complex_form_antipodal(self):
        value = alpha3_integrand_complex(1.0, 0.0, math.pi)
        assert abs(value - math.exp(-1.0)) < 1e-12

    def test_real_form_at_origin(self):
        assert abs(alpha3_integrand_real(0.0, 0.0, 0.0) - E_SQUARED) < 1e-12

    def test_forms_agree_at_spot_points(self):
        for x, theta, t in ((1.0, math.pi / 2, math.pi / 2), (1.0, math.pi, math.pi / 3)):
            re = alpha3_integrand_real(x, theta, t)
            z = alpha3_integrand_complex(x, theta, t)
            assert abs(z.real - re) < 1e-13

    def test_forms_agree_on_grid(self):
        for x in (-1.0, 0.0, 0.5, 1.0, 2.0):
            bound = 1e-12 * (1.0 + math.exp(abs(x) + 2.0))
            for i in range(16):
                theta = (TWO_PI * i) / 16
                for j in range(16):
                    t = (TWO_PI * j) / 16
                    diff = abs(
                        alpha3_integrand_complex(x, theta, t).real
                        - alpha3_integrand_real(x, theta, t)
                    )
                    assert diff <= bound, (x, theta, t)


class TestAlpha3Quadrature:
    def test_real_form_matches_series(self):
        for x in (-1.0, 0.0, 0.5, 1.0, 2.0):
            series = alpha_series(x, 3).value.real
            res = alpha3_quadrature_real(x)
            assert res.nodes <= 128
            assert abs(res.value.real - series) <= 1e-9, x

    def test_complex_form_matches_series_with_tiny_imag(self):
        for x in (-1.0, 0.0, 0.5, 1.0, 2.0):
            series = alpha_series(x, 3).value.real
            res = alpha3_quadrature_complex(x)
            assert abs(res.value.real - series) <= 1e-9, x
            assert abs(res.value.imag) <= 1e-10, x


def alpha3_mpmath(x):
    with mpmath.workdps(40):
        return mpmath.hyper([], [1, 1], x)


# each certified torus route by the name of the torus mean it certifies
TORUS_ROUTES = {
    "alpha3_real_mean": alpha3_quadrature_real,
    "alpha3_complex_mean": alpha3_quadrature_complex,
}


class TestAlpha3TorusLevel:
    """Each torus route runs the smallest n x n grid whose alias bound is
    at most tol, and its value is within est_error = alias_bound +
    rounding_bound of alpha(x, 3)."""

    @pytest.mark.parametrize("tol", [1e-4, 1e-10])
    @pytest.mark.parametrize("kernel", TORUS_ROUTES)
    def test_bound_holds_on_both_kernels(self, kernel, tol):
        for i in range(-16, 17):
            x = i / 2.0
            res = TORUS_ROUTES[kernel](x, tol)
            assert res.alias_bound <= tol
            assert res.est_error == res.alias_bound + res.rounding_bound
            error = abs(mpmath.mpc(res.value) - alpha3_mpmath(x))
            assert float(error) <= res.est_error, (x, res.nodes)

    def test_level_is_the_smallest_at_nonnegative_x(self):
        # for x >= 0 every aliased term is positive, so the grid's error is
        # the aliasing sum itself, and one node fewer must exceed tol
        tol = 1e-4
        for x in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
            n = alpha3_quadrature_real(x, tol).nodes
            assert alpha3_quadrature_complex(x, tol).nodes == n
            coarser = _kernels_py.alpha3_real_mean(x, n - 1)
            assert float(abs(coarser - alpha3_mpmath(x))) > tol, x

    def test_levels_at_the_verify_points(self):
        levels = [alpha3_quadrature_real(x).nodes for x in (-1.0, 0.0, 0.5, 1.0, 2.0)]
        assert levels == [14, 14, 14, 14, 18]

    def test_expansion_s3_runs_one_level_per_x(self, monkeypatch):
        seen = []

        def recording(route):
            def run(x, tol):
                res = route(x, tol)
                seen.append(res.nodes)
                return res
            return run

        for name in ("alpha3_quadrature_real", "alpha3_quadrature_complex"):
            monkeypatch.setattr(verify, name, recording(getattr(verify, name)))
        cases = verify.suite_expansion_s3()
        assert all(case.passed for case in cases)
        # the ladder would end at 32 for each of the ten calls
        assert sorted(seen) == [14] * 8 + [18] * 2

    def test_expansion_s3_fails_a_nan_on_the_pointwise_grid(self, monkeypatch):
        # max(0.0, nan) is 0.0, so a running max would pass this node; the
        # third pointwise x of seed 7 is drawn as the suite draws it
        rng = random.Random(7)
        x = [rng.uniform(-1.0, 2.0) for _ in range(3)][-1]
        real = verify.alpha3_integrand_real
        bad = (x, (TWO_PI * 3) / 16, (TWO_PI * 11) / 16)

        def patched(x, theta, t):
            return math.nan if (x, theta, t) == bad else real(x, theta, t)

        monkeypatch.setattr(verify, "alpha3_integrand_real", patched)
        failed = [case for case in verify.suite_expansion_s3(7) if not case.passed]
        assert [case.name for case in failed] == [f"pointwise-x={x:g}"]
        assert math.isnan(failed[0].delta)

    def test_expansion_s3_draws_its_pointwise_x_from_the_seed(self):
        def pointwise(seed):
            return [case.name for case in verify.suite_expansion_s3(seed)
                    if case.name.startswith("pointwise-")]

        assert len(set(pointwise(0))) == len(set(pointwise(1))) == 5
        assert pointwise(0) != pointwise(1)
        assert pointwise(0) == pointwise(0)

    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(-20.0, 20.0))
    def test_both_routes_within_their_error(self, x):
        # past |x| ~ 15 the rounding bound 2 n^2 2^-53 e^{|x|+2} outgrows
        # the alias bound; at x = +-20 it is 4.1e-3, the error below 1e-7
        exact = alpha3_mpmath(x)
        for route in TORUS_ROUTES.values():
            res = route(x)
            with mpmath.workdps(40):
                error = float(abs(mpmath.mpf(res.value.real) - exact))
            assert error <= res.est_error, (x, res)

    def test_refuses_a_value_with_no_certified_digit(self):
        # at x = -30 the rounding bound 175 exceeds |alpha(-30, 3)| = 4.8:
        # the library returns the value with that honest bound, and the
        # report's one rule refuses it (compare's own torus entries run the
        # ladder, which stalls there, so it exits 3 as well)
        exact = alpha3_mpmath(-30.0)
        for name, route in TORUS_ROUTES.items():
            res = route(-30.0)
            assert abs(res.value) < res.est_error
            with mpmath.workdps(40):
                assert float(abs(mpmath.mpc(res.value) - exact)) <= res.est_error
            entry = report.Route(name, None, lambda s: None,
                                 lambda x, s, tol, res=res: (res.value.real, res.est_error, {}))
            with pytest.raises(NonConvergenceError, match=f"^{name}: .*no digit is certified$"):
                report._certified(entry, -30.0, 3, None)
        with pytest.raises(ArithmeticError):  # exit 3
            compare_methods(-30.0, 3)

    def test_raises_past_the_node_cap(self):
        for route in TORUS_ROUTES.values():
            with pytest.raises(ToleranceNotReachedError, match="no grid of at most 512") as excinfo:
                route(200.0, 1e-10)
            assert excinfo.value.best is None

    def test_refusal_names_its_route_after_a_cache_hit(self):
        # the search is shared per (|x|, tol), so the second route's
        # refusal comes from the cache and must still name that route and x
        hadamard._torus_search.cache_clear()
        for x in (-210.0, 210.0):
            for name in ("alpha3_quadrature_real", "alpha3_quadrature_complex"):
                hits = hadamard._torus_search.cache_info().hits
                with pytest.raises(ToleranceNotReachedError) as excinfo:
                    getattr(hadamard, name)(x, 1e-11)
                assert str(excinfo.value) == (
                    f"{name}: no grid of at most 512^2 nodes reaches tol=1e-11 at x={x!r}")
                assert excinfo.value.best is None
                first = x < 0 and name == "alpha3_quadrature_real"
                assert hadamard._torus_search.cache_info().hits == hits + (not first)

    @pytest.mark.parametrize("x", [-7.25, -1.0, 0.0, 2.0, 13.5])
    def test_both_routes_share_one_level(self, x):
        hadamard._torus_search.cache_clear()
        real = alpha3_quadrature_real(x, 1e-9)
        complex_ = alpha3_quadrature_complex(x, 1e-9)
        mirrored = alpha3_quadrature_real(-x, 1e-9)
        info = hadamard._torus_search.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert real.nodes == complex_.nodes == mirrored.nodes
        assert real.alias_bound == complex_.alias_bound == mirrored.alias_bound
        assert real.rounding_bound == complex_.rounding_bound == mirrored.rounding_bound

    def test_rejects_bad_arguments(self):
        for route in TORUS_ROUTES.values():
            with pytest.raises(InvalidQueryError, match="tol must be positive"):
                route(1.0, 0.0)
            with pytest.raises(InvalidQueryError, match="not finite"):
                route(math.nan)
            with pytest.raises(InvalidQueryError):
                route(720.0)
            with pytest.raises(TypeError):
                route(1.0, nodes=14)


class TestIteratedLift:
    def test_at_zero(self):
        res = alpha_via_hadamard(0.0, 4)
        assert abs(res.value - 1.0) < 1e-12

    def test_s3_matches_series(self):
        res = alpha_via_hadamard(1.0, 3)
        assert abs(res.value.real - alpha_series(1.0, 3, tol=1e-15).value.real) <= 1e-9

    def test_s4_matches_rational_oracle(self):
        res = alpha_via_hadamard(1.0, 4)
        assert abs(res.value.real - ALPHA_1_4) <= 1e-8
        assert abs(res.value.imag) <= 1e-9

    def test_s2_agrees_with_generic_product(self):
        lifted = alpha_via_hadamard(0.8, 2).value
        generic = hadamard_eval(EXP, EXP, 0.8, 1.0).value
        assert abs(lifted - generic) <= 1e-11

    def test_method_agreement_grid(self):
        for s in (2, 3):
            for x in (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0):
                series = alpha_series(x, s).value.real
                lifted = alpha_via_hadamard(x, s).value.real
                assert abs(lifted - series) <= 1e-9, (x, s)

    def test_rejects_s_below_two(self):
        with pytest.raises(InvalidQueryError):
            alpha_via_hadamard(1.0, 1)

    def test_rejects_non_finite_x(self):
        with pytest.raises(InvalidQueryError):
            alpha_via_hadamard(math.inf, 3)

    def test_rejects_s_past_double_range(self):
        # the inner series takes (n+1)**(s-1) with math.pow
        with pytest.raises(InvalidQueryError, match="fit a double"):
            alpha_via_hadamard(1.0, 2**1024)


def alpha_mpmath_s(x, s):
    with mpmath.workdps(40):
        return mpmath.hyper([], [1] * (s - 1), x)


class TestCertifiedCircleRoutes:
    """Each circle route runs the one level its alias bound picks: wherever
    it returns, est_error = alias_bound + rounding_bound covers its error
    against mpmath, and everywhere else it raises an AlphaFnError."""

    @staticmethod
    def check(run, exact):
        try:
            res = run()
        except AlphaFnError:
            return
        assert res.est_error == res.alias_bound + res.rounding_bound
        with mpmath.workdps(40):
            error = float(abs(mpmath.mpf(res.value.real) - exact))
        assert error <= res.est_error, (res, error)

    @settings(max_examples=150, deadline=None)
    @given(x=st.floats(-20.0, 20.0), s=st.integers(2, 5))
    def test_lift_and_alpha2_within_their_error(self, x, s):
        exact = alpha_mpmath_s(x, s)
        self.check(lambda: alpha_via_hadamard(x, s), exact)
        if s == 2:
            self.check(lambda: alpha2_quadrature(x), exact)

    @settings(max_examples=150, deadline=None)
    @given(a=st.floats(0.0, 20.0), b=st.floats(0.0, 20.0))
    def test_bessel_within_its_error(self, a, b):
        with mpmath.workdps(40):
            exact = mpmath.besseli(0, mpmath.hypot(a, b))
        self.check(lambda: _result(_bessel_level(a, b, None)), exact)

    def test_one_level_from_the_bound(self):
        # the unit split ru = |x|, rv = 1 ran 16, 16, 32, 32 and 64 nodes
        # here; the chosen split runs 16 at s = 4 for every |x| <= 8
        levels = [alpha_via_hadamard(x, 4).nodes for x in (0.5, -1.0, 3.0, -5.0, 8.0)]
        assert levels == [16, 16, 16, 16, 16]
        assert [alpha2_quadrature(x).nodes for x in (1.0, -5.0)] == [16, 32]

    def test_refuses_past_the_node_budget(self):
        # an exp peak of 601, inside the 700 guard, but no level up to the
        # fixed cap of 1024 nodes aliases by at most tol
        with pytest.raises(ToleranceNotReachedError,
                           match="no level of at most 1024 nodes") as excinfo:
            alpha2_quadrature(600.0)
        assert excinfo.value.best is None

    def test_lift_residue_is_judged_by_its_bound(self):
        # the exact value is real.  At (16, 3) the unit split left a residue
        # of 1.7e-9; the split rv = 8 leaves about 3e-15.  At (100, 2), which
        # the unit split refused, a residue of 3e-8 is within the certified
        # bound of 7.7e-5, though past the former absolute limit of 1e-9
        for x, s, least in ((16.0, 3, 0.0), (100.0, 2, 1e-9)):
            res = alpha_via_hadamard(x, s)
            assert least < abs(res.value.imag) <= res.est_error, (x, s)
            with mpmath.workdps(40):
                error = float(abs(mpmath.mpf(res.value.real) - alpha_mpmath_s(x, s)))
            assert error <= res.est_error, (x, s)

    @pytest.mark.parametrize("x, s", [(-50.0, 4), (50.0, 4), (-50.0, 5), (50.0, 5),
                                      (-30.0, 3), (20.0, 3)])
    def test_lift_certifies_where_the_unit_split_could_not(self, x, s):
        # the unit split's bound was 3.0e9 at (+-50, 4) and (+-50, 5), 3.79
        # at (-30, 3) and 1.3e-4 at (20, 3); the chosen split certifies each
        # within its own bound of mpmath at 60 digits
        res = alpha_via_hadamard(x, s)
        with mpmath.workdps(60):
            exact = mpmath.hyper([], [1] * (s - 1), x)
            error = float(abs(mpmath.mpf(res.value.real) - exact))
        assert error <= res.est_error < 1e-8 * abs(res.value.real)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("kernel, name, run", [
        ("alpha2_mean", "alpha2_quadrature", lambda: alpha2_quadrature(1.0)),
        ("exp_alpha_mean", "alpha_via_hadamard", lambda: alpha_via_hadamard(1.0, 3)),
        ("alpha3_real_row_mean", "alpha3_quadrature_real", lambda: alpha3_quadrature_real(1.0)),
    ], ids=["alpha2", "lift", "alpha3_real"])
    def test_refuses_a_level_mean_that_is_not_finite(self, monkeypatch, kernel, name, run, bad):
        # a route returns a value whose bound certifies no digit, but never
        # a non-finite one: each certified level runs its kernel through
        # quadrature._level, whose refusal names the route
        monkeypatch.setattr(_kernels_py, kernel, lambda *args: complex(bad))
        with pytest.raises(ToleranceNotReachedError, match=f"^{name}: .* is not finite"):
            run()

    def test_lift_refuses_a_residue_past_its_bound(self, monkeypatch):
        mean = _kernels_py.exp_alpha_mean
        monkeypatch.setattr(_kernels_py, "exp_alpha_mean",
                            lambda x, s, n, rv: mean(x, s, n, rv) + 1e-6j)
        with pytest.raises(ImaginaryResidueError, match="alpha_via_hadamard"):
            alpha_via_hadamard(1.0, 3)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, CIRCLE_LADDER],
                             ids=["zero", "negative", "nan", "config"])
    def test_rejects_a_bad_tol(self, tol):
        # a ladder tuple where a tol goes is InvalidQueryError, not a
        # TypeError from the comparison
        for run in (
            lambda: alpha2_quadrature(1.0, tol),
            lambda: alpha_via_hadamard(1.0, 3, tol),
            lambda: bessel_identity_check(1.0, 2.0, tol),
            lambda: _bessel_level(1.0, 2.0, tol),
        ):
            with pytest.raises(InvalidQueryError, match="tol must be positive"):
                run()

    def test_refuses_a_value_below_its_bound(self):
        # alpha(x, 2) = J0(2 sqrt(-x)) is 0 to rounding at the first zero of
        # J0, and alpha(-30, 2) = -0.18 is below alpha2's bound of 3.8: the
        # library returns each value with its honest bound, and eval and
        # compare refuse it by the report's one rule
        zero = -((2.404825557695773 / 2.0) ** 2)
        for x in (zero, -30.0):
            res = alpha2_quadrature(x)
            assert abs(res.value) < res.est_error, x
            with mpmath.workdps(40):
                error = float(abs(mpmath.mpf(res.value.real) - alpha_mpmath_s(x, 2)))
            assert error <= res.est_error, x
        assert abs(alpha2_quadrature(zero).value) < 1e-15
        with pytest.raises(NonConvergenceError,
                           match="^alpha2-closed-form: .*no digit is certified$"):
            compare_methods(-30.0, 2)
        with pytest.raises(NonConvergenceError,
                           match="^hadamard-iterated: .*no digit is certified$"):
            evaluate_method(zero, 2, "hadamard")


class TestExpRangeGuards:
    """Inputs whose integrand would overflow doubles are rejected up front
    with InvalidQueryError, not left to overflow inside a kernel."""

    def test_lift(self):
        # the guard reads log M = |x|/rv + log alpha(rv, s-1): about 25 at
        # (750, 3), which the lift certifies, but at x = 5e4 the split's
        # largest rv, 64, leaves |x|/rv = 781
        res = alpha_via_hadamard(750.0, 3)
        assert res.est_error < 1e-8 * res.value.real
        with pytest.raises(InvalidQueryError, match=r"peak exp\(79\d\.\d\)"):
            alpha_via_hadamard(5e4, 3)

    def test_alpha2(self):
        with pytest.raises(InvalidQueryError):
            alpha2_quadrature(-750.0)

    def test_alpha3(self):
        with pytest.raises(InvalidQueryError):
            alpha3_quadrature_real(720.0)
        with pytest.raises(InvalidQueryError):
            alpha3_quadrature_complex(720.0)

    def test_bessel(self):
        with pytest.raises(InvalidQueryError):
            bessel_identity_check(800.0, 0.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x(self, x):
        for route in (alpha2_quadrature, alpha3_quadrature_real, alpha3_quadrature_complex):
            with pytest.raises(InvalidQueryError, match="not finite"):
                route(x)
        with pytest.raises(InvalidQueryError, match="not finite"):
            bessel_identity_check(x, 0.0)



@pytest.mark.parametrize("route, args, name", [
    (alpha2_quadrature, (1 + 1j,), "x"),
    (alpha3_quadrature_real, (1 + 1j,), "x"),
    (alpha3_quadrature_complex, (1 + 1j,), "x"),
    (alpha_via_hadamard, (1 + 1j, 3), "x"),
    (bessel_identity_check, (1j, 0), "a"),
    (bessel_identity_check, (0, 1j), "b"),
], ids=["alpha2", "alpha3_real", "alpha3_complex", "lift", "bessel_a", "bessel_b"])
def test_quadrature_routes_refuse_non_real_arguments(route, args, name):
    # each of these took float() of its argument and raised a bare TypeError
    with pytest.raises(InvalidQueryError, match=f"^{name} must be real, got "):
        route(*args)


@pytest.mark.parametrize("route", [
    alpha2_quadrature,
    alpha3_quadrature_real,
    alpha3_quadrature_complex,
    lambda x, *tol: alpha_via_hadamard(x, 3, *tol),
    lambda x, tol=None: _result(_bessel_level(x, 0.5, tol)),
], ids=["alpha2", "alpha3_real", "alpha3_complex", "lift", "bessel"])
def test_quadrature_routes_take_tol_none_as_their_default(route):
    # the torus routes refused None with "tol must be positive"
    for x in (-3.0, 0.5, 2.0):
        assert bits(route(x, None)) == bits(route(x)), x
