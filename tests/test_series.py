"""Tests for the direct series evaluator.

Derived expected values were frozen from exact-rational partial sums
(fractions.Fraction); the finite-difference oracle for derivatives runs
in extended precision (mpmath) so the h=1e-5 stencil is meaningful.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphafn import _kernels_py
from alphafn import (
    InvalidQueryError,
    NonConvergenceError,
    alpha_derivative_series,
    alpha_series,
    bessel_i0,
    compare_methods,
)

# sum x^n/(n!)^s at x=1 from exact rationals (n <= 30)
ALPHA_1_1 = 2.718281828459045
ALPHA_1_2 = 2.2795853023360673
ALPHA_1_3 = 2.1297025489833064
ALPHA_1_4 = 2.0632746238463153


def alpha_fraction(x: Fraction, s: int, n_max: int) -> Fraction:
    """Independent oracle: exact-rational partial sum."""
    total = Fraction(0)
    factorial = 1
    for n in range(n_max + 1):
        if n > 0:
            factorial *= n
        total += x**n / Fraction(factorial) ** s
    return total


class TestComplexArithmetic:
    """The complex plane carries every circle evaluation; pin its basics."""

    def test_modulus_nonnegative(self):
        for z in (0j, 1 + 1j, -3 - 4j, complex(1e-300, -1e-300)):
            assert abs(z) >= 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0, 2 * math.pi),
        st.floats(0, 2 * math.pi),
        st.floats(0, 2 * math.pi),
    )
    def test_unit_circle_multiplication(self, a, b, c):
        za, zb, zc = (cmath.exp(1j * t) for t in (a, b, c))
        assert abs((za * zb) * zc - za * (zb * zc)) <= 1e-14
        assert abs(za * zb - zb * za) <= 1e-14


class TestAlphaQuery:
    """The (x, s) query check, series._check_query, as compare_methods and
    alpha_series run it."""

    def test_accepts_real_and_complex(self):
        report = compare_methods(1.0, 2)
        assert (report.x, report.s) == (1.0, 2)
        assert type(report.x) is float
        assert alpha_series(1 + 2j, 1).value == pytest.approx(cmath.exp(1 + 2j), rel=1e-15)

    def test_rejects_s_below_one(self):
        for run in (compare_methods, alpha_series):
            with pytest.raises(InvalidQueryError, match=r"^s must be >= 1, got 0$"):
                run(1.0, 0)

    def test_rejects_non_integer_s(self):
        for run in (compare_methods, alpha_series):
            with pytest.raises(InvalidQueryError, match=r"^s must be an integer >= 1, got 2\.5$"):
                run(1.0, 2.5)

    def test_rejects_non_finite_x(self):
        for run in (compare_methods, alpha_series):
            with pytest.raises(InvalidQueryError, match=r"^x must be finite, got \(inf\+0j\)$"):
                run(math.inf, 2)

    def test_rejects_modulus_past_double_range(self):
        # both parts are doubles, but abs() of it raises OverflowError;
        # compare takes a real x only, and says so first
        x = complex(1.5e308, 1.5e308)
        with pytest.raises(InvalidQueryError, match="fit a double"):
            alpha_series(x, 3)
        with pytest.raises(InvalidQueryError, match="fit a double"):
            alpha_derivative_series(x, 3, 1)
        with pytest.raises(InvalidQueryError, match=r"^x must be real, got "):
            compare_methods(x, 3)

    def test_derivative_order_is_an_integer_not_a_bool(self):
        with pytest.raises(InvalidQueryError) as excinfo:
            alpha_derivative_series(1.0, 3, True)
        assert str(excinfo.value) == "k must be an integer >= 0, got True"


class TestAlphaSeries:
    def test_zero_argument_single_term(self):
        res = alpha_series(0.0, 3, tol=1e-15)
        assert res.value == 1.0
        assert res.terms_used == 1
        assert res.tail_bound == 0.0

    def test_s1_is_exp(self):
        res = alpha_series(1.0, 1, tol=1e-15)
        assert abs(res.value - math.e) < 1e-14

    def test_x1_s3(self):
        res = alpha_series(1.0, 3, tol=1e-14)
        assert abs(res.value - ALPHA_1_3) < 1e-12

    def test_x1_s2_equals_i0_of_2(self):
        res = alpha_series(1.0, 2, tol=1e-14)
        assert abs(res.value - ALPHA_1_2) < 1e-12

    def test_matches_rational_oracle_at_x2_s3(self):
        oracle = float(alpha_fraction(Fraction(2), 3, 30))
        res = alpha_series(2.0, 3)
        assert abs(res.value - oracle) < 1e-12

    def test_truncation_error_within_tail_bound(self):
        loose = alpha_series(3.0, 2, tol=1e-6)
        tight = alpha_series(3.0, 2, tol=1e-13)
        assert abs(loose.value - tight.value) <= loose.tail_bound

    def test_non_convergence(self):
        # I0(2000) is past the double range
        with pytest.raises(NonConvergenceError, match="passed the double range"):
            alpha_series(1e6, 2)

    def test_invalid_s(self):
        with pytest.raises(InvalidQueryError):
            alpha_series(1.0, 0)

    def test_invalid_budget(self):
        with pytest.raises(InvalidQueryError):
            alpha_series(1.0, 2, tol=-1.0)
        # the stop rules end the loop: there is no term budget to set
        with pytest.raises(TypeError):
            alpha_series(1.0, 2, max_terms=1)

    @settings(max_examples=100, deadline=None)
    @given(st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
    def test_conjugate_symmetry(self, x):
        direct = alpha_series(x.conjugate(), 2).value
        mirrored = alpha_series(x, 2).value.conjugate()
        assert abs(direct - mirrored) <= 1e-13 * max(1.0, abs(mirrored))

    def test_monotone_in_s_at_x1(self):
        values = [alpha_series(1.0, s, tol=1e-12).value.real for s in range(1, 7)]
        for lower, higher in zip(values[1:], values[:-1]):
            assert lower < higher

    @settings(max_examples=60, deadline=None)
    @given(
        st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
        st.integers(min_value=1, max_value=4),
    )
    def test_tail_bound_dominates_refinement(self, x, s):
        loose = alpha_series(x, s, tol=1e-6)
        tight = alpha_series(x, s, tol=1e-12)
        # the bound majorizes the exact truncation error; the comparison
        # in doubles needs an allowance for rounding of the values
        rounding = 4e-16 * max(1.0, abs(tight.value))
        assert abs(loose.value - tight.value) <= loose.tail_bound + rounding


def alpha_mpmath(x: float, s: int) -> mpmath.mpf:
    """alpha(x, s) = 0F_{s-1}(;1,...,1;x) in 50-digit arithmetic."""
    with mpmath.workdps(50):
        return mpmath.exp(x) if s == 1 else mpmath.hyper([], [1] * (s - 1), x)


class TestReportedErrorBound:
    """|value - exact| <= tail_bound + rounding_bound, against mpmath."""

    # each breaks the tail bound alone: at (2, 1) by rounding at the last
    # digit, at s = 1, x < 0 by rounding in the sum behind the reciprocal
    @pytest.mark.parametrize("s, x", [(2, 1.0), (3, 10.0), (1, -30.0), (1, -20.0)])
    def test_bound_holds_where_tail_bound_alone_fails(self, s, x):
        res = alpha_series(x, s)
        error = float(abs(mpmath.mpf(res.value.real) - alpha_mpmath(x, s)))
        assert error > res.tail_bound
        assert error <= res.tail_bound + res.rounding_bound

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_bound_holds_on_real_grid(self, s):
        for i in range(61):
            x = -30.0 + i
            res = alpha_series(x, s)
            error = float(abs(mpmath.mpf(res.value.real) - alpha_mpmath(x, s)))
            assert error <= res.tail_bound + res.rounding_bound, x

    def test_rounding_bound_formula(self):
        # the direct sum's formula; s = 1, x < 0 goes through the reciprocal
        res = alpha_series(3.0, 1)
        abs_sum = sum(3.0**n / math.factorial(n) for n in range(res.terms_used))
        expected = 2 * res.terms_used * 2.0**-53 * abs_sum
        assert math.isclose(res.rounding_bound, expected, rel_tol=1e-12)

    def test_reciprocal_bound_formulas(self):
        res = alpha_series(-3.0, 1)
        direct = alpha_series(3.0, 1)
        total = direct.value.real
        scale = total * (total - direct.tail_bound - direct.rounding_bound)
        assert res.terms_used == direct.terms_used
        assert res.value == 1.0 / total
        assert math.isclose(res.tail_bound, direct.tail_bound / scale, rel_tol=1e-12)
        expected = direct.rounding_bound / scale + 2.0**-53 / total
        assert math.isclose(res.rounding_bound, expected, rel_tol=1e-12)

    def test_reciprocal_of_an_unknown_sum_is_unbounded(self):
        # tol = 1 stops S = e^{0.5} at its first term with E > S
        res = alpha_series(-0.5, 1, tol=1.0)
        assert res.value == 1.0
        assert res.tail_bound == math.inf
        assert res.rounding_bound == math.inf


def derivative_mpmath(x: float, s: int, k: int) -> mpmath.mpf:
    """k-th derivative of alpha(., s): (k!)^(1-s) 0F_{s-1}(;k+1,...,k+1;x), 60 digits."""
    with mpmath.workdps(60):
        return mpmath.hyper([], [k + 1] * (s - 1), x) / mpmath.factorial(k) ** (s - 1)


class TestDerivativeErrorBound:
    """|value - exact| <= tail_bound + rounding_bound for k = 1..3."""

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_bound_holds_on_real_grid(self, s):
        # tightest at s = 5, x = 4, k = 3, where truncation dominates
        for k in (1, 2, 3):
            for i in range(61):
                x = -30.0 + i
                res = alpha_derivative_series(x, s, k)
                error = abs(mpmath.mpf(res.value.real) - derivative_mpmath(x, s, k))
                assert float(error) <= res.tail_bound + res.rounding_bound, (x, k)


class TestExpAtNegativeX:
    """alpha(x, 1) = e^x at x < 0 is 1/e^{-x}: no alternating sum cancels."""

    @pytest.mark.parametrize("x", [-30.0, -20.0, -8.0, -0.5])
    def test_matches_mpmath(self, x):
        res = alpha_series(x, 1)
        exact = alpha_mpmath(x, 1)
        error = abs(mpmath.mpf(res.value.real) - exact)
        # the absolute series tol leaves 1e-14 relative at x = -0.5
        assert float(error / exact) <= (1e-14 if x <= -8 else 2e-14)
        assert float(error) <= res.tail_bound + res.rounding_bound
        assert res.value.imag == 0.0

    @pytest.mark.parametrize("x", [-30.0, -20.0])
    def test_compare_passes_with_series_matching_exp(self, x):
        report = compare_methods(x, 1)
        values = {m.name: m.value for m in report.method_values}
        assert report.passed
        assert math.isclose(values["series"], values["exp-closed-form"], rel_tol=1e-14)
        assert math.isclose(values["series"], float(alpha_mpmath(x, 1)), rel_tol=1e-14)


class TestDerivativeSeries:
    def test_zero_argument_first_derivative(self):
        res = alpha_derivative_series(0.0, 2, k=1)
        assert res.value == 1.0
        assert res.terms_used == 1

    def test_exp_derivatives_are_exp(self):
        res = alpha_derivative_series(1.0, 1, k=3, tol=1e-15)
        assert abs(res.value - math.e) < 1e-13

    def test_reciprocal_failure_names_the_derivative(self):
        # the reciprocal sums e^{1e6} at k = 0, but the query was alpha''
        with pytest.raises(NonConvergenceError, match=r"^alpha\^\(2\)\(\(-1000000\+0j\), 1\)"):
            alpha_derivative_series(-1e6, 1, 2)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_exp_derivatives_at_negative_x(self, k):
        # every derivative of e^x is e^x: the reciprocal, not an alternating sum
        res = alpha_derivative_series(-30.0, 1, k)
        exact = mpmath.exp(-30)
        assert float(abs(mpmath.mpf(res.value.real) - exact) / exact) <= 1e-15

    def test_k0_matches_alpha_series(self):
        assert alpha_derivative_series(0.7, 3, k=0) == alpha_series(0.7, 3)

    def test_second_derivative_vs_extended_precision_stencil(self):
        # central second difference at h=1e-5, evaluated at 40 digits so
        # stencil cancellation stays far below the 1e-8 comparison level
        mpmath.mp.dps = 40
        h = mpmath.mpf("1e-5")
        x = mpmath.mpf("0.5")

        def alpha_mp(point):
            return mpmath.nsum(lambda n: point**n / mpmath.factorial(n) ** 2, [0, mpmath.inf])

        stencil = (alpha_mp(x + h) - 2 * alpha_mp(x) + alpha_mp(x - h)) / h**2
        res = alpha_derivative_series(0.5, 2, k=2)
        assert abs(res.value.real - float(stencil)) < 1e-8

    def test_first_derivative_vs_term_shift(self):
        # d/dx sum x^n/(n!)^s = sum_{n>=1} n x^(n-1)/(n!)^s, cross-checked
        # against a plain recomputation with shifted coefficients
        x = 0.8
        expected = 0.0
        factorial = 1
        for n in range(1, 40):
            factorial *= n
            expected += n * x ** (n - 1) / factorial**3
        res = alpha_derivative_series(x, 3, k=1)
        assert abs(res.value.real - expected) < 1e-13

    def test_invalid_k(self):
        with pytest.raises(InvalidQueryError):
            alpha_derivative_series(1.0, 2, k=-1)

    def test_non_convergence(self):
        # e^800 is past the double range
        with pytest.raises(NonConvergenceError, match="passed the double range"):
            alpha_derivative_series(800.0, 1, k=2)


class TestLargeS:
    """(n+1)^s passes the double range at n + 1 = 2 for s >= 1024; the sum
    then follows the ratio through logs, and stops on it or reports no
    convergence."""

    @staticmethod
    def exact(s, k):
        """k-th derivative of alpha(., s) at 1 from the terms n <= 4."""
        mpmath.mp.dps = 40
        return sum(
            mpmath.factorial(n) / mpmath.factorial(n - k) / mpmath.factorial(n) ** s
            for n in range(k, 5)
        )

    @pytest.mark.parametrize("k", [0, 1])
    def test_value_within_bounds(self, k):
        res = alpha_derivative_series(1.0, 1024, k)
        error = abs(mpmath.mpf(res.value.real) - self.exact(1024, k))
        assert res.value == (2.0 if k == 0 else 1.0)
        assert error <= res.tail_bound + res.rounding_bound
        assert 0.0 < res.tail_bound < 1e-300

    def test_underflowed_first_coefficient_is_bounded(self):
        # (3!)^(1-1024) underflows to 0; the true value is about 8.9e-797
        res = alpha_derivative_series(1.0, 1024, 3)
        error = abs(mpmath.mpf(res.value.real) - self.exact(1024, 3))
        assert error > 0
        assert error <= res.tail_bound + res.rounding_bound

    def test_underflowed_tail_bound_is_positive(self):
        # the terms n >= 3 after 2^-1023 are positive, but t*r underflows
        res = alpha_derivative_series(1.0, 1024, 2)
        assert res.value == 2.0**-1023
        assert res.tail_bound > 0.0

    def test_underflowed_first_coefficient_with_growing_terms(self):
        # (10!)^-59 underflows to 0, but the terms grow from it to 2.6e-114
        with pytest.raises(NonConvergenceError, match="passed the double range"):
            alpha_derivative_series(1e100, 60, 10)

    def test_alpha_series_at_s1024(self):
        res = alpha_series(1.0, 1024)
        assert res.value == 2.0
        assert res.terms_used == 2
        error = abs(mpmath.mpf(res.value.real) - self.exact(1024, 0))
        assert error <= res.tail_bound + res.rounding_bound

    @pytest.mark.parametrize("x, s, k", [
        (1e200, 700, 0),  # 3^700 passes DBL_MAX with term 2 at 1.9e189
        (1e300, 1024, 1),
        (-1e300, 1024, 0),
        (complex(3e299, -4e299), 1500, 1),
    ])
    def test_ratio_past_dbl_max_is_followed(self, x, s, k):
        # DBL_MAX alone bounded the ratio, which left next terms up to 1e81
        res = alpha_derivative_series(x, s, k)
        with mpmath.workdps(60):
            z = mpmath.mpmathify(x)
            exact = sum(
                mpmath.factorial(n) / mpmath.factorial(n - k) * z ** (n - k)
                / mpmath.factorial(n) ** s
                for n in range(k, k + 8)
            )
            error = float(abs(mpmath.mpc(res.value) - exact))
        assert error <= res.tail_bound + res.rounding_bound

    def test_sum_past_dbl_max_does_not_converge(self):
        # at n + 1 = 2 the ratio is 1.7e308/2^1024 = 0.95: two terms near DBL_MAX
        with pytest.raises(NonConvergenceError, match="passed the double range"):
            alpha_series(1.7e308, 1024)

    def test_term_past_dbl_max_on_the_log_path(self):
        # 2^1024 passes DBL_MAX, so the second term is taken through logs;
        # |x| is DBL_MAX to rounding, so log|x| - 1024 log 2 rounds to 0, the
        # ratio to 1, and the second term x (x/|x|) to a modulus past DBL_MAX
        # (abs() would raise on it): the only give-up inside the log path
        big = sys.float_info.max
        x = complex(-big, big * 1e-8)
        assert _kernels_py._term_sum(x, 1024, 0, 1e-13)[1:] == (2, math.inf, big, False)
        with pytest.raises(NonConvergenceError, match="after 2 terms the series passed"):
            alpha_series(x, 1024)

    @pytest.mark.parametrize("s", [2**1024, 2**1024 + 1, 10**400])
    def test_s_past_double_range_is_invalid(self, s):
        # math.pow cannot take such an s; the value is not 1 + x + ...
        with pytest.raises(InvalidQueryError, match="fit a double"):
            alpha_series(1.0, s)
        with pytest.raises(InvalidQueryError, match="fit a double"):
            alpha_derivative_series(1.0, s, 1)
        with pytest.raises(InvalidQueryError, match="fit a double"):
            compare_methods(1.0, s)


class TestNoTermBudget:
    """The stop rules alone end the loop, so values a double holds are
    summed however many terms they take, within their bounds of mpmath."""

    @pytest.mark.parametrize("x, s", [
        (300.0, 1), (709.0, 1), (-400.0, 1), (-700.0, 1), (-709.7, 1),
        (300j, 1), (complex(200, -500), 1),
        (6e4, 2), (-6e4, 2), (1e5, 2), (6e4j, 2), (complex(-3e4, 4e4), 2),
        (13088638.63, 3), (-1e4, 3), (-13088638.63, 3), (1e6j, 3), (complex(5e6, -5e6), 3),
        (-1e6, 4), (complex(-2e9, 2e9), 5), (-1e12, 6), (1e14, 7),
    ])
    @pytest.mark.parametrize("tol", [1e-13, 5e-324])
    def test_value_within_its_bounds(self, x, s, tol):
        # at s = 1, x < -354.9 the reciprocal's S(S - E) passes DBL_MAX
        res = alpha_series(x, s, tol)
        error = abs(mpmath.mpc(res.value) - alpha_mpmath(x, s))
        assert float(error) <= res.tail_bound + res.rounding_bound


class TestDoubleRangeEdge:
    """Terms near DBL_MAX: term * x may overflow where term * (x/d) does not."""

    @pytest.mark.parametrize("x, s, terms", [
        (975972745.3164062, 4, 484),
        (56525842918.5, 5, 387),
        (13088638.63, 3, 647),
    ])
    def test_overflowing_product_is_followed(self, x, s, terms):
        res = alpha_series(x, s)
        assert res.terms_used == terms
        error = abs(mpmath.mpf(res.value.real) - alpha_mpmath(x, s))
        assert float(error) <= res.tail_bound + res.rounding_bound

    def test_complex_step_past_dbl_max_is_refused(self):
        # term * (x/d) has finite parts but a modulus past DBL_MAX
        with pytest.raises(NonConvergenceError, match="passed the double range"):
            alpha_derivative_series(1992.2175616728487 + 6.551572893857603j, 1, 2)

    @pytest.mark.parametrize("s", [3, 4, 5, 6])
    def test_sweep_to_the_overflow_edge(self, s):
        # alpha((700 f/s)^s, s) is near e^(700 f): 1e294 to 1e316 over f
        values = 0
        for i in range(29):
            x = (700 * (0.98 + 0.0025 * i) / s) ** s
            try:
                res = alpha_series(x, s)
            except NonConvergenceError:
                continue
            assert math.isfinite(res.value.real) and res.value.imag == 0.0, x
            error = abs(mpmath.mpf(res.value.real) - alpha_mpmath(x, s))
            assert float(error) <= res.tail_bound + res.rounding_bound, x
            values += 1
        # the sum is followed up to DBL_MAX for every s
        assert values > 0


class TestBesselI0:
    def test_at_zero(self):
        assert bessel_i0(0.0).value == 1.0

    def test_at_two(self):
        res = bessel_i0(2.0, tol=1e-14)
        assert abs(res.value - ALPHA_1_2) < 1e-12

    def test_even_in_z(self):
        assert bessel_i0(-2.0) == bessel_i0(2.0)

    def test_at_least_one_on_grid(self):
        for i in range(-20, 21):
            z = i / 2.0
            value = bessel_i0(z).value.real
            assert value >= 1.0
            assert value * value >= 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidQueryError):
            bessel_i0(math.nan)

    @pytest.mark.parametrize("z", [1e3, 1e154, 1.5e154, 1e160, -1e160])
    def test_value_past_double_range_names_z(self, z):
        # I0 passes DBL_MAX near |z| = 714, and z*z/4 itself past 1.34e154
        with pytest.raises(NonConvergenceError) as refusal:
            bessel_i0(z)
        assert str(refusal.value) == f"I0({z!r}) passes the double range"

# float.hex of the real part of alpha^(k)(x, s) at PINNED_XS, from the
# complex term loop that every x took before real x was summed in floats
PINNED_XS = (-30.0, -2.5, -0.0, 0.75, 6.38, 30.0)
PINNED_HEX = {
    (1, 0): ("0x1.a56e0c2ac7f72p-44", "0x1.50385c094f443p-4", "0x1.0000000000000p+0",
             "0x1.0ef9db467dce0p+1", "0x1.26f6bf1fe2af7p+9", "0x1.370470aec28efp+43"),
    (1, 1): ("0x1.a56e0c2ac7f72p-44", "0x1.50385c094f443p-4", "0x1.0000000000000p+0",
             "0x1.0ef9db467dce0p+1", "0x1.26f6bf1fe2af7p+9", "0x1.370470aec28efp+43"),
    (1, 2): ("0x1.a56e0c2ac7f72p-44", "0x1.50385c094f443p-4", "0x1.0000000000000p+0",
             "0x1.0ef9db467dce0p+1", "0x1.26f6bf1fe2af7p+9", "0x1.370470aec28efp+43"),
    (1, 3): ("0x1.a56e0c2ac7f72p-44", "0x1.50385c094f443p-4", "0x1.0000000000000p+0",
             "0x1.0ef9db467dce0p+1", "0x1.26f6bf1fe2af7p+9", "0x1.370470aec28efp+43"),
    (2, 0): ("-0x1.6ec0dd28e214ep-3", "-0x1.3d7c6193f784fp-2", "0x1.0000000000000p+0",
             "0x1.e7251a5446d82p+0", "0x1.c877c0aaed1acp+4", "0x1.b42c851c1fffap+12"),
    (2, 1): ("-0x1.fb19ce22858c6p-6", "0x1.660a0c53c4fd9p-3", "0x1.0000000000000p+0",
             "0x1.6cc7621d2e9a2p+0", "0x1.43540a6f6f9cdp+3", "0x1.2fa13669c0d05p+10"),
    (2, 2): ("0x1.439714af90744p-8", "0x1.8d3452fe48ecdp-3", "0x1.0000000000000p-1",
             "0x1.464f4092eb24dp-1", "0x1.71a8e4a083073p+1", "0x1.8048c3bd88508p+7"),
    (2, 3): ("0x1.64be95967a21cp-10", "0x1.5d187aed6f56bp-4", "0x1.5555555555555p-3",
             "0x1.9a56bb1824e44p-3", "0x1.5b54d9c8fa6ddp-1", "0x1.bacab65a63b37p+4"),
    (3, 0): ("0x1.34ae9c0e7080bp+2", "-0x1.939e6ef3b9ed3p-1", "0x1.0000000000000p+0",
             "0x1.d281824fe060fp+0", "0x1.b97cdc54c9962p+3", "0x1.574a6722a313bp+8"),
    (3, 1): ("0x1.6c6939196f0dfp-3", "0x1.d45f978a82bfdp-2", "0x1.0000000000000p+0",
             "0x1.32080f6c95f6bp+0", "0x1.9ec70dbd42f56p+1", "0x1.f96eb8c193b6ep+4"),
    (3, 2): ("-0x1.d1cc29e53f5a0p-5", "0x1.7c865ec1b6314p-3", "0x1.0000000000000p-2",
             "0x1.15d69eb9a8fb1p-2", "0x1.dce0050b5e50bp-2", "0x1.201ac10b7d31cp+1"),
    (3, 3): ("-0x1.1310e53e7b018p-11", "0x1.83796b3e9b2fap-6", "0x1.c71c71c71c71cp-6",
             "0x1.dcc444d343b20p-6", "0x1.4a9401fcbfb73p-5", "0x1.f0a6e529e9a58p-4"),
    (4, 0): ("0x1.17cb47a8b25a5p+3", "-0x1.1f0e702eab8d0p+0", "0x1.0000000000000p+0",
             "0x1.c915655a405a5p+0", "0x1.4424771f7001dp+3", "0x1.ba9425651f286p+6"),
    (4, 1): ("-0x1.f24615488fb06p-1", "0x1.674fba656485ap-1", "0x1.0000000000000p+0",
             "0x1.1855aacb75199p+0", "0x1.e517cad80c0b8p+0", "0x1.cb73afac34d50p+2"),
    (4, 2): ("0x1.089122434b162p-6", "0x1.d1832a4159283p-4", "0x1.0000000000000p-3",
             "0x1.072721e917bdep-3", "0x1.3f8f0505defbap-3", "0x1.325102e510f31p-2"),
    (4, 3): ("0x1.62f525cebba9ep-9", "0x1.23ac7234fb313p-8", "0x1.2f684bda12f68p-8",
             "0x1.32f94099d6f2fp-8", "0x1.4e6ecee490c36p-8", "0x1.cf80ff9d1bd6ep-8"),
    (5, 0): ("-0x1.0fc6291d567b9p+2", "-0x1.4e835db20925dp+0", "0x1.0000000000000p+0",
             "0x1.c4838ee398b55p+0", "0x1.15f094e5afbdap+3", "0x1.f59973c1b18dfp+5"),
    (5, 1): ("-0x1.15156e908f447p-1", "0x1.b13b0587e00e9p-1", "0x1.0000000000000p+0",
             "0x1.0c0e3c720d042p+0", "0x1.6a22382fc0c31p+0", "0x1.9e33948e6f5efp+1"),
    (5, 2): ("0x1.4d4e02c811119p-5", "0x1.f0464b6f073d3p-5", "0x1.0000000000000p-4",
             "0x1.025fb43d3a450p-4", "0x1.146a8374b8077p-4", "0x1.6475b3cfa405dp-4"),
    (5, 3): ("0x1.6643cbcd4beccp-11", "0x1.9099b9a16868dp-11", "0x1.948b0fcd6e9e0p-11",
             "0x1.95baa6b60cd0ep-11", "0x1.9ead3e0d3bf24p-11", "0x1.c518e234d2000p-11"),
    (6, 0): ("-0x1.f06215cbe33f5p+3", "-0x1.6715ef3a1535ep+0", "0x1.0000000000000p+0",
             "0x1.c24097bb425edp+0", "0x1.00b0cac8088f5p+3", "0x1.6d29e1e627845p+5"),
    (6, 1): ("0x1.eaba4f5d1493dp-4", "0x1.d834a1cd4aa87p-1", "0x1.0000000000000p+0",
             "0x1.06025ef68552cp+0", "0x1.33b61fda1a3fep+0", "0x1.fef5b7f5536dap+0"),
    (6, 2): ("0x1.c1b68d04d633bp-6", "0x1.fabd2b14bf33fp-6", "0x1.0000000000000p-5",
             "0x1.00ca587ecee0ap-5", "0x1.06be0561719d5p-5", "0x1.2011c328c9691p-5"),
    (6, 3): ("0x1.05d5058b1e1b5p-13", "0x1.0d098c850f9e0p-13", "0x1.0db20a88f4696p-13",
             "0x1.0de49d789cb90p-13", "0x1.0f60a508b14f2p-13", "0x1.15a27a8db1c2fp-13"),
}


class TestRealTermLoop:
    """A real x is summed in floats, which round as complex arithmetic with
    zero imaginary parts does: the values are the pinned doubles, and
    SeriesResult.value stays a complex with a +0.0 imaginary part."""

    @pytest.mark.parametrize(("s", "k"), sorted(PINNED_HEX))
    def test_values_are_the_pinned_doubles(self, s, k):
        results = [alpha_derivative_series(x, s, k) for x in PINNED_XS]
        if k == 0:
            assert [alpha_series(x, s) for x in PINNED_XS] == results
        assert tuple(float.hex(r.value.real) for r in results) == PINNED_HEX[s, k]
        for r in results:
            assert type(r.value) is complex
            assert math.copysign(1.0, r.value.imag) == 1.0 and r.value.imag == 0.0

    def test_zero_imaginary_part_takes_the_real_loop(self):
        # complex(x, 0.0) and complex(x, -0.0) are real x: the same result
        for x in PINNED_XS:
            for s in (1, 3, 6):
                real = alpha_derivative_series(x, s, 2)
                assert alpha_derivative_series(complex(x, 0.0), s, 2) == real
                assert alpha_derivative_series(complex(x, -0.0), s, 2) == real
