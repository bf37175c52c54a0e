"""Tests for Stirling numbers, their generating function, and the ODE residual."""

from __future__ import annotations

import math

import pytest

from alphafn import (
    MAX_N,
    alpha_derivative_series,
    alpha_series,
    ode_residual,
    stirling2,
    stirling_genfunc_residual,
)
from alphafn.verify import _set_partitions_by_blocks

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]


def partitions_into_blocks(items: tuple, k: int):
    """Enumerate set partitions of `items` into exactly k nonempty blocks.

    Recursive placement of the first element: either its own block next to
    a partition of the rest into k-1 blocks, or joined into any block of a
    partition of the rest into k blocks.  Independent of the recurrence
    used by stirling2.
    """
    n = len(items)
    if k == 0:
        if n == 0:
            yield []
        return
    if n < k:
        return
    head, rest = items[0], items[1:]
    for sub in partitions_into_blocks(rest, k - 1):
        yield [[head]] + sub
    for sub in partitions_into_blocks(rest, k):
        for i in range(len(sub)):
            yield sub[:i] + [[head] + sub[i]] + sub[i + 1 :]


def falling_factorial(n: int, k: int) -> int:
    product = 1
    for i in range(k):
        product *= n - i
    return product


class TestStirling2:
    def test_examples(self):
        assert stirling2(1, 1) == 1
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7

    def test_boundary_rows(self):
        assert stirling2(0, 0) == 1
        for n in range(1, 12):
            assert stirling2(n, 0) == 0
            assert stirling2(n, n) == 1

    def test_matches_exhaustive_enumeration(self):
        for n in range(1, 10):
            items = tuple(range(n))
            for k in range(0, n + 1):
                count = sum(1 for _ in partitions_into_blocks(items, k))
                assert stirling2(n, k) == count, (n, k)

    def test_row_sums_are_bell_numbers(self):
        for n in range(0, 13):
            assert sum(stirling2(n, k) for k in range(n + 1)) == BELL[n]

    def test_recurrence_holds_on_table(self):
        for n in range(1, MAX_N + 1):
            for k in range(1, n + 1):
                expected = k * stirling2(n - 1, k) if k <= n - 1 else 0
                expected += stirling2(n - 1, k - 1)
                assert stirling2(n, k) == expected, (n, k)

    def test_large_values_remain_exact(self):
        # S(25, 12) exceeds the 2**53 float-exact range; must stay integral
        value = stirling2(25, 12)
        assert value > 2**53
        assert value == 12 * stirling2(24, 12) + stirling2(24, 11)

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            stirling2(3, 4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            stirling2(-1, 0)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            stirling2(65, 3)

    def test_falling_factorial_identity(self):
        # sum_k S(s,k) n(n-1)...(n-k+1) == n^s: the coefficient identity
        # that makes the differential equation hold
        for s in range(0, 11):
            for n in range(0, 11):
                total = sum(
                    stirling2(s, k) * falling_factorial(n, k) for k in range(s + 1)
                )
                assert total == n**s, (n, s)


class TestGeneratingFunction:
    def test_k1_small_x(self):
        assert stirling_genfunc_residual(1, 0.5, 18) < 1e-14

    def test_vanishes_at_zero(self):
        assert stirling_genfunc_residual(2, 0.0, 5) == 0.0

    def test_k3_at_one(self):
        assert stirling_genfunc_residual(3, 1.0, 20) < 1e-10

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError, match="require k >= 1, got 0"):
            stirling_genfunc_residual(0, 0.5, 20)

    def test_rejects_order_below_k(self):
        with pytest.raises(ValueError):
            stirling_genfunc_residual(3, 0.5, 2)

    def test_rejects_large_x(self):
        with pytest.raises(ValueError):
            stirling_genfunc_residual(1, 1.5, 10)

    def test_rejects_nan_x(self):
        with pytest.raises(ValueError):
            stirling_genfunc_residual(1, math.nan, 5)

    def test_rejects_order_above_twenty(self):
        with pytest.raises(ValueError):
            stirling_genfunc_residual(1, 0.5, 21)


class TestOdeResidual:
    def test_s1_exponential(self):
        # y' - y = 0 at y = e^x
        assert abs(ode_residual(0.7, 1, 1e-13)) < 1e-12

    def test_s1_at_negative_x_is_exact(self):
        # y and y' are the same reciprocal 1/e^{-x}, so y' - y cancels exactly
        for x in (-2.0, -0.5, -30.0):
            assert ode_residual(x, 1, 1e-13) == 0.0

    def test_s2(self):
        assert abs(ode_residual(0.5, 2, 1e-13)) < 1e-11

    def test_s3(self):
        assert abs(ode_residual(1.0, 3, 1e-13)) < 1e-10

    def test_grid_bound(self):
        tol = 1e-13
        for s in (1, 2, 3, 4):
            for x in (-2.0, -0.5, 0.0, 0.5, 1.0, 2.0):
                bound = 100.0 * tol * alpha_series(abs(x), 1).value.real
                assert abs(ode_residual(x, s, tol)) <= bound, (s, x)

    @pytest.mark.parametrize("x", [0.5 + 1j, -1.5 + 0.5j, 2j])
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_complex_x_residual_is_small(self, s, x):
        # at a non-real x the series values are summed as complex numbers
        residual = ode_residual(x, s)
        assert type(residual) is complex
        assert abs(residual) <= 1e-10 * (1.0 + math.exp(abs(x)))

    @pytest.mark.parametrize("tol", [None, -1])
    @pytest.mark.parametrize("x", [math.nan, 1.5, 0.5 + 1j])
    @pytest.mark.parametrize("s", [0, 1, 4, 65])
    def test_outcome_matches_the_public_routes(self, s, x, tol):
        # the value's bits, or the refusal's type and message, of the
        # residual summed through the public series routes, their real
        # parts at a real x and the complex values at a non-real one
        def part(result):
            return result.value if complex(x).imag else result.value.real

        def reference():
            total = 0.0
            for k in range(1, s + 1):
                deriv = part(alpha_derivative_series(x, s, k, tol))
                total += stirling2(s, k) * x ** (k - 1) * deriv
            return total - part(alpha_series(x, s, tol))

        def outcome(residual):
            try:
                value = residual()
            except Exception as exc:
                return type(exc), str(exc)
            return type(value), repr(value)

        assert outcome(lambda: ode_residual(x, s, tol)) == outcome(reference)


class TestPartitionWalk:
    def test_row_sums_are_bell_numbers(self):
        rows = _set_partitions_by_blocks(9)
        assert [sum(row) for row in rows] == BELL[:10]
