"""The kernels against per-node compositions, and their nested levels."""

from __future__ import annotations

import cmath
import math

import pytest

from alphafn import _kernels_py
from alphafn.hadamard import alpha3_integrand_complex, alpha3_integrand_real

TWO_PI = 2.0 * math.pi


def close(a: complex, b: complex, tol: float = 1e-13) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestPythonKernelsAgainstCompositions:
    """The fused kernels must reproduce per-node compositions exactly."""

    def test_alpha2_mean(self):
        x, n = 0.75, 32
        loop = sum(
            math.exp((x + 1) * math.cos((TWO_PI * j) / n))
            * math.cos((x - 1) * math.sin((TWO_PI * j) / n))
            for j in range(n)
        ) / n
        assert close(_kernels_py.alpha2_mean(x, n), loop, 1e-15)

    def test_bessel_mean(self):
        a, b, n = 3.0, 4.0, 64
        loop = sum(
            math.exp(a * math.cos((TWO_PI * j) / n) + b * math.sin((TWO_PI * j) / n))
            for j in range(n)
        ) / n
        assert close(_kernels_py.bessel_mean(a, b, n), loop, 1e-15)

    def test_exp_alpha_mean(self):
        x, s, n = 1.0, 3, 16
        total = 0j
        for j in range(n):
            eith = cmath.exp(1j * ((TWO_PI * j) / n))
            inner = _kernels_py.alpha_sum(eith.conjugate(), s - 1, 1e-15)[0]
            total += cmath.exp(x * eith) * inner
        assert close(_kernels_py.exp_alpha_mean(x, s, n), total / n, 1e-14)

    @pytest.mark.parametrize("s1", [1, 2, 49, 50, 1023, 1024, 10**6, 2**60])
    def test_inner_series_converges_on_the_circle(self, s1):
        # exp_alpha_mean keeps only the value of each inner sum; at |z| = 1
        # the ratio bound is at most 1/2 from n = 1, so the sum stops early
        n = 16
        for j in range(n):
            th = (TWO_PI * j) / n
            z = complex(math.cos(th), -math.sin(th))
            _, terms, _, _, ok = _kernels_py.alpha_sum(z, s1, _kernels_py.INNER_TOL)
            assert ok and terms <= 18, (s1, j, terms)

    def test_alpha_sum_stops_at_the_first_nonfinite_term(self):
        # 1e200^2/2! passes DBL_MAX, so term 2 cannot be formed
        value, terms, tail, abs_sum, ok = _kernels_py.alpha_sum(1e200 + 0j, 1, 1e-13)
        assert not ok
        assert terms == 2
        assert math.isinf(tail)
        assert value == abs_sum == 1e200 + 1

    def test_term_loop_ends_without_a_budget(self):
        # the ratio bound only falls, so every finite x ends at the stop or
        # past DBL_MAX: s = 1..7, k in {0, 1, 3}, real, imaginary and complex
        # x from well inside to past the overflow edge |x|^(1/s) ~ 710/s
        worst = 0
        for s in range(1, 8):
            for f in (0.2, 0.6, 0.9, 0.97, 1.0, 1.03, 1.2):
                for phase in (1, -1, 1j, cmath.exp(0.7j), cmath.exp(2.5j)):
                    x = (710.0 * f / s) ** s * phase
                    for k in (0, 1, 3):
                        for tol in (1e-13, 5e-324):
                            terms = _kernels_py.alpha_deriv_sum(x, s, k, tol)[1]
                            worst = max(worst, terms)
        assert worst <= 2600
        # the most terms found: e^709, the last e^n below DBL_MAX, to 5e-324
        assert _kernels_py.alpha_sum(709.0, 1, 5e-324)[1] == 2570


class TestLiftNodeCache:
    """exp_alpha_mean takes its x-free factor from a bounded cache; cached
    or not, each mean is the same double as the per-node composition."""

    @staticmethod
    def composed(x, s, n):
        total = 0j
        for j in range(n):
            th = (TWO_PI * j) / n
            eith = complex(math.cos(th), math.sin(th))
            inner = _kernels_py.alpha_sum(eith.conjugate(), s - 1, 1e-15)[0]
            total += cmath.exp(x * eith) * inner
        return total / n

    @pytest.mark.parametrize("s", [2, 3, 5, 1024, 2**60])
    def test_cold_and_warm_are_bit_identical(self, s):
        hexed = lambda z: (z.real.hex(), z.imag.hex())
        for n in (16, 32, 64):
            for x in (-7.5, 0.0, 0.7, 9.9):
                _kernels_py._lift_nodes.cache_clear()
                cold = _kernels_py.exp_alpha_mean(x, s, n)
                warm = _kernels_py.exp_alpha_mean(x, s, n)
                assert _kernels_py._lift_nodes.cache_info().hits == 1
                expected = hexed(self.composed(x, s, n))
                assert hexed(cold) == hexed(warm) == expected, (s, n, x)

    def test_cache_stays_within_its_bound(self):
        cache = _kernels_py._lift_nodes
        cache.cache_clear()
        for s in range(2, _kernels_py.LIFT_CACHE_SIZE + 12):
            _kernels_py.exp_alpha_mean(0.5, s, 4)
        info = cache.cache_info()
        assert info.misses == _kernels_py.LIFT_CACHE_SIZE + 10
        assert info.currsize <= info.maxsize == _kernels_py.LIFT_CACHE_SIZE


class TestNestedLevels:
    """Level n built from level n/2 plus the fresh nodes, as the torus
    ladder combines them, (level n/2 + 3 fresh)/4, equals the plain mean
    over all n nodes."""

    @pytest.mark.parametrize(
        "mean", [_kernels_py.alpha3_real_mean, _kernels_py.alpha3_complex_mean],
        ids=["alpha3_real_mean", "alpha3_complex_mean"],
    )
    def test_nested_level_equals_full_sum(self, mean):
        for n in (16, 32, 64):
            for x in (-2.0, -0.5, 0.75, 1.0, 3.0):
                nested = (mean(x, n // 2) + 3.0 * mean(x, n, True)) / 4.0
                full = mean(x, n)
                assert abs(nested - full) <= 1e-14 * abs(full), (mean.__name__, n, x, nested, full)


class TestTorusKernelsExact:
    """The torus kernels equal the ascending-order node sum of the scalar
    integrand exactly: the per-call trig table and the per-row constants
    change no double."""

    @pytest.mark.parametrize("kernel, integrand, zero", [
        (_kernels_py.alpha3_real_mean, alpha3_integrand_real, 0.0),
        (_kernels_py.alpha3_complex_mean, alpha3_integrand_complex, 0j),
    ], ids=["real", "complex"])
    def test_mean_equals_integrand_node_sum(self, kernel, integrand, zero):
        for n in (16, 32, 64):
            for fresh in (False, True):
                for x in (-7.5, -2.0, -0.5, 0.0, 0.75, 1.0, 3.0, 7.25):
                    total, count = zero, 0
                    for j, ks in _kernels_py._torus_rows(n, fresh):
                        for k in ks:
                            total += integrand(x, (TWO_PI * j) / n, (TWO_PI * k) / n)
                        count += len(ks)
                    assert kernel(x, n, fresh) == total / count, (n, fresh, x)
