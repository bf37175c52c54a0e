"""The kernels and their node table against per-node compositions, the
torus row means against the per-node torus kernels, and their nested
levels."""

from __future__ import annotations

import cmath
import math
from array import array

import pytest

from alphafn import _kernels_py
from alphafn.hadamard import EXP, alpha3_integrand_complex, alpha3_integrand_real, hadamard_eval

TWO_PI = 2.0 * math.pi


def hexed(z: complex) -> tuple[str, str]:
    z = complex(z)
    return z.real.hex(), z.imag.hex()


# node counts and points at which the circle kernels are held to the
# ascending per-node sum of their integrand, double for double
CIRCLE_NODES = (4, 9, 16, 64, 1024)
CIRCLE_XS = (-20.0, -7.5, -1.0, -0.25, 0.0, 0.75, 1.0, 3.0, 12.5)


class TestPythonKernelsAgainstCompositions:
    """The fused kernels must reproduce per-node compositions exactly."""

    def test_alpha2_mean(self):
        for n in CIRCLE_NODES:
            for x in CIRCLE_XS:
                total = 0.0
                for j in range(n):
                    t = (TWO_PI * j) / n
                    total += math.exp((x + 1.0) * math.cos(t)) * math.cos((x - 1.0) * math.sin(t))
                assert hexed(_kernels_py.alpha2_mean(x, n)) == hexed(total / n), (n, x)

    def test_bessel_mean(self):
        for n in CIRCLE_NODES:
            for a, b in zip(CIRCLE_XS, reversed(CIRCLE_XS)):
                total = 0.0
                for j in range(n):
                    t = (TWO_PI * j) / n
                    total += math.exp(a * math.cos(t) + b * math.sin(t))
                assert hexed(_kernels_py.bessel_mean(a, b, n)) == hexed(total / n), (n, a, b)

    def test_exp_alpha_mean(self):
        for n, rv in ((n, rv) for n in CIRCLE_NODES for rv in (1.0, 8.0, 64.0)):
            for s in (2, 3, 5):
                inner = []
                for j in range(n):
                    eith = cmath.exp(1j * ((TWO_PI * j) / n))
                    z = eith.conjugate()
                    z = complex(rv * z.real, rv * z.imag)
                    inner.append((eith, _kernels_py.alpha_sum(z, s - 1, 1e-15)[0]))
                for x in CIRCLE_XS:
                    total = 0j
                    for eith, value in inner:
                        total += cmath.exp((x / rv) * eith) * value
                    got = _kernels_py.exp_alpha_mean(x, s, n, rv)
                    assert hexed(got) == hexed(total / n), (n, rv, s, x)

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


class TestNodeTable:
    """_nodes(n), the one table every mean and hadamard_eval read, holds
    the doubles each of them formed per node, and stays bounded."""

    def test_table_is_the_per_node_trig(self):
        # array bytes compare double for double, signed zeros included
        def doubles(values):
            return array("d", values).tobytes()

        def parts(pairs):
            return doubles([d for p, q in pairs for d in (p.real, p.imag, q.real, q.imag)])

        for n in range(1, 1025):
            cos_t, sin_t, pairs = _kernels_py._nodes(n)
            angles = [(TWO_PI * k) / n for k in range(n)]
            assert doubles(cos_t) == doubles(map(math.cos, angles)), n
            assert doubles(sin_t) == doubles(map(math.sin, angles)), n
            points = [cmath.exp(1j * t) for t in angles]
            assert parts(pairs) == parts((p, p.conjugate()) for p in points), n

    def test_node_table_is_a_bounded_cache(self):
        cache = _kernels_py._nodes
        cache.cache_clear()
        hadamard_eval(EXP, EXP, 1.0, 1.0)  # the 16- and 32-node levels
        _kernels_py.bessel_mean(1.0, 0.5, 32)
        _kernels_py.alpha3_real_mean(0.5, 16)
        info = cache.cache_info()
        assert (info.misses, info.hits) == (2, 3)  # the torus kernel reads it twice
        for n in range(1, _kernels_py.CACHE_SIZE + 9):
            cache(n)
        info = cache.cache_info()
        assert info.currsize <= info.maxsize == _kernels_py.CACHE_SIZE


class TestLiftNodeCache:
    """exp_alpha_mean takes its x-free factor from a bounded cache; cached
    or not, each mean is the same double as the per-node composition."""

    @staticmethod
    def composed(x, s, n, rv):
        total = 0j
        for j in range(n):
            th = (TWO_PI * j) / n
            eith = complex(math.cos(th), math.sin(th))
            z = complex(rv * eith.real, -rv * eith.imag)
            inner = _kernels_py.alpha_sum(z, s - 1, 1e-15)[0]
            total += cmath.exp((x / rv) * eith) * inner
        return total / n

    @pytest.mark.parametrize("s", [2, 3, 5, 1024, 2**60])
    def test_cold_and_warm_are_bit_identical(self, s):
        for n in (16, 32, 64):
            for rv in (1.0, 4.0):
                for x in (-7.5, 0.0, 0.7, 9.9):
                    _kernels_py._lift_nodes.cache_clear()
                    cold = _kernels_py.exp_alpha_mean(x, s, n, rv)
                    warm = _kernels_py.exp_alpha_mean(x, s, n, rv)
                    assert _kernels_py._lift_nodes.cache_info().hits == 1
                    expected = hexed(self.composed(x, s, n, rv))
                    assert hexed(cold) == hexed(warm) == expected, (s, n, rv, x)

    def test_cache_stays_within_its_bound(self):
        cache = _kernels_py._lift_nodes
        cache.cache_clear()
        for s in range(2, _kernels_py.CACHE_SIZE + 12):
            _kernels_py.exp_alpha_mean(0.5, s, 4, 1.0)
        info = cache.cache_info()
        assert info.misses == _kernels_py.CACHE_SIZE + 10
        assert info.currsize <= info.maxsize == _kernels_py.CACHE_SIZE


# the certified torus levels of verify (14, 18) and of x = +-20 (72), the
# least (4), and levels between them
ROW_NODES = (4, 9, 14, 18, 38, 72)
ROW_XS = tuple(1.25 * i for i in range(-16, 17))  # -20 to 20


class TestTorusRowSums:
    """The torus row means sum n cached x-free row sums per call; they
    differ from the per-node kernels by rounding only, within the torus
    routes' rounding bound 2 n^2 2^-53 e^{|x|+2}, and the row table is a
    bounded cache like the node table."""

    @pytest.mark.parametrize("row_mean, node_mean", [
        (_kernels_py.alpha3_real_row_mean, _kernels_py.alpha3_real_mean),
        (_kernels_py.alpha3_complex_row_mean, _kernels_py.alpha3_complex_mean),
    ], ids=["real", "complex"])
    def test_row_mean_is_the_node_mean_within_the_rounding_bound(self, row_mean, node_mean):
        for n in ROW_NODES:
            for x in ROW_XS:
                bound = 2.0 * n * n * 2.0**-53 * math.exp(abs(x) + 2.0)
                assert abs(row_mean(x, n) - node_mean(x, n)) <= bound, (n, x)

    def test_real_row_sums_are_the_complex_row_sum_parts(self):
        # U_j - i V_j = R_j exactly; each of the two sums of n summands of
        # size <= e^2 rounds by at most a few n 2^-53 n e^2
        for n in ROW_NODES:
            pairs, uv = _kernels_py._torus_row_sums(n)
            assert len(pairs) == len(uv) == n
            bound = 2.0 * (n + 16) * n * 2.0**-53 * math.e**2
            for (_, r), (u, v) in zip(pairs, uv):
                assert abs(complex(u, -v) - r) <= bound, n

    def test_row_table_is_a_bounded_cache(self):
        cache = _kernels_py._torus_row_sums
        cache.cache_clear()
        _kernels_py.alpha3_real_row_mean(0.5, 14)
        _kernels_py.alpha3_complex_row_mean(0.5, 14)
        info = cache.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        for n in range(4, 44):  # 40 distinct node counts
            cache(n)
        info = cache.cache_info()
        assert info.currsize <= info.maxsize == _kernels_py.CACHE_SIZE

    @pytest.mark.parametrize("row_mean", [
        _kernels_py.alpha3_real_row_mean, _kernels_py.alpha3_complex_row_mean,
    ], ids=["real", "complex"])
    def test_cold_and_warm_are_bit_identical(self, row_mean):
        for n in ROW_NODES:
            for x in (-20.0, -7.5, 0.0, 0.7, 13.5):
                _kernels_py._torus_row_sums.cache_clear()
                cold = row_mean(x, n)
                warm = row_mean(x, n)
                assert _kernels_py._torus_row_sums.cache_info().hits == 1
                assert hexed(cold) == hexed(warm), (n, x)


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
    integrand exactly: the cached node table and the per-row constants
    change no double.  The reference walks the grid itself, skipping the
    nodes with j and k both even when fresh."""

    @pytest.mark.parametrize("kernel, integrand, zero", [
        (_kernels_py.alpha3_real_mean, alpha3_integrand_real, 0.0),
        (_kernels_py.alpha3_complex_mean, alpha3_integrand_complex, 0j),
    ], ids=["real", "complex"])
    def test_mean_equals_integrand_node_sum(self, kernel, integrand, zero):
        for n in (16, 32, 64):
            for fresh in (False, True):
                for x in (-7.5, -2.0, -0.5, 0.0, 0.75, 1.0, 3.0, 7.25):
                    total, count = zero, 0
                    for j in range(n):
                        for k in range(n):
                            if fresh and j % 2 == 0 and k % 2 == 0:
                                continue
                            total += integrand(x, (TWO_PI * j) / n, (TWO_PI * k) / n)
                            count += 1
                    assert kernel(x, n, fresh) == total / count, (n, fresh, x)
