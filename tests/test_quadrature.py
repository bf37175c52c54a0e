"""Tests for the periodic trapezoid rule and the node-doubling driver."""

from __future__ import annotations

import cmath
import math

import pytest

from alphafn import (
    AnalyticFunction,
    InvalidQueryError,
    QuadratureConfig,
    ToleranceNotReachedError,
    bessel_i0,
    converge,
    hadamard_eval,
    trapezoid_periodic_1d,
    trapezoid_periodic_2d,
)

I0_OF_2 = 2.2795853023360673


def single_level(n: int) -> QuadratureConfig:
    """Pin the rule to exactly n nodes (no doubling)."""
    return QuadratureConfig(initial_nodes=n, max_nodes=n, tol=1.0)


class TestConfig:
    def test_defaults_valid(self):
        cfg = QuadratureConfig()
        assert cfg.initial_nodes == 16

    def test_rejects_small_initial(self):
        with pytest.raises(InvalidQueryError):
            QuadratureConfig(initial_nodes=2)

    def test_rejects_max_below_initial(self):
        with pytest.raises(InvalidQueryError):
            QuadratureConfig(initial_nodes=16, max_nodes=8)

    def test_rejects_float_node_count(self):
        # a float count would fail later, in range() at the first level
        with pytest.raises(InvalidQueryError, match="must be integers, got 16.0 and 64"):
            QuadratureConfig(16.0, 64, 1e-12)

    def test_rejects_infinite_max_nodes(self):
        # an unbounded budget would let an unreachable tol double without end
        with pytest.raises(InvalidQueryError, match="must be integers, got 16 and inf"):
            QuadratureConfig(16, math.inf, 1e-12)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(InvalidQueryError):
            QuadratureConfig(tol=0.0)


class TestTrapezoid1D:
    def test_constant(self):
        res = trapezoid_periodic_1d(lambda t: 3.25)
        assert res.value == 3.25
        assert res.est_error == 0.0

    def test_pure_cosine_vanishes(self):
        res = trapezoid_periodic_1d(math.cos)
        assert abs(res.value) < 1e-15

    def test_exponential_characters(self):
        # node mean of e^{i m t} is 1 when m % N == 0, else 0
        for n in (8, 16):
            for m in range(-3, 4):
                res = trapezoid_periodic_1d(
                    lambda t, m=m: cmath.exp(1j * m * t), single_level(n)
                )
                expected = 1.0 if m % n == 0 else 0.0
                assert abs(res.value - expected) < 1e-14, (n, m)
        aliased = trapezoid_periodic_1d(lambda t: cmath.exp(8j * t), single_level(8))
        assert abs(aliased.value - 1.0) < 1e-14

    def test_entire_integrand_hits_i0(self):
        res = trapezoid_periodic_1d(lambda t: math.exp(2.0 * math.cos(t)))
        assert abs(res.value - I0_OF_2) < 1e-12

    def test_spectral_decay(self):
        reference = bessel_i0(2.0, tol=1e-15).value.real
        errors = {}
        for n in (8, 16, 32):
            res = trapezoid_periodic_1d(
                lambda t: math.exp(2.0 * math.cos(t)), single_level(n)
            )
            errors[n] = abs(res.value.real - reference)
        assert errors[32] <= 1e-12
        assert errors[16] / errors[8] <= 1e-3

    def test_nodes_are_doublings_of_initial(self):
        cfg = QuadratureConfig(initial_nodes=16, max_nodes=1024, tol=1e-12)
        res = trapezoid_periodic_1d(lambda t: math.exp(2.0 * math.cos(t)), cfg)
        ratio = res.nodes // cfg.initial_nodes
        assert res.nodes == cfg.initial_nodes * ratio
        assert ratio & (ratio - 1) == 0  # power of two


class TestTrapezoid2D:
    def test_constant_is_exact(self):
        res = trapezoid_periodic_2d(lambda a, b: 1.0)
        assert res.value == 1.0

    def test_zero_mean_product(self):
        res = trapezoid_periodic_2d(lambda a, b: math.cos(a) * math.sin(b))
        assert abs(res.value) < 1e-15

    def test_separable_factorizes(self):
        g = lambda a: math.exp(math.cos(a))
        h = lambda b: 2.0 + math.sin(b)
        joint = trapezoid_periodic_2d(lambda a, b: g(a) * h(b)).value.real
        split = (
            trapezoid_periodic_1d(g).value.real * trapezoid_periodic_1d(h).value.real
        )
        assert abs(joint - split) <= 1e-13 * abs(split)


class TestConverge:
    def test_tolerance_not_reached_carries_best(self):
        cfg = QuadratureConfig(initial_nodes=4, max_nodes=8, tol=1e-18)
        with pytest.raises(ToleranceNotReachedError) as excinfo:
            converge(lambda n: 1.0 / n, cfg)
        best = excinfo.value.best
        assert best.nodes == 8
        assert abs(best.value - 0.125) < 1e-15
        assert abs(best.est_error - 0.125) < 1e-15

    def test_single_level_reports_zero_estimate(self):
        res = converge(lambda n: 7.0, QuadratureConfig(16, 16, 1e-12))
        assert res.nodes == 16
        assert res.est_error == 0.0

    def test_estimate_is_last_doubling_delta(self):
        values = {4: 1.0, 8: 0.5, 16: 0.4999}
        cfg = QuadratureConfig(initial_nodes=4, max_nodes=16, tol=1e-3)
        res = converge(lambda n: values[n], cfg)
        assert res.nodes == 16
        assert abs(res.est_error - 0.0001) < 1e-12

    @pytest.mark.parametrize("cfg", [QuadratureConfig(4, 4, 1e-12), QuadratureConfig()],
                             ids=["single-level", "default"])
    def test_nonfinite_level_mean_raises_at_once(self, cfg):
        levels = []

        def node_mean(n):
            levels.append(n)
            return math.nan

        with pytest.raises(ToleranceNotReachedError, match=f"N={cfg.initial_nodes} ") as excinfo:
            converge(node_mean, cfg)
        assert excinfo.value.best is None
        assert levels == [cfg.initial_nodes]

    @pytest.mark.parametrize("cfg", [QuadratureConfig(4, 4, 1e-12), None],
                             ids=["single-level", "default"])
    def test_nonfinite_integrand_fails_hadamard_eval(self, cfg):
        # nan for Re z < 0, so the first level's mean is nan: no value, no
        # further level
        calls = []

        def f(z):
            calls.append(z)
            return math.nan if z.real < 0 else cmath.exp(z)

        g = AnalyticFunction(cmath.exp, math.inf)
        with pytest.raises(ToleranceNotReachedError, match="is not finite") as excinfo:
            hadamard_eval(AnalyticFunction(f, math.inf), g, 0.5, 0.5, cfg)
        assert excinfo.value.best is None
        assert len(calls) == (cfg or QuadratureConfig()).initial_nodes
