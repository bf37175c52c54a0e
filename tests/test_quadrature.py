"""Tests for the periodic trapezoid rule and the node-doubling driver."""

from __future__ import annotations

import cmath
import math

import pytest

from alphafn import (
    EXP,
    AnalyticFunction,
    InvalidQueryError,
    ToleranceNotReachedError,
    bessel_i0,
    hadamard_eval,
    trapezoid_periodic_1d,
)
from alphafn.quadrature import CIRCLE_LADDER, TORUS_LADDER, converge, one_level

I0_OF_2 = 2.2795853023360673

# every function that takes a node count, called with nodes
TAKES_NODES = {
    "one_level": lambda nodes: one_level(lambda n: 1.0, nodes),
    "trapezoid_periodic_1d": lambda nodes: trapezoid_periodic_1d(math.cos, nodes),
    "hadamard_eval": lambda nodes: hadamard_eval(EXP, EXP, 0.5, 0.5, nodes=nodes),
}


class TestConfig:
    """A caller sets only the node count of one level; the doubling
    ladders are the module's constants."""

    def test_defaults_valid(self):
        # converge does not check its ladder, so the constants must be sound
        for initial, max_nodes, tol in (CIRCLE_LADDER, TORUS_LADDER):
            assert isinstance(initial, int) and isinstance(max_nodes, int)
            assert 4 <= initial <= max_nodes // 2
            assert tol > 0

    def test_rejects_float_node_count(self):
        # a float count would fail later, in range() at the level
        with pytest.raises(InvalidQueryError, match="must be an integer >= 4, got 16.0"):
            trapezoid_periodic_1d(math.cos, 16.0)

    @pytest.mark.parametrize("nodes", [0, 3, 16.0, "16", True, math.inf])
    @pytest.mark.parametrize("run", TAKES_NODES.values(), ids=TAKES_NODES.keys())
    def test_rejects_bad_nodes(self, run, nodes):
        with pytest.raises(InvalidQueryError, match="nodes must be an integer >= 4"):
            run(nodes)


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
                res = trapezoid_periodic_1d(lambda t, m=m: cmath.exp(1j * m * t), n)
                expected = 1.0 if m % n == 0 else 0.0
                assert abs(res.value - expected) < 1e-14, (n, m)
        aliased = trapezoid_periodic_1d(lambda t: cmath.exp(8j * t), 8)
        assert abs(aliased.value - 1.0) < 1e-14

    def test_entire_integrand_hits_i0(self):
        res = trapezoid_periodic_1d(lambda t: math.exp(2.0 * math.cos(t)))
        assert abs(res.value - I0_OF_2) < 1e-12

    def test_spectral_decay(self):
        reference = bessel_i0(2.0, tol=1e-15).value.real
        errors = {}
        for n in (8, 16, 32):
            res = trapezoid_periodic_1d(lambda t: math.exp(2.0 * math.cos(t)), n)
            errors[n] = abs(res.value.real - reference)
        assert errors[32] <= 1e-12
        assert errors[16] / errors[8] <= 1e-3

    def test_nodes_are_doublings_of_initial(self):
        initial = CIRCLE_LADDER[0]
        res = trapezoid_periodic_1d(lambda t: math.exp(2.0 * math.cos(t)))
        ratio = res.nodes // initial
        assert res.nodes == initial * ratio
        assert ratio & (ratio - 1) == 0  # power of two


class TestConverge:
    def test_tolerance_not_reached_carries_best(self):
        with pytest.raises(ToleranceNotReachedError) as excinfo:
            converge(lambda n: 1.0 / n, (4, 8, 1e-18))
        best = excinfo.value.best
        assert best.nodes == 8
        assert abs(best.value - 0.125) < 1e-15
        assert abs(best.est_error - 0.125) < 1e-15

    def test_single_level_reports_zero_estimate(self):
        # one level has no second to compare with: one_level, not converge
        res = one_level(lambda n: 7.0, 16)
        assert res.nodes == 16
        assert res.est_error == 0.0

    def test_estimate_is_last_doubling_delta(self):
        values = {4: 1.0, 8: 0.5, 16: 0.4999}
        res = converge(lambda n: values[n], (4, 16, 1e-3))
        assert res.nodes == 16
        assert abs(res.est_error - 0.0001) < 1e-12

    @pytest.mark.parametrize(
        "run, first",
        [(lambda mean: one_level(mean, 4), 4),
         (lambda mean: converge(mean, CIRCLE_LADDER), CIRCLE_LADDER[0])],
        ids=["single-level", "default"])
    def test_nonfinite_level_mean_raises_at_once(self, run, first):
        levels = []

        def node_mean(n):
            levels.append(n)
            return math.nan

        with pytest.raises(ToleranceNotReachedError, match=f"N={first} ") as excinfo:
            run(node_mean)
        assert excinfo.value.best is None
        assert levels == [first]

    @pytest.mark.parametrize("nodes", [4, None], ids=["single-level", "default"])
    def test_nonfinite_integrand_fails_hadamard_eval(self, nodes):
        # nan for Re z < 0, so the first level's mean is nan: no value, no
        # further level
        calls = []

        def f(z):
            calls.append(z)
            return math.nan if z.real < 0 else cmath.exp(z)

        g = AnalyticFunction(cmath.exp, math.inf)
        with pytest.raises(ToleranceNotReachedError, match="is not finite") as excinfo:
            hadamard_eval(AnalyticFunction(f, math.inf), g, 0.5, 0.5, nodes)
        assert excinfo.value.best is None
        assert len(calls) == (nodes or CIRCLE_LADDER[0])

    @pytest.mark.parametrize("nodes", [4, None], ids=["single-level", "default"])
    def test_overflowing_node_is_refused_like_a_nonfinite_level(self, nodes):
        # cmath.exp(1e300 e^{it}) and math.exp(1e3 cos t) raise OverflowError
        # at the first node; the level is refused with no value, naming N
        first = nodes or CIRCLE_LADDER[0]
        for run in (
            lambda: hadamard_eval(EXP, EXP, 1e300, 1.0, nodes),
            lambda: trapezoid_periodic_1d(lambda t: math.exp(1e3 * math.cos(t)), nodes),
        ):
            with pytest.raises(ToleranceNotReachedError, match=f"N={first} overflowed") as excinfo:
                run()
            assert excinfo.value.best is None
