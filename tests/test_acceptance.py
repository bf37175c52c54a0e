"""Acceptance suite: every exit criterion at its stated tolerance.

One test per criterion; each prints a single pass/fail line (visible with
pytest -s or in the failure report).  Expected values marked as derived
were computed from independent oracles: exact-rational partial sums for
series values and exhaustive enumeration for partition counts.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from alphafn import (
    AnalyticFunction,
    alpha2_integrand,
    alpha3_integrand_complex,
    alpha3_integrand_real,
    alpha3_quadrature_complex,
    alpha3_quadrature_real,
    alpha_series,
    alpha_via_hadamard,
    bessel_i0,
    bessel_identity_check,
    compare_methods,
    hadamard_eval,
    ode_residual,
    stirling2,
    stirling_genfunc_residual,
    trapezoid_periodic_1d,
)
from alphafn.cli import main

TWO_PI = 2.0 * math.pi


def check(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    assert ok, f"{criterion}{suffix}"


def rational_alpha_one(s: int, n_max: int) -> Fraction:
    """Exact-rational partial sum of 1/(n!)^s."""
    total = Fraction(0)
    factorial = 1
    for n in range(n_max + 1):
        if n > 0:
            factorial *= n
        total += Fraction(1, factorial**s)
    return total


def test_01_hypergeometric_value_audit(capsys):
    oracle = float(rational_alpha_one(3, 10))
    computed = alpha_series(1.0, 3).value.real
    with capsys.disabled():
        check(
            "1 cubed-factorial sum",
            abs(computed - 2.1297025490) <= 1e-9 and abs(computed - oracle) <= 1e-9,
            f"computed={computed!r}",
        )
        report = compare_methods(1.0, 3)
        audit = [n for n in report.notes if "1.1297" in n]
        check(
            "1 value audit note",
            len(audit) == 1 and ".1297" in audit[0] and "integer part" in audit[0],
        )


def test_02_product_rule_polynomial_oracle(capsys):
    rng = random.Random(0)
    worst = 0.0
    for _ in range(200):
        ca = [rng.uniform(-1.0, 1.0) for _ in range(rng.randint(0, 8) + 1)]
        cb = [rng.uniform(-1.0, 1.0) for _ in range(rng.randint(0, 8) + 1)]
        u = rng.uniform(-1.0, 1.0)
        v = rng.uniform(-1.0, 1.0)
        f = AnalyticFunction.from_coefficients(ca)
        g = AnalyticFunction.from_coefficients(cb)
        expected = sum(a * b * (u * v) ** n for n, (a, b) in enumerate(zip(ca, cb)))
        got = hadamard_eval(f, g, u, v).value.real
        worst = max(worst, abs(got - expected))
    with capsys.disabled():
        check("2 polynomial product oracle", worst <= 1e-11, f"worst={worst:.3e}")


def test_03_s2_identity(capsys):
    worst = 0.0
    for x in (-1.0, 0.5, 1.0, 2.0):
        quad = trapezoid_periodic_1d(lambda t: alpha2_integrand(x, t)).value.real
        series = alpha_series(x, 2).value.real
        worst = max(worst, abs(quad - series))
    with capsys.disabled():
        check("3 squared-factorial circle identity", worst <= 1e-10, f"worst={worst:.3e}")


def test_04_bessel_identity(capsys):
    worst = 0.0
    for a, b in ((0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (3.0, 4.0), (1.0, 1.0)):
        lhs, rhs = bessel_identity_check(a, b)
        worst = max(worst, abs(lhs - rhs))
    lhs34, _ = bessel_identity_check(3.0, 4.0)
    lhs50, _ = bessel_identity_check(5.0, 0.0)
    rotation = abs(lhs34 - lhs50)
    with capsys.disabled():
        check(
            "4 exponential-circle Bessel identity",
            worst <= 1e-10 and rotation <= 1e-11,
            f"worst={worst:.3e} rotation={rotation:.3e}",
        )


def test_05_s3_torus_quadrature(capsys):
    worst_real = worst_complex = worst_imag = worst_ratio = 0.0
    max_nodes = 0
    for x in (-1.0, 0.0, 0.5, 1.0, 2.0):
        series = alpha_series(x, 3).value.real
        real_form = alpha3_quadrature_real(x)
        complex_form = alpha3_quadrature_complex(x)
        max_nodes = max(max_nodes, real_form.nodes, complex_form.nodes)
        worst_real = max(worst_real, abs(real_form.value.real - series))
        worst_complex = max(worst_complex, abs(complex_form.value.real - series))
        worst_imag = max(worst_imag, abs(complex_form.value.imag))
        # each route's certified level bounds its own error
        worst_ratio = max(
            worst_ratio,
            abs(real_form.value.real - series) / real_form.est_error,
            abs(complex_form.value.real - series) / complex_form.est_error,
        )
    with capsys.disabled():
        check(
            "5 cubed-factorial torus identity",
            worst_real <= 1e-9
            and worst_complex <= 1e-9
            and worst_imag <= 1e-10
            and max_nodes <= 128
            and worst_ratio <= 1.0,
            f"real={worst_real:.3e} complex={worst_complex:.3e} "
            f"imag={worst_imag:.3e} error/bound<={worst_ratio:.3f} N<={max_nodes}",
        )


def test_06_expansion_identity(capsys):
    worst_ratio = 0.0
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
                worst_ratio = max(worst_ratio, diff / bound)
    with capsys.disabled():
        check(
            "6 trigonometric expansion identity",
            worst_ratio <= 1.0,
            f"worst/bound={worst_ratio:.3e}",
        )


def test_07_ode_residual(capsys):
    worst_ratio = 0.0
    for s in (1, 2, 3, 4):
        for x in (-2.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            bound = 1e-10 * (1.0 + math.exp(abs(x)))
            worst_ratio = max(worst_ratio, abs(ode_residual(x, s, 1e-13)) / bound)
    with capsys.disabled():
        check(
            "7 Stirling ODE residual", worst_ratio <= 1.0, f"worst/bound={worst_ratio:.3e}"
        )


def _enumerate_partitions(items: tuple):
    """Yield every set partition of `items` as a list of blocks."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for sub in _enumerate_partitions(rest):
        yield [[head]] + sub
        for i in range(len(sub)):
            yield sub[:i] + [[head] + sub[i]] + sub[i + 1 :]


def test_08_stirling_checks(capsys):
    exact = True
    for n in range(0, 10):
        counts = [0] * (n + 1)
        for partition in _enumerate_partitions(tuple(range(n))):
            counts[len(partition)] += 1
        exact = exact and all(
            stirling2(n, k) == counts[k] for k in range(0, n + 1)
        )
    worst = max(
        stirling_genfunc_residual(k, x, 20)
        for k in (1, 2, 3)
        for x in (0.0, 0.5, 1.0)
    )
    with capsys.disabled():
        check(
            "8 partition-count and generating function",
            exact and worst <= 1e-10,
            f"genfunc worst={worst:.3e}",
        )


def test_09_iterated_lift(capsys):
    oracle = float(rational_alpha_one(4, 20))
    got = alpha_via_hadamard(1.0, 4).value.real
    with capsys.disabled():
        check(
            "9 iterated lift at s=4",
            abs(got - oracle) <= 1e-8,
            f"got={got!r} oracle={oracle!r}",
        )


def test_10_spectral_convergence(capsys):
    reference = bessel_i0(2.0, tol=1e-15).value.real
    errors = {}
    for n in (8, 16, 32):
        value = trapezoid_periodic_1d(lambda t: math.exp(2.0 * math.cos(t)), nodes=n)
        errors[n] = abs(value.value.real - reference)
    with capsys.disabled():
        check(
            "10 spectral convergence",
            errors[32] <= 1e-12 and errors[16] / errors[8] <= 1e-3,
            f"err32={errors[32]:.3e} ratio={errors[16] / errors[8]:.3e}",
        )


def test_11_cli_contract(capsys):
    code_verify = main(["verify", "--suite", "all", "--seed", "0"])
    out = capsys.readouterr().out
    code_eval = main(["eval", "--x", "1", "--s", "2", "--method", "bessel"])
    eval_out = capsys.readouterr().out
    value = float(eval_out.splitlines()[0].split(" = ")[1])
    code_invalid = main(["eval", "--x", "1", "--s", "0"])
    capsys.readouterr()
    with capsys.disabled():
        check(
            "11 CLI contract",
            code_verify == 0
            and "failures=0" in out
            and code_eval == 0
            and abs(value - 2.2795853023360673) <= 1e-11
            and code_invalid == 2,
            f"verify={code_verify} eval={value!r} invalid={code_invalid}",
        )
