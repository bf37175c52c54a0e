"""Spans and counters around the calls into each alphafn layer.

Everything here wraps alphafn from outside: `install` replaces functions
where the program's modules bind them and `uninstall` puts the originals
back.  A span is (id, name, start_ns, end_ns, parent id); spans stay in memory
and are written when the run ends.  A span's self time is its duration
minus the time its child spans cover.

Layers, named after the modules:
  kernels     the functions on the alphafn.backend.kernels module object
  quadrature  converge, where quadrature, hadamard and report bind it, and
              the integrand closures trapezoid_periodic_1d receives
  series      alpha_series and alpha_derivative_series
  hadamard    the six quadrature-backed routes
  stirling    ode_residual
  report      compare_methods and evaluate_method
  verify      the five property suites
  cli         main
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter_ns

SPAN_CAP = 100_000  # spans kept for the trace file; the metrics use all

TORUS_KERNELS = ("alpha3_real_mean", "alpha3_complex_mean")
HADAMARD_ROUTES = (
    "alpha2_quadrature",
    "alpha3_quadrature_real",
    "alpha3_quadrature_complex",
    "alpha_via_hadamard",
    "hadamard_eval",
    "bessel_identity_check",
)
SUITES = ("theorem1", "bessel_eq1", "ode", "stirling_gf", "expansion_s3")


class Tracer:
    """Spans, per-name call/time totals and per-layer counts of one run."""

    def __init__(self):
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.spans: list[tuple] = []
        self.span_count = 0
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._undo: list[tuple] = []

    def wrap(self, name, fn, after=None):
        """fn inside a span called name; after(args, result) records counts."""
        stack, spans = self._stack, self.spans
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns

        def traced(*args, **kwargs):
            sid = self.span_count
            self.span_count = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                calls[name] += 1
                total_ns[name] += duration
                self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if sid < SPAN_CAP:
                    spans.append((sid, name, start, end, parent))
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, original, replacement, modules):
        """Replace every binding of `original` in the given modules."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self):
        import alphafn
        from alphafn import backend, cli, hadamard, quadrature, report, series, stirling, verify

        modules = (alphafn, cli, hadamard, quadrature, report, series, stirling, verify)
        counts = self.counts
        kernels = backend.kernels

        def count(key, value):
            counts[key] += value

        # what each kernel adds to the layer's counts, from (args, result)
        kernel_counts = {
            "alpha_sum": lambda a, r: count("kernels.series_terms", r[1]),
            "alpha_deriv_sum": lambda a, r: count("kernels.series_terms", r[1]),
            "alpha2_mean": lambda a, r: count("kernels.circle_nodes", a[1]),
            "bessel_mean": lambda a, r: count("kernels.circle_nodes", a[2]),
            "exp_alpha_mean": lambda a, r: count("kernels.circle_nodes", a[2]),
            "alpha3_real_mean": lambda a, r: count("kernels.torus_nodes", a[1] ** 2),
            "alpha3_complex_mean": lambda a, r: count("kernels.torus_nodes", a[1] ** 2),
        }
        for name, after in kernel_counts.items():
            original = getattr(kernels, name)
            self._rebind(original, self.wrap(f"kernels.{name}", original, after), (kernels,))

        converge = quadrature.converge
        converge_span = self.wrap("quadrature.converge", converge)

        def traced_converge(node_mean, cfg):
            levels = []  # node evaluations per level; a torus level counts n^2

            def level(n):
                torus_before = counts["kernels.torus_nodes"]
                value = node_mean(n)
                levels.append(n * n if counts["kernels.torus_nodes"] > torus_before else n)
                return value

            try:
                result = converge_span(level, cfg)
            finally:
                counts["quadrature.levels"] += len(levels)
                counts["quadrature.node_evals"] += sum(levels)
            counts["quadrature.final_level_evals"] += levels[-1]
            counts["quadrature.final_nodes"] += result.nodes
            return result

        self._rebind(converge, traced_converge, (alphafn, quadrature, hadamard, report))

        trapezoid = hadamard.trapezoid_periodic_1d

        def counted_trapezoid(f, cfg=None):
            def integrand(theta):
                counts["quadrature.integrand_calls"] += 1
                return f(theta)

            return trapezoid(integrand, cfg)

        self._rebind(trapezoid, counted_trapezoid, (hadamard,))

        for module, names in (
            (series, ("alpha_series", "alpha_derivative_series")),
            (hadamard, HADAMARD_ROUTES),
            (stirling, ("ode_residual",)),
            (report, ("compare_methods", "evaluate_method")),
            (cli, ("main",)),
        ):
            layer = module.__name__.rsplit(".", 1)[1]
            for name in names:
                original = getattr(module, name)
                self._rebind(original, self.wrap(f"{layer}.{name}", original), modules)

        for suite in SUITES:
            original = verify._SUITES[suite]
            verify._SUITES[suite] = self.wrap(f"verify.{suite}", original)
            self._undo.append((verify._SUITES, suite, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def metrics(self, ops: int) -> dict:
        """Per-layer metrics per operation, as {name: (value, unit)}."""

        def names(prefix):
            return [n for n in self.calls if n.startswith(prefix)]

        def ms(ns):
            return ns / 1e6 / ops

        c = self.counts
        torus_ns = sum(self.self_ns[f"kernels.{k}"] for k in TORUS_KERNELS)
        out = {
            "kernels.calls": (sum(self.calls[n] for n in names("kernels.")) / ops, "count"),
            "kernels.self_ms": (ms(sum(self.self_ns[n] for n in names("kernels."))), "ms"),
            "kernels.torus_nodes": (c["kernels.torus_nodes"] / ops, "count"),
            "kernels.circle_nodes": (c["kernels.circle_nodes"] / ops, "count"),
            "kernels.series_terms": (c["kernels.series_terms"] / ops, "count"),
            "kernels.ns_per_torus_node": (
                torus_ns / c["kernels.torus_nodes"] if c["kernels.torus_nodes"] else 0.0, "ns"),
            "quadrature.converge_calls": (self.calls["quadrature.converge"] / ops, "count"),
            "quadrature.levels": (c["quadrature.levels"] / ops, "count"),
            "quadrature.final_nodes": (c["quadrature.final_nodes"] / ops, "count"),
            "quadrature.node_evals": (c["quadrature.node_evals"] / ops, "count"),
            "quadrature.final_level_share": (
                c["quadrature.final_level_evals"] / c["quadrature.node_evals"]
                if c["quadrature.node_evals"] else 0.0, "ratio"),
            "quadrature.integrand_calls": (c["quadrature.integrand_calls"] / ops, "count"),
            "quadrature.self_ms": (ms(self.self_ns["quadrature.converge"]), "ms"),
            "series.calls": (sum(self.calls[n] for n in names("series.")) / ops, "count"),
            "series.ms": (ms(sum(self.total_ns[n] for n in names("series."))), "ms"),
        }
        for route in HADAMARD_ROUTES:
            out[f"hadamard.{route}.calls"] = (self.calls[f"hadamard.{route}"] / ops, "count")
            out[f"hadamard.{route}.ms"] = (ms(self.total_ns[f"hadamard.{route}"]), "ms")
        out["hadamard.self_ms"] = (ms(sum(self.self_ns[n] for n in names("hadamard."))), "ms")
        out["stirling.ode_residual.ms"] = (ms(self.total_ns["stirling.ode_residual"]), "ms")
        out["report.compare_methods.self_ms"] = (
            ms(self.self_ns["report.compare_methods"]), "ms")
        out["report.evaluate_method.ms"] = (ms(self.total_ns["report.evaluate_method"]), "ms")
        for suite in SUITES:
            out[f"verify.{suite}.ms"] = (ms(self.total_ns[f"verify.{suite}"]), "ms")
        return out

    def write(self, path, header: dict) -> None:
        """Write the kept spans as JSON: header fields plus
        spans = [[id, name, start_ns, end_ns, parent id or -1], ...]."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(dict(header, spans_total=self.span_count,
                           spans=[list(s) for s in self.spans]), handle)
