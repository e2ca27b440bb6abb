"""Per-layer spans for the traced benchmark run, made without editing gammatrop.

`traced(tracer)` rebinds the public functions of each layer to timing
wrappers in every loaded gammatrop module that holds them, so calls made
through names a module imported (`gammatrop.periods.k3.integrate_2d`) are
timed as well as calls through the package.  The originals are put back on
exit.

Spans nest on one stack.  A span's self time is its duration minus the
durations of the spans opened inside it.  Inside the period modules the
quadrature names are bound to a wrapper that also wraps the integrand the
driver passes, so integrand time is attributed to the driver that is open;
quadrature's own outer closures in `integrate_2d` are never wrapped.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
from collections import defaultdict

import numpy as np

DRIVERS = (
    "k3_period",
    "exp_period_orthant",
    "elliptic_period",
    "pants_section_integral",
    "local_model_region_period",
    "error_integral_dim1",
    "error_integral_dim2_a",
    "error_integral_dim2_b",
)
TROPICAL = (
    "tropicalize",
    "monomial_substitution",
    "corner_locus",
    "compact_chamber",
    "boundary_affine_area",
    "edge_singularities",
)
DOMAINS = {"Rectangle": "rectangle", "ConvexPolygon": "polygon", "Sphere": "sphere"}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [
        ("quadrature.self_s", "s", "lower"),
        ("quadrature.integrate_1d.calls", "count", "lower"),
        ("quadrature.integrate_1d.evals", "count", "lower"),
        ("quadrature.integrate_1d.converged_ratio", "ratio", "higher"),
    ]
    + [
        (f"quadrature.integrate_2d.{kind}.{what}", "count", "lower")
        for kind in DOMAINS.values()
        for what in ("calls", "evals")
    ]
    + [
        ("quadrature.integrand_calls", "count", "lower"),
        ("quadrature.points_per_call", "points/call", "higher"),
        ("quadrature.fit_asymptotic.calls", "count", "lower"),
        ("quadrature.fit_asymptotic.s", "s", "lower"),
        ("periods.integrand_evals", "count", "lower"),
    ]
    + [
        (f"periods.{d}.{what}", unit, "lower")
        for d in DRIVERS
        for what, unit in (("calls", "count"), ("self_s", "s"), ("integrand_s", "s"))
    ]
    + [("periods.fano_gamma_prediction.s", "s", "lower")]
    + [
        (f"tropical.{f}.{what}", unit, "lower")
        for f in TROPICAL
        for what, unit in (("calls", "count"), ("s", "s"))
    ]
    + [
        ("tropical.corner_locus.cells", "count", "lower"),
        ("cohomology.gamma_period_polynomial.calls", "count", "lower"),
        ("cohomology.gamma_period_polynomial.s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


class Tracer:
    """Span totals and counters, kept in memory for one sweep at a time."""

    def __init__(self):
        self.stack: list[list[float]] = []  # child time of each open span
        self.driver: str | None = None
        self.reset()

    def reset(self) -> None:
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.counts = defaultdict(int)

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(args, kwargs, result) may add counts."""
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                record = self.spans[name]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - children[0]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def driver_span(self, name, fn):
        """A period driver: its integrands are attributed to it while open."""
        inner = self.span(f"periods.{name}", fn)

        def wrapper(*args, **kwargs):
            outer, self.driver = self.driver, name
            try:
                return inner(*args, **kwargs)
            finally:
                self.driver = outer

        return wrapper

    def integrand(self, f):
        """Wrap the integrand a driver passes to quadrature."""
        driver = self.driver
        counts = self.counts

        def count_points(args, kwargs, result):
            points = int(np.size(args[0]))
            counts["integrand_points"] += points
            counts[f"periods.{driver}.integrand_points"] += points

        return self.span(f"periods.{driver}.integrand", f, count_points)

    def at_driver(self, kernel):
        """Quadrature as seen from a period module: wrap the integrand first."""

        def wrapper(f, *args, **kwargs):
            return kernel(self.integrand(f), *args, **kwargs)

        return wrapper

    # --- counters taken from results -----------------------------------

    def _after_1d(self, args, kwargs, result):
        interval = args[1] if len(args) > 1 else kwargs["interval"]
        self.counts["integrate_1d.converged"] += bool(result.converged)
        # a doubly infinite interval is split in two traced calls whose
        # evaluations it only sums
        if not (math.isinf(interval[0]) and math.isinf(interval[1])):
            self.counts["integrate_1d.evals"] += result.evaluations

    def _after_2d(self, args, kwargs, result):
        domain = args[1] if len(args) > 1 else kwargs["domain"]
        kind = DOMAINS[type(domain).__name__]
        self.counts[f"integrate_2d.{kind}.calls"] += 1
        self.counts[f"integrate_2d.{kind}.evals"] += result.evaluations

    def _after_corner_locus(self, args, kwargs, result):
        self.counts["corner_locus.cells"] += len(result.cells)

    # --- report ---------------------------------------------------------

    def metrics(self, sample_evals: int) -> dict[str, float]:
        """Per-layer metrics of the sweep traced since the last reset.

        `trace.overhead_s` compares two sweeps, so the caller adds it.
        """
        spans, counts = self.spans, self.counts

        def calls(name):
            return spans[name][0] if name in spans else 0

        def total(name):
            return spans[name][1] if name in spans else 0.0

        def own(name):
            return spans[name][2] if name in spans else 0.0

        calls_1d = calls("quadrature.integrate_1d")
        integrand_calls = sum(
            calls(f"periods.{d}.integrand") for d in DRIVERS
        )
        out = {
            "quadrature.self_s": own("quadrature.integrate_1d")
            + own("quadrature.integrate_2d"),
            "quadrature.integrate_1d.calls": calls_1d,
            "quadrature.integrate_1d.evals": counts["integrate_1d.evals"],
            "quadrature.integrate_1d.converged_ratio": (
                counts["integrate_1d.converged"] / calls_1d if calls_1d else 0.0
            ),
        }
        for kind in DOMAINS.values():
            for what in ("calls", "evals"):
                out[f"quadrature.integrate_2d.{kind}.{what}"] = counts[
                    f"integrate_2d.{kind}.{what}"
                ]
        out["quadrature.integrand_calls"] = integrand_calls
        out["quadrature.points_per_call"] = (
            counts["integrand_points"] / integrand_calls if integrand_calls else 0.0
        )
        out["quadrature.fit_asymptotic.calls"] = calls("quadrature.fit_asymptotic")
        out["quadrature.fit_asymptotic.s"] = total("quadrature.fit_asymptotic")
        out["periods.integrand_evals"] = sample_evals
        for d in DRIVERS:
            out[f"periods.{d}.calls"] = calls(f"periods.{d}")
            out[f"periods.{d}.self_s"] = own(f"periods.{d}")
            out[f"periods.{d}.integrand_s"] = total(f"periods.{d}.integrand")
        out["periods.fano_gamma_prediction.s"] = total("periods.fano_gamma_prediction")
        for f in TROPICAL:
            out[f"tropical.{f}.calls"] = calls(f"tropical.{f}")
            out[f"tropical.{f}.s"] = total(f"tropical.{f}")
        out["tropical.corner_locus.cells"] = counts["corner_locus.cells"]
        out["cohomology.gamma_period_polynomial.calls"] = calls(
            "cohomology.gamma_period_polynomial"
        )
        out["cohomology.gamma_period_polynomial.s"] = total(
            "cohomology.gamma_period_polynomial"
        )
        return out


def _plan(tracer: Tracer):
    """Map each traced original to its wrapper, and period-module overrides."""
    import gammatrop.cohomology as cohomology
    import gammatrop.periods as periods
    import gammatrop.quadrature as quadrature
    import gammatrop.tropical as tropical

    # a renamed public function raises AttributeError here: the traced run
    # fails instead of silently zeroing a layer
    q1 = quadrature.integrate_1d
    q2 = quadrature.integrate_2d
    kernels = {
        q1: tracer.span("quadrature.integrate_1d", q1, tracer._after_1d),
        q2: tracer.span("quadrature.integrate_2d", q2, tracer._after_2d),
    }
    plan = dict(kernels)
    fit = quadrature.fit_asymptotic
    plan[fit] = tracer.span("quadrature.fit_asymptotic", fit)
    for name in DRIVERS:
        fn = getattr(periods, name)
        plan[fn] = tracer.driver_span(name, fn)
    fano_prediction = periods.fano_gamma_prediction
    plan[fano_prediction] = tracer.span("periods.fano_gamma_prediction", fano_prediction)
    for name in TROPICAL:
        fn = getattr(tropical, name)
        after = tracer._after_corner_locus if name == "corner_locus" else None
        plan[fn] = tracer.span(f"tropical.{name}", fn, after)
    gamma = cohomology.gamma_period_polynomial
    plan[gamma] = tracer.span("cohomology.gamma_period_polynomial", gamma)
    in_periods = {fn: tracer.at_driver(kernel) for fn, kernel in kernels.items()}
    return plan, in_periods


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Rebind every traced name in loaded gammatrop modules while open."""
    plan, in_periods = _plan(tracer)
    by_id = {id(fn): wrapper for fn, wrapper in plan.items()}
    period_ids = {id(fn): wrapper for fn, wrapper in in_periods.items()}
    saved = []
    for modname, module in list(sys.modules.items()):
        if modname != "gammatrop" and not modname.startswith("gammatrop."):
            continue
        overrides = period_ids if modname.startswith("gammatrop.periods.") else {}
        for attr, value in list(vars(module).items()):
            wrapper = overrides.get(id(value)) or by_id.get(id(value))
            if wrapper is not None:
                saved.append((module, attr, value))
                setattr(module, attr, wrapper)
    try:
        yield tracer
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)
