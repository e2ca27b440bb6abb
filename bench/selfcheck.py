"""The benchmark's own tests.  Run from the root of a checkout:

    python3 bench/selfcheck.py

Each workload is swept once untraced and once traced with the development
seed (about a minute in all).  The file is not named test_*.py, so the
package's pytest run does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest

import run

sys.path.insert(0, str(run.SRC))

import gammatrop.periods as periods  # noqa: E402
import gammatrop.periods.k3  # noqa: E402,F401
import gammatrop.quadrature as quadrature  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

DEV_SEED = 1

# per-layer metrics each workload was chosen to exercise; all must be non-zero
EXERCISED = {
    "k3_sphere": [
        "quadrature.self_s",
        "quadrature.integrate_1d.calls",
        "quadrature.integrate_2d.sphere.calls",
        "quadrature.integrate_2d.sphere.evals",
        "quadrature.integrand_calls",
        "periods.integrand_evals",
        "periods.k3_period.calls",
        "periods.k3_period.integrand_s",
    ],
    "planar_2d": [
        "quadrature.self_s",
        "quadrature.integrate_1d.calls",
        "quadrature.integrate_2d.rectangle.evals",
        "quadrature.integrate_2d.polygon.evals",
        "periods.integrand_evals",
        "periods.exp_period_orthant.integrand_s",
        "periods.error_integral_dim2_b.integrand_s",
        "periods.fano_gamma_prediction.s",
    ],
    "curves_1d": [
        "quadrature.self_s",
        "quadrature.integrate_1d.evals",
        "quadrature.integrand_calls",
        "quadrature.fit_asymptotic.calls",
        "periods.integrand_evals",
        "periods.elliptic_period.self_s",
    ]
    + [
        f"periods.{d}.integrand_s"
        for d in (
            "exp_period_orthant",
            "elliptic_period",
            "pants_section_integral",
            "local_model_region_period",
            "error_integral_dim1",
            "error_integral_dim2_a",
        )
    ],
    "exact_invariants": [f"tropical.{f}.s" for f in layertrace.TROPICAL]
    + [
        "tropical.corner_locus.cells",
        "cohomology.gamma_period_polynomial.calls",
        "cohomology.gamma_period_polynomial.s",
    ],
}

# drivers whose PeriodSamples account for every sample evaluation
SAMPLE_DRIVERS = {
    "k3_sphere": ["k3_period"],
    "planar_2d": ["exp_period_orthant"],
    "curves_1d": ["exp_period_orthant", "elliptic_period"],
    "exact_invariants": [],
}


class Sweeps:
    """One untraced and one traced sweep per workload, made on first use."""

    cache: dict = {}

    @classmethod
    def get(cls, workload):
        if workload not in cls.cache:
            ops = workloads.build(workload, DEV_SEED)
            plain = run.run_sweep(ops)
            tracer = layertrace.Tracer()
            with layertrace.traced(tracer):
                traced = run.run_sweep(ops)
            cls.cache[workload] = (plain, traced, tracer)
        return cls.cache[workload]


def run_main(*args) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(args))
    return code, out.getvalue().splitlines()


class TracedRun(unittest.TestCase):
    def test_traced_results_equal_untraced_bit_for_bit(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                plain, traced, _ = Sweeps.get(workload)
                self.assertEqual(plain.failures, [])
                self.assertEqual(traced.fingerprint, plain.fingerprint)

    def test_exercised_layers_are_nonzero(self):
        for workload, names in EXERCISED.items():
            _, traced, tracer = Sweeps.get(workload)
            metrics = tracer.metrics(traced.sample_evals)
            for name in names:
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(metrics[name], 0)

    def test_workloads_isolate_their_layers(self):
        for workload in ("curves_1d", "exact_invariants"):
            _, traced, tracer = Sweeps.get(workload)
            metrics = tracer.metrics(traced.sample_evals)
            for kind in layertrace.DOMAINS.values():
                name = f"quadrature.integrate_2d.{kind}.calls"
                with self.subTest(workload=workload, metric=name):
                    self.assertEqual(metrics[name], 0)
        _, traced, tracer = Sweeps.get("exact_invariants")
        self.assertEqual(tracer.metrics(traced.sample_evals)["quadrature.integrate_1d.calls"], 0)

    def test_integrand_wrappers_see_exactly_the_driver_integrands(self):
        # wrapping quadrature's outer closures would add outer nodes; missing
        # a driver's integrand would drop points
        for workload, drivers in SAMPLE_DRIVERS.items():
            with self.subTest(workload=workload):
                _, traced, tracer = Sweeps.get(workload)
                points = sum(
                    tracer.counts[f"periods.{d}.integrand_points"] for d in drivers
                )
                self.assertEqual(points, traced.sample_evals)

    def test_names_imported_by_period_modules_are_rebound_and_restored(self):
        originals = (
            gammatrop.periods.k3.integrate_2d,
            quadrature.integrate_1d,
            periods.k3_period,
        )
        with layertrace.traced(layertrace.Tracer()):
            self.assertIsNot(gammatrop.periods.k3.integrate_2d, originals[0])
            self.assertIsNot(quadrature.integrate_1d, originals[1])
            self.assertIsNot(periods.k3_period, originals[2])
            self.assertIsNot(gammatrop.periods.k3.integrate_2d, quadrature.integrate_2d)
        restored = (
            gammatrop.periods.k3.integrate_2d,
            quadrature.integrate_1d,
            periods.k3_period,
        )
        for before, after in zip(originals, restored):
            self.assertIs(before, after)


class Output(unittest.TestCase):
    def test_trace_0_reports_every_end_to_end_metric_nonzero(self):
        code, lines = run_main(
            "--workload", "exact_invariants", "--seed", str(DEV_SEED),
            "--seconds", "1", "--trace", "0",
        )
        self.assertEqual(code, 0)
        for name in ("setup_s", "sweep_s", "integrand_evals", "failed_frac", "peak_rss_mb"):
            self.assertTrue(any(line.split()[:1] == [name] for line in lines), name)
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {n for n, _ in run.END_TO_END})
        for name, unit in run.END_TO_END:
            self.assertEqual(result["metrics"][name]["unit"], unit)
            self.assertGreater(result["metrics"][name]["value"], 0)

    def test_trace_1_reports_every_layer_metric_and_the_overhead(self):
        code, lines = run_main(
            "--workload", "curves_1d", "--seed", str(DEV_SEED),
            "--seconds", "1", "--trace", "1",
        )
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(
            list(result["metrics"]), [name for name, _, _ in layertrace.PER_LAYER]
        )
        self.assertTrue(math.isfinite(result["metrics"]["trace.overhead_s"]["value"]))

    def test_benchmark_json_matches_the_harness(self):
        with open(run.ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        self.assertEqual(
            {w["name"]: w["why"] for w in spec["workloads"]}, workloads.WHY
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            list(layertrace.PER_LAYER),
        )

    def test_fails_without_the_package_sources(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".selfcheck-") as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(
                run.ROOT / "bench", f"{tmp}/bench",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "curves_1d",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
