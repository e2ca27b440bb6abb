"""Run one benchmark workload against gammatrop and print its metrics.

    python3 bench/run.py --workload curves_1d --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the package is imported from `src/`.  The
workload's operations are rebuilt from the seed, references are computed
before timing, and whole sweeps over the operations repeat until `--seconds`
of sweeping have passed.  Every sweep is checked against the references and
must reproduce the first sweep's results bit for bit.  Times are rescaled to
nominal CPU speed (see cpuspeed.py).

With `--trace 0` the last line reports the end-to-end metrics.  With
`--trace 1` untraced and traced sweeps alternate, the last line reports the
per-layer metrics of the traced ones, and `trace.overhead_s` is the traced
minus the untraced median sweep time.  Human-readable lines come first; the
last line of standard output is always one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import cpuspeed
import layertrace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_STARTS = 5  # fresh interpreters timed per run; setup_s is their median
SETUP_CODE = "import gammatrop, gammatrop.periods, gammatrop.tropical"
WORKLOADS = ("k3_sphere", "planar_2d", "curves_1d", "exact_invariants")
END_TO_END = (("sweep_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class Sweep(NamedTuple):
    op_spans: list[tuple[float, float]]  # clock at start and end of each operation
    fingerprint: list[str]  # repr of every result, in operation order
    failures: list[tuple[str, str]]  # (operation key, reason)
    sample_evals: int  # sum of evaluations over returned PeriodSamples


def time_setup(starts: int) -> list[tuple[float, float]]:
    """Clock spans of fresh interpreters that import the package and exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    spans = []
    for _ in range(starts):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True)
        spans.append((start, time.perf_counter()))
    return spans


def run_sweep(ops) -> Sweep:
    """Run every operation once, timed, then check the results untimed."""
    from gammatrop.periods import PeriodSample

    done = {}
    op_spans = []
    clock = time.perf_counter
    for op in ops:
        start = clock()
        try:
            done[op.key] = op.run(done)
        except Exception as exc:  # a raising operation fails; the sweep goes on
            done[op.key] = exc
        op_spans.append((start, clock()))

    failures = []
    sample_evals = 0
    for op in ops:
        result = done[op.key]
        if isinstance(result, Exception):
            failures.append((op.key, f"raised {result!r}"))
            continue
        try:
            reason = op.check(result)
        except Exception as exc:  # a result of the wrong shape fails its check
            reason = f"check raised {exc!r}"
        if reason is not None:
            failures.append((op.key, reason))
        for part in result if isinstance(result, tuple) else (result,):
            if isinstance(part, PeriodSample):
                sample_evals += part.evaluations
    fingerprint = [repr(done[op.key]) for op in ops]
    return Sweep(op_spans, fingerprint, failures, sample_evals)


def nominal_seconds(spans, speed) -> float:
    """Total time of the spans, each rescaled to nominal CPU speed."""
    return sum((end - start) * speed.scale(start, end) for start, end in spans)


def sweep_until(ops, seconds: float, trace: bool):
    """Sweep until `seconds` have passed; alternate traced sweeps if asked.

    Returns the untraced sweeps, the traced ones, and the raw per-layer
    metrics of each traced sweep.
    """
    tracer = layertrace.Tracer()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        plain.append(run_sweep(ops))
        if trace:
            tracer.reset()
            with layertrace.traced(tracer):
                sweep = run_sweep(ops)
            traced.append(sweep)
            layers.append(tracer.metrics(sweep.sample_evals))
    return plain, traced, layers


def layer_metrics(traced, layers, speed, sweep_s: float) -> dict[str, float]:
    """Median per-layer metrics over the traced sweeps, times at nominal speed."""
    out = {}
    factors = [
        nominal_seconds(s.op_spans, speed) / sum(b - a for a, b in s.op_spans)
        for s in traced
    ]
    for name, unit, _ in layertrace.PER_LAYER:
        if name == "trace.overhead_s":
            out[name] = statistics.median(
                nominal_seconds(s.op_spans, speed) for s in traced
            ) - sweep_s
        elif unit == "s":
            out[name] = statistics.median(
                layer[name] * f for layer, f in zip(layers, factors)
            )
        else:
            out[name] = statistics.median(layer[name] for layer in layers)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "gammatrop" / "__init__.py").is_file():
        print(f"bench: no gammatrop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    with cpuspeed.CpuSpeed() as speed:
        setup_spans = time_setup(SETUP_STARTS)
        import workloads

        ops = workloads.build(args.workload, args.seed)
        plain, traced, layers = sweep_until(ops, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    sweeps = plain + traced
    failures = [f for s in sweeps for f in s.failures]
    attempted = len(ops) * len(sweeps)
    consistent = all(s.fingerprint == sweeps[0].fingerprint for s in sweeps)
    setup_s = statistics.median(nominal_seconds([span], speed) for span in setup_spans)
    sweep_s = statistics.median(nominal_seconds(s.op_spans, speed) for s in plain)
    wall_s = statistics.median(sum(b - a for a, b in s.op_spans) for s in plain)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"sweeps {len(plain)} untraced + {len(traced)} traced  "
          f"operations/sweep {len(ops)}")
    print(f"  setup_s          {setup_s:.4f} s      median of {SETUP_STARTS} fresh imports, "
          "at nominal CPU speed")
    print(f"  sweep_s          {sweep_s:.4f} s      median of {len(plain)} untraced sweeps, "
          f"at nominal CPU speed ({wall_s:.4f} s wall)")
    print(f"  integrand_evals  {sweeps[0].sample_evals} count")
    print(f"  failed_frac      {len(failures) / attempted:.4f} ratio  "
          f"{len(failures)} of {attempted} operations")
    print(f"  peak_rss_mb      {peak_rss_mb:.1f} MB")
    for key, reason in failures[:10]:
        print(f"bench: {key} failed: {reason}", file=sys.stderr)
    if not consistent:
        print("bench: sweeps disagree: results of traced, untraced or repeated "
              "sweeps are not bit-identical", file=sys.stderr)

    if args.trace:
        values = layer_metrics(traced, layers, speed, sweep_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in layertrace.PER_LAYER}
        for name, unit, _ in layertrace.PER_LAYER:
            print(f"  {name:48s} {values[name]:.6g} {unit}")
    else:
        values = {"sweep_s": sweep_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({
        "correct": consistent and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
