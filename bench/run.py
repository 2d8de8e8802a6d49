"""czlab benchmark runner.

    python3 bench/run.py --workload {sweep,hilbert,weak,certify}
                         [--seed N] [--seconds S] [--trace 0|1]

Runs one workload in this fresh, single-threaded process (BLAS threads pinned
to 1), repeating the workload's calls until --seconds have passed, then
checks the outputs outside the timed region.  It prints one line per metric
(name, value, unit) and, as the last line, a JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-module metrics with --trace 1.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

# Pin BLAS to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import spans  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 7

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
    "norm_geomean": "ratio",
}

# Spans: each yields <name>.calls and <name>.self_s.
SPANS = (
    "shifts.HaarShift.apply",
    "shifts.HaarShift.truncation",
    "shifts.HaarShift.adjoint",
    "shifts.build_random_shift",
    "shifts.build_petermichl",
    "shifts.hilbert_average",
    "shifts.hilbert_direct",
    "normlab.norm_lp_lower",
    "normlab.norm_p2",
    "normlab.weak_norm_estimate",
    "normlab.sharpness_sweep",
    "dyadics.level_integrals",
    "dyadics.repeat_to_cells",
    "characteristics.ap_characteristic",
    "characteristics.joint_ap",
    "characteristics.dual_weight",
    "characteristics.maximal_function",
    "characteristics.ainfty_characteristic.dyadic",
    "characteristics.ainfty_characteristic.centered",
    "positive.sawyer_testing",
    "positive.apply_positive",
    "lerner.lerner_decompose",
    "lerner.median",
    "lerner.oscillation",
    "lerner.local_sharp_maximal",
    "stopping.build_stopping_family",
    "stopping.stopping_children",
    "families.generate",
    "config.parse_config",
    "cli.run",
)
# Counters recorded by the wrappers; all must repeat exactly between runs.
COUNTERS = {
    "shifts.apply.bytes_computed": "B",
    "normlab.norm_lp_lower.evals": "count",
    "normlab.norm_p2.iterations": "count",
    "normlab.norm_p2.nonconvergence": "count",
    "dyadics.StepFunction.init.calls": "count",
    "lerner.generation_cubes": "count",
    "stopping.family_cubes": "count",
}
RATIOS = {
    "normlab.op_apps_per_estimate": "count",
    "normlab.norm_p2.distinct_frac": "frac",
    "dyadics.level_integrals.cache_hit_frac": "frac",
}
TRACE_SUMMARY = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.span_cover_frac": "frac",
}


def per_layer_units() -> dict:
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    units.update(RATIOS)
    units.update(TRACE_SUMMARY)
    return units


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure for this long; at least one repetition")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, prepare the inputs and exit (times set-up)")
    return parser.parse_args(argv)


def _setup_seconds(args) -> float:
    """Median wall time of fresh processes that only import czlab and
    prepare the workload's inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--setup-only"]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _repetition(prepared, out_dir):
    t0 = time.perf_counter()
    result = prepared.run(out_dir)
    return time.perf_counter() - t0, result


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _geomean(values) -> float:
    # the empty product: workloads that certify no norm report 1
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 1.0


def _traced_metrics(tracer, marks, walls_traced, walls_untraced):
    """Per-module metrics from the span table; counts from the first traced
    repetition, times as the median over traced repetitions."""
    cols = tracer.columns()
    name, start, end, parent = cols["name"], cols["start_ns"], cols["end_ns"], cols["parent"]
    own = spans.self_times(start, end, parent)
    ids = {n: i for i, n in enumerate(tracer.names)}
    per_rep = []
    for (lo, hi), counts in marks:
        rep = {}
        sl = slice(lo, hi)
        for span in SPANS:
            hit = name[sl] == ids.get(span, -1)
            rep[f"{span}.calls"] = int(hit.sum())
            rep[f"{span}.self_s"] = float(own[sl][hit].sum()) / 1e9
        for key in COUNTERS:
            rep[key] = int(counts.get(key, 0))
        li_calls = rep["dyadics.level_integrals.calls"]
        rep["dyadics.level_integrals.cache_hit_frac"] = (
            counts.get("dyadics.level_integrals.hits", 0) / li_calls if li_calls else 0.0)
        p2_calls = rep["normlab.norm_p2.calls"]
        rep["normlab.norm_p2.distinct_frac"] = (
            counts.get("normlab.norm_p2.distinct", 0) / p2_calls if p2_calls else 0.0)
        estimates = counts.get("normlab.estimates", 0)
        rep["normlab.op_apps_per_estimate"] = (
            counts.get("normlab.op_apps_under_norm", 0) / estimates if estimates else 0.0)
        roots = parent[sl] < 0
        rep["root_ns"] = int((end[sl][roots] - start[sl][roots]).sum())
        per_rep.append(rep)

    first = per_rep[0]
    metrics = {}
    for key, value in first.items():
        if key.endswith(".self_s"):
            metrics[key] = statistics.median(r[key] for r in per_rep)
        elif key != "root_ns":
            metrics[key] = value
    count_keys = [k for k in first if k.endswith(".calls") or k in COUNTERS]
    deterministic = all(r[k] == first[k] for r in per_rep for k in count_keys)
    traced = statistics.median(walls_traced)
    untraced = statistics.median(walls_untraced)
    metrics["trace.wall_s"] = traced
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.span_cover_frac"] = statistics.median(
        r["root_ns"] / 1e9 / w for r, w in zip(per_rep, walls_traced))
    return metrics, deterministic


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "czlab", "__init__.py")):
        print(f"czlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import czlab
    import workloads

    if os.path.dirname(os.path.abspath(czlab.__file__)) != os.path.join(SRC, "czlab"):
        print(f"imported czlab from {czlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    prepared = workloads.prepare(args.workload, args.seed)
    if args.setup_only:
        return 0

    setup_s = _setup_seconds(args)
    out_dir = os.path.join(BENCH_DIR, "out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    results, walls = [], []
    traced_walls, marks = [], []
    tracer = spans.Tracer()
    # --trace 1 runs traced and untraced repetitions in the order T U T, so a
    # steady drift in machine speed cancels from the overhead, and two traced
    # repetitions can be compared; more pairs follow while time remains.
    schedule = ["traced", "plain", "traced"] if args.trace else ["plain"]
    extra = ["plain", "traced"] if args.trace else ["plain"]
    t_start = time.perf_counter()
    while schedule:
        kind = schedule.pop(0)
        rep_dir = os.path.join(out_dir, f"rep{len(results)}")
        if kind == "plain":
            wall, result = _repetition(prepared, rep_dir)
            walls.append(wall)
        else:
            tracer.reset_counts()
            lo = tracer.mark()
            undo = spans.install(tracer)
            try:
                wall, result = _repetition(prepared, rep_dir)
            finally:
                spans.uninstall(undo)
            marks.append(((lo, tracer.mark()), dict(tracer.counts)))
            traced_walls.append(wall)
        results.append(result)
        if not schedule and time.perf_counter() - t_start < args.seconds:
            schedule = list(extra)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    items = prepared.check(results[0])
    items.append(("outputs repeat across repetitions",
                  all(r.fingerprint == results[0].fingerprint for r in results[1:])))
    if args.trace:
        per_layer, deterministic = _traced_metrics(tracer, marks, traced_walls, walls)
        items.append(("traced counters repeat across repetitions", deterministic))
        np.savez(os.path.join(out_dir, "spans.npz"), names=np.array(tracer.names),
                 **tracer.columns())
    failed = sum(1 for _, ok in items if not ok)
    for item, ok in items:
        if not ok:
            print(f"FAILED CHECK: {item}")

    lo, hi = _quartiles(walls)
    end_to_end = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "pass_frac": (len(items) - failed) / len(items),
        "norm_geomean": _geomean(results[0].norms),
    }
    print(f"workload {prepared.name}  seed {prepared.seed}  checks {len(items) - failed}/{len(items)}"
          f"  untraced repetitions [{', '.join(f'{w:.4f}' for w in walls)}] s"
          f"  quartiles [{lo:.4f}, {hi:.4f}] s"
          f"  traced repetitions [{', '.join(f'{w:.4f}' for w in traced_walls)}] s")
    report = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end.items()}
    if args.trace:
        report.update({k: (per_layer[k], u) for k, u in per_layer_units().items()})
    for key, (value, unit) in report.items():
        print(f"{key:52s} {value!r:>24} {unit}")
    chosen = per_layer if args.trace else end_to_end
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(items),
        "failed": failed,
        "metrics": {k: {"value": chosen[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
