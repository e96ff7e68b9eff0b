"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload compare-hyperbola --seed 0 --seconds 30 --trace 0

The run drives vdiam's public API and its in-process CLI entry point
`vdiam.cli.run` from outside the package, in this one process, as a closed
loop with a single client: each pass starts when the previous one has ended,
and passes repeat until the next one would overrun `--seconds`. vdiam is
imported from the checkout's `src`; without it the run exits with code 2 and
prints no result.

Set-up is timed before the loop, in fresh processes (`import vdiam`, then
`load_variety` and `validate_noether` of the workload's variety), and
reported as the median of several.

Every time is scaled to a reference machine speed. On small shared hosts the
speed of one core switches between regimes that differ by up to 1.8x over
seconds to minutes, which moves raw pass times by 40% between runs. So a
fixed calibration kernel is timed after each operation of a pass (and in
each set-up process), and each operation's time is multiplied by CAL_REF
over the mean kernel time on either side of it. vdiam does not run in the
kernel, so a change to vdiam moves the scaled time as it moves the raw one.
The detail record keeps the raw times and the kernel times.

The metric names and units come from BENCHMARK.json: with `--trace 0` the
end-to-end metrics, with `--trace 1` the per-layer ones. A traced run
alternates untraced and traced passes, so it can report the tracing
overhead, and writes its spans to perfbench/out/.

The last stdout line is the result (`correct`, `attempted`, `failed`,
`metrics`); the line before it is a detail record with the seed, the
environment, every pass, each metric's quartiles and sample count, and any
failed operations. The exit code is 0 whenever the result line is printed,
also when an operation failed its check: a failure shows as `correct` false
and in `failed`, and is named on stderr. It is 2, with no result line, when
the program or an input is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 7
# Seconds the calibration kernel takes at reference speed. It only sets the
# scale: reported times are raw times on a host where the kernel takes this.
CAL_REF = 0.03

# Runs in a fresh interpreter: argv[1] is the checkout's src, argv[2] the
# variety, argv[3] this directory. After the set-up it times the calibration
# kernel in the same process, which tracks the machine speed better than a
# kernel timed in the parent around the child.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import vdiam
pres, _ = vdiam.load_variety(sys.argv[2])
if not vdiam.validate_noether(pres).valid:
    sys.exit("invalid variety")
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[3])
import run
print(repr(t1 - t0), repr(run.calibrate()))
"""


def calibrate() -> float:
    """Median wall seconds of five runs of a fixed kernel that mixes the
    work vdiam's layers do: rational arithmetic in Python and small numpy
    calls. It uses no BLAS threads, so a change to the thread count of
    OpenBLAS leaves it alone."""
    times = []
    c = np.array([1.0, 0.5, -2.0, 1.0 + 1j])
    for _ in range(5):
        t0 = time.perf_counter()
        x = Fraction(0)
        for i in range(1, 1500):
            x = x * Fraction(i, i + 1) + Fraction(1, i)
        for _ in range(500):
            np.roots(c)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def time_setup(variety: str) -> list[dict]:
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(workloads.ROOT / "src"), variety, str(BENCH_DIR)],
            cwd=workloads.ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        raw, cal = (float(v) for v in proc.stdout.split())
        probes.append({"setup_s": raw * CAL_REF / cal, "raw_setup_s": raw, "cal_s": cal})
    return probes


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def run_pass(workload, seed: int, cal: float, tracer=None) -> tuple[dict, dict, float]:
    """Run one pass's operations in order, each timed on its own and scaled
    by the calibration kernel timed before and after it. `cal` is the last
    kernel time; returns the outputs, the pass's times and the new `cal`."""
    out = {}
    times = {"wall_s": 0.0, "cpu_s": 0.0, "raw_wall_s": 0.0, "raw_cpu_s": 0.0, "cal_s": []}
    for name, op in workload.ops(seed).items():
        c0, w0 = time.process_time(), time.perf_counter()
        out[name] = op()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if tracer is None:
            cal_next = calibrate()
        else:
            with tracer.span("calibration.kernel"):
                cal_next = calibrate()
        scale = 2 * CAL_REF / (cal + cal_next)
        times["wall_s"] += wall * scale
        times["cpu_s"] += cpu * scale
        times["raw_wall_s"] += wall
        times["raw_cpu_s"] += cpu
        times["cal_s"].append(cal_next)
        cal = cal_next
    return out, times, cal


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes until the next would overrun `seconds`; check each one."""
    refs = workloads.load_references()
    tracer = Tracer() if trace else None
    passes, failures = [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    cal = calibrate()
    while True:
        t_pass = time.perf_counter()
        s = seed + len(passes)
        traced = trace and len(passes) % 2 == 1
        layer = None
        if traced:
            with tracer.installed(), tracer.span("bench.pass") as root:
                out, times, cal = run_pass(workload, s, cal, tracer)
            layer = tracer.pass_metrics(root)
        else:
            out, times, cal = run_pass(workload, s, cal)
        outcomes = workload.check(out, s, refs)
        attempted += len(outcomes)
        bad = [o for o in outcomes if not o.ok]
        failed += len(bad)
        failures += [f"seed {s} {o.op}: {o.detail}" for o in bad]
        gap = workloads.checker.cm_mono_gap(out["compare"][1]) if "compare" in out else 0.0
        passes.append({
            "seed": s, "traced": traced, **times, "elapsed_s": time.perf_counter() - t_pass,
            "cm_mono_gap": gap, "layer": layer,
        })
        elapsed = time.perf_counter() - t_start
        both = {p["traced"] for p in passes} == {False, True}
        if elapsed + statistics.median(p["elapsed_s"] for p in passes) > seconds and (not trace or both):
            break
    if trace:
        tracer.dump(
            BENCH_DIR / "out" / f"trace-{workload.name}-seed{seed}.json",
            {"workload": workload.name, "seed": seed},
        )
    return {"passes": passes, "attempted": attempted, "failed": failed, "failures": failures}


def metric_samples(run: dict, trace: bool, setup: list[dict]) -> dict[str, list[float]]:
    """Every metric's samples: one per pass, per set-up probe, or per run."""
    plain = [p for p in run["passes"] if not p["traced"]]
    if not trace:
        return {
            "setup_s": [p["setup_s"] for p in setup],
            "wall_s": [p["wall_s"] for p in plain],
            "cpu_s": [p["cpu_s"] for p in plain],
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        }
    traced = [p for p in run["passes"] if p["traced"]]
    samples = {name: [p["layer"][name] for p in traced] for name in traced[0]["layer"]}
    samples["vdm.fekete.cm_mono_gap"] = [p["cm_mono_gap"] for p in traced]
    samples["trace.overhead_s"] = [
        statistics.median(p["wall_s"] for p in traced) - statistics.median(p["wall_s"] for p in plain)
    ]
    samples["fail_ratio"] = [run["failed"] / run["attempted"]]
    return samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)
    try:
        spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
        workloads.import_vdiam()
    except (OSError, workloads.MissingProgram) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    setup = [] if trace else time_setup(workload.variety)
    run = measure(workload, args.seed, args.seconds, trace)
    samples = metric_samples(run, trace, setup)
    declared = spec["per_layer" if trace else "end_to_end"]
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "setup": setup,
        "passes": [{k: v for k, v in p.items() if k != "layer"} for p in run["passes"]],
        "metrics": {m["name"]: {**summary(samples[m["name"]]), "unit": m["unit"]} for m in declared},
        "failures": run["failures"][:20],
    }
    for line in run["failures"][:20]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            m["name"]: {"value": detail["metrics"][m["name"]]["median"], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
