"""Run every workload, print every named metric, and write a results file.

    python3 perfbench/report.py --seeds 0 1 2 --out perfbench/results/baseline.json

Each (workload, seed, trace mode) pair is one fresh `run.py` process. For
each workload and metric the table gives the unit, the median over runs,
the quartiles, the number of runs and the spread (quartile distance as a
share of the median). The results file holds BENCHMARK.json, every run's
result and detail record (seed and environment included), and the summary.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import summary

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} printed no result:\n{proc.stderr}")
    return {
        "workload": workload, "seed": seed, "trace": trace, "exit_code": proc.returncode,
        "detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1]),
    }


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        s = summary([r["result"]["metrics"][m["name"]]["value"] for r in runs])
        spread = (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else None
        out[m["name"]] = {"unit": m["unit"], **s, "spread": spread}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]

    runs = []
    for seed in args.seeds:
        for name in names:
            for trace in (0, 1):
                runs.append(run_once(name, seed, seconds, trace))
                res = runs[-1]["result"]
                print(f"# {name} seed {seed} trace {trace}: {res['attempted']} operations, {res['failed']} failed", flush=True)

    table = {}
    print(f"{'workload':18} {'metric':32} {'unit':7} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3} {'spread':>7}")
    for name in names:
        table[name] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            mine = [r for r in runs if r["workload"] == name and r["trace"] == trace]
            table[name][key] = summarize(mine, spec[key])
            for metric, s in table[name][key].items():
                spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
                print(f"{name:18} {metric:32} {s['unit']:7} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} {s['n']:3d} {spread:>7}")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    doc = {"benchmark": spec, "seconds": seconds, "seeds": args.seeds, "summary": table, "runs": runs}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["exit_code"] == 0 and r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
