"""Record the reference estimates the checker holds later versions to.

    python3 perfbench/reference.py --seeds 32

For each compare workload and each vdiam seed 0..N-1 this runs one pass,
applies the oracle checks, and stores every estimate in
perfbench/reference.json. Run it only on the version whose estimates should
become the floor; it writes nothing if an oracle check fails.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, required=True, help="record vdiam seeds 0..N-1")
    args = ap.parse_args(argv)
    workloads.import_vdiam()
    refs: dict = {}
    failures = []
    for name in ("compare-hyperbola", "compare-cone2d"):
        w = workloads.WORKLOADS[name]
        refs[name] = {}
        for seed in range(args.seeds):
            out = {op_name: op() for op_name, op in w.ops(seed).items()}
            failures += [f"{name} seed {seed} {o.op}: {o.detail}" for o in w.check(out, seed, {}) if not o.ok]
            rows = workloads.checker.parse_csv(out["compare"][1])
            refs[name][str(seed)] = {
                f"est_{kind}": [float(r[f"est_{kind}"]) for r in rows] for kind in ("monomial", "cm", "bb")
            }
            print(name, seed, flush=True)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    workloads.REFERENCE_PATH.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
