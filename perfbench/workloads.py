"""The benchmark's workloads, each one pass of operations on vdiam.

A workload maps a seed to its pass: named operations, run in order, each a
thunk whose result the workload's check function reads. A run repeats
passes until its time is up. Pass i of a run with seed s uses the vdiam
seed s + i. The seed reaches vdiam only as generated inputs: the `--seed` of
the CLI commands and the seeds of `random_variety_points`. Only the two
`compliance` runs take no seed, so they repeat their inputs in every pass.

- compare-hyperbola is bound by the Fekete search (the `vdm` layer). Its
  three bases share one candidate set.
- compare-cone2d is bound by sheet lifting in `torus_quadrature` (the
  `bases` layer). It is the only M = 2 variety, and its monomial and cm
  searches end at different maxima, so it witnesses search quality.
- exact-hyperbola is bound by exact arithmetic (the `scalars` layer) and
  has no Fekete search. It lifts single points through
  `random_variety_points` and is the only workload that touches `families`.
"""

from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checker

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


class MissingProgram(RuntimeError):
    pass


def import_vdiam():
    """Import vdiam from the checkout's `src`, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "vdiam" / "__init__.py").is_file():
        raise MissingProgram(f"no vdiam package under {src}")
    sys.path.insert(0, str(src))
    import vdiam
    import vdiam.cli

    if Path(vdiam.__file__).resolve().parent != src / "vdiam":
        raise MissingProgram(f"imported vdiam from {vdiam.__file__}, not from {src}")
    return vdiam


def cli(argv: list[str]) -> tuple[int, str]:
    """Run the in-process CLI entry point; return its exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = sys.modules["vdiam.cli"].run(argv)
    except Exception as e:  # a raising command counts as a failed operation
        return -1, repr(e)
    return code, out.getvalue()


@dataclass(frozen=True)
class Workload:
    name: str
    variety: str
    ops: Callable[[int], dict[str, Callable[[], object]]]
    check: Callable[[dict, int, dict], list]


def _compare_argv(variety: str, k_max: int, sampler: str, seed: int, *extra: str) -> list[str]:
    return [
        "compare", "--variety", variety, "--k-max", str(k_max), "--sampler", sampler,
        "--starts", "4", "--seed", str(seed), "--format", "csv", *extra,
    ]


_KINDS = ("monomial", "cm", "bb")
_FEKETE = ["fekete", "--kind", "cm", "--k", "16", "--sampler", "torus:256", "--starts", "4", "--format", "csv"]


def _ops_compare_hyperbola(seed: int) -> dict:
    fekete = _FEKETE + ["--seed", str(seed)]
    return {
        "compare": lambda: cli(_compare_argv("hyperbola", 16, "torus:256", seed)),
        "fekete_1": lambda: cli(fekete),
        "fekete_2": lambda: cli(fekete),
    }


def _check_compare_hyperbola(out: dict, seed: int, refs: dict) -> list:
    code, text = out["compare"]
    outcomes = checker.check_compare(
        code, text, k_max=16, kinds=_KINDS, unitary=True,
        reference=refs.get("compare-hyperbola", {}).get(str(seed)),
    )
    row16 = next((r for r in checker.parse_csv(text) if r.get("k") == "16"), {})
    outcomes.append(checker.check_fekete_pair(out["fekete_1"], out["fekete_2"], row16.get("est_cm")))
    return outcomes


def _ops_compare_cone2d(seed: int) -> dict:
    # 128 quadrature nodes per circle (16,384 lifted x-nodes) rather than the
    # default 256: a pass then takes a quarter of the time, so a run holds
    # enough passes for a steady median, and lifting still dominates.
    return {"compare": lambda: cli(_compare_argv("cone2d", 4, "torus:16", seed, "--n", "128"))}


def _check_compare_cone2d(out: dict, seed: int, refs: dict) -> list:
    code, text = out["compare"]
    return checker.check_compare(
        code, text, k_max=4, kinds=_KINDS, unitary=False,
        reference=refs.get("compare-cone2d", {}).get(str(seed)),
    )


_SCALE_K = 12
_SCALE_TUPLES = 5


def _scale_bound(seed: int) -> dict:
    vdiam = sys.modules["vdiam"]
    try:
        pres, _ = vdiam.load_variety("hyperbola")
        cm = vdiam.cm_basis(pres, _SCALE_K)
        mono = vdiam.monomial_graded_basis(pres, _SCALE_K)
        tuples = [
            vdiam.random_variety_points(pres, len(mono), seed=_SCALE_TUPLES * seed + j).points
            for j in range(_SCALE_TUPLES)
        ]
        return {"report": vdiam.row_scale_bound(cm, mono, tuples), "inputs": (cm, mono, tuples)}
    except Exception as e:  # a raising operation counts as failed, not as a crash
        return {"report": None, "error": repr(e)}


def _ops_exact_hyperbola(seed: int) -> dict:
    compliance = ["compliance", "--variety", "hyperbola", "--left", "monomial", "--format", "csv", "--right"]
    return {
        "reproduce": lambda: cli(["reproduce-example", "--seed", str(seed)]),
        "compliance_cm": lambda: cli(compliance + ["cm"]),
        "compliance_scaled2": lambda: cli(compliance + ["family:scaled2"]),
        "scale_bound": lambda: _scale_bound(seed),
    }


def _check_exact_hyperbola(out: dict, seed: int, refs: dict) -> list:
    return (
        checker.check_reproduce(*out["reproduce"])
        + [
            checker.check_compliance("compliance_cm", *out["compliance_cm"], compliant=True),
            checker.check_compliance("compliance_scaled2", *out["compliance_scaled2"], compliant=False),
        ]
        + checker.check_scale_bound(out["scale_bound"]["report"], *_conditions(out["scale_bound"]))
    )


def _conditions(scale_bound: dict) -> tuple[int, list[float]]:
    """The basis length and each tuple's larger VDM condition number."""
    if "inputs" not in scale_bound:
        return 0, [math.inf] * _SCALE_TUPLES
    vdiam = sys.modules["vdiam"]
    cm, mono, tuples = scale_bound["inputs"]
    return len(mono), [
        max(np.linalg.cond(vdiam.vdm_matrix(cm, t)), np.linalg.cond(vdiam.vdm_matrix(mono, t)))
        for t in tuples
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compare-hyperbola", "hyperbola",
            _ops_compare_hyperbola, _check_compare_hyperbola,
        ),
        Workload(
            "compare-cone2d", "cone2d",
            _ops_compare_cone2d, _check_compare_cone2d,
        ),
        Workload(
            "exact-hyperbola", "hyperbola",
            _ops_exact_hyperbola, _check_exact_hyperbola,
        ),
    )
}


def load_references() -> dict:
    return json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.is_file() else {}
