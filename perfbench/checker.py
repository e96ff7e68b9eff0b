"""Per-operation output checks for the benchmark workloads.

An operation is one estimate, one CHECK line of `reproduce-example`, one
compliance verdict, one pivot tuple of `row_scale_bound`, or the one
byte-identity check of `fekete --format csv`. It fails when it raises, exits
with the wrong code, gives a non-finite value, or breaks its oracle:

- a reproduce CHECK line reads FAIL;
- `row_scale_bound` breaks the sandwich on a tuple, misses the determinant
  identity on it by more than `identity_tolerance` allows, or its pivot
  bounds are not m = 1/sqrt2 and Mx = sqrt2 to 1e-12;
- on the hyperbola, est_cm and est_monomial differ by more than 1e-12 (the
  change of basis has determinant of modulus 1 there);
- two identical `fekete --format csv` runs differ in one byte;
- an estimate falls more than TOLERANCE below the reference value recorded
  for the same vdiam seed. The check is one-sided: the search maximizes, so a
  higher verified value is a better answer.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

TOLERANCE = 1e-9
UNITARY_TOL = 1e-12
PIVOT_TOL = 1e-12

REPRODUCE_CHECKS = (
    "noether",
    "infinity",
    "sheet_generators",
    "product_table",
    "star_products",
    "moment_y",
    "normalized_y",
    "orthonormality",
    "scale_bounds",
    "determinant_ratio",
    "count_ratio_k50",
    "count_ratio_k100",
)


@dataclass(frozen=True)
class Outcome:
    op: str
    ok: bool
    detail: str = ""


def parse_csv(text: str) -> list[dict[str, str]]:
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _float(cell: Optional[str]) -> Optional[float]:
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def check_compare(
    code: int,
    text: str,
    *,
    k_max: int,
    kinds: Sequence[str],
    unitary: bool,
    reference: Optional[dict[str, list[float]]] = None,
) -> list[Outcome]:
    """One outcome per (k, kind) estimate of `vdiam compare --format csv`.

    `unitary` applies the est_cm == est_monomial oracle; `reference` maps
    "est_<kind>" to the recorded values for k = 1..k_max."""
    ops = [(k, kind) for k in range(1, k_max + 1) for kind in kinds]
    if code != 0:
        return [Outcome(f"est_{kind}[k={k}]", False, f"exit code {code}") for k, kind in ops]
    rows = {row.get("k"): row for row in parse_csv(text)}
    out = []
    for k, kind in ops:
        row = rows.get(str(k), {})
        col = f"est_{kind}"
        v = _float(row.get(col))
        problem = ""
        if v is None or not math.isfinite(v):
            problem = f"value {row.get(col)!r} is missing or not finite"
        elif unitary and kind == "cm":
            mono = _float(row.get("est_monomial"))
            if mono is None or abs(v - mono) > UNITARY_TOL:
                problem = f"est_cm {v!r} differs from est_monomial {mono!r} by more than {UNITARY_TOL}"
        if not problem and reference is not None:
            ref = reference[col][k - 1]
            if v < ref - TOLERANCE:
                problem = f"{v!r} is below the reference {ref!r}"
        out.append(Outcome(f"{col}[k={k}]", not problem, problem))
    return out


def cm_mono_gap(text: str) -> float:
    """Largest |est_cm - est_monomial| over the rows of a compare CSV."""
    gaps = [
        abs(float(row["est_cm"]) - float(row["est_monomial"]))
        for row in parse_csv(text)
        if "est_cm" in row and "est_monomial" in row
    ]
    return max(gaps, default=0.0)


def check_fekete_pair(
    first: tuple[int, str], second: tuple[int, str], compare_est: Optional[str]
) -> Outcome:
    """Two runs of one `fekete --format csv` command must match byte for byte,
    and their est_lk must equal the estimate `compare` gave for the same
    basis, degree, candidates and seed (`compare_est`, as printed)."""
    (c1, t1), (c2, t2) = first, second
    if c1 != 0 or c2 != 0:
        return Outcome("fekete_bytes", False, f"exit codes {c1}, {c2}")
    if t1.encode() != t2.encode():
        return Outcome("fekete_bytes", False, "the two outputs differ")
    fields = {row.get("field"): row.get("value") for row in parse_csv(t1)}
    est = fields.get("est_lk")
    v = _float(est)
    if v is None or not math.isfinite(v):
        return Outcome("fekete_bytes", False, f"est_lk {est!r} is missing or not finite")
    if est != compare_est:
        return Outcome("fekete_bytes", False, f"est_lk {est} differs from compare's {compare_est}")
    return Outcome("fekete_bytes", True)


def check_reproduce(code: int, text: str) -> list[Outcome]:
    """One outcome per CHECK line of `reproduce-example`. The command exits
    3 when a line reads FAIL, so exit code 3 fails only the FAIL lines; any
    other non-zero code, or 3 with no FAIL line, fails every line."""
    status = {}
    for ln in text.splitlines():
        if ln.startswith("CHECK "):
            name, _, rest = ln[len("CHECK "):].partition(": ")
            status[name] = rest.split(" ", 1)[0]
    bad_code = code != 0 and not (code == 3 and "FAIL" in status.values())
    out = []
    for name in REPRODUCE_CHECKS:
        got = status.get(name)
        if bad_code:
            out.append(Outcome(f"check_{name}", False, f"exit code {code}"))
        elif got != "PASS":
            out.append(Outcome(f"check_{name}", False, f"line reads {got!r}"))
        else:
            out.append(Outcome(f"check_{name}", True))
    return out


def check_compliance(label: str, code: int, text: str, *, compliant: bool) -> Outcome:
    """`vdiam compliance --format csv` must give the expected verdict and the
    exit code that goes with it (0 compliant, 3 not)."""
    want_code = 0 if compliant else 3
    fields = {row.get("field"): row.get("value") for row in parse_csv(text)}
    want = "true" if compliant else "false"
    if code != want_code:
        return Outcome(label, False, f"exit code {code}, expected {want_code}")
    if fields.get("compliant") != want:
        return Outcome(label, False, f"compliant={fields.get('compliant')!r}, expected {want}")
    return Outcome(label, True)


def identity_tolerance(n: int, cond: float) -> float:
    """How far log|det VDM_B| - log|det VDM_C| may sit from the exact pivot
    product on an n-point tuple whose two VDM matrices have condition number
    at most `cond`.

    The library's own tolerance, 1e-10, holds only for well-conditioned
    tuples: at k = 12 about one random tuple in eight misses it on this
    version (error up to 1.4e-5 at condition 1.5e12). LU-based log|det| is
    accurate to about n * eps * cond, so that is the bound used beyond 1e-10;
    over 600 random tuples at k = 6 and k = 12 the error stayed below a tenth
    of it. A wrong pivot moves the identity by log sqrt2 or more, far above
    this bound for any tuple the check can see.
    """
    return max(1e-10, n * sys.float_info.epsilon * cond)


def check_scale_bound(report, n: int, conds: Sequence[float]) -> list[Outcome]:
    """One outcome per tuple of a hyperbola `row_scale_bound` report between
    n-element bases. `conds` holds each tuple's larger VDM condition number;
    `report` is None when the call raised."""
    if report is None:
        return [Outcome(f"pivot_tuple[{j}]", False, "row_scale_bound raised") for j in range(len(conds))]
    bounds_ok = (
        abs(report.m - 1 / math.sqrt(2)) <= PIVOT_TOL and abs(report.Mx - math.sqrt(2)) <= PIVOT_TOL
    )
    out = []
    for j, cond in enumerate(conds):
        problem = ""
        if not bounds_ok:
            problem = f"m = {report.m!r}, Mx = {report.Mx!r}"
        elif j >= len(report.triples):
            problem = "tuple missing from the report"
        else:
            lo, lb, hi = report.triples[j]
            err = report.identity_rel_errors[j]
            if not all(math.isfinite(v) for v in (lo, lb, hi, err)):
                problem = "non-finite determinant"
            elif not lo - 1e-9 <= lb <= hi + 1e-9:
                problem = f"sandwich broken: {lo!r} <= {lb!r} <= {hi!r}"
            elif err > identity_tolerance(n, cond):
                problem = f"determinant identity off by {err!r} at condition {cond:.3g}"
        out.append(Outcome(f"pivot_tuple[{j}]", not problem, problem))
    return out
