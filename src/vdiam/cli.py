"""Command line interface.

Exit codes: 0 success, 1 invalid input, 2 numeric failure,
3 a requested check or verdict came out false.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .bases import (
    CmConstructionError,
    QuadratureError,
    bb_basis,
    cm_basis,
    cm_generators,
    default_quadrature_n,
    gram,
    inner_product,
    monomial_graded_basis,
    torus_quadrature,
    verify_cm_products,
)
from .families import (
    UnsupportedFamilyShape,
    check_compliant,
    family_for,
    parse_family,
)
from .polyring import Polynomial, PolyParseError, parse_polynomial, star
from .scalars import Exact
from .variety import (
    asymptotic_ratios,
    count,
    count_table,
    decompose_A,
    distinct_infinity_check,
    load_variety,
    validate_noether,
)
from .vdm import (
    FeketeError,
    build_basis,
    compare_bases,
    fekete_maximize,
    file_sampler,
    random_variety_points,
    row_scale_bound,
    segment_sampler,
    torus_sampler,
)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.12g" % v
    if isinstance(v, complex):
        return "%.12g%+.12gj" % (v.real, v.imag)
    return str(v)


def _emit(rows: list[dict], columns: list[str], fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(rows, indent=2, default=_fmt) + "\n")
        return
    cells = [[_fmt(r.get(c, "")) for c in columns] for r in rows]
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
        for row in cells:
            out.write(",".join(row) + "\n")
        return
    widths = [max(len(c), *(len(row[i]) for row in cells)) if cells else len(c) for i, c in enumerate(columns)]
    out.write("  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip() + "\n")
    for row in cells:
        out.write("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n")


def _emit_pairs(pairs: list[tuple[str, object]], fmt: str, out) -> None:
    _emit([{"field": k, "value": v} for k, v in pairs], ["field", "value"], fmt, out)


def _display_poly(p: Polynomial) -> str:
    if p.mode == "exact" or p.is_zero():
        return str(p)
    mx = max(abs(c) for _, c in p.items())
    kept = {m: c for m, c in p.items() if abs(c) > 1e-11 * mx}
    return str(Polynomial(kept, p.nx, p.nvars, "float"))


def _sampler_from_spec(pres, spec: str):
    # the samplers lift without validating; an invalid presentation is
    # invalid input (exit 1) here as it is for every basis
    decompose_A(pres)
    kind, _, arg = spec.partition(":")
    if kind == "torus":
        return torus_sampler(pres, int(arg) if arg else 128)
    if kind == "segment":
        return segment_sampler(pres, int(arg) if arg else 128)
    if kind == "file":
        if not arg:
            raise ValueError("file sampler needs a path: file:PATH")
        return file_sampler(pres, arg)
    raise ValueError(f"unknown sampler {spec!r}; expected torus[:n], segment[:n], or file:PATH")


def _cm_gens(pres, extras):
    return cm_generators(pres, extras.get("v_polys"))


def _family_from_spec(pres, extras, spec: str, n: int):
    if spec in ("monomial", "cm"):
        gens = _cm_gens(pres, extras) if spec == "cm" else None
        return family_for(pres, spec, gens=gens)
    if spec == "bb":
        return family_for(pres, "bb", quad=torus_quadrature(pres, n))
    if spec.startswith("family:"):
        name = spec.split(":", 1)[1]
        fams = extras.get("families") or {}
        if name not in fams:
            raise ValueError(f"variety file defines no family named {name!r}")
        return parse_family(pres, fams[name], label=name)
    raise ValueError(f"unknown family spec {spec!r}; expected monomial, cm, bb, or family:NAME")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args, out) -> int:
    pres, _ = load_variety(args.variety)
    rep = validate_noether(pres)
    pairs: list[tuple[str, object]] = [
        ("valid", rep.valid),
        ("problems", "; ".join(rep.problems) or "-"),
        ("m_degrees", " ".join(map(str, rep.m_degrees)) or "-"),
        ("d", rep.d if rep.d is not None else "-"),
        ("spoly_ok", rep.spoly_ok if rep.spoly_ok is not None else "-"),
    ]
    verdict = rep.valid
    if rep.valid and len(pres.generators) == 1:
        inf = distinct_infinity_check(pres)
        pairs += [
            ("infinity_points", len(inf.points)),
            ("infinity_distinct", inf.distinct),
            ("xM_nonzero", inf.xM_nonzero),
            ("min_chordal", inf.min_chordal),
        ]
        for i, (xm, y) in enumerate(inf.points, start=1):
            pairs.append((f"point_{i}", f"[0 : {_fmt(xm)} : {_fmt(y)}]"))
        verdict = verdict and inf.verdict
    _emit_pairs(pairs, args.format, out)
    return 0 if verdict else 3


def _basis_from_args(pres, extras, args, quad=None):
    """`build_basis` for `--kind` and `--k`, with the file's sheet generators
    for cm and, unless `quad` is given, the `--n` quadrature for bb kinds."""
    # cm_generators and the quadrature fail on an invalid presentation with
    # numeric errors (exit 2); it is invalid input (exit 1) for every kind
    decompose_A(pres)
    if quad is None and args.n and args.kind in ("bb", "bb_structured"):
        quad = torus_quadrature(pres, args.n)
    gens = _cm_gens(pres, extras) if args.kind == "cm" else None
    return build_basis(pres, args.kind, args.k, gens=gens, quad=quad)


def _cmd_basis(args, out) -> int:
    pres, extras = load_variety(args.variety)
    basis = _basis_from_args(pres, extras, args)
    rows = [
        {"index": i, "degree": d, "element": _display_poly(e)}
        for i, (e, d) in enumerate(zip(basis.elements, basis.degrees), start=1)
    ]
    _emit(rows, ["index", "degree", "element"], args.format, out)
    return 0


def _cmd_counts(args, out) -> int:
    pres, _ = load_variety(args.variety)
    rows = []
    for rec in count_table(pres, args.k_max):
        row = {
            "k": rec.k,
            "N_eq": rec.N_eq,
            "N": rec.N,
            "l": rec.l,
            "Nx": rec.Nx,
            "lx": rec.lx,
        }
        if rec.k >= 1:
            row["N_over_l"] = rec.N / rec.l
            row["kN_over_l"] = rec.k * rec.N / rec.l
        rows.append(row)
    _emit(rows, ["k", "N_eq", "N", "l", "Nx", "lx", "N_over_l", "kN_over_l"], args.format, out)
    return 0


def _cmd_compliance(args, out) -> int:
    pres, extras = load_variety(args.variety)
    left = _family_from_spec(pres, extras, args.left, args.n or 1024)
    right = _family_from_spec(pres, extras, args.right, args.n or 1024)
    v = check_compliant(left, right)
    pairs: list[tuple[str, object]] = [
        ("compliant", v.compliant),
        ("reason", v.reason),
    ]
    for tag, diff, core in (
        ("left_minus_right", v.diff_left, v.core_left),
        ("right_minus_left", v.diff_right, v.core_right),
    ):
        for i, c in enumerate(diff.cosets, start=1):
            pairs.append((f"{tag}_coset_{i}", c.describe()))
        for i, f in enumerate(diff.finite, start=1):
            pairs.append((f"{tag}_extra_{i}", _display_poly(f)))
        if not diff.cosets and not diff.finite:
            pairs.append((f"{tag}", "empty"))
        if core.found:
            pairs.append((f"{tag}_core_t", core.t))
            if core.variables is not None:
                pairs.append(
                    (f"{tag}_core_vars", " ".join(sorted(f"x{v + 1}" for v in core.variables)) or "-")
                )
    _emit_pairs(pairs, args.format, out)
    return 0 if v.compliant else 3


def _cmd_gram(args, out) -> int:
    pres, extras = load_variety(args.variety)
    n = args.n or 1024
    decompose_A(pres)  # before the quadrature lifts, as in _basis_from_args
    quad = torus_quadrature(pres, n)
    basis = _basis_from_args(pres, extras, args, quad)
    g = gram(basis.elements, quad)
    eye = np.eye(g.shape[0])
    off = g - np.diag(np.diag(g))
    pairs = [
        ("kind", basis.kind),
        ("k", args.k),
        ("n", n),
        ("size", g.shape[0]),
        ("max_offdiag_abs", float(np.max(np.abs(off))) if g.shape[0] > 1 else 0.0),
        ("max_diag_err", float(np.max(np.abs(np.diag(g).real - 1.0)))),
        ("max_identity_err", float(np.max(np.abs(g - eye)))),
    ]
    _emit_pairs(pairs, args.format, out)
    return 0


def _cmd_fekete(args, out) -> int:
    pres, extras = load_variety(args.variety)
    basis = _basis_from_args(pres, extras, args)
    sampler = _sampler_from_spec(pres, args.sampler)
    res = fekete_maximize(basis, sampler, seed=args.seed, starts=args.starts)
    rec = count(pres, args.k)
    pairs: list[tuple[str, object]] = [
        ("kind", basis.kind),
        ("k", args.k),
        ("candidates", len(sampler)),
        ("tuple_size", len(basis)),
        ("log_abs_vdm", res.log_abs),
        ("est_lk", res.log_abs / rec.l),
        ("est_kNk", res.log_abs / (args.k * rec.N)),
        ("sweeps", res.sweeps),
        ("starts", res.starts),
        ("indices", " ".join(map(str, res.indices))),
    ]
    for rank, i in enumerate(res.indices, start=1):
        coords = ", ".join(_fmt(complex(z)) for z in sampler.points[i])
        pairs.append((f"point_{rank}", f"({coords})"))
    _emit_pairs(pairs, args.format, out)
    return 0


def _cmd_compare(args, out) -> int:
    pres, extras = load_variety(args.variety)
    sampler = _sampler_from_spec(pres, args.sampler)
    kinds = ["monomial"]
    gens = None
    try:
        gens = _cm_gens(pres, extras)
        kinds.append("cm")
    except CmConstructionError:
        pass
    kinds.append("bb")
    quad = torus_quadrature(pres, args.n or default_quadrature_n(args.k_max))
    rep = compare_bases(
        pres,
        kinds,
        args.k_max,
        sampler,
        gens=gens,
        quad=quad,
        seed=args.seed,
        starts=args.starts,
    )
    rows = []
    for i, k in enumerate(rep.k_values):
        row = {"k": k}
        for kind in rep.kinds:
            row[f"est_{kind}"] = rep.estimates[kind][i].est_lk
        row["spread"] = rep.spreads[i]
        rows.append(row)
    cols = ["k"] + [f"est_{kind}" for kind in rep.kinds] + ["spread"]
    _emit(rows, cols, args.format, out)
    out.write(f"spread nonincreasing: {_fmt(rep.nonincreasing)}\n" if args.format == "table" else "")
    return 0


# ---------------------------------------------------------------------------
# worked-example reproduction


def reproduce_example(n: int = 4096, seed: int = 0) -> tuple[bool, list[str]]:
    """Re-derive the hyperbola walkthrough end to end; every line is a named
    checkpoint.  Returns (all_passed, lines)."""
    lines: list[str] = []
    ok_all = True

    def check(name: str, ok: bool, detail: str):
        nonlocal ok_all
        ok_all = ok_all and ok
        lines.append(f"CHECK {name}: {'PASS' if ok else 'FAIL'} ({detail})")

    pres, extras = load_variety("hyperbola")
    rep = validate_noether(pres)
    check("noether", rep.valid and rep.d == 2, f"valid={rep.valid}, d={rep.d}")
    inf = distinct_infinity_check(pres)
    roots_ok = inf.exact_roots == (Exact(1), Exact(-1))
    check("infinity", inf.verdict and roots_ok, "roots at infinity are +1, -1" if roots_ok else f"roots {inf.exact_roots}")

    gens = cm_generators(pres, extras.get("v_polys"))
    v1_expect = parse_polynomial("(y1 - x1)/sqrt2", 1, 2)
    v2_expect = parse_polynomial("(y1 + x1)/sqrt2", 1, 2)
    check(
        "sheet_generators",
        gens.vs == (v1_expect, v2_expect),
        f"v1 = {gens.vs[0]}, v2 = {gens.vs[1]}",
    )
    verify = verify_cm_products(pres, gens)
    check("product_table", verify.ok, "x1^2 coefficients of star(v_i, v_j) form the identity")
    p11 = star(gens.vs[0], gens.vs[0], pres.generators)
    p22 = star(gens.vs[1], gens.vs[1], pres.generators)
    p12 = star(gens.vs[0], gens.vs[1], pres.generators)
    e11 = parse_polynomial("x1^2 - x1*y1 + 1/2", 1, 2)
    e22 = parse_polynomial("x1^2 + x1*y1 + 1/2", 1, 2)
    e12 = parse_polynomial("1/2", 1, 2)
    check(
        "star_products",
        p11 == e11 and p22 == e22 and p12 == e12,
        f"v1*v1 = {p11}; v2*v2 = {p22}; v1*v2 = {p12}",
    )

    quad = torus_quadrature(pres, n)
    y = Polynomial.variable(1, 1, 2, "float")
    yy = inner_product(y, y, quad).real
    err_yy = abs(yy - 4.0 / math.pi)
    check("moment_y", err_yy <= 1e-6, f"<y,y> = {_fmt(yy)}, |err| = {_fmt(err_yy)} at n={n}")
    bb1 = bb_basis(pres, 1, quad)
    coef = abs(complex(bb1.elements[2].coefficient((0, 1))))
    target = math.sqrt(math.pi) / 2.0
    err_c = abs(coef - target)
    check("normalized_y", err_c <= 1e-6, f"y-coefficient {_fmt(coef)} vs sqrt(pi)/2 = {_fmt(target)}, |err| = {_fmt(err_c)}")
    g3 = gram(bb_basis(pres, 3, quad).elements, quad)
    gerr = float(np.max(np.abs(g3 - np.eye(g3.shape[0]))))
    check("orthonormality", gerr <= 1e-10, f"max |G - I| = {_fmt(gerr)} at k=3")

    cmb = cm_basis(pres, 6, gens)
    mb = monomial_graded_basis(pres, 6)
    tuples = [
        random_variety_points(pres, len(mb), seed=seed + i).points for i in range(5)
    ]
    rsb = row_scale_bound(cmb, mb, tuples)
    check(
        "scale_bounds",
        abs(rsb.m - 1 / math.sqrt(2)) < 1e-12 and abs(rsb.Mx - math.sqrt(2)) < 1e-12,
        f"m = {_fmt(rsb.m)}, Mx = {_fmt(rsb.Mx)}",
    )
    check(
        "determinant_ratio",
        rsb.identity_ok and rsb.sandwich_ok,
        f"log|VDM_cm| - log|VDM_mono| = {_fmt(rsb.log_abs_det)} = pivot-modulus product on 5 tuples (rel err <= {_fmt(max(rsb.identity_rel_errors))})",
    )

    _, kn_over_l = asymptotic_ratios(pres, 50)
    check("count_ratio_k50", abs(kn_over_l - 2.0) < 0.05, f"k*N/l = {_fmt(kn_over_l)} at k=50")
    n_over_l, kn2 = asymptotic_ratios(pres, 100)
    err_ratio = abs(1.0 / kn2 - 0.5)
    check("count_ratio_k100", err_ratio < 0.01, f"l/(k*N) = {_fmt(1.0 / kn2)} at k=100, |err| = {_fmt(err_ratio)}")
    return ok_all, lines


def _cmd_reproduce(args, out) -> int:
    ok, lines = reproduce_example(n=args.n or 4096, seed=args.seed)
    for ln in lines:
        out.write(ln + "\n")
    out.write(f"RESULT: {'PASS' if ok else 'FAIL'}\n")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# parser and dispatch


def _at_least(lo: int):
    """argparse type: an integer no smaller than `lo`."""

    def parse(text: str) -> int:
        v = int(text)
        if v < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {v}")
        return v

    parse.__name__ = "int"  # argparse's "invalid int value" names the type
    return parse


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vdiam",
        description="Transfinite diameter estimation on affine varieties via Vandermonde maximization.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, *, k_min=None, k_max_min=None, kind=False, sampler=False):
        p.add_argument("--variety", default="hyperbola", help="variety file path or bundled name")
        p.add_argument("--n", type=_at_least(1), default=None, help="quadrature nodes per circle")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--starts", type=_at_least(1), default=1)
        p.add_argument("--format", choices=["table", "csv", "json"], default="table")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")
        if k_min is not None:
            p.add_argument("--k", type=_at_least(k_min), default=3)
        if k_max_min is not None:
            p.add_argument("--k-max", dest="k_max", type=_at_least(k_max_min), default=8)
        if kind:
            p.add_argument(
                "--kind",
                choices=["monomial", "cm", "bb", "bb_structured"],
                default="monomial",
            )
        if sampler:
            p.add_argument("--sampler", default="torus:128", help="torus[:n], segment[:n], or file:PATH")

    common(sub.add_parser("validate", help="check the presentation and its points at infinity"))
    common(sub.add_parser("basis", help="list the elements of a graded basis"), k_min=0, kind=True)
    common(sub.add_parser("counts", help="dimension counts and their ratios"), k_max_min=0)
    p = sub.add_parser("compliance", help="compare two basis families")
    common(p)
    p.add_argument("--left", default="monomial", help="monomial | cm | bb | family:NAME")
    p.add_argument("--right", default="cm", help="monomial | cm | bb | family:NAME")
    common(sub.add_parser("gram", help="Gram matrix of a basis in the torus quadrature"), k_min=0, kind=True)
    common(sub.add_parser("fekete", help="maximize |det VDM| over candidate tuples"), k_min=1, kind=True, sampler=True)
    common(sub.add_parser("compare", help="diameter estimates across bases"), k_max_min=1, sampler=True)
    common(sub.add_parser("reproduce-example", help="re-derive the hyperbola walkthrough"))
    return ap


_COMMANDS = {
    "validate": _cmd_validate,
    "basis": _cmd_basis,
    "counts": _cmd_counts,
    "compliance": _cmd_compliance,
    "gram": _cmd_gram,
    "fekete": _cmd_fekete,
    "compare": _cmd_compare,
    "reproduce-example": _cmd_reproduce,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    sink = None
    try:
        out = sys.stdout
        if args.out:
            sink = open(args.out, "w")
            out = sink
        return _COMMANDS[args.command](args, out)
    except (UnsupportedFamilyShape, QuadratureError, FeketeError, CmConstructionError, np.linalg.LinAlgError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (PolyParseError, FileNotFoundError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        if sink is not None:
            sink.close()


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
