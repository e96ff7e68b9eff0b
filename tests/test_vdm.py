"""Samplers, Vandermonde evaluation, Fekete search, and scale bounds."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from vdiam import (
    FeketeError,
    QuadratureSpec,
    VarietyPresentation,
    bb_basis,
    bb_structured,
    brute_force_max,
    cm_basis,
    count,
    default_quadrature_n,
    diameter_sequence,
    fekete_maximize,
    file_sampler,
    gram,
    load_variety,
    log_abs_vdm,
    monomial_graded_basis,
    points_sampler,
    random_variety_points,
    row_scale_bound,
    segment_sampler,
    torus_quadrature,
    torus_sampler,
    vdm_matrix,
)
from vdiam.bases import QuadratureError
from vdiam.polyring import Polynomial, parse_polynomial
from vdiam.scalars import SQRT2, Exact
import vdiam.bases as bases
import vdiam.vdm as vdm
from vdiam.vdm import (
    _change_of_basis_pivots,
    _coef_rows,
    _greedy_init,
    _monomial_columns,
    _sweep_to_convergence,
    build_basis,
    compare_bases,
)

HYP, _ = load_variety("hyperbola")
# cone2d with the automatic sheet generators, not its file's
CONE = replace(load_variety("cone2d")[0], v_polys=None)
C1 = VarietyPresentation(M=1, N=1, generators=())


def on_variety(pres, pts):
    return all(
        max(abs(g.evaluate(pts[i : i + 1])[0]) for g in pres.generators) < 1e-8
        for i in range(len(pts))
    ) if pres.generators else True


# ---------------------------------------------------------------------------
# samplers


def test_torus_sampler_lands_on_variety():
    s = torus_sampler(HYP, 32)
    assert s.points.shape == (64, 2)  # 32 nodes x 2 sheets
    assert on_variety(HYP, s.points)
    # x coordinates sit on the unit circle
    assert np.max(np.abs(np.abs(s.points[:, 0]) - 1.0)) < 1e-12


def test_segment_sampler_is_real():
    s = segment_sampler(HYP, 16)
    assert s.points.shape == (32, 2)
    assert np.max(np.abs(s.points.imag)) < 1e-12
    assert on_variety(HYP, s.points)


@pytest.mark.parametrize("shape", [(3, 3), (2,), (1, 2, 2)])
def test_points_sampler_refuses_a_wrong_shape(shape):
    with pytest.raises(ValueError, match=r"shape \(P, 2\)"):
        points_sampler(HYP, np.zeros(shape, dtype=complex))


def test_points_sampler_validates():
    good = np.array([[0.0, 1.0], [0.0, -1.0]], dtype=complex)
    s = points_sampler(HYP, good)
    assert len(s) == 2
    bad = np.array([[0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        points_sampler(HYP, bad)
    # NaN compares false with every tolerance, so it must not pass as on-variety
    with pytest.raises(ValueError, match="leave the variety"):
        points_sampler(HYP, np.array([[np.nan, 1.0]]))


def test_file_sampler_round_trip(tmp_path):
    pts = torus_sampler(HYP, 4).points
    rows = [[[z.real, z.imag] for z in row] for row in pts]
    f = tmp_path / "pts.json"
    f.write_text(json.dumps(rows))
    s = file_sampler(HYP, str(f))
    assert np.allclose(s.points, pts)


def test_random_variety_points_seeded():
    a = random_variety_points(HYP, 7, seed=3)
    b = random_variety_points(HYP, 7, seed=3)
    c = random_variety_points(HYP, 7, seed=4)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)
    assert on_variety(HYP, a.points)


def test_every_sampler_is_an_equal_weight_rule(tmp_path):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps([[0.0, 1.0], [0.0, -1.0], [1.0, 2**0.5]]))
    sets = [
        torus_sampler(HYP, 8),
        segment_sampler(CONE, 3),
        points_sampler(HYP, torus_sampler(HYP, 4).points),
        file_sampler(HYP, str(f)),
        random_variety_points(HYP, 7, seed=1),
    ]
    for rule in sets:
        assert type(rule) is QuadratureSpec
        assert rule.weights.tobytes() == np.full(len(rule), 1.0 / len(rule)).tobytes()
    # the candidate grid is the torus rule itself, bit for bit
    for pres, n in ((HYP, 64), (CONE, 16)):
        cand, quad = torus_sampler(pres, n), torus_quadrature(pres, n)
        assert (cand.points.tobytes(), cand.weights.tobytes()) == (quad.points.tobytes(), quad.weights.tobytes())
    # so the candidate set's own Gram (its discrete L2 measure) is the rule's
    basis = monomial_graded_basis(HYP, 4)
    assert gram(basis, torus_sampler(HYP, 64)).tobytes() == gram(basis, torus_quadrature(HYP, 64)).tobytes()
    # no points: no weights, and the search refuses as before
    empty = points_sampler(HYP, np.empty((0, 2)))
    assert len(empty) == 0 and empty.weights.shape == (0,)
    with pytest.raises(FeketeError, match="need at least 3 candidates, got 0"):
        fekete_maximize(monomial_graded_basis(HYP, 1), empty)


# ---------------------------------------------------------------------------
# determinant evaluation


def test_vdm_matrix_shape_and_singularity():
    b = monomial_graded_basis(HYP, 2)
    pts = torus_sampler(HYP, 8).points
    E = vdm_matrix(b, pts)
    assert E.shape == (16, 5)
    # a repeated point collapses the determinant
    rep = np.vstack([pts[:4], pts[:1]])
    assert log_abs_vdm(b, rep) == -math.inf


def _ref_evaluate(poly, points):
    """`Polynomial.evaluate` as it was before the power table, term by term."""
    Z = np.asarray(points, dtype=complex)
    vals = np.zeros(Z.shape[0], dtype=complex)
    for m, c in poly.items():
        t = np.full(Z.shape[0], complex(c))
        for j, e in enumerate(m):
            if e:
                t = t * Z[:, j] ** e
        vals += t
    return vals


def _ref_vdm_matrix(basis, points):
    """`vdm_matrix` as it was before the power table: one column per element, stacked."""
    return np.stack([_ref_evaluate(e, points) for e in basis], axis=1)


# a hand-made tuple with exact zeros, signed zeros among them, in every coordinate
ZEROS = np.array([[0, 1], [complex(-0.0, 0.0), -1j], [0.5, complex(0.0, -0.0)], [1 + 1j, 0], [-2, 3 - 1j]])


def _vdm_cases():
    for pres in (HYP, CONE):
        quad = torus_quadrature(pres, 16)
        samplers = {
            "torus": torus_sampler(pres, 16).points,
            "segment": segment_sampler(pres, 16).points,
            "random": random_variety_points(pres, 40, seed=3).points,
        }
        k = 6 if pres is HYP else 3
        for kind in ("monomial", "cm", "bb", "bb_structured"):
            basis = build_basis(pres, kind, k, quad=quad)
            assert basis[0].degree() == 0  # a constant element
            for name, points in samplers.items():
                yield pres, kind, basis, name, points
            if pres is HYP:
                yield pres, kind, basis, "zeros", ZEROS
            else:
                yield pres, kind, basis, "zeros", np.hstack([ZEROS[:, :1], ZEROS[::-1, :1], ZEROS[:, 1:]])


def test_vdm_matrix_equals_the_column_stack_bit_for_bit():
    cases = 0
    for pres, kind, basis, name, points in _vdm_cases():
        E, ref = vdm_matrix(basis, points), _ref_vdm_matrix(basis, points)
        assert E.flags.c_contiguous and E.shape == ref.shape, (pres.M, kind, name)
        assert E.tobytes() == ref.tobytes(), (pres.M, kind, name)
        cases += 1
    assert cases == 2 * 4 * 4


def test_evaluate_without_a_table_is_the_term_by_term_loop():
    for pres, kind, basis, name, points in _vdm_cases():
        for e in basis:
            assert e.evaluate(points).tobytes() == _ref_evaluate(e, points).tobytes(), (kind, name)


def test_vdm_matrix_holds_one_matrix_and_its_power_table(traced_peak):
    # a column list and its stack held the matrix twice (2.04 x at k = 16)
    def peak_over_matrix(basis, points):
        E, peak = traced_peak(lambda: vdm_matrix(basis, points))
        return peak / E.nbytes

    hyp = peak_over_matrix(monomial_graded_basis(HYP, 16), torus_sampler(HYP, 256).points)
    cone = peak_over_matrix(bb_basis(CONE, 4, torus_quadrature(CONE, 16)), torus_sampler(CONE, 16).points)
    assert hyp <= 1.75 and cone <= 1.75


def test_vdm_matrix_of_one_point_is_a_row():
    b = monomial_graded_basis(HYP, 2)
    pts = torus_sampler(HYP, 8).points
    row = vdm_matrix(b, pts[3])
    assert row.shape == (5,)
    assert row.tobytes() == vdm_matrix(b, pts)[3].tobytes()


def test_vdm_matrix_refuses_a_wrong_coordinate_count():
    pts = torus_sampler(HYP, 8).points
    with pytest.raises(ValueError, match="points have 1 coordinates, ring has 2"):
        vdm_matrix(monomial_graded_basis(HYP, 2), pts[:, :1])


def test_vdm_matrix_of_an_empty_basis_has_no_columns():
    pts = torus_sampler(HYP, 8).points
    E = vdm_matrix((), pts)
    assert E.shape == (16, 0) and E.dtype == complex


def test_cm_and_monomial_determinants_agree():
    # the change of basis between them has unit determinant in every degree
    for k in (1, 2, 3, 4):
        mb = monomial_graded_basis(HYP, k)
        cb = cm_basis(HYP, k)
        rec = count(HYP, k)
        for seed in range(5):
            pts = random_variety_points(HYP, rec.N, seed=seed).points
            lm, lc = log_abs_vdm(mb, pts), log_abs_vdm(cb, pts)
            assert abs(lm - lc) < 1e-10 * max(1.0, abs(lm))


# ---------------------------------------------------------------------------
# Fekete search


def test_greedy_beats_random_tuples():
    b = monomial_graded_basis(HYP, 3)
    samp = torus_sampler(HYP, 32)
    res = fekete_maximize(b, samp, seed=0)
    rng = np.random.default_rng(11)
    for _ in range(20):
        idx = rng.choice(len(samp), size=len(b), replace=False)
        assert log_abs_vdm(b, samp.points[idx]) <= res.log_abs + 1e-12


def test_exhaustive_matches_brute_force():
    b = monomial_graded_basis(HYP, 1)  # N = 3
    samp = torus_sampler(HYP, 16)  # 32 candidates
    brute = brute_force_max(b, samp)
    res = fekete_maximize(b, samp, exhaustive=True)
    assert res.indices == brute.indices
    assert abs(res.log_abs - brute.log_abs) < 1e-12


def test_multistart_bookkeeping():
    b = monomial_graded_basis(HYP, 2)
    samp = torus_sampler(HYP, 24)
    res = fekete_maximize(b, samp, seed=5, starts=4)
    assert res.starts == 4
    assert len(res.start_logs) == 4
    # reported value is the winning start re-evaluated on sorted rows
    assert abs(res.log_abs - max(res.start_logs)) < 1e-12
    assert res.indices == tuple(sorted(res.indices))


@pytest.mark.parametrize("power", [-50, 50])
def test_greedy_init_ignores_power_of_two_scaling(power):
    # residual norms scale with E, so the stopping floor must scale too
    E = vdm_matrix(monomial_graded_basis(HYP, 3), torus_sampler(HYP, 32).points)
    picks = _greedy_init(E)
    assert len(picks) == E.shape[1]
    assert _greedy_init(E * 2.0**power) == picks


def _greedy_init_reference(E):
    """The greedy orthogonalization that `_greedy_init` must match bit for
    bit: a new outer product and conjugate at every step, and a projection
    after the last choice too. Ties on symmetric grids fall to the last
    bits of the residual norms, so any change to this arithmetic can move
    the chosen rows."""
    P, N = E.shape
    work = E.astype(complex)
    floor = 1e-28 * float(np.max(np.abs(work))) ** 2
    norms = np.einsum("ij,ij->i", work, np.conj(work)).real
    chosen = []
    for _ in range(N):
        norms[chosen] = -1.0
        j = int(np.argmax(norms))
        if norms[j] <= floor:
            break
        chosen.append(j)
        q = work[j] / math.sqrt(norms[j])
        work -= np.outer(work @ np.conj(q), q)
        norms = np.einsum("ij,ij->i", work, np.conj(work)).real
    return chosen


@pytest.mark.parametrize("sampler", [0, 1, 2], ids=["torus", "segment", "random"])
@pytest.mark.parametrize("name", ["hyperbola", "cone2d"])
def test_greedy_init_picks_the_reference_rows(name, sampler):
    pres = {"hyperbola": HYP, "cone2d": CONE}[name]
    E = vdm_matrix(monomial_graded_basis(pres, 8), _EXCHANGE_CASES[name][sampler][0]().points)
    for k in range(1, 9):
        prefix = E[:, : count(pres, k).N]
        assert _greedy_init(prefix) == _greedy_init_reference(prefix)


@pytest.mark.parametrize("kind", ["monomial", "cm", "bb"])
def test_greedy_init_picks_the_reference_rows_in_compare_s_bases(kind):
    # the k = 16 matrices of the compare-hyperbola benchmark workload
    E = vdm_matrix(build_basis(HYP, kind, 16), torus_sampler(HYP, 256).points)
    picks = _greedy_init(E)
    assert len(picks) == E.shape[1]
    assert picks == _greedy_init_reference(E)


def test_fekete_needs_enough_candidates():
    b = monomial_graded_basis(HYP, 3)  # N = 7
    with pytest.raises(FeketeError):
        fekete_maximize(b, torus_sampler(HYP, 2))


# the two points over x = 1, three times each: 6 candidates of rank 2
REPEATED = points_sampler(HYP, np.repeat(torus_sampler(HYP, 1).points, 3, axis=0))


def test_fekete_refuses_a_rank_deficient_candidate_set():
    with pytest.raises(FeketeError, match="does not span"):
        fekete_maximize(monomial_graded_basis(HYP, 1), REPEATED)


def test_fekete_refusal_names_the_rows_the_greedy_start_found():
    # 80 distinct nodes span the 41 monomials in exact arithmetic; in floats
    # the 41st residual falls below the greedy start's floor
    with pytest.raises(FeketeError, match=r"does not span the basis numerically: the greedy start found"
                       r" 40 of 41 rows above 1e-28 \* max\|E\|\^2"):
        fekete_maximize(monomial_graded_basis(C1, 40), segment_sampler(C1, 80))


def test_brute_force_refuses_when_every_tuple_is_singular():
    with pytest.raises(FeketeError, match="all tuples are singular"):
        brute_force_max(monomial_graded_basis(HYP, 1), REPEATED)


def test_fekete_refuses_a_search_basis_of_another_length():
    with pytest.raises(ValueError, match="search basis has 3 elements, the basis 5"):
        fekete_maximize(monomial_graded_basis(HYP, 2), torus_sampler(HYP, 8), search=monomial_graded_basis(HYP, 1))


def test_log_abs_vdm_needs_a_square_matrix():
    with pytest.raises(ValueError, match=r"need a square matrix, got \(8, 3\)"):
        log_abs_vdm(monomial_graded_basis(HYP, 1), torus_sampler(HYP, 4).points)


# ---------------------------------------------------------------------------
# diameter sequences


def test_prefix_matches_fresh_build():
    samp = torus_sampler(HYP, 24)
    seq = diameter_sequence(HYP, "monomial", 4, samp, seed=0)
    assert [e.k for e in seq] == [1, 2, 3, 4]
    for est in seq:
        b = monomial_graded_basis(HYP, est.k)
        solo = fekete_maximize(b, samp, seed=0)
        assert abs(est.log_vdm - solo.log_abs) < 1e-12
        rec = count(HYP, est.k)
        assert est.N == rec.N and est.l == rec.l
        assert abs(est.est_lk - est.log_vdm / rec.l) < 1e-15
        assert abs(est.est_kNk - est.log_vdm / (est.k * rec.N)) < 1e-15


def test_trivial_line_matches_classical_circle_rate():
    # best k+1 of n equispaced unit-circle points: log|VDM| = ((k+1)/2)log(k+1),
    # attained exactly when (k+1) divides the grid size
    samp = torus_sampler(C1, 60)
    seq = diameter_sequence(C1, "monomial", 4, samp, seed=0)
    for est in seq:
        n = est.k + 1
        assert abs(est.log_vdm - 0.5 * n * math.log(n)) < 1e-9


def test_build_basis_unknown_kind():
    with pytest.raises(ValueError):
        build_basis(HYP, "chebyshev", 2)


@pytest.mark.parametrize("kind", ["bb", "bb_structured"])
@pytest.mark.parametrize("k", [1, 3])
def test_build_basis_default_quadrature(kind, k):
    quad = torus_quadrature(HYP, default_quadrature_n(k))
    assert build_basis(HYP, kind, k) == build_basis(HYP, kind, k, quad=quad)


# ---------------------------------------------------------------------------
# row-scale bounds


def test_scale_bound_cm_vs_monomial():
    k = 3
    cb = cm_basis(HYP, k)
    mb = monomial_graded_basis(HYP, k)
    tuples = [random_variety_points(HYP, count(HYP, k).N, seed=s).points for s in range(6)]
    rep = row_scale_bound(cb, mb, tuples)
    assert abs(rep.m - 1 / math.sqrt(2)) < 1e-14
    assert abs(rep.Mx - math.sqrt(2)) < 1e-14
    assert set(round(p, 12) for p in rep.pivot_abs) == {
        1.0,
        round(1 / math.sqrt(2), 12),
        round(math.sqrt(2), 12),
    }
    assert rep.sandwich_ok
    assert rep.identity_ok
    assert max(rep.identity_rel_errors) < 1e-10
    # the pivot product for this pair multiplies out to exactly 1
    assert abs(rep.log_abs_det) < 1e-12


def test_scale_bound_reports_the_worst_tuple_s_condition():
    # the tuple with the largest identity error, its larger VDM condition
    # number, from the matrices the bound already evaluated
    cb, mb = cm_basis(HYP, 6), monomial_graded_basis(HYP, 6)
    for seed in (0, 102):
        tuples = [random_variety_points(HYP, len(mb), seed=seed + i).points for i in range(5)]
        rep = row_scale_bound(cb, mb, tuples)
        worst = max(range(5), key=rep.identity_rel_errors.__getitem__)
        assert rep.worst_cond == max(np.linalg.cond(vdm_matrix(b, tuples[worst])) for b in (cb, mb))
    assert row_scale_bound(cb, mb).worst_cond is None


def test_a_singular_tuple_is_the_worst_in_either_order():
    cb, mb = cm_basis(HYP, 2), monomial_graded_basis(HYP, 2)
    good = random_variety_points(HYP, len(mb), seed=0).points
    bad = good.copy()
    bad[1] = bad[0]  # two equal points: both matrices are singular
    reports = [row_scale_bound(cb, mb, tuples) for tuples in ([good, bad], [bad, good])]
    assert reports[0].identity_rel_errors == reports[1].identity_rel_errors[::-1]
    assert math.inf in reports[0].identity_rel_errors
    assert not any(r.identity_ok for r in reports)
    singular = max(np.linalg.cond(vdm_matrix(b, bad)) for b in (cb, mb))
    assert reports[0].worst_cond == reports[1].worst_cond == singular


def test_reproduce_example_evaluates_each_vdm_matrix_once(monkeypatch):
    # two matrices per tuple, both in row_scale_bound (12 when the CLI
    # evaluated the worst tuple's again for its condition number)
    from vdiam import cli

    calls = []

    def counted(basis, points):
        calls.append(len(basis))
        return vdm_matrix(basis, points)

    monkeypatch.setattr(vdm, "vdm_matrix", counted)
    monkeypatch.setattr(cli, "vdm_matrix", counted, raising=False)
    assert cli.reproduce_example(seed=0)[0]
    assert len(calls) == 10


def test_scale_bound_requires_matching_lengths():
    with pytest.raises(ValueError):
        row_scale_bound(monomial_graded_basis(HYP, 2), monomial_graded_basis(HYP, 3))


def test_scale_bound_refuses_float_bases():
    bb = bb_basis(HYP, 2, torus_quadrature(HYP, 256))
    with pytest.raises(ValueError, match="row-scale bounds need exact bases"):
        row_scale_bound(bb, monomial_graded_basis(HYP, 2))


def test_bb_normalization_block_structure():
    # bb = T bb_structured, with T by least squares over the monomials
    quad = torus_quadrature(HYP, 256)
    full, st = bb_basis(HYP, 3, quad), bb_structured(HYP, 3, quad)
    cols = _monomial_columns(full, st)

    def coefficients(basis):
        return np.array([[complex(e.coefficient(m)) for m in cols] for e in basis])

    t = np.linalg.lstsq(coefficients(st).T, coefficients(full).T, rcond=None)[0].T
    later = np.less.outer([e.degree() for e in full], [e.degree() for e in st])  # T[i, j] with deg st_j > deg bb_i
    assert np.all(np.abs(t[later]) <= 1e-8)  # block-triangular across degrees
    diag = np.abs(np.diag(t))
    assert abs(diag.min() - 1.0) < 1e-6
    # the first row that mixes y with the x-block rescales by 3/(2*sqrt2)
    assert abs(next(v for v in diag if abs(v - 1.0) > 1e-6) - 3 / (2 * math.sqrt(2))) < 1e-3


# The dense elimination the sparse one replaced, kept as the reference: every
# row is a full list of Exact values over the same monomial columns.


def _dense_change_of_basis(bc, cc):
    n, width = len(cc), len(cc[0])
    rows = [list(r) for r in cc]
    combos = [[Exact(1) if j == i else Exact(0) for j in range(n)] for i in range(n)]
    piv_cols = []
    r = 0
    for col in range(width):
        pr = next((i for i in range(r, n) if not rows[i][col].is_zero()), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        combos[r], combos[pr] = combos[pr], combos[r]
        inv = rows[r][col].inverse()
        rows[r] = [v * inv for v in rows[r]]
        combos[r] = [v * inv for v in combos[r]]
        for i in range(n):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
                combos[i] = [a - f * b for a, b in zip(combos[i], combos[r])]
        piv_cols.append(col)
        r += 1
        if r == n:
            break
    if r < n:
        raise ValueError("second basis has linearly dependent elements")
    t_rows = []
    for b in bc:
        resid = list(b)
        coefs = [Exact(0)] * n
        for i, col in enumerate(piv_cols):
            f = resid[col]
            if f.is_zero():
                continue
            coefs[i] = f
            resid = [a - f * v for a, v in zip(resid, rows[i])]
        if any(not v.is_zero() for v in resid):
            raise ValueError("bases do not span the same monomial space")
        t_rows.append([sum((coefs[i] * combos[i][j] for i in range(n)), Exact(0)) for j in range(n)])
    return t_rows


def _dense_first_nonzero_pivots(t):
    n = len(t)
    work = [list(r) for r in t]
    used = set()
    pivots = []
    for col in range(n):
        pr = next((i for i in range(n) if i not in used and not work[i][col].is_zero()), None)
        if pr is None:
            raise ValueError("change of basis is singular")
        used.add(pr)
        piv = work[pr][col]
        pivots.append(piv)
        inv = piv.inverse()
        for i in range(n):
            if i not in used and not work[i][col].is_zero():
                f = work[i][col] * inv
                work[i] = [a - f * b for a, b in zip(work[i], work[pr])]
    return pivots


def dense_pivots(basis_b, basis_c):
    cols = _monomial_columns(basis_b, basis_c)

    def dense(basis):
        out = []
        for row in _coef_rows(basis, cols):
            full = [Exact(0)] * len(cols)
            for j, c in row.items():
                full[j] = c
            out.append(full)
        return out

    return _dense_first_nonzero_pivots(_dense_change_of_basis(dense(basis_b), dense(basis_c)))


def sparse_pivots(basis_b, basis_c):
    return _change_of_basis_pivots(basis_b, basis_c)


# cm -> monomial (B = cm, C = monomial), plus the benchmark's k = 12 and the
# monomial -> cm direction
@pytest.mark.parametrize(
    "name, k, to_cm",
    [pytest.param("hyperbola", k, False, id=f"hyperbola-{k}") for k in (*range(1, 9), 12)]
    + [pytest.param("cone2d", k, False, id=f"cone2d-{k}") for k in range(1, 4)]
    + [pytest.param("hyperbola", k, True, id=f"hyperbola-{k}-monomial-to-cm") for k in (1, 2, 6, 12)]
    + [pytest.param("cone2d", k, True, id=f"cone2d-{k}-monomial-to-cm") for k in range(1, 4)],
)
def test_sparse_pivots_match_dense_reference(name, k, to_cm):
    pres = {"hyperbola": HYP, "cone2d": CONE}[name]
    cb = cm_basis(pres, k)
    mb = monomial_graded_basis(pres, k)
    b, c = (mb, cb) if to_cm else (cb, mb)
    assert sparse_pivots(b, c) == dense_pivots(b, c)


@st.composite
def graded_changes(draw):
    """(monomial basis, T) with T block-lower-triangular by degree: small
    rational entries, nonzero on the diagonal, dense inside each block."""
    pres = draw(st.sampled_from([HYP, CONE]))
    mb = monomial_graded_basis(pres, draw(st.integers(1, 3 if pres is HYP else 2)))
    n = len(mb)
    sixths = draw(st.lists(st.integers(-12, 12), min_size=n * n, max_size=n * n))
    diag = draw(st.lists(st.integers(-12, 12).filter(bool), min_size=n, max_size=n))
    t = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                t[i][j] = Fraction(diag[i], 6)
            elif mb[j].degree() <= mb[i].degree():
                t[i][j] = Fraction(sixths[i * n + j], 6)
    return mb, t


def _fraction_det(t):
    a = [list(r) for r in t]
    n, det = len(a), Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


@given(graded_changes())
@settings(max_examples=25, deadline=None)
def test_sparse_pivots_on_random_graded_change(case):
    mb, t = case
    det = _fraction_det(t)
    assume(det != 0)
    nvars = mb[0].nvars
    nx = mb[0].nx
    bb = tuple(
        Polynomial(
            {e.monomials()[0]: Exact(c) for e, c in zip(mb, row) if c},
            nx,
            nvars,
        )
        for row in t
    )
    pivots = sparse_pivots(bb, mb)
    assert pivots == dense_pivots(bb, mb)
    assert abs(math.prod(p.as_fraction() for p in pivots)) == abs(det)
    rep = row_scale_bound(bb, mb)
    assert abs(rep.log_abs_det - math.log(abs(det))) < 1e-12 * max(1.0, abs(math.log(abs(det))))


def test_scale_bound_closed_form_at_k50():
    k = 50
    cb = cm_basis(HYP, k)
    mb = monomial_graded_basis(HYP, k)
    # one 2x2 block [[-1/sqrt2, 1/sqrt2], [1/sqrt2, 1/sqrt2]] per degree
    assert sparse_pivots(cb, mb) == [Exact(1)] + [-SQRT2 / 2, SQRT2] * k
    rep = row_scale_bound(cb, mb)
    # |-sqrt2/2| rounds to sqrt(2)/2, one ulp above 1/sqrt(2)
    assert rep.pivot_abs == (1.0,) + (math.sqrt(2) / 2, math.sqrt(2)) * k
    assert rep.m == math.sqrt(2) / 2
    assert rep.Mx == math.sqrt(2)


def _hyp_basis(*texts):
    return tuple(parse_polynomial(s, 1, 2) for s in texts)


@pytest.mark.parametrize(
    "b, c, message",
    [
        (("1", "x1", "y1"), ("1", "x1", "2*x1"), "linearly dependent"),
        (("1", "x1", "y1"), ("1", "x1", "x1^2"), "do not span the same monomial space"),
        (("1", "x1", "x1 + 1"), ("1", "x1", "y1"), "change of basis is singular"),
    ],
)
def test_scale_bound_exact_errors(b, c, message):
    with pytest.raises(ValueError, match=message):
        row_scale_bound(_hyp_basis(*b), _hyp_basis(*c))


# ---------------------------------------------------------------------------
# the certified rank-one exchange against the fresh-solve loop


def _fresh_solve_sweep(E, sel):
    """The exchange loop that `_sweep_to_convergence` must match bit for
    bit: a fresh LU solve at every slot and a slogdet after every swap."""
    N = len(sel)
    sign, log_abs = np.linalg.slogdet(E[sel])
    if sign == 0:
        return sel, -math.inf, 0
    log_abs = float(log_abs)
    sweeps = 0
    while sweeps < 200:
        sweeps += 1
        gain = 0.0
        for s in range(N):
            A = E[sel]
            rhs = np.zeros(N, dtype=complex)
            rhs[s] = 1.0
            try:
                bcol = np.linalg.solve(A, rhs)
            except np.linalg.LinAlgError:
                return sel, log_abs, sweeps
            ratios = np.abs(E @ bcol)
            c = int(np.argmax(ratios))
            if ratios[c] > 1.0 + 1e-14 and c not in sel:
                sel[s] = c
                gain += math.log(ratios[c])
                sign, log_abs = np.linalg.slogdet(E[sel])
                log_abs = float(log_abs) if sign != 0 else -math.inf
        if gain < 1e-12:
            break
    return sel, log_abs, sweeps


def _with_sweep(monkeypatch, kernel, run):
    """`run()` with `kernel` as the exchange loop; returns its result and
    each loop's (sel, log_abs, sweeps)."""
    calls = []

    def recorded(E, sel):
        out = kernel(E, sel)
        calls.append((list(out[0]), out[1], out[2]))
        return out

    monkeypatch.setattr(vdm, "_sweep_to_convergence", recorded)
    return run(), calls


def assert_matches_fresh_solves(monkeypatch, run):
    got = _with_sweep(monkeypatch, _sweep_to_convergence, run)
    want = _with_sweep(monkeypatch, _fresh_solve_sweep, run)
    assert got[1] == want[1]
    assert got[0] == want[0]


def _best_of(E, scored):
    """The result `_scored` must give for runs (tuple, score, sweeps) scored
    in E: the first run of the highest score, its tuple sorted and, unless
    its score is -inf, scored again on the sorted rows."""
    best = scored[0]
    for run in scored[1:]:
        if run[1] > best[1]:
            best = run
    sel, log_abs, sweeps = best
    indices = tuple(sorted(sel))
    if math.isfinite(log_abs):
        sign, log_abs = np.linalg.slogdet(E[list(indices)])
        log_abs = float(log_abs) if sign != 0 else -math.inf
    return vdm.FeketeResult(indices, log_abs, sweeps, len(scored), tuple(run[1] for run in scored))


def test_scored_keeps_the_first_best_run_and_every_start_s_score():
    # runs as (final tuple, log|det| in the search basis, sweeps): the
    # first ends nonsingular in E but started singular, so it scores -inf;
    # the next two tie exactly at log|det| 0, and the first of them wins;
    # the last is singular in E, whatever it read in the search basis
    E = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, 0.5]], dtype=complex)
    runs = [([2, 3], -math.inf, 0), ([1, 0], 0.0, 3), ([0, 1], 0.0, 5), ([0, 2], 1.0, 1)]
    res = vdm._scored(E, runs)
    assert res == vdm.FeketeResult((0, 1), 0.0, 3, 4, (-math.inf, 0.0, 0.0, -math.inf))
    # with every run singular the first one is reported, sorted, at -inf
    res = vdm._scored(E, [([3, 2], -math.inf, 0), ([0, 1], -math.inf, 0)])
    assert res == vdm.FeketeResult((2, 3), -math.inf, 0, 2, (-math.inf, -math.inf))


# (sampler, k, seeds) per variety, chosen so that near-ties make ratios
# read from the kept inverse without the certificate's margin change the
# outcome of several cases
_EXCHANGE_CASES = {
    "hyperbola": [
        (lambda: torus_sampler(HYP, 128), 4, range(4)),
        (lambda: segment_sampler(HYP, 40), 10, range(4)),
        (lambda: random_variety_points(HYP, 200, seed=5), 8, range(2)),
    ],
    "cone2d": [
        (lambda: torus_sampler(CONE, 12), 3, range(2)),
        (lambda: segment_sampler(CONE, 10), 3, range(4)),
        (lambda: random_variety_points(CONE, 150, seed=5), 3, range(2)),
    ],
}


@pytest.mark.parametrize("kind", ["monomial", "cm", "bb"])
@pytest.mark.parametrize("sampler", [0, 1, 2], ids=["torus", "segment", "random"])
@pytest.mark.parametrize("name", ["hyperbola", "cone2d"])
def test_certified_exchange_matches_fresh_solves(monkeypatch, name, sampler, kind):
    pres = {"hyperbola": HYP, "cone2d": CONE}[name]
    make, k, seeds = _EXCHANGE_CASES[name][sampler]
    basis = build_basis(pres, kind, k, quad=torus_quadrature(pres, 32) if kind == "bb" else None)
    samp = make()
    for seed in seeds:
        assert_matches_fresh_solves(monkeypatch, lambda: fekete_maximize(basis, samp, seed=seed, starts=4))


def test_certified_exchange_matches_fresh_solves_exhaustive(monkeypatch):
    basis = monomial_graded_basis(HYP, 2)
    samp = torus_sampler(HYP, 16)
    assert_matches_fresh_solves(monkeypatch, lambda: fekete_maximize(basis, samp, exhaustive=True))


@pytest.mark.parametrize("nodes, k_max", [(80, 39), (200, 40)])
def test_certified_exchange_matches_fresh_solves_on_ill_conditioned_line(monkeypatch, nodes, k_max):
    # monomials on [-1, 1]: the tuples reach condition numbers near 1e15,
    # where the certificate must leave slots to the solve (80 nodes stop
    # spanning the basis numerically at k = 40)
    samp = segment_sampler(C1, nodes)
    assert_matches_fresh_solves(monkeypatch, lambda: diameter_sequence(C1, "monomial", k_max, samp, seed=1, starts=2))


def test_the_kept_inverse_decides_most_slots(monkeypatch):
    # the tests above compare against fresh solves, so an exchange whose
    # every slot fell back to the solve would pass them; here the kept
    # inverse must settle at least three slots in four (81 solves over
    # 1,485 slot visits when written; 1,485 with every slot falling back)
    E = vdm_matrix(monomial_graded_basis(HYP, 16), torus_sampler(HYP, 256).points)
    inits = vdm._initial_tuples(E, seed=0, starts=4)
    solve, solves = np.linalg.solve, []

    def counted(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    visits = 0
    for init in inits:
        sel, _, sweeps = _sweep_to_convergence(E, list(init))
        visits += len(sel) * sweeps
    assert visits > 0
    assert len(solves) < visits / 4


def _counting(monkeypatch, owner, name):
    """Calls of `owner.name` from now on: a list that grows by the
    arguments of each."""
    calls, fn = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


# (variety, candidates, k) for the single-precision read: the benchmark's
# hyperbola set, monomials on a line at condition numbers near 1e9, and
# cone2d's torus
_READ_CASES = {
    "hyperbola-torus": (HYP, lambda: torus_sampler(HYP, 256), 16),
    "hyperbola-segment": (HYP, lambda: segment_sampler(HYP, 120), 24),
    "cone2d-torus": (CONE, lambda: torus_sampler(CONE, 16), 4),
}


@pytest.mark.parametrize("case", sorted(_READ_CASES))
def test_single_precision_reads_lie_within_eta_of_fresh_solves(case):
    # on the greedy tuple, three random ones and the tuples the exchange
    # ends at from these four, then after each of three random swaps, every
    # slot's read must lie within its eta of the ratios of a fresh solve, at
    # every candidate row (random tuples on the line are numerically
    # singular, and their kept inverses are not used)
    pres, make, k = _READ_CASES[case]
    E = vdm_matrix(monomial_graded_basis(pres, k), make().points)
    P, N = E.shape
    rng = np.random.default_rng(1)
    inits = vdm._initial_tuples(E, seed=0, starts=4)
    checked = 0
    for init in inits + [_sweep_to_convergence(E, list(init))[0] for init in inits]:
        kept = vdm._KeptInverse(E, np.array(init))
        for _ in range(4):
            if kept.usable:
                A = E[kept.idx]
                for s in range(N):
                    r, eta = kept.ratios(s)
                    assert r.dtype == np.float32
                    rhs = np.zeros(N, dtype=complex)
                    rhs[s] = 1.0
                    fresh = np.abs(E @ np.linalg.solve(A, rhs))
                    assert np.abs(r.astype(float) - fresh).max() <= eta
                    checked += 1
            outside = np.setdiff1d(np.arange(P), kept.idx)
            kept.swap(int(rng.integers(N)), int(rng.choice(outside)))
    assert checked >= 4 * N


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [2.0**130, 2.0**-130], ids=["2^130", "2^-130"])
def test_a_matrix_beyond_single_precision_takes_the_solve_at_every_slot(monkeypatch, scale):
    # E's entries past float32's range (or x's, for the small scale): no
    # read is made, no overflow warning escapes, and the exchange is still
    # the fresh-solve loop's
    E = scale * vdm_matrix(monomial_graded_basis(HYP, 4), torus_sampler(HYP, 128).points)
    inits = vdm._initial_tuples(E, seed=0, starts=4)
    with monkeypatch.context() as m:
        solves = _counting(m, np.linalg, "solve")
        runs = [_sweep_to_convergence(E, list(init)) for init in inits]
    assert len(solves) == sum(len(sel) * sweeps for sel, _, sweeps in runs) > 0
    assert runs == [_fresh_solve_sweep(E, list(init)) for init in inits]


def test_compare_inverts_each_tuple_once_per_exchange(monkeypatch):
    # the kept inverse is re-measured every sweep and inverted again only
    # where the measured residual bound reaches 1/2, which these well
    # conditioned tuples never do (783 inversions per compare at seed 0
    # when every sweep inverted, 87 since, one per exchange)
    samp = torus_sampler(HYP, 256)
    for seed in range(4):
        with monkeypatch.context() as m:
            inversions = _counting(m, np.linalg, "inv")
            exchanges = _counting(m, vdm, "_sweep_to_convergence")
            compare_bases(HYP, ["monomial", "cm", "bb"], 16, samp, seed=seed, starts=4)
        assert 0 < len(inversions) <= len(exchanges)


class _CorruptedKeptInverse(vdm._KeptInverse):
    """A kept inverse whose X is tripled before each re-measurement, so the
    residual F = 3 A X - I, about 2 I, puts the bound far above 1/2 and A
    must be inverted again; with `failing`, that inversion fails."""

    failing = False

    def refresh(self):
        self.X *= 3.0
        if self.failing:
            raise np.linalg.LinAlgError("singular matrix")
        super().refresh()


@pytest.mark.parametrize("failing", [False, True], ids=["reinverted", "solved"])
@pytest.mark.parametrize("sampler", [0, 1], ids=["torus", "segment"])
def test_a_kept_inverse_measured_off_is_reinverted_or_left_to_the_solve(monkeypatch, sampler, failing):
    make, k, seeds = _EXCHANGE_CASES["hyperbola"][sampler]
    basis, samp = monomial_graded_basis(HYP, k), make()
    monkeypatch.setattr(_CorruptedKeptInverse, "failing", failing)
    monkeypatch.setattr(vdm, "_KeptInverse", _CorruptedKeptInverse)
    for seed in seeds:
        assert_matches_fresh_solves(monkeypatch, lambda: fekete_maximize(basis, samp, seed=seed, starts=4))
    # the exchange alone, counted
    E = vdm_matrix(basis, samp.points)
    inits = _counting(monkeypatch, _CorruptedKeptInverse, "__init__")
    refreshes = _counting(monkeypatch, _CorruptedKeptInverse, "refresh")
    inversions = _counting(monkeypatch, np.linalg, "inv")
    solves = _counting(monkeypatch, np.linalg, "solve")
    for init in vdm._initial_tuples(E, seed=0, starts=4):
        _sweep_to_convergence(E, list(init))
    assert refreshes
    if failing:
        # a failed refresh hands at least its own slot to the solve
        assert len(inversions) == len(inits)
        assert len(solves) >= len(refreshes)
    else:
        assert len(inversions) == len(inits) + len(refreshes)


class _NoKeptInverse:
    """Stands in for `_KeptInverse` as a failed inversion, so every slot
    takes the fresh solve."""

    def __init__(self, *args):
        raise np.linalg.LinAlgError("singular matrix")


@pytest.mark.parametrize("at", [2, 5, 7])
def test_a_singular_fresh_solve_ends_the_exchange(monkeypatch, at):
    # from this start the exchange swaps in its first sweep and runs three
    # sweeps of five slots; a solve that finds the tuple singular at call
    # `at` must be the last solve, in the sweep it happened in
    E = vdm_matrix(monomial_graded_basis(HYP, 2), torus_sampler(HYP, 16).points)
    start = [0, 16, 1, 17, 24]
    monkeypatch.setattr(vdm, "_KeptInverse", _NoKeptInverse)
    assert _sweep_to_convergence(E, list(start))[2] == 3
    solve, calls = np.linalg.solve, []

    def failing(*args):
        calls.append(args)
        if len(calls) == at:
            raise np.linalg.LinAlgError("singular matrix")
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", failing)
    sel, log_abs, sweeps = _sweep_to_convergence(E, list(start))
    assert len(calls) == at
    assert sweeps == (at - 1) // len(start) + 1
    assert log_abs == vdm._slogabs(E[sel])


_INVARIANCE_SAMPLERS = {
    "hyperbola": (torus_sampler(HYP, 16), random_variety_points(HYP, 40, seed=3)),
    "cone2d": (torus_sampler(CONE, 6), random_variety_points(CONE, 60, seed=3)),
}


@st.composite
def float_graded_changes(draw):
    """(monomial basis, candidates, T) with T block-lower-triangular by
    degree. Each diagonal entry has modulus in [0.5, 2], and the other
    entries of its diagonal block sum to at most 0.29 in modulus along the
    row, so every diagonal block is nonsingular with condition number below
    12 (Gershgorin)."""
    name = draw(st.sampled_from(["hyperbola", "cone2d"]))
    pres = {"hyperbola": HYP, "cone2d": CONE}[name]
    mb = monomial_graded_basis(pres, draw(st.integers(1, 4 if pres is HYP else 2)))
    points = _INVARIANCE_SAMPLERS[name][draw(st.integers(0, 1))].points
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = len(mb)
    deg = np.array([e.degree() for e in mb])
    T = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    T[deg[None, :] > deg[:, None]] = 0.0
    block = deg[None, :] == deg[:, None]
    T[block] *= (0.2 / block.sum(axis=1, keepdims=True) * np.ones(n))[block]
    T[np.diag_indices(n)] = rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    return mb, points, T


@given(float_graded_changes(), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_a_graded_change_of_basis_keeps_the_exchange_fixed_point(case, seed):
    # E_b = E_mono T^T gives every tuple the same exchange ratios, so the
    # tuple a search in E_mono ends at is a fixed point of the exchange in
    # E_b, and log|det| moves by log|det T| on it
    mb, points, T = case
    E_mono = vdm_matrix(mb, points)
    E_b = E_mono @ T.T
    start = vdm._initial_tuples(E_mono, seed=seed, starts=2)[1]
    sel, log_mono, _ = _sweep_to_convergence(E_mono, list(start))
    N = len(sel)
    A = E_b[sel]
    outside = np.ones(len(points), dtype=bool)
    outside[sel] = False
    for s in range(N):
        rhs = np.zeros(N, dtype=complex)
        rhs[s] = 1.0
        assert np.abs(E_b @ np.linalg.solve(A, rhs))[outside].max() <= 1.0 + 1e-11
    sign, log_b = np.linalg.slogdet(A)
    assert sign != 0
    cond = max(np.linalg.cond(A), np.linalg.cond(E_mono[sel]))
    log_t = np.linalg.slogdet(T)[1]
    assert abs((log_b - log_mono) - log_t) <= N * np.finfo(float).eps * cond


@pytest.mark.parametrize("t_scale, d_scale", [(1.0, 1e-6), (1.0, 1e-4), (0.01, 1e-6), (0.01, 1e-4)])
@pytest.mark.parametrize("sampler", [0, 1, 2], ids=["torus", "segment", "random"])
def test_follower_certificate_covers_the_discrepancy(sampler, t_scale, d_scale):
    # a follower E_b = E T^T + D with an explicit D takes the final tuples of
    # the search in E and scores them in E_b, as compare_bases' bases take
    # the monomial basis's. In E's coordinates its tuple matrix is
    # A + D~[S], D~ = D T^-T, so with q = |A^-1 D~[S]|_2 its log|det| on S
    # is E's plus log|det T| plus one in [N log(1 - q), N log(1 + q)], and
    # when q < 1 its ratios at slot s exceed E's by at most
    # eta_b = (|E[c]| q + |D~[c]|) |A^-1 e_s| / (1 - q): every final tuple
    # is an exchange fixed point of the follower up to eta_b (with |T^-1|
    # taken as 1, D~ = D, the torus and random cases at T scale 0.01 break
    # it). Segment nodes at T scale 0.01 and |D| 1e-4 give q near 20 on
    # every tuple: there the discrepancy swamps the tuple and only the upper
    # bound on the score holds
    make, k, _ = _EXCHANGE_CASES["hyperbola"][sampler]
    k = min(k, 8)
    rng = np.random.default_rng(7)
    E = vdm_matrix(monomial_graded_basis(HYP, k), make().points)
    P, N = E.shape
    lower = np.tril(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)), -1)
    T = t_scale * (np.eye(N) + 0.3 * lower)
    D = d_scale * (rng.standard_normal((P, N)) + 1j * rng.standard_normal((P, N)))
    E_b = E @ T.T + D
    D_t = np.linalg.solve(T, D.T).T
    log_t = np.linalg.slogdet(T)[1]
    e_norm, d_norm = np.linalg.norm(E, axis=1), np.linalg.norm(D_t, axis=1)
    eps = np.finfo(float).eps
    for seed in range(3):
        inits = vdm._initial_tuples(E, seed=seed, starts=4)
        runs = vdm._searched(E, inits)
        assert runs == [_fresh_solve_sweep(E, list(init)) for init in inits]
        scored = [(sel, float(np.linalg.slogdet(E_b[sel])[1]), sweeps) for sel, _, sweeps in runs]
        assert vdm._scored(E_b, runs) == _best_of(E_b, scored)
        for (sel, log_abs, _), (_, log_b, _) in zip(runs, scored):
            A = E[sel]
            q = np.linalg.norm(np.linalg.solve(A, D_t[sel]), 2)
            slack = N * eps * max(np.linalg.cond(A), np.linalg.cond(E_b[sel]))
            assert log_b - log_abs - log_t <= N * math.log1p(q) + slack
            if q >= 1.0:
                assert (sampler, t_scale, d_scale) == (1, 0.01, 1e-4)
                continue
            assert log_b - log_abs - log_t >= N * math.log1p(-q) - slack
            outside = np.ones(P, dtype=bool)
            outside[sel] = False
            for s in range(N):
                rhs = np.zeros(N, dtype=complex)
                rhs[s] = 1.0
                x = np.linalg.solve(A, rhs)
                r = np.abs(E @ x)
                r_b = np.abs(E_b @ np.linalg.solve(E_b[sel], rhs))
                assert r[outside].max() <= 1.0 + 1e-11
                eta_b = (e_norm * q + d_norm) * np.linalg.norm(x) / (1.0 - q)
                assert np.all(r_b <= r + eta_b + slack)


# ---------------------------------------------------------------------------
# one exchange per candidate set in compare_bases


def _degree_prefix(basis, k):
    """The elements of `basis` of degree <= k, found by their degrees."""
    return tuple(e for e in basis if e.degree() <= k)


def _coef_bytes(e):
    return [(m, np.complex128(c).tobytes()) for m, c in sorted(e.items())]


@pytest.mark.parametrize("name, k_max", [("hyperbola", 6), ("cone2d", 3)])
def test_graded_basis_prefixes_are_the_lower_degree_bases(name, k_max):
    # diameter_sequence and compare_bases take the first count(pres, k).N
    # elements of the k_max basis as the basis at k
    pres = {"hyperbola": HYP, "cone2d": CONE}[name]
    quad = torus_quadrature(pres, 32)
    for kind in ("monomial", "cm", "bb", "bb_structured"):
        full = build_basis(pres, kind, k_max, quad=quad)
        for k in range(1, k_max + 1):
            n = count(pres, k).N
            assert n == len(_degree_prefix(full, k))
            alone = build_basis(pres, kind, k, quad=quad)
            assert [e.degree() for e in full[:n]] == [e.degree() for e in alone]
            if kind in ("monomial", "cm"):
                assert full[:n] == alone
            else:
                assert list(map(_coef_bytes, full[:n])) == list(map(_coef_bytes, alone))


@pytest.mark.parametrize("name, k_max", [("hyperbola", 6), ("cone2d", 3)])
def test_grown_matrices_equal_the_prefix_basis_matrix(name, k_max):
    # compare_bases evaluates each element once and grows each k's matrix
    # from the last; the bytes, and the C layout BLAS sees, must be those of
    # evaluating the prefix basis, as fekete_maximize does
    pres = {"hyperbola": HYP, "cone2d": CONE}[name]
    points = torus_sampler(pres, 12).points
    quad = torus_quadrature(pres, 32)
    for kind in ("monomial", "cm", "bb"):
        full = build_basis(pres, kind, k_max, quad=quad)
        E = None
        for k in range(1, k_max + 1):
            E = vdm._grow(E, full, count(pres, k).N, points)
            keep = [i for i, e in enumerate(full) if e.degree() <= k]
            assert E.flags.c_contiguous
            assert E.tobytes() == vdm_matrix(_degree_prefix(full, k), points).tobytes()
            assert E.tobytes() == np.ascontiguousarray(vdm_matrix(full, points)[:, keep]).tobytes()


def _monomial_searches(pres, kinds, k_max, samp, *, quad, seed, starts):
    """Each kind's diameter sequence from one search: the starts of the
    monomial basis and of every kind, each distinct one run through the
    fresh-solve loop in the monomial basis, and each kind's best log|det|
    over all the final tuples."""
    fulls = {kind: build_basis(pres, kind, k_max, quad=quad) for kind in ("monomial", *kinds)}
    out = {kind: [] for kind in kinds}
    for k in range(1, k_max + 1):
        Es = {kind: vdm_matrix(_degree_prefix(b, k), samp.points) for kind, b in fulls.items()}
        inits = [tuple(t) for E in Es.values() for t in vdm._initial_tuples(E, seed=seed, starts=starts)]
        runs = [_fresh_solve_sweep(Es["monomial"], list(t)) for t in dict.fromkeys(inits)]
        for kind in kinds:
            scored = []
            for sel, log_abs, sweeps in runs:
                sign, log_b = np.linalg.slogdet(Es[kind][sel])
                scored.append((sel, float(log_b) if sign != 0 and math.isfinite(log_abs) else -math.inf, sweeps))
            out[kind].append(vdm._estimate(kind, k, count(pres, k), _best_of(Es[kind], scored)))
    return out


def _spreads(seqs):
    return tuple(
        max(abs(a.est_lk - b.est_lk) for a in col for b in col) for col in zip(*seqs.values())
    )


_COMPARE_CASES = {
    "hyperbola": [
        (lambda: torus_sampler(HYP, 128), 6, range(3)),
        (lambda: segment_sampler(HYP, 40), 8, range(3)),
        (lambda: random_variety_points(HYP, 200, seed=5), 6, range(2)),
    ],
    "cone2d": [
        (lambda: torus_sampler(CONE, 12), 3, range(2)),
        (lambda: segment_sampler(CONE, 10), 3, range(4)),
        (lambda: random_variety_points(CONE, 150, seed=5), 3, range(2)),
    ],
}


@pytest.mark.parametrize("kinds", [("monomial", "cm", "bb"), ("cm", "bb")], ids=["grouped", "alone"])
@pytest.mark.parametrize("starts", [1, 4])
@pytest.mark.parametrize("sampler", [0, 1, 2], ids=["torus", "segment", "random"])
@pytest.mark.parametrize("name", ["hyperbola", "cone2d"])
def test_compare_bases_equals_each_fresh_diameter_sequence(name, sampler, starts, kinds):
    # without the monomial basis among the kinds the searches still run in it
    pres = {"hyperbola": HYP, "cone2d": CONE}[name]
    make, k_max, seeds = _COMPARE_CASES[name][sampler]
    samp = make()
    quad = torus_quadrature(pres, 32)
    for seed in seeds:
        rep = compare_bases(pres, kinds, k_max, samp, quad=quad, seed=seed, starts=starts)
        want = _monomial_searches(pres, kinds, k_max, samp, quad=quad, seed=seed, starts=starts)
        assert rep.estimates == want
        assert rep.spreads == _spreads(want)


@pytest.mark.parametrize(
    "kinds, error, message",
    [
        (("monomial", "cm"), FeketeError, "need at least 9 candidates, got 8"),
        (("bb", "monomial"), QuadratureError, "numerically dependent"),
        (("monomial", "bb"), QuadratureError, "numerically dependent"),
    ],
)
def test_compare_bases_raises_the_first_kinds_error(kinds, error, message):
    # bb cannot be built from 8 quadrature points at k = 30, and every basis
    # is built before any search; the 8 candidates stop spanning the
    # monomials at k = 4, where the monomial basis draws its starts first
    samp = torus_sampler(HYP, 4)
    with pytest.raises(error, match=message):
        compare_bases(HYP, kinds, 30, samp, quad=torus_quadrature(HYP, 4))


def test_compare_bases_refuses_no_kinds_before_building_or_searching(monkeypatch):
    calls = []

    def counted(name, fn):
        def run(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return run

    for name in ("_sweep_to_convergence", "build_basis", "monomial_graded_basis"):
        monkeypatch.setattr(vdm, name, counted(name, getattr(vdm, name)))
    with pytest.raises(ValueError, match="at least one basis kind"):
        compare_bases(HYP, [], 4, torus_sampler(HYP, 64))
    assert calls == []


@pytest.mark.parametrize(
    "pres, k_max, nodes, n", [(HYP, 8, 64, 256), (CONE, 3, 16, 64)], ids=["hyperbola", "cone2d"]
)
def test_compare_bases_monomial_bb_spread_is_half_the_log_gram_determinant(pres, k_max, nodes, n):
    # bb is the monomial basis times a lower-triangular C with diagonal
    # 1/|q_j|, and prod |q_j|^2 = det G, so on every shared tuple
    # log|VDM_bb| = log|VDM_mono| - log det G / 2
    quad = torus_quadrature(pres, n)
    est = compare_bases(pres, ["monomial", "bb"], k_max, torus_sampler(pres, nodes), quad=quad).estimates
    for mono, bb in zip(est["monomial"], est["bb"]):
        sign, logdet = np.linalg.slogdet(gram(monomial_graded_basis(pres, mono.k), quad))
        assert abs(sign - 1) < 1e-12
        assert abs((mono.est_lk - bb.est_lk) - 0.5 * logdet / mono.l) <= 1e-13


def test_compare_bases_splits_where_the_searches_diverge():
    # at this seed the monomial and cm bases' own searches end at different
    # maxima at k = 3 (cm at 0.590444826876); run in one basis they share
    # the better one
    samp = torus_sampler(HYP, 256)
    quad = torus_quadrature(HYP, 256)
    est = compare_bases(HYP, ("monomial", "cm", "bb"), 3, samp, quad=quad, seed=242886307, starts=4).estimates
    assert abs(est["monomial"][2].est_lk - 0.590470138097) < 1e-12
    assert abs(est["cm"][2].est_lk - 0.590470138097) < 1e-12


def test_compare_bases_scores_every_basis_s_starts():
    # the second start here is numerically singular, so its exchange path
    # depends on the basis's rounding: run in the monomial basis it ends
    # lower than in cm's own, and cm scoring only its own starts would fall
    # from 0.559202216683 to 0.559059170801 at k = 4; bb's greedy start
    # ends higher in both
    pres, _ = load_variety("cone2d")
    est = compare_bases(
        pres, ["monomial", "cm", "bb"], 4, torus_sampler(pres, 16),
        quad=torus_quadrature(pres, 128), seed=16, starts=4,
    ).estimates
    assert est["cm"][3].est_lk >= 0.559202216683
    assert abs(est["cm"][3].est_lk - est["monomial"][3].est_lk) <= 1e-12


def test_compare_bases_builds_the_search_basis_itself():
    # the monomial basis is the search basis whether or not it is a kind; at
    # these seeds a cm search of its own would end lower at k = 3
    samp = torus_sampler(HYP, 256)
    quad = torus_quadrature(HYP, 256)
    for seed in (90, 242886307):
        alone = compare_bases(HYP, ["cm", "bb"], 3, samp, quad=quad, seed=seed, starts=4).estimates
        grouped = compare_bases(HYP, ["monomial", "cm", "bb"], 3, samp, quad=quad, seed=seed, starts=4).estimates
        assert alone == {kind: grouped[kind] for kind in ("cm", "bb")}
        assert abs(alone["cm"][2].est_lk - grouped["monomial"][2].est_lk) <= 1e-12


# ---------------------------------------------------------------------------
# one BLAS thread per search

_BLAS = bases._openblas_threads()
needs_openblas = pytest.mark.skipif(_BLAS is None, reason="no OpenBLAS found beside numpy")


@pytest.fixture
def two_blas_threads():
    """The caller's OpenBLAS thread count set to 2 for the test, and its own
    count given back after it."""
    get, set_ = _BLAS
    saved = get()
    set_(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS does not take a count of 2 here")
        yield get
    finally:
        set_(saved)


@needs_openblas
def test_every_search_runs_in_one_blas_thread(monkeypatch, two_blas_threads):
    get = two_blas_threads
    seen = {}

    def spy(name):
        fn = getattr(vdm, name)

        def read(*args, **kwargs):
            seen.setdefault(name, set()).add(get())
            return fn(*args, **kwargs)

        monkeypatch.setattr(vdm, name, read)

    # `count` runs inside diameter_sequence between its fekete_maximize
    # calls, after an inner call has returned
    for name in ("_sweep_to_convergence", "_greedy_init", "count"):
        spy(name)
    samp = torus_sampler(HYP, 32)
    fekete_maximize(monomial_graded_basis(HYP, 3), samp, starts=2)
    compare_bases(HYP, ["monomial", "cm"], 3, samp, starts=2)
    diameter_sequence(HYP, "cm", 3, samp)
    assert seen == {"_sweep_to_convergence": {1}, "_greedy_init": {1}, "count": {1}}
    assert get() == 2


@needs_openblas
def test_every_bb_build_runs_in_one_blas_thread(monkeypatch, two_blas_threads):
    get = two_blas_threads
    seen = {}

    def spy(name):
        fn = getattr(bases, name)

        def read(*args):
            seen.setdefault(name, []).append(get())
            return fn(*args)

        monkeypatch.setattr(bases, name, read)

    for name in ("torus_gram", "_inverse_cholesky"):
        spy(name)
    quad = torus_quadrature(HYP, 32)
    bb_basis(HYP, 3, quad)
    bb_structured(HYP, 3, quad)
    compare_bases(HYP, ["bb"], 2, torus_sampler(HYP, 32), quad=quad, starts=2)
    assert seen == {"torus_gram": [1, 1, 1], "_inverse_cholesky": [1, 1, 1]}
    assert get() == 2


@needs_openblas
def test_the_caller_s_thread_count_comes_back(two_blas_threads):
    get = two_blas_threads
    compare_bases(HYP, ["monomial", "cm"], 2, torus_sampler(HYP, 16))
    assert get() == 2
    with pytest.raises(FeketeError, match="need at least 9 candidates"):
        fekete_maximize(monomial_graded_basis(HYP, 4), torus_sampler(HYP, 4))
    assert get() == 2


def test_searches_without_openblas_give_the_same_results(monkeypatch):
    samp = torus_sampler(HYP, 64)
    basis = cm_basis(HYP, 6)

    def run():
        return (
            fekete_maximize(basis, samp, seed=3, starts=4),
            compare_bases(HYP, ["monomial", "cm", "bb"], 6, samp, quad=torus_quadrature(HYP, 64), seed=3, starts=4),
        )

    found = run()
    monkeypatch.setattr(bases, "_openblas_threads", lambda: None)
    assert run() == found


_K52_SEARCH = """
import sys
from vdiam import fekete_maximize, load_variety, monomial_graded_basis, torus_sampler
hyp, _ = load_variety("hyperbola")
res = fekete_maximize(monomial_graded_basis(hyp, 52), torus_sampler(hyp, 512), starts=1)
print(repr(res.log_abs), res.indices)
"""


def test_a_search_does_not_depend_on_the_blas_thread_count():
    # at N = 105 the threaded matrix-vector products round differently: with
    # the caller's threads this search read 244.90603655526624 in two
    # threads and ...627 in one, on the same tuple
    src = str(Path(vdm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    outs = [
        subprocess.run(
            [sys.executable, "-c", _K52_SEARCH], env=dict(env, OPENBLAS_NUM_THREADS=str(threads)),
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        for threads in (1, 2)
    ]
    assert outs[0] == outs[1]
    assert outs[0].startswith("244.906036555266")


_CONE_BB = """
from vdiam import load_variety, monomial_graded_basis, torus_quadrature
from vdiam.bases import _orthonormal
cone, _ = load_variety("cone2d")
monos = monomial_graded_basis(cone, 4)
print(_orthonormal(cone, monos, torus_quadrature(cone, 128))[1].tobytes().hex())
"""


def test_bb_does_not_depend_on_the_blas_thread_count():
    # at P = 32,768 the threaded matrix-vector products of the Gram-Schmidt
    # that built bb before rounded differently, and with the caller's threads
    # its coefficients differed between one and two
    src = str(Path(vdm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    outs = [
        subprocess.run(
            [sys.executable, "-c", _CONE_BB], env=dict(env, OPENBLAS_NUM_THREADS=str(threads)),
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        for threads in (1, 2)
    ]
    assert outs[0] == outs[1]
    assert len(outs[0]) == 2 * 25 * 25 * 16 + 1
