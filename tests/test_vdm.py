"""Samplers, Vandermonde evaluation, Fekete search, and scale bounds."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from vdiam import (
    FeketeError,
    VarietyPresentation,
    bb_basis,
    bb_normalization,
    brute_force_max,
    cm_basis,
    cm_generators,
    count,
    diameter_sequence,
    fekete_maximize,
    file_sampler,
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
from vdiam.bases import GradedBasis, QuadratureError
from vdiam.polyring import Polynomial, parse_polynomial
from vdiam.scalars import SQRT2, Exact
import vdiam.vdm as vdm
from vdiam.vdm import (
    _coef_rows,
    _exact_change_of_basis,
    _first_nonzero_pivots_exact,
    _greedy_init,
    _monomial_columns,
    _sweep_to_convergence,
    build_basis,
    compare_bases,
)

HYP, _ = load_variety("hyperbola")
GENS = cm_generators(HYP)
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


def test_cm_and_monomial_determinants_agree():
    # the change of basis between them has unit determinant in every degree
    for k in (1, 2, 3, 4):
        mb = monomial_graded_basis(HYP, k)
        cb = cm_basis(HYP, k, GENS)
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


def test_fekete_needs_enough_candidates():
    b = monomial_graded_basis(HYP, 3)  # N = 7
    with pytest.raises(FeketeError):
        fekete_maximize(b, torus_sampler(HYP, 2))


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


# ---------------------------------------------------------------------------
# row-scale bounds


def test_scale_bound_cm_vs_monomial():
    k = 3
    cb = cm_basis(HYP, k, GENS)
    mb = monomial_graded_basis(HYP, k)
    tuples = [random_variety_points(HYP, count(HYP, k).N, seed=s).points for s in range(6)]
    rep = row_scale_bound(cb, mb, tuples)
    assert rep.mode == "exact"
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


def test_scale_bound_requires_matching_lengths():
    with pytest.raises(ValueError):
        row_scale_bound(monomial_graded_basis(HYP, 2), monomial_graded_basis(HYP, 3))


def test_scale_bound_refuses_float_bases():
    bb = bb_basis(HYP, 2, torus_quadrature(HYP, 256))
    with pytest.raises(ValueError, match="row-scale bounds need exact bases"):
        row_scale_bound(bb, monomial_graded_basis(HYP, 2))


def test_bb_normalization_block_structure():
    quad = torus_quadrature(HYP, 256)
    rep = bb_normalization(HYP, 3, quad)
    assert rep.degree_triangular_ok
    assert abs(rep.min_diag - 1.0) < 1e-6
    # the first row that mixes y with the x-block rescales by 3/(2*sqrt2)
    assert rep.first_nonunit is not None
    _, value = rep.first_nonunit
    assert abs(value - 3 / (2 * math.sqrt(2))) < 1e-3


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
    cols = _monomial_columns(basis_b, basis_c)
    t = _exact_change_of_basis(_coef_rows(basis_b, cols), _coef_rows(basis_c, cols), len(cols))
    return _first_nonzero_pivots_exact(t)


CONE, _ = load_variety("cone2d")


@pytest.mark.parametrize(
    "name, k",
    [("hyperbola", k) for k in range(1, 9)] + [("cone2d", k) for k in range(1, 4)],
)
def test_sparse_pivots_match_dense_reference(name, k):
    pres = {"hyperbola": HYP, "cone2d": CONE}[name]
    cb = cm_basis(pres, k, cm_generators(pres))
    mb = monomial_graded_basis(pres, k)
    assert sparse_pivots(cb, mb) == dense_pivots(cb, mb)


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
            elif mb.degrees[j] <= mb.degrees[i]:
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
    nvars = mb.elements[0].nvars
    nx = mb.elements[0].nx
    elements = tuple(
        Polynomial(
            {e.monomials()[0]: Exact(c) for e, c in zip(mb.elements, row) if c},
            nx,
            nvars,
        )
        for row in t
    )
    bb = GradedBasis("random", mb.k, elements, mb.degrees, "T * monomial")
    pivots = sparse_pivots(bb, mb)
    assert pivots == dense_pivots(bb, mb)
    assert abs(math.prod(p.as_fraction() for p in pivots)) == abs(det)
    rep = row_scale_bound(bb, mb)
    assert rep.mode == "exact"
    assert abs(rep.log_abs_det - math.log(abs(det))) < 1e-12 * max(1.0, abs(math.log(abs(det))))


def test_scale_bound_closed_form_at_k50():
    k = 50
    cb = cm_basis(HYP, k, GENS)
    mb = monomial_graded_basis(HYP, k)
    # one 2x2 block [[-1/sqrt2, 1/sqrt2], [1/sqrt2, 1/sqrt2]] per degree
    assert sparse_pivots(cb, mb) == [Exact(1)] + [-SQRT2 / 2, SQRT2] * k
    rep = row_scale_bound(cb, mb)
    # |-sqrt2/2| rounds to sqrt(2)/2, one ulp above 1/sqrt(2)
    assert rep.pivot_abs == (1.0,) + (math.sqrt(2) / 2, math.sqrt(2)) * k
    assert rep.m == math.sqrt(2) / 2
    assert rep.Mx == math.sqrt(2)


def _hyp_basis(*texts):
    elements = tuple(parse_polynomial(s, 1, 2) for s in texts)
    degrees = tuple(e.degree() for e in elements)
    return GradedBasis("test", max(degrees), elements, degrees, "test")


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


def _fresh_solve_sweep(E, sel, max_sweeps):
    """The exchange loop that `_sweep_to_convergence` must match bit for
    bit: a fresh LU solve at every slot and a slogdet after every swap."""
    N = len(sel)
    sign, log_abs = np.linalg.slogdet(E[sel])
    if sign == 0:
        return sel, -math.inf, 0
    log_abs = float(log_abs)
    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        gain = 0.0
        for s in range(N):
            A = E[sel]
            rhs = np.zeros(N, dtype=complex)
            rhs[s] = 1.0
            try:
                bcol = np.linalg.solve(A, rhs)
            except np.linalg.LinAlgError:
                break
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

    def recorded(E, sel, max_sweeps):
        out = kernel(E, sel, max_sweeps)
        calls.append((list(out[0]), out[1], out[2]))
        return out

    monkeypatch.setattr(vdm, "_sweep_to_convergence", recorded)
    return run(), calls


def assert_matches_fresh_solves(monkeypatch, run):
    got = _with_sweep(monkeypatch, _sweep_to_convergence, run)
    want = _with_sweep(monkeypatch, _fresh_solve_sweep, run)
    assert got[1] == want[1]
    assert got[0] == want[0]


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
    # inverse must settle at least three slots in four (97 solves over
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
        sel, _, sweeps = _sweep_to_convergence(E, list(init), 200)
        visits += len(sel) * sweeps
    assert visits > 0
    assert len(solves) < visits / 4


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
    deg = np.array(mb.degrees)
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
    sel, log_mono, _ = _sweep_to_convergence(E_mono, list(start), 200)
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
        runs = vdm._searched(E, inits, 200)
        assert runs == [_fresh_solve_sweep(E, list(init), 200) for init in inits]
        scored = [(sel, float(np.linalg.slogdet(E_b[sel])[1]), sweeps) for sel, _, sweeps in runs]
        assert vdm._scored(E_b, runs) == vdm._fekete_result(E_b, scored)
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
            E = vdm._grow(E, full, k, points)
            keep = [i for i, d in enumerate(full.degrees) if d <= k]
            assert E.flags.c_contiguous
            assert E.tobytes() == vdm_matrix(vdm._prefix(full, k), points).tobytes()
            assert E.tobytes() == np.ascontiguousarray(vdm_matrix(full, points)[:, keep]).tobytes()


def _monomial_searches(pres, kinds, k_max, samp, *, quad, seed, starts):
    """Each kind's diameter sequence from one search: the starts of the
    monomial basis and of every kind, each distinct one run through the
    fresh-solve loop in the monomial basis, and each kind's best log|det|
    over all the final tuples."""
    fulls = {kind: build_basis(pres, kind, k_max, quad=quad) for kind in ("monomial", *kinds)}
    out = {kind: [] for kind in kinds}
    for k in range(1, k_max + 1):
        Es = {kind: vdm_matrix(vdm._prefix(b, k), samp.points) for kind, b in fulls.items()}
        inits = [tuple(t) for E in Es.values() for t in vdm._initial_tuples(E, seed=seed, starts=starts)]
        runs = [_fresh_solve_sweep(Es["monomial"], list(t), 200) for t in dict.fromkeys(inits)]
        for kind in kinds:
            scored = []
            for sel, log_abs, sweeps in runs:
                sign, log_b = np.linalg.slogdet(Es[kind][sel])
                scored.append((sel, float(log_b) if sign != 0 and math.isfinite(log_abs) else -math.inf, sweeps))
            out[kind].append(vdm._estimate(kind, k, count(pres, k), vdm._fekete_result(Es[kind], scored)))
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
        (("monomial", "bb"), FeketeError, "need at least 9 candidates, got 8"),
        (("bb", "monomial"), QuadratureError, "numerically dependent"),
    ],
)
def test_compare_bases_raises_the_first_kinds_error(kinds, error, message):
    # bb cannot be built from 8 quadrature points at k = 30, and the 8
    # candidates stop spanning the monomials at k = 4: the error raised is
    # the one the kinds meet first when their sequences run one after another
    samp = torus_sampler(HYP, 4)
    with pytest.raises(error, match=message):
        compare_bases(HYP, kinds, 30, samp, quad=torus_quadrature(HYP, 4))


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
    pres, extras = load_variety("cone2d")
    gens = cm_generators(pres, extras.get("v_polys"))
    est = compare_bases(
        pres, ["monomial", "cm", "bb"], 4, torus_sampler(pres, 16),
        gens=gens, quad=torus_quadrature(pres, 128), seed=16, starts=4,
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
