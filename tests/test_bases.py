"""Graded bases (monomial / cm / bb) and the torus quadrature."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from vdiam import (
    BbNormalizationReport,
    CmConstructionError,
    Exact,
    QuadratureError,
    VarietyPresentation,
    bb_basis,
    bb_normalization,
    bb_structured,
    bb_y_block,
    cm_basis,
    cm_generators,
    count,
    decompose_A,
    default_quadrature_n,
    grevlex_key,
    gram,
    inner_product,
    load_variety,
    monomial_basis,
    monomial_graded_basis,
    parse_polynomial,
    Polynomial,
    torus_quadrature,
    verify_cm_products,
)
from vdiam.bases import _orthonormal
from vdiam.variety import x_monomials
from vdiam.vdm import _monomial_columns

HYP, HYP_EXTRAS = load_variety("hyperbola")
CONE, CONE_EXTRAS = load_variety("cone2d")


def P(text, pres=HYP):
    return parse_polynomial(text, pres.M, pres.N)


# ---------------------------------------------------------------------------
# monomial basis


def test_monomial_basis_hyperbola_k2():
    b = monomial_graded_basis(HYP, 2)
    assert [str(e) for e in b.elements] == ["1", "x1", "y1", "x1^2", "x1*y1"]
    assert b.degrees == (0, 1, 1, 2, 2)
    assert b.weighted_length() == 6
    assert len(b) == count(HYP, 2).N


def test_monomial_basis_counts_per_degree():
    for pres in (HYP, CONE):
        b = monomial_graded_basis(pres, 5)
        for j in range(6):
            assert sum(1 for d in b.degrees if d == j) == count(pres, j).N_eq


# ---------------------------------------------------------------------------
# cm generators


def test_cm_generators_hyperbola_exact():
    gens = cm_generators(HYP)
    assert gens.t == 1
    assert len(gens.vs) == 2
    half_r2 = Exact(0, Fraction(1, 2))  # sqrt2/2 = 1/sqrt2
    v1, v2 = gens.vs
    assert v1 == P("(y1 - x1)/sqrt2")
    assert v2 == P("(y1 + x1)/sqrt2")
    assert v1.coefficient((0, 1)) == half_r2
    assert v1.coefficient((1, 0)) == -half_r2
    # the root ordering puts lambda = +1 first
    assert gens.lambdas == (Exact(1), Exact(-1))


def test_cm_product_identities():
    gens = cm_generators(HYP)
    rep = verify_cm_products(HYP, gens)
    assert rep.ok, rep.problems
    # star(v_i, v_j) has x^(2t) coefficient delta_ij
    for i, row in enumerate(rep.top_coefficients):
        for j, c in enumerate(row):
            assert c == (Exact(1) if i == j else Exact(0))


def test_cm_generators_from_file_polys():
    gens = cm_generators(CONE, v_polys=CONE_EXTRAS["v_polys"])
    assert gens.t == 1
    assert len(gens.vs) == 2
    assert verify_cm_products(CONE, gens).ok


def test_cm_generators_refuse_nondistinct():
    pres, _ = load_variety("nondistinct")
    with pytest.raises(CmConstructionError):
        cm_generators(pres)


def test_cm_generators_refuse_two_y_variables():
    g1 = parse_polynomial("y1^2 - x1^2 - 1", 1, 3)
    g2 = parse_polynomial("y2^2 - x1^2 - 1", 1, 3)
    pres = VarietyPresentation(M=1, N=3, generators=(g1, g2))
    with pytest.raises(CmConstructionError):
        cm_generators(pres)


def test_cm_generator_file_count_mismatch():
    with pytest.raises(CmConstructionError):
        cm_generators(HYP, v_polys=[P("y1")])


# ---------------------------------------------------------------------------
# cm basis


def test_cm_basis_hyperbola_k2():
    gens = cm_generators(HYP)
    b = cm_basis(HYP, 2, gens)
    v1, v2 = gens.vs
    x = P("x1")
    assert list(b.elements) == [P("1"), v1, v2, x * v1, x * v2]
    assert b.degrees == (0, 1, 1, 2, 2)


def test_cm_basis_per_degree_counts():
    for pres, gens in (
        (HYP, cm_generators(HYP)),
        (CONE, cm_generators(CONE, v_polys=CONE_EXTRAS["v_polys"])),
    ):
        b = cm_basis(pres, 4, gens)
        for j in range(5):
            assert sum(1 for d in b.degrees if d == j) == count(pres, j).N_eq


# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_point_count_and_weights():
    q = torus_quadrature(HYP, 8)
    assert len(q) == 8 * 2  # nodes times sheets
    assert abs(q.weights.sum() - 1.0) < 1e-14
    q2 = torus_quadrature(CONE, 4)
    assert len(q2) == 4 * 4 * 2


def test_moment_of_y_closed_form():
    # <y,y>_n = (4/n) cot(pi/n), exactly, for every n
    for n in (8, 16, 64):
        q = torus_quadrature(HYP, n)
        got = inner_product(P("y1"), P("y1"), q)
        want = (4.0 / n) / math.tan(math.pi / n)
        assert abs(got - want) < 1e-12


def test_sheet_cancellation():
    q = torus_quadrature(HYP, 16)
    assert abs(inner_product(P("1"), P("y1"), q)) < 1e-14
    assert abs(inner_product(P("x1"), P("y1"), q)) < 1e-14


def test_x_monomials_orthonormal():
    q = torus_quadrature(HYP, 64)
    xs = [P(f"x1^{a}") if a else P("1") for a in range(6)]
    G = gram(xs, q)
    assert np.max(np.abs(G - np.eye(6))) < 1e-12


def test_two_sheet_families_cancel_in_cross_terms():
    g1 = parse_polynomial("y1^2 - x1^2 - 1", 1, 3)
    g2 = parse_polynomial("y2^2 - x1^2 - 2", 1, 3)
    pres = VarietyPresentation(M=1, N=3, generators=(g1, g2))
    q = torus_quadrature(pres, 8)
    assert len(q) == 8 * 4
    y1 = parse_polynomial("y1", 1, 3)
    y2 = parse_polynomial("y2", 1, 3)
    assert abs(inner_product(y1, y2, q)) < 1e-13


def test_quadrature_refuses_coupled_sheets():
    g1 = parse_polynomial("y1^2 - y2 - x1", 1, 3)
    g2 = parse_polynomial("y2^2 - x1", 1, 3)
    pres = VarietyPresentation(M=1, N=3, generators=(g1, g2))
    with pytest.raises(QuadratureError):
        torus_quadrature(pres, 4)


def test_default_quadrature_n():
    assert default_quadrature_n(8) == 256
    assert default_quadrature_n(63) == 256
    assert default_quadrature_n(100) == 512


# ---------------------------------------------------------------------------
# bb basis


def test_bb_k1_recovers_scaled_y():
    q = torus_quadrature(HYP, 256)
    b = bb_basis(HYP, 1, q)
    assert [str(e) for e in monomial_graded_basis(HYP, 1).elements] == ["1", "x1", "y1"]
    one, xhat, yhat = b.elements
    assert abs(one.coefficient((0, 0)) - 1.0) < 1e-13
    assert abs(xhat.coefficient((1, 0)) - 1.0) < 1e-13
    assert abs(xhat.coefficient((0, 0))) < 1e-13  # projection dust only
    # y is already orthogonal to 1 and x; only the norm changes.  The n-node
    # moment <y,y> sits 4pi/(3n^2) under 4/pi, which maps to ~2.2e-5 here.
    c = yhat.coefficient((0, 1))
    assert abs(c - math.sqrt(math.pi) / 2) < 5e-5
    assert abs(yhat.coefficient((1, 0))) < 1e-13


def test_bb_gram_is_identity():
    q = torus_quadrature(HYP, 256)
    b = bb_basis(HYP, 3, q)
    G = gram(b.elements, q)
    assert np.max(np.abs(G - np.eye(len(b)))) < 1e-10


def test_bb_leading_coefficients_real_positive():
    q = torus_quadrature(HYP, 128)
    b = bb_basis(HYP, 3, q)
    for e in b.elements:
        top = max(e.items(), key=lambda mc: abs(mc[1]))[1]
        assert abs(top.imag) < 1e-12 and top.real > 0


def test_bb_y_block_shapes():
    q = torus_quadrature(HYP, 128)
    yhats, coef = bb_y_block(HYP, q)
    assert len(yhats) == 2  # one per A-element: 1 and y
    assert coef.shape == (2, 2)
    assert yhats[0] == P("1").to_float()


def test_bb_structured_aliasing_coupling():
    # GS over the y-block only leaves <yhat, x^2 yhat> = 1/3 + O(n^-2)
    q = torus_quadrature(HYP, 256)
    b = bb_structured(HYP, 3, q)
    labels = [str(e) for e in b.elements]
    G = gram(b.elements, q)
    yh = next(i for i, e in enumerate(b.elements) if e.coefficient((0, 1)) != 0
              and e.degree() == 1)
    x2yh = next(i for i, e in enumerate(b.elements) if e.coefficient((2, 1)) != 0)
    assert abs(G[yh, x2yh] - 1.0 / 3.0) < 1e-3, labels
    # diagonal stays unit
    assert np.max(np.abs(np.diag(G) - 1.0)) < 1e-10


# ---------------------------------------------------------------------------
# the shared orthonormalizer against the two builders it replaced

# The Gram-Schmidt and the per-builder loops as they stood before bb_basis
# and bb_y_block shared one builder, kept as the reference.


def _ref_orthonormalize(vals, weights, coefs):
    m = vals.shape[0]
    q = vals.astype(complex).copy()
    c = coefs.astype(complex).copy()
    for j in range(m):
        for _ in range(2):
            for i in range(j):
                r = np.sum(weights * q[j] * np.conj(q[i]))
                q[j] -= r * q[i]
                c[j] -= r * c[i]
        norm = math.sqrt(float(np.sum(weights * np.abs(q[j]) ** 2).real))
        q[j] /= norm
        c[j] /= norm
        big = [idx for idx in range(c.shape[1]) if abs(c[j, idx]) > 1e-10]
        lead = big[-1] if big else int(np.argmax(np.abs(c[j])))
        ph = c[j, lead] / abs(c[j, lead])
        q[j] /= ph
        c[j] /= ph
    return q, c


def _ref_orthonormal(pres, monos, quad):
    vals = np.stack(
        [Polynomial.monomial(m, pres.M, pres.N, "float").evaluate(quad.points) for m in monos]
    )
    _, c = _ref_orthonormalize(vals, quad.weights, np.eye(len(monos)))
    polys = []
    for row in c:
        coefmap = {m: complex(cc) for m, cc in zip(monos, row) if cc != 0}
        polys.append(Polynomial(coefmap, pres.M, pres.N, "float"))
    return tuple(polys), c


def _ref_bb_structured(pres, k, quad):
    dec = decompose_A(pres)
    yhats, _ = _ref_orthonormal(pres, dec.A, quad)
    items = []
    for j, (alpha, yh) in enumerate(zip(dec.A, yhats)):
        da = sum(alpha)
        for beta in x_monomials(pres.M, pres.N, k - da):
            poly = Polynomial.monomial(beta, pres.M, pres.N, "float") * yh
            items.append(((sum(beta) + da, j, grevlex_key(beta)), poly))
    items.sort(key=lambda it: it[0])
    return tuple(it[1] for it in items)


def _coefficient_bytes(polys):
    return [[(m, c.real.hex(), c.imag.hex()) for m, c in p.items()] for p in polys]


BB_CASES = [(HYP, 256, k) for k in (1, 4, 16)] + [(CONE, 64, k) for k in (1, 2, 4)]
BB_IDS = [f"hyperbola-k{k}" for k in (1, 4, 16)] + [f"cone2d-k{k}" for k in (1, 2, 4)]


@pytest.mark.parametrize("pres, n, k", BB_CASES, ids=BB_IDS)
def test_bb_builders_match_the_reference_bit_for_bit(pres, n, k):
    quad = torus_quadrature(pres, n)
    monos = monomial_basis(pres, k)
    ref_full, ref_c = _ref_orthonormal(pres, monos, quad)
    assert _orthonormal(pres, monos, quad)[1].tobytes() == ref_c.tobytes()
    assert _coefficient_bytes(bb_basis(pres, k, quad).elements) == _coefficient_bytes(ref_full)
    ref_y, ref_yc = _ref_orthonormal(pres, decompose_A(pres).A, quad)
    yhats, yc = bb_y_block(pres, quad)
    assert yc.tobytes() == ref_yc.tobytes()
    assert _coefficient_bytes(yhats) == _coefficient_bytes(ref_y)
    got = bb_structured(pres, k, quad).elements
    assert _coefficient_bytes(got) == _coefficient_bytes(_ref_bb_structured(pres, k, quad))


def _ref_bb_normalization(pres, k, quad):
    """bb_normalization as it stood with its own dense coefficient matrices."""
    full = bb_basis(pres, k, quad)
    st = bb_structured(pres, k, quad)
    cols = _monomial_columns(full, st)

    def coef_matrix(basis):
        out = np.zeros((len(basis), len(cols)), dtype=complex)
        for i, e in enumerate(basis.elements):
            for m, c in e.items():
                out[i, cols[m]] = complex(c)
        return out

    t, *_ = np.linalg.lstsq(coef_matrix(st).T, coef_matrix(full).T, rcond=None)
    t = t.T
    n = t.shape[0]
    tri_ok = all(
        not (st.degrees[j] > full.degrees[i] and abs(t[i, j]) > 1e-8)
        for i in range(n)
        for j in range(n)
    )
    diag = tuple(float(abs(t[i, i])) for i in range(n))
    first_nonunit = next(((i, v) for i, v in enumerate(diag) if abs(v - 1.0) > 1e-6), None)
    return BbNormalizationReport(diag, min(diag), max(diag), tri_ok, first_nonunit)


@pytest.mark.parametrize("pres, n, k", BB_CASES, ids=BB_IDS)
def test_bb_normalization_matches_the_reference(pres, n, k):
    quad = torus_quadrature(pres, n)
    got, want = bb_normalization(pres, k, quad), _ref_bb_normalization(pres, k, quad)
    for f in dataclasses.fields(BbNormalizationReport):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
