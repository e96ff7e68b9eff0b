"""Graded bases (monomial / cm / bb) and the torus quadrature."""

import itertools
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from conftest import split_family

from vdiam import (
    CmConstructionError,
    Exact,
    QuadratureError,
    VarietyPresentation,
    bb_basis,
    bb_structured,
    cm_basis,
    cm_generators,
    check_compliant,
    count,
    decompose_A,
    default_quadrature_n,
    distinct_infinity_check,
    family_for,
    grevlex_key,
    gram,
    inner_product,
    load_variety,
    star,
    monomial_graded_basis,
    parse_polynomial,
    Polynomial,
    QuadratureSpec,
    row_scale_bound,
    torus_quadrature,
    verify_cm_products,
)
from vdiam import bases
from vdiam.bases import _orthonormal
from vdiam.polyring import monomial_divides
from vdiam.variety import x_monomials

HYP, HYP_EXTRAS = load_variety("hyperbola")
CONE, _ = load_variety("cone2d")


def P(text, pres=HYP):
    return parse_polynomial(text, pres.M, pres.N)


# ---------------------------------------------------------------------------
# monomial basis


def _standard_monomials(pres, k):
    """Exponent vectors of degree <= k divisible by no generator's leading
    monomial, in grevlex order, by brute force over the box [0, k]^N."""
    leads = [g.leading_monomial() for g in pres.generators]
    return sorted(
        (m for m in itertools.product(range(k + 1), repeat=pres.N)
         if sum(m) <= k and not any(monomial_divides(lead, m) for lead in leads)),
        key=grevlex_key,
    )


def _y_block(pres, quad):
    """The orthonormalized pure-y block the bb family multiplies by x monomials."""
    return _orthonormal(pres, [c.multiplier for c in family_for(pres, "monomial")], quad)


def test_monomial_basis_hyperbola_k2():
    b = monomial_graded_basis(HYP, 2)
    assert [str(e) for e in b] == ["1", "x1", "y1", "x1^2", "x1*y1"]
    assert tuple(e.degree() for e in b) == (0, 1, 1, 2, 2)
    assert sum(e.degree() for e in b) == count(HYP, 2).l == 6
    assert len(b) == count(HYP, 2).N


@pytest.mark.parametrize("pres, k_max", [(HYP, 16), (CONE, 6)], ids=["hyperbola", "cone2d"])
def test_monomial_basis_is_the_monomials_outside_the_ideal(pres, k_max):
    for k in range(k_max + 1):
        b = monomial_graded_basis(pres, k)
        assert [e.leading_monomial() for e in b] == _standard_monomials(pres, k)
        assert all(list(e.items()) == [(e.leading_monomial(), Exact(1))] for e in b)


def test_monomial_basis_counts_per_degree():
    for pres in (HYP, CONE):
        b = monomial_graded_basis(pres, 5)
        for j in range(6):
            assert sum(1 for e in b if e.degree() == j) == count(pres, j).N_eq


# ---------------------------------------------------------------------------
# cm generators


def test_cm_generators_hyperbola_exact():
    gens = cm_generators(HYP)
    assert type(gens) is tuple
    assert [v.degree() for v in gens] == [1, 1]
    half_r2 = Exact(0, Fraction(1, 2))  # sqrt2/2 = 1/sqrt2
    v1, v2 = gens
    assert v1 == P("(y1 - x1)/sqrt2")
    assert v2 == P("(y1 + x1)/sqrt2")
    assert v1.coefficient((0, 1)) == half_r2
    assert v1.coefficient((1, 0)) == -half_r2
    # the root ordering puts lambda = +1 first
    assert distinct_infinity_check(HYP).exact_roots == (Exact(1), Exact(-1))


def test_cm_product_identities():
    gens = cm_generators(HYP)
    rep = verify_cm_products(HYP, gens)
    assert rep.ok, rep.problems
    # star(v_i, v_j) has x^(2t) coefficient delta_ij
    for i, row in enumerate(rep.top_coefficients):
        for j, c in enumerate(row):
            assert c == (Exact(1) if i == j else Exact(0))


def _ref_verify_cm_products(pres, gens):
    """verify_cm_products as it stood with one star product per ordered pair,
    t the degree of the first generator and mixed degrees listed first."""
    t = gens[0].degree()
    xM = pres.M - 1
    top_mono = tuple(2 * t if j == xM else 0 for j in range(pres.N))
    degs = sorted({v.degree() for v in gens})
    problems = [f"sheet generators have mixed degrees {degs}"] if len(degs) > 1 else []
    coefs, products = [], {}
    one, zero = Exact(1), Exact(0)
    for i, vi in enumerate(gens):
        row = []
        for j, vj in enumerate(gens):
            p = star(vi, vj, pres.generators)
            products[(i, j)] = p
            c = p.coefficient(top_mono)
            row.append(c)
            want = one if i == j else zero
            if c != want:
                problems.append(
                    f"star(v{i + 1}, v{j + 1}) has x{xM + 1}^{2 * t} coefficient {c}, expected {want}"
                )
            xm_deg = max((m[xM] for m in p.monomials()), default=0)
            if xm_deg > 2 * t:
                problems.append(
                    f"star(v{i + 1}, v{j + 1}) has x{xM + 1}-degree {xm_deg} > {2 * t}"
                )
        coefs.append(tuple(row))
    return not problems, tuple(problems), tuple(coefs), products


PRODUCT_CASES = [
    (HYP, cm_generators(HYP), True),
    (CONE, cm_generators(CONE), True),
    # three generators with off-identity products and an x1-degree overflow
    (HYP, (P("y1"), P("x1"), P("x1^2 + y1")), False),
]


@pytest.mark.parametrize("pres, gens, ok", PRODUCT_CASES, ids=["hyperbola", "cone2d-file", "three-generators"])
def test_cm_products_star_once_per_unordered_pair(pres, gens, ok, monkeypatch):
    calls = []

    def counted(p, q, generators):
        calls.append((p, q))
        return star(p, q, generators)

    monkeypatch.setattr(bases, "star", counted)
    rep = verify_cm_products(pres, gens)
    d = len(gens)
    assert len(calls) == d * (d + 1) // 2
    ref_ok, problems, coefs, products = _ref_verify_cm_products(pres, gens)
    assert (rep.ok, rep.problems, rep.top_coefficients) == (ref_ok, problems, coefs)
    assert list(rep.products) == list(products)
    assert rep.products == products
    assert rep.ok == ok


def test_cm_generators_from_file_polys():
    gens = cm_generators(CONE)
    assert gens == CONE.v_polys
    assert [v.degree() for v in gens] == [1, 1]
    assert verify_cm_products(CONE, gens).ok


def test_cm_products_list_generators_of_mixed_degrees():
    rep = verify_cm_products(HYP, (P("y1"), P("x1^2 + y1")))
    assert not rep.ok
    assert rep.problems[0] == "sheet generators have mixed degrees [1, 2]"


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


def test_cm_generators_refuse_roots_outside_the_field():
    # y^4 - x^4 - 1: the points at infinity 1, i, -1, -i are distinct and in
    # the field, but the exact root finder reaches only rational roots above
    # degree 2
    pres, _ = load_variety({"M": 1, "N": 2, "generators": ["y1^4 - x1^4 - 1"]})
    with pytest.raises(CmConstructionError, match="not expressible"):
        cm_generators(pres)


def test_cm_generators_refuse_file_generators_of_two_degrees():
    pres, _ = load_variety({"M": 1, "N": 2, "generators": ["y1^2 - x1^2 - 1"], "v_polys": ["y1", "x1^2"]})
    with pytest.raises(CmConstructionError, match=re.escape("must share one degree, got [1, 2]")):
        cm_generators(pres)


def test_cm_generators_refuse_an_empty_list_of_file_generators():
    # an empty `v_polys` is a list of no generators, not a missing field
    pres, _ = load_variety({"M": 1, "N": 2, "generators": ["y1^2 - x1^2 - 1"], "v_polys": []})
    assert pres.v_polys == ()
    with pytest.raises(CmConstructionError, match=re.escape("expected d=2 sheet generators, got 0")):
        cm_generators(pres)


def test_cm_generators_refuse_a_normalizer_outside_the_field():
    # roots at infinity 1 and -2: (y - x)^2 has x^2 coefficient 3 in the quotient
    pres, _ = load_variety({"M": 1, "N": 2, "generators": ["y1^2 + x1*y1 - 2*x1^2 - 1"]})
    assert distinct_infinity_check(pres).exact_roots == (Exact(1), Exact(-2))
    with pytest.raises(CmConstructionError, match=re.escape("normalizer sqrt(3) does not exist")):
        cm_generators(pres)


# roots at infinity 2 and 1: (y - 2x)^2 has x^2 coefficient 2 in the quotient
# and (y - x)^2 has -1, whose root i lies in the field
IMAGINARY = load_variety({"M": 1, "N": 2, "generators": ["y1^2 - 3*x1*y1 + 2*x1^2 + x1 - 1"]})[0]


def test_cm_generators_take_an_imaginary_normalizer():
    assert distinct_infinity_check(IMAGINARY).exact_roots == (Exact(2), Exact(1))
    gens = cm_generators(IMAGINARY)
    assert gens == (P("(sqrt2/2)*y1 - sqrt2*x1"), P("-i*y1 + i*x1"))
    assert verify_cm_products(IMAGINARY, gens).ok
    monomial, cm = family_for(IMAGINARY, "monomial"), family_for(IMAGINARY, "cm")
    assert check_compliant(monomial, cm).compliant
    for k in range(1, 5):
        basis = cm_basis(IMAGINARY, k)
        assert len(basis) == count(IMAGINARY, k).N
        rep = row_scale_bound(monomial_graded_basis(IMAGINARY, k), basis)
        assert abs(rep.log_abs_det - k / 2 * math.log(2)) < 1e-12


def test_cm_generators_refuse_a_non_real_normalizer_as_not_found(monkeypatch):
    # roots at infinity 1 and i, which the exact root finder does not reach
    # today: (y - x)^2 has x^2 coefficient 1 - i, whose roots exact_sqrt
    # does not look for
    pres, _ = load_variety({"M": 1, "N": 2, "generators": ["y1^2 - (1+i)*x1*y1 + i*x1^2 - 1"]})
    report = replace(distinct_infinity_check(pres), exact_roots=(Exact(1), Exact(0, 0, 1)))
    monkeypatch.setattr(bases, "distinct_infinity_check", lambda pres: report)
    with pytest.raises(CmConstructionError, match=re.escape("normalizer sqrt of (1-i): root not found")):
        cm_generators(pres)


def test_cm_generator_file_count_mismatch():
    with pytest.raises(CmConstructionError):
        cm_generators(replace(HYP, v_polys=(P("y1"),)))


# ---------------------------------------------------------------------------
# cm basis


def test_cm_basis_hyperbola_k2():
    v1, v2 = cm_generators(HYP)
    b = cm_basis(HYP, 2)
    x = P("x1")
    assert list(b) == [P("1"), v1, v2, x * v1, x * v2]
    assert tuple(e.degree() for e in b) == (0, 1, 1, 2, 2)


def test_cm_basis_per_degree_counts():
    for pres in (HYP, CONE):
        b = cm_basis(pres, 4)
        for j in range(5):
            assert sum(1 for e in b if e.degree() == j) == count(pres, j).N_eq


# cm_basis as it stood with its own enumeration, before it became the cm
# family expanded to degree k, kept as the reference.


def _ref_cm_basis(pres, k, gens):
    t = gens[0].degree()
    A = decompose_A(pres)
    xM = pres.M - 1
    per_degree = {}

    def push(deg, rank, key, poly):
        per_degree.setdefault(deg, []).append((rank, key, poly))

    for alpha in A:
        for l in range(max(0, t - sum(alpha))):
            base = tuple(e + (l if j == xM else 0) for j, e in enumerate(alpha))
            room = k - sum(base)
            if room < 0:
                continue
            for beta in x_monomials(pres.M - 1, pres.N, room):
                mono = tuple(b + e for b, e in zip(beta, base))
                push(sum(mono), 0, grevlex_key(mono), Polynomial.monomial(mono, pres.M, pres.N, "exact"))
    for gmono in x_monomials(pres.M, pres.N, k - t):
        gpoly = Polynomial.monomial(gmono, pres.M, pres.N, "exact")
        for i, v in enumerate(gens):
            push(sum(gmono) + t, 1, (grevlex_key(gmono), i), gpoly * v)
    elements, degrees = [], []
    for deg in sorted(per_degree):
        for _, _, poly in sorted(per_degree[deg], key=lambda item: (item[0], item[1])):
            elements.append(poly)
            degrees.append(deg)
    return elements, tuple(degrees)


CM_CASES = [
    (HYP, cm_generators(HYP), 16),
    (replace(CONE, v_polys=None), cm_generators(replace(CONE, v_polys=None)), 6),
    (CONE, cm_generators(CONE), 6),
]


@pytest.mark.parametrize("pres, gens, k_max", CM_CASES, ids=["hyperbola", "cone2d", "cone2d-file"])
def test_cm_basis_matches_the_reference_element_for_element(pres, gens, k_max):
    for k in range(k_max + 1):
        got = cm_basis(pres, k)
        ref_elements, ref_degrees = _ref_cm_basis(pres, k, gens)
        assert [list(e.items()) for e in got] == [list(e.items()) for e in ref_elements]
        assert tuple(e.degree() for e in got) == ref_degrees


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
    assert [str(e) for e in monomial_graded_basis(HYP, 1)] == ["1", "x1", "y1"]
    one, xhat, yhat = b
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
    G = gram(b, q)
    assert np.max(np.abs(G - np.eye(len(b)))) < 1e-10


def test_bb_leading_coefficients_real_positive():
    q = torus_quadrature(HYP, 128)
    b = bb_basis(HYP, 3, q)
    for e in b:
        top = max(e.items(), key=lambda mc: abs(mc[1]))[1]
        assert abs(top.imag) < 1e-12 and top.real > 0


def _toeplitz_y_block(k):
    """The Gram matrix of y, x y, ..., x^(k-1) y on the hyperbola's unit
    torus in the continuum: |y|^2 = |x^2 + 1| = 2|cos theta|, whose Fourier
    coefficients are (4/pi)(-1)^(j+1)/(4j^2 - 1) at index 2j and 0 at odd
    index."""

    def c(m):
        j = abs(m) // 2
        return 0.0 if m % 2 else (4 / math.pi) * (-1) ** (j + 1) / (4 * j * j - 1)

    return np.array([[c(a - b) for b in range(k)] for a in range(k)])


@pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
def test_bb_leading_coefficients_give_the_toeplitz_log_determinant(k):
    # the x monomials are orthonormal and orthogonal to the y block, so
    # det G_k = det T_k up to the O(n^-2) error of the equal-weight rule;
    # bb's leading coefficients are 1/|q_j|, whose squares multiply to 1/det G_k
    quad = torus_quadrature(HYP, 4096)
    mono = monomial_graded_basis(HYP, k)
    l = count(HYP, k).l
    want = 0.5 * np.linalg.slogdet(_toeplitz_y_block(k))[1] / l
    sign, logdet = np.linalg.slogdet(gram(mono, quad))
    assert abs(sign - 1) < 1e-12 and abs(0.5 * logdet / l - want) <= 1e-7
    leads = [e.coefficient(m.leading_monomial()) for e, m in zip(bb_basis(HYP, k, quad), mono)]
    assert all(c.imag == 0 and c.real > 0 for c in leads)
    assert abs(-sum(math.log(c.real) for c in leads) / l - 0.5 * logdet / l) <= 1e-13


@pytest.mark.parametrize("a", [0.5, 0.9])
@pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
def test_a_reweighted_rule_keeps_the_x_block_in_closed_form(a, k):
    # nu = |1 + a x|^2 mu has the weight's Fourier coefficients 1 + a^2 and a
    # on its x-block, the tridiagonal T_{k+1}(|1 + a z|^2) with determinant
    # (1 - a^(2(k+2)))/(1 - a^2); the sheets still cancel between x^i and
    # x^j y, and bb built in nu is orthonormal in nu by the direct sum
    q = torus_quadrature(HYP, 256)
    nu = QuadratureSpec(q.points, q.weights * np.abs(1 + a * q.points[:, 0]) ** 2)
    mono = monomial_graded_basis(HYP, k)
    upper = bases.torus_gram(HYP, mono, nu)
    g = upper + np.conjugate(np.triu(upper, 1)).T
    xs = [i for i, e in enumerate(mono) if not e.leading_monomial()[1]]
    xys = [i for i, e in enumerate(mono) if e.leading_monomial()[1]]
    want = (1 - a ** (2 * (k + 2))) / (1 - a**2)
    assert abs(np.linalg.det(g[np.ix_(xs, xs)]) / want - 1) <= 1e-12
    assert np.abs(g[np.ix_(xs, xys)]).max() <= 1e-14
    bb = bb_basis(HYP, k, nu)
    assert np.abs(gram(bb, nu) - np.eye(len(bb))).max() <= 1e-12


def test_bb_y_block_shapes():
    q = torus_quadrature(HYP, 128)
    yhats, coef = _y_block(HYP, q)
    assert len(yhats) == 2  # one per A-element: 1 and y
    assert coef.shape == (2, 2)
    assert yhats[0] == P("1").to_float()


def test_bb_structured_aliasing_coupling():
    # GS over the y-block only leaves <yhat, x^2 yhat> = 1/3 + O(n^-2)
    q = torus_quadrature(HYP, 256)
    b = bb_structured(HYP, 3, q)
    labels = [str(e) for e in b]
    G = gram(b, q)
    yh = next(i for i, e in enumerate(b) if e.coefficient((0, 1)) != 0
              and e.degree() == 1)
    x2yh = next(i for i, e in enumerate(b) if e.coefficient((2, 1)) != 0)
    assert abs(G[yh, x2yh] - 1.0 / 3.0) < 1e-3, labels
    # diagonal stays unit
    assert np.max(np.abs(np.diag(G) - 1.0)) < 1e-10


# ---------------------------------------------------------------------------
# the shared orthonormalizer against loop references

# The Cholesky factor of `torus_gram`'s Gram matrix row by row and its
# inverse by forward recursion, written out step by step, are the reference
# the builders are pinned to bit for bit.  The Gram matrix summed block by
# block over the full value matrix, which the builders summed before they
# read it off the sheet symbols, is the oracle for `torus_gram` itself: the
# two agree to rounding.  Modified Gram-Schmidt with one reorthogonalization,
# which the builders once ran, is kept as an accuracy oracle for the whole
# build.  It keeps the phase step the builders no longer take (each row's
# leading coefficient is 1/L_jj > 0 by construction).


def _ref_normalize(q, c, j, weights):
    norm = math.sqrt(float(np.sum(weights * np.abs(q[j]) ** 2).real))
    q[j] /= norm
    c[j] /= norm
    big = [idx for idx in range(c.shape[1]) if abs(c[j, idx]) > 1e-10]
    lead = big[-1] if big else int(np.argmax(np.abs(c[j])))
    ph = c[j, lead] / abs(c[j, lead])
    q[j] /= ph
    c[j] /= ph


def _ref_gram_upper(vals, weights):
    """Column j of the upper triangle gains v[:j+1] @ conj(w v[j]) from each
    block of `bases._GRAM_BLOCK` points."""
    m, n_points = vals.shape
    g = np.zeros((m, m), dtype=complex)
    for start in range(0, n_points, bases._GRAM_BLOCK):
        v = vals[:, start : start + bases._GRAM_BLOCK]
        w = weights[start : start + bases._GRAM_BLOCK]
        for j in range(m):
            g[: j + 1, j] += v[: j + 1] @ np.conj(w * v[j])
    return g


def _ref_cholesky_inverse(g):
    """C = L^-1 for G = L L^H, with L and C built row by row side by side:
    row j of L is conj(C[:j, :j] g[:j, j]), and row j of C solves L C = I."""
    m = g.shape[0]
    L = np.zeros((m, m), dtype=complex)
    C = np.zeros((m, m), dtype=complex)
    for j in range(m):
        L[j, :j] = np.conj(C[:j, :j] @ g[:j, j])
        ljj = math.sqrt(g[j, j].real - np.vdot(L[j, :j], L[j, :j]).real)
        L[j, j] = ljj
        C[j, :j] = -(L[j, :j] @ C[:j, :j]) / ljj
        C[j, j] = 1 / ljj
    return C


def _mgs_orthonormalize(vals, weights, coefs):
    q = vals.astype(complex).copy()
    c = coefs.astype(complex).copy()
    for j in range(q.shape[0]):
        for _ in range(2):
            for i in range(j):
                r = np.sum(weights * q[j] * np.conj(q[i]))
                q[j] -= r * q[i]
                c[j] -= r * c[i]
        _ref_normalize(q, c, j, weights)
    return q, c


def _monomials(pres, monos):
    return [Polynomial.monomial(m, pres.M, pres.N, "float") for m in monos]


def _monomial_values(pres, monos, quad):
    return np.stack([e.evaluate(quad.points) for e in _monomials(pres, monos)])


def _assert_the_symbols_give_the_direct_sum(pres, monos, quad):
    got = bases.torus_gram(pres, _monomials(pres, monos), quad)
    want = _ref_gram_upper(_monomial_values(pres, monos, quad), quad.weights)
    assert np.abs(got - want).max() <= 1e-13


# in one BLAS thread, as the builders run: threaded matrix-vector products
# round differently
@bases._one_blas_thread
def _ref_orthonormal(pres, monos, quad):
    c = _ref_cholesky_inverse(bases.torus_gram(pres, _monomials(pres, monos), quad))
    polys = []
    for row in c:
        coefmap = {m: complex(cc) for m, cc in zip(monos, row) if cc != 0}
        polys.append(Polynomial(coefmap, pres.M, pres.N, "float"))
    return tuple(polys), c


def _ref_bb_structured(pres, k, quad):
    A = decompose_A(pres)
    yhats, _ = _ref_orthonormal(pres, A, quad)
    items = []
    for j, (alpha, yh) in enumerate(zip(A, yhats)):
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
    monos = _standard_monomials(pres, k)
    _assert_the_symbols_give_the_direct_sum(pres, monos, quad)
    _assert_the_symbols_give_the_direct_sum(pres, decompose_A(pres), quad)
    ref_full, ref_c = _ref_orthonormal(pres, monos, quad)
    assert _orthonormal(pres, monomial_graded_basis(pres, k), quad)[1].tobytes() == ref_c.tobytes()
    assert _coefficient_bytes(bb_basis(pres, k, quad)) == _coefficient_bytes(ref_full)
    ref_y, ref_yc = _ref_orthonormal(pres, decompose_A(pres), quad)
    yhats, yc = _y_block(pres, quad)
    assert yc.tobytes() == ref_yc.tobytes()
    assert _coefficient_bytes(yhats) == _coefficient_bytes(ref_y)
    got = bb_structured(pres, k, quad)
    assert _coefficient_bytes(got) == _coefficient_bytes(_ref_bb_structured(pres, k, quad))


TWO_Y = VarietyPresentation(
    M=1,
    N=3,
    generators=(parse_polynomial("y1^2 - x1^2 - 1", 1, 3), parse_polynomial("y2^2 - x1^2 - 2", 1, 3)),
)


@pytest.mark.parametrize(
    "pres, n, k", [(TWO_Y, 8, 3), (TWO_Y, 600, 5), (CONE, 96, 3)], ids=["two-y-n8", "two-y-n600", "cone2d-n96"]
)
def test_the_symbols_give_the_direct_sum(pres, n, k):
    # two-y: d = 4 sheets and y-parts in two variables; at n = 8 the shifts
    # reach 3 of 8, at n = 600 the symbol is filled in blocks of 512 x-nodes
    # and 88.  cone2d at n = 96 is transformed in slabs of 21 lines and 12
    _assert_the_symbols_give_the_direct_sum(pres, _standard_monomials(pres, k), torus_quadrature(pres, n))


@pytest.mark.parametrize("shape", [(8,), (700,), (96, 96), (128, 128), (48, 48, 48)])
def test_the_transform_in_slabs_is_fftn_bit_for_bit(shape):
    # 96, 128 and 48 nodes per circle give slabs of 21, 16 and 42 lines, the
    # first and last with a partial last slab
    rng = np.random.default_rng(len(shape))
    grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = np.fft.fftn(grid)
    bases._fft_in_place(grid)
    assert grid.tobytes() == want.tobytes()


@pytest.mark.parametrize("pres, n", [(HYP, 64), (CONE, 16)], ids=["hyperbola", "cone2d"])
def test_bb_family_carries_the_y_block_untrimmed(pres, n):
    quad = torus_quadrature(pres, n)
    fam = family_for(pres, "bb", quad=quad)
    yhats, _ = _y_block(pres, quad)
    assert _coefficient_bytes(c.multiplier for c in split_family(fam)[0]) == _coefficient_bytes(yhats)
    assert all(c.variables == frozenset(range(pres.M)) for c in split_family(fam)[0]) and not split_family(fam)[1]


# ---------------------------------------------------------------------------
# the in-place orthonormalizer where the weights round, its inputs, and its
# footprint

# 1/P is a power of two in BB_CASES (P = 512, 8192), so there weights * q is
# exact and a reordered weight multiply would go unnoticed.  Here P = 200,
# P = 288 and P = 3,200, whose last block of the direct Gram sum and of the
# symbol fill (1,024 of its 1,600 x-nodes, then 576) is a partial one.
ROUNDING_CASES = [(HYP, 100, k) for k in (4, 16)] + [(CONE, 12, k) for k in (2, 4)] + [(CONE, 40, 2)]
ROUNDING_IDS = (
    [f"hyperbola-n100-k{k}" for k in (4, 16)] + [f"cone2d-n12-k{k}" for k in (2, 4)] + ["cone2d-n40-k2"]
)


@pytest.mark.parametrize("pres, n, k", ROUNDING_CASES, ids=ROUNDING_IDS)
def test_bb_builders_match_the_reference_where_the_weights_round(pres, n, k):
    quad = torus_quadrature(pres, n)
    assert len(quad) & (len(quad) - 1)  # not a power of two
    points, weights = quad.points.tobytes(), quad.weights.tobytes()

    def unchanged():
        return quad.points.tobytes() == points and quad.weights.tobytes() == weights

    monos = _standard_monomials(pres, k)
    _assert_the_symbols_give_the_direct_sum(pres, monos, quad)
    _assert_the_symbols_give_the_direct_sum(pres, decompose_A(pres), quad)
    ref_full, ref_c = _ref_orthonormal(pres, monos, quad)
    ref_y, ref_yc = _ref_orthonormal(pres, decompose_A(pres), quad)
    ref_st = _ref_bb_structured(pres, k, quad)
    assert unchanged()
    assert _orthonormal(pres, monomial_graded_basis(pres, k), quad)[1].tobytes() == ref_c.tobytes()
    assert unchanged()
    assert _coefficient_bytes(bb_basis(pres, k, quad)) == _coefficient_bytes(ref_full)
    assert unchanged()
    yhats, yc = _y_block(pres, quad)
    assert unchanged()
    assert yc.tobytes() == ref_yc.tobytes()
    assert _coefficient_bytes(yhats) == _coefficient_bytes(ref_y)
    assert _coefficient_bytes(bb_structured(pres, k, quad)) == _coefficient_bytes(ref_st)
    assert unchanged()


@pytest.mark.parametrize("pres, n, k", BB_CASES + ROUNDING_CASES, ids=BB_IDS + ROUNDING_IDS)
def test_bb_is_modified_gram_schmidt_to_rounding(pres, n, k):
    # Both variants with one reorthogonalization are backward stable, so
    # their coefficients part by m * eps * cond(W^1/2 V) times the largest
    # coefficient, and by sqrt(P) more: every inner product is a P-term sum,
    # whose rounding grows like sqrt(P) * eps, in a different order in each
    quad = torus_quadrature(pres, n)
    monos = _standard_monomials(pres, k)
    vals = _monomial_values(pres, monos, quad)
    _, mgs = _mgs_orthonormalize(vals, quad.weights, np.eye(len(monos)))
    elements, c = _orthonormal(pres, monomial_graded_basis(pres, k), quad)
    cond = np.linalg.cond(vals * np.sqrt(quad.weights))
    bound = len(monos) * math.sqrt(len(quad)) * np.finfo(float).eps * cond * np.abs(c).max()
    assert np.abs(c - mgs).max() <= bound
    assert np.abs(gram(elements, quad) - np.eye(len(monos))).max() <= 1e-14


@pytest.mark.parametrize(
    "pres, n", [(HYP, 64), (CONE, 64), (CONE, 128)], ids=["hyperbola", "cone2d", "cone2d-n128"]
)
@pytest.mark.parametrize("k", [1, 2])
def test_bb_at_k_is_the_prefix_of_bb_at_k_plus_2(pres, n, k):
    # Gram-Schmidt is left-looking: element j depends only on elements < j,
    # and each Gram entry is read off its own pair's symbol, whatever k is,
    # so `reproduce-example` reads bb at k = 1 off bb at k = 3
    quad = torus_quadrature(pres, n)
    small, big = bb_basis(pres, k, quad), bb_basis(pres, k + 2, quad)
    assert big[: len(small)] == small
    assert [e.degree() for e in big[: len(small)]] == [e.degree() for e in small]
    assert min(e.degree() for e in big[len(small):]) == k + 1


def test_bb_rejects_a_nan_quadrature_point():
    quad = torus_quadrature(HYP, 16)
    for column, match in [(0, "column x1 of the rule is not the lifted 16-node torus grid"), (1, "non-finite point")]:
        points = quad.points.copy()
        points[3, column] = complex(math.nan, 0.0)
        bad = QuadratureSpec(points=points, weights=quad.weights)
        with pytest.raises(QuadratureError, match=match):
            bb_basis(HYP, 2, bad)


def test_bb_refuses_a_rule_off_the_torus_grid():
    quad = torus_quadrature(CONE, 16)
    with pytest.raises(QuadratureError, match=r"511 points are not a lift of n\^2 x-nodes through 2 sheets"):
        bb_basis(CONE, 2, QuadratureSpec(quad.points[:-1], quad.weights[:-1]))
    # the point count fixes n: half the rule has 128 x-nodes, no square, and
    # a quarter has 8^2, but they are not the 8-node grid
    with pytest.raises(QuadratureError, match=r"256 points are not a lift of n\^2 x-nodes"):
        bb_basis(CONE, 2, QuadratureSpec(quad.points[:256], quad.weights[:256]))
    with pytest.raises(QuadratureError, match="column x1 of the rule is not the lifted 8-node torus grid"):
        bb_basis(CONE, 2, QuadratureSpec(quad.points[:128], quad.weights[:128]))
    # the right size, but the sheets of one x-point swapped with the next one's
    swapped = quad.points.copy()
    swapped[[1, 2]] = swapped[[2, 1]]
    with pytest.raises(QuadratureError, match="column x2 of the rule"):
        bb_basis(CONE, 2, QuadratureSpec(swapped, quad.weights))
    with pytest.raises(ValueError, match="monomials with coefficient 1"):
        bases.torus_gram(CONE, bb_basis(CONE, 1, quad), quad)


def test_bb_basis_holds_one_value_matrix(traced_peak):
    # one pair's n^2 symbol grid (256 KiB), well under a block of 2,048
    # points' values, and no 32,768-point value matrix; under two grids, so
    # the pairs' symbols are not all held at once
    quad = torus_quadrature(CONE, 128)
    block = len(monomial_graded_basis(CONE, 4)) * bases._GRAM_BLOCK * 16
    assert len(quad) >= 4 * bases._GRAM_BLOCK
    peak = traced_peak(lambda: bb_basis(CONE, 4, quad))[1]
    assert peak <= 1.5 * block
    assert peak <= 2 * 128**2 * 16


def test_gram_holds_two_value_matrices(traced_peak):
    # one block of values, with no weighted or conjugated copy of it
    quad = torus_quadrature(CONE, 64)
    elements = bb_basis(CONE, 4, quad)
    block = len(elements) * bases._GRAM_BLOCK * 16
    assert traced_peak(lambda: gram(elements, quad))[1] <= 1.5 * block


def test_bb_refuses_a_nearly_dependent_row():
    # on the 8-node torus, row 63 of the degree-7 monomials keeps a squared
    # residual of about 7e-16 of its squared norm; an absolute norm test let
    # it through with a leading coefficient of 3.7e7
    with pytest.raises(QuadratureError, match="vector 63 is numerically dependent"):
        bb_basis(CONE, 7, torus_quadrature(CONE, 8))
    assert len(bb_basis(CONE, 6, torus_quadrature(CONE, 8))) == 49
