"""Presentation validation, dimension counts, and points at infinity."""

import itertools
import json
from fractions import Fraction

import pytest

from vdiam import (
    Exact,
    VarietyPresentation,
    count,
    count_table,
    decompose_A,
    distinct_infinity_check,
    load_variety,
    Polynomial,
    parse_polynomial,
    sandwich_check,
    asymptotic_ratios,
    validate_noether,
)
from vdiam.polyring import monomial_divides


def mk(M, N, *gen_texts):
    gens = tuple(parse_polynomial(s, M, N) for s in gen_texts)
    return VarietyPresentation(M=M, N=N, generators=gens)


def test_bundled_varieties_load():
    hyp, extras = load_variety("hyperbola")
    assert (hyp.M, hyp.N, hyp.d) == (1, 2, 2)
    assert extras["name"] == "hyperbola"
    assert "scaled2" in extras["families"]

    cone, extras = load_variety("cone2d")
    assert (cone.M, cone.N, cone.d) == (2, 3, 2)
    assert len(extras["v_polys"]) == 2

    nd, _ = load_variety("nondistinct")
    assert (nd.M, nd.N) == (1, 2)

    ct, _ = load_variety("cross-terms")
    assert (ct.M, ct.N) == (1, 3)


def test_load_variety_from_dict_and_path(tmp_path):
    doc = {"M": 1, "N": 2, "generators": ["y1^2 - x1^2 - 1"]}
    pres, _ = load_variety(doc)
    assert pres.d == 2
    f = tmp_path / "h.var"
    f.write_text(json.dumps(doc))
    pres2, extras = load_variety(str(f))
    assert pres2.generators == pres.generators
    assert extras["name"] is None  # only an explicit name field fills this


def test_load_variety_unknown_name():
    with pytest.raises(FileNotFoundError):
        load_variety("no-such-variety")


def test_d_is_the_product_of_leading_degrees():
    # y1^2 and y2^3 lead, so the lift has 2 * 3 sheets
    pres, _ = load_variety({"M": 1, "N": 3, "generators": ["y1^2 - x1", "y2^3 - x1*y1 - 1"], "d": 6})
    assert pres.d == 6
    assert validate_noether(pres).d == 6


@pytest.mark.parametrize("gen", ["y1*x1 - 1", "x1^2 - y1", "0"])
def test_d_is_not_checked_without_pure_y_leading_terms(gen):
    # the sheet count is undefined; validate_noether names the problem
    pres, _ = load_variety({"M": 1, "N": 2, "generators": [gen], "d": 5})
    rep = validate_noether(pres)
    assert not rep.valid and rep.d is None and rep.problems


# ---------------------------------------------------------------------------
# validation


def test_hyperbola_is_valid():
    pres, _ = load_variety("hyperbola")
    rep = validate_noether(pres)
    assert rep.valid
    assert rep.problems == ()
    assert rep.m_degrees == (2,)
    assert rep.d == 2
    assert rep.spoly_ok


def test_cross_terms_is_invalid():
    pres, _ = load_variety("cross-terms")
    rep = validate_noether(pres)
    assert not rep.valid
    assert rep.problems  # y1 never appears as a pure-power leading term
    assert any("y" in p for p in rep.problems)


def test_wrong_generator_count():
    pres = mk(1, 3, "y1^2 - x1")
    rep = validate_noether(pres)
    assert not rep.valid


def test_non_monic_leading_coefficient():
    pres = mk(1, 2, "2*y1^2 - x1^2 - 1")
    assert not validate_noether(pres).valid


def test_a_float_presentation_is_invalid():
    # presentations are exact: float generators are a problem, not a mode
    exact = parse_polynomial("y1^2 - x1^2 - 1", 1, 2)
    gen = Polynomial({m: complex(c) for m, c in exact.items()}, 1, 2, "float")
    pres = VarietyPresentation(M=1, N=2, generators=(gen,))
    rep = validate_noether(pres)
    assert not rep.valid
    assert rep.problems == ("generator 1 has float coefficients; presentations are exact",)
    assert rep.spoly_ok is None
    with pytest.raises(ValueError, match="float coefficients"):
        decompose_A(pres)
    with pytest.raises(ValueError, match="float coefficients"):
        distinct_infinity_check(pres)


def test_leading_term_not_pure_power():
    pres = mk(1, 2, "x1*y1 + x1")
    assert not validate_noether(pres).valid


def test_trivial_affine_spaces_are_valid():
    for M in (1, 2, 3):
        pres = VarietyPresentation(M=M, N=M, generators=())
        rep = validate_noether(pres)
        assert rep.valid and rep.d == 1


# ---------------------------------------------------------------------------
# the A-decomposition and counts


def test_decompose_hyperbola():
    pres, _ = load_variety("hyperbola")
    dec = decompose_A(pres)
    assert dec.A == ((0, 0), (0, 1))  # {1, y} as full-width exponents
    assert dec.a == 1
    assert dec.n == 2


def test_decompose_higher_power():
    pres = mk(1, 2, "y1^3 - x1^3 - 1")
    dec = decompose_A(pres)
    assert dec.A == ((0, 0), (0, 1), (0, 2))
    assert dec.a == 2


def test_counts_match_enumerated_basis():
    for name in ("hyperbola", "cone2d"):
        pres, _ = load_variety(name)
        leads = [g.leading_monomial() for g in pres.generators]
        for k in range(0, 7):
            # the monomials of degree <= k outside the leading-term ideal
            monos = [
                m for m in itertools.product(range(k + 1), repeat=pres.N)
                if sum(m) <= k and not any(monomial_divides(lead, m) for lead in leads)
            ]
            rec = count(pres, k)
            assert rec.N == len(monos)
            assert rec.l == sum(sum(m) for m in monos)
            assert rec.N_eq == sum(1 for m in monos if sum(m) == k)


def test_count_table_shape():
    pres, _ = load_variety("hyperbola")
    tab = count_table(pres, 5)
    assert [r.k for r in tab] == list(range(6))
    assert [r.N for r in tab] == [1, 3, 5, 7, 9, 11]


def test_pure_x_count_identity():
    # lx * (M+1) == M * k * Nx, any presentation with that many x-variables
    for M in (1, 2, 3, 4):
        pres = VarietyPresentation(M=M, N=M, generators=())
        for k in (1, 2, 7, 23, 50):
            rec = count(pres, k)
            assert rec.lx * (M + 1) == M * k * rec.Nx


def test_sandwich_holds_on_bundled():
    for name in ("hyperbola", "cone2d", "nondistinct"):
        pres, _ = load_variety(name)
        assert all(sandwich_check(pres, k) for k in range(1, 31))


def test_sandwich_needs_k_at_least_a():
    pres = mk(1, 2, "y1^3 - x1^3 - 1")
    with pytest.raises(ValueError):
        sandwich_check(pres, 1)  # a = 2
    assert sandwich_check(pres, 2)


def test_asymptotic_ratio_tends_to_two():
    pres, _ = load_variety("hyperbola")
    _, r50 = asymptotic_ratios(pres, 50)
    assert abs(r50 - 2.0) < 0.05
    rec = count(pres, 100)
    assert Fraction(rec.l, 100 * rec.N) == Fraction(10100, 20100)


# ---------------------------------------------------------------------------
# points at infinity


def test_hyperbola_infinity_roots_exact():
    pres, _ = load_variety("hyperbola")
    rep = distinct_infinity_check(pres)
    assert rep.distinct and rep.xM_nonzero
    assert rep.exact_roots is not None
    assert set(rep.exact_roots) == {Exact(1), Exact(-1)}


def test_double_root_at_infinity_is_rejected():
    pres, _ = load_variety("nondistinct")
    rep = distinct_infinity_check(pres)
    assert not rep.distinct
    # the double root is exactly repeated, not merely close
    assert rep.min_chordal == 0.0


def test_rational_roots_at_infinity_of_a_cubic():
    # y^3 - x^2 y - 1 has top form y (y - x)(y + x): the rational-root scan
    # finds all three roots, sorted by decreasing real part
    rep = distinct_infinity_check(mk(1, 2, "y1^3 - x1^2*y1 - 1"))
    assert rep.exact_roots == (Exact(1), Exact(0), Exact(-1))
    assert rep.distinct


def test_cone2d_infinity():
    pres, _ = load_variety("cone2d")
    rep = distinct_infinity_check(pres)
    assert rep.distinct
    assert rep.exact_roots == (Exact(1), Exact(-1))


def test_skew_top_form_still_has_distinct_points():
    # top form y(y - x): roots mu = 0 and mu = 1, both over x_M = 1
    pres = mk(1, 2, "y1^2 - x1*y1 - 1")
    rep = distinct_infinity_check(pres)
    assert rep.xM_nonzero and rep.distinct
    assert set(rep.exact_roots) == {Exact(0), Exact(1)}


def test_infinity_with_vanishing_pure_y_coefficient():
    # top form x1^2*y1: the mu-polynomial degenerates below the total degree,
    # so one intersection escapes to [0 : 1], which has x_M = 0
    pres = mk(1, 2, "y1^2 + x1^2*y1 + 1")
    rep = distinct_infinity_check(pres)
    assert not rep.xM_nonzero
    assert (0j, 1 + 0j) in rep.points
    assert not rep.distinct
