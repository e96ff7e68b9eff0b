"""Presentation validation, dimension counts, and points at infinity."""

import functools
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

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
from vdiam.variety import _exact_poly_roots


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
    assert len(cone.v_polys) == 2

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
    A = decompose_A(pres)
    assert A == ((0, 0), (0, 1))  # {1, y} as full-width exponents
    assert max(map(sum, A)) == 1
    assert len(A) == 2


def test_decompose_higher_power():
    pres = mk(1, 2, "y1^3 - x1^3 - 1")
    A = decompose_A(pres)
    assert A == ((0, 0), (0, 1), (0, 2))
    assert max(map(sum, A)) == 2


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
    # a Python bool, which the CLI prints as false, not numpy's
    assert rep.distinct is False
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


def test_imaginary_roots_at_infinity():
    # top forms y^2 + x^2 and y^2 + 2 x^2: a negative real discriminant,
    # whose square root is i times an exact one
    I = Exact(0, 0, 1)
    assert distinct_infinity_check(mk(1, 2, "y1^2 + x1^2 - 1")).exact_roots == (I, -I)
    assert distinct_infinity_check(mk(1, 2, "y1^2 + 2*x1^2 - 1")).exact_roots == (Exact(0, 0, 0, 1), Exact(0, 0, 0, -1))
    # mu^2 - i: the discriminant 4i is not real, and its root is not looked for
    assert _exact_poly_roots([-I, Exact(0), Exact(1)]) is None


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


# ---------------------------------------------------------------------------
# exact roots above degree 2


def _times(a, b):
    """Product of two ascending coefficient lists."""
    return [
        sum((a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b)), Exact(0))
        for k in range(len(a) + len(b) - 1)
    ]


def _expanded(roots, lead):
    """Ascending coefficients of lead * prod (mu - r), multiplied out exactly."""
    return functools.reduce(_times, [[Exact(-r), Exact(1)] for r in roots], [Exact(lead)])


IRREDUCIBLE = {"mu^2 + 1": [1, 0, 1], "mu^2 - 2": [-2, 0, 1], "mu^3 - 2": [-2, 0, 0, 1]}
# up to 6 rational roots n/d with |n| <= 10^10 and d <= 7, each of
# multiplicity up to 6
DRAWN_ROOTS = st.lists(
    st.tuples(st.integers(-10**10, 10**10), st.integers(1, 7), st.integers(1, 6)), min_size=1, max_size=6
)
LEADS = st.builds(Fraction, st.integers(1, 7), st.integers(1, 7))


def _multiset(draws):
    return sorted(Fraction(n, d) for n, d, m in draws for _ in range(m))


def _found(coeffs):
    got = _exact_poly_roots(coeffs)
    return None if got is None else sorted(r.as_fraction() for r in got)


@settings(max_examples=100, deadline=None)
@given(DRAWN_ROOTS, LEADS, st.sampled_from(sorted(IRREDUCIBLE)))
# rounding the roots of the form and its derivatives missed the six-fold
# roots 1000, 1059, 7837 and 8324; the square-free part's simple roots do not
@example([(1000, 1, 6), (1059, 1, 6), (7837, 1, 6), (8324, 1, 6), (-17736, 1, 2), (-65535, 1, 1)], 1, "mu^2 + 1")
def test_exact_roots_are_the_drawn_roots_or_none(draws, lead, irreducible):
    # every root returned is checked exactly, so a wrong root is impossible;
    # a factor without rational roots always gives None
    coeffs = _expanded(_multiset(draws), lead)
    assert _found(coeffs) in (None, _multiset(draws))
    assert _found(_times(coeffs, [Exact(c) for c in IRREDUCIBLE[irreducible]])) is None


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-1000, 1000), st.just(1), st.integers(1, 6)), min_size=1, max_size=6), LEADS)
# rounding the roots of the form and its derivatives missed these: the
# clustered multiple roots -754, -756, -931 and -997 came back unresolved
@example([(0, 1, 2), (-754, 1, 2), (-756, 1, 2), (-931, 1, 6), (-997, 1, 4)], Fraction(1))
def test_repeated_integer_roots_are_all_found(draws, lead):
    assert _found(_expanded(_multiset(draws), lead)) == _multiset(draws)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-1000, 1000), st.integers(1, 7), st.integers(1, 3)), min_size=1, max_size=6), LEADS)
def test_repeated_rational_roots_are_all_found(draws, lead):
    # only the simple roots of the square-free part are rounded, so the
    # denominators' powers in a repeated root do not blur it
    assert _found(_expanded(_multiset(draws), lead)) == _multiset(draws)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-10**10, 10**10), st.integers(1, 7), st.just(1)), min_size=1, max_size=6), LEADS)
# double precision rounded the two roots near -10^10, 35,774 apart, to
# neighbours of their values; one exact Newton step resolves them
@example([(0, 1, 1), (-9_999_958_881, 1, 1), (-9_999_994_655, 1, 1)], Fraction(1))
def test_simple_rational_roots_are_all_found(draws, lead):
    assert _found(_expanded(_multiset(draws), lead)) == _multiset(draws)


@pytest.mark.parametrize(
    "roots",
    [
        [1000] * 5,
        [12345] * 6,
        [Fraction(7, 3)] * 4,
        [10**10, 2 * 10**10, 3 * 10**10, -7],
        [0, 0, 0, Fraction(-1, 2)],
    ],
    ids=["5-fold 1000", "6-fold 12345", "4-fold 7/3", "three large and -7", "triple zero"],
)
def test_repeated_and_large_rational_roots(roots):
    assert _found(_expanded(roots, 3)) == sorted(map(Fraction, roots))


@pytest.mark.parametrize("power, distinct", [(18, True), (30, False)])
def test_large_constant_at_infinity_is_answered_numerically(power, distinct):
    # mu^3 = 10^power: the rational root 10^(power/3) divides out, the
    # quadratic left has no rational root, so the points come from np.roots;
    # they lie at chordal distance sqrt3 * 10^(-power/3), under the 1e-8
    # guard at power 30
    rep = distinct_infinity_check(mk(1, 2, f"y1^3 - {10 ** power}*x1^3 - 1"))
    assert rep.exact_roots is None
    assert len(rep.points) == 3 and rep.xM_nonzero
    assert rep.min_chordal == pytest.approx(3 ** 0.5 * 10 ** (-power / 3), rel=1e-6)
    assert rep.distinct == distinct
