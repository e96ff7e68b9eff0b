"""Exact scalars, grevlex order, parsing, and division arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vdiam import (
    Exact,
    ExactSqrtError,
    PolyParseError,
    Polynomial,
    exact_sqrt,
    grevlex_key,
    cmp_grevlex,
    normal_form,
    parse_polynomial,
    s_poly_check,
    star,
    top_homogeneous,
)
from vdiam.polyring import s_polynomial


def P(text, nx=1, nvars=2):
    return parse_polynomial(text, nx, nvars)


# ---------------------------------------------------------------------------
# exact scalars


def test_exact_field_basics():
    r2 = Exact(0, 1)
    assert r2 * r2 == Exact(2)
    assert (1 + r2) * (1 - r2) == Exact(-1)
    i = Exact(0, 0, 1)
    assert i * i == Exact(-1)
    third = Exact(Fraction(1, 3))
    assert third * 3 == Exact(1)


def test_exact_inverse():
    v = Exact(3, 2, 1, Fraction(1, 2))  # (3+2*sqrt2) + (1+sqrt2/2)i
    assert v * v.inverse() == Exact(1)
    with pytest.raises(ZeroDivisionError):
        Exact().inverse()


def test_exact_sqrt_known_values():
    assert exact_sqrt(Exact(2)) == Exact(0, 1)
    assert exact_sqrt(Exact(Fraction(1, 2))) == Exact(0, Fraction(1, 2))
    assert exact_sqrt(Exact(9)) == Exact(3)
    # (1+sqrt2)^2 = 3+2*sqrt2
    assert exact_sqrt(Exact(3, 2)) == Exact(1, 1)


def test_exact_sqrt_refuses_what_it_cannot_express():
    with pytest.raises(ExactSqrtError):
        exact_sqrt(Exact(3))
    with pytest.raises(ExactSqrtError):
        exact_sqrt(Exact(0, 0, 1))  # sqrt(i) leaves the field


def test_exact_to_complex():
    z = Exact(1, 1, 0, -1).to_complex()
    assert abs(z - complex(1 + 2**0.5, -(2**0.5))) < 1e-15


# ---------------------------------------------------------------------------
# the ordering


def test_grevlex_chain_two_x_one_y():
    # 1 < x1 < x2 < y < x1^2 < x1x2 < x2^2 < x1y < x2y < y^2
    chain = [
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 2),
    ]
    assert sorted(chain, key=grevlex_key) == chain
    for lo, hi in zip(chain, chain[1:]):
        assert cmp_grevlex(lo, hi) < 0
        assert cmp_grevlex(hi, lo) > 0
        assert cmp_grevlex(lo, lo) == 0


def test_leading_term_prefers_pure_y_power():
    g = P("y1^2 - x1^2 - 1")
    assert g.leading_monomial() == (0, 2)


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_round_trip_spot_checks():
    for text in [
        "y1^2 - x1^2 - 1",
        "1/2*x1*y1 + 3",
        "(y1 - x1)/sqrt2",
        "i*x1^3 - (2 - i)*y1",
        "0",
    ]:
        p = P(text)
        assert P(str(p)) == p


@pytest.mark.parametrize("sign, text", [(1, "x1^2 + 1"), (-1, "-x1^2 + 1")])
def test_a_float_coefficient_printing_as_one_is_dropped(sign, text):
    # 1 + 2^-52 prints as "1" at 12 digits, so its term prints like 1.0's
    for c in (1.0, 1 + 2**-52):
        p = Polynomial({(2, 0): complex(sign * c), (0, 0): 1 + 0j}, 1, 2, "float")
        assert str(p) == text


def test_parse_sqrt2_and_i_constants():
    p = P("sqrt2*x1 + i")
    assert p.coefficient((1, 0)) == Exact(0, 1)
    assert p.coefficient((0, 0)) == Exact(0, 0, 1)


def test_parse_rejects_garbage():
    for bad in ["x1 +", "q3", "x1^^2", "(x1", "x1*/y1", "x9"]:
        with pytest.raises(PolyParseError):
            P(bad)


def test_decimal_literal_is_refused():
    with pytest.raises(PolyParseError, match="decimal literal '0.5'"):
        P("0.5*x1 - y1")


# ---------------------------------------------------------------------------
# normal form / star on the hyperbola y^2 = x^2 + 1


HYP = (P("y1^2 - x1^2 - 1"),)


def test_normal_form_reduces_y_square():
    assert normal_form(P("y1^2"), HYP) == P("x1^2 + 1")
    assert normal_form(P("y1^3"), HYP) == P("x1^2*y1 + y1")
    # already reduced stays put
    assert normal_form(P("x1*y1 + x1^5"), HYP) == P("x1*y1 + x1^5")


def test_star_product_on_hyperbola():
    y = P("y1")
    assert star(y, y, HYP) == P("x1^2 + 1")


def test_division_oracle_two_equation_variety():
    # On V(y2^2+y1^2-x1*y1+x1+1, y2^2+y1^2+y1+2) the generators' difference
    # gives x1*y1 = x1 - y1 - 1; reduce by that difference directly.
    g1 = P("y2^2 + y1^2 - x1*y1 + x1 + 1", 1, 3)
    g2 = P("y2^2 + y1^2 + y1 + 2", 1, 3)
    h = g1 - g2
    assert h.leading_monomial() == (1, 1, 0)
    x, y = P("x1", 1, 3), P("y1", 1, 3)
    assert star(x, y, (h,)) == P("x1 - y1 - 1", 1, 3)


def test_s_poly_check_passes_single_and_coprime():
    assert s_poly_check(HYP)
    # coprime leading terms are skipped outright
    g1 = P("y1^2 - x1^2 - 1", 1, 3)
    g2 = P("y2^2 - x1^2 - 1", 1, 3)
    assert s_poly_check((g1, g2))


def test_s_poly_check_catches_bad_pair():
    g1 = P("y1^2 - x1", 2, 3)
    g2 = P("y1^2 - x2", 2, 3)
    spoly = s_polynomial(g1, g2)
    assert spoly == P("x2 - x1", 2, 3)
    assert not s_poly_check((g1, g2))


def test_top_homogeneous():
    assert top_homogeneous(P("y1^2 - x1^2 - 1")) == P("y1^2 - x1^2")
    assert top_homogeneous(P("y1 + 3")) == P("y1")


# ---------------------------------------------------------------------------
# property tests


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
).filter(lambda q: q != 0)


@st.composite
def exact_polys(draw, nx=1, nvars=2, max_deg=3, max_terms=4):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    coeffs = {}
    for _ in range(n):
        mono = tuple(
            draw(st.integers(min_value=0, max_value=max_deg)) for _ in range(nvars)
        )
        coeffs[mono] = Exact(draw(small_fracs), draw(small_fracs))
    return Polynomial(coeffs, nx, nvars, "exact")


@given(exact_polys())
@settings(max_examples=60, deadline=None)
def test_print_parse_round_trip(p):
    assert parse_polynomial(str(p), p.nx, p.nvars) == p


@given(exact_polys())
@settings(max_examples=40, deadline=None)
def test_normal_form_is_idempotent(p):
    r = normal_form(p, HYP)
    assert normal_form(r, HYP) == r
    # no term of the remainder is divisible by lt(g) = y^2
    assert all(m[1] < 2 for m in r.monomials())


@given(exact_polys(), exact_polys())
@settings(max_examples=40, deadline=None)
def test_star_commutes_and_matches_reduced_product(p, q):
    pq = star(p, q, HYP)
    assert pq == star(q, p, HYP)
    assert pq == normal_form(p * q, HYP)


@given(exact_polys(), exact_polys(), exact_polys())
@settings(max_examples=25, deadline=None)
def test_star_distributes_over_addition(p, q, r):
    assert star(p + q, r, HYP) == star(p, r, HYP) + star(q, r, HYP)


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=2, max_size=8))
@settings(max_examples=60, deadline=None)
def test_grevlex_key_consistent_with_cmp(monos):
    ordered = sorted(monos, key=grevlex_key)
    for a, b in zip(ordered, ordered[1:]):
        assert cmp_grevlex(a, b) <= 0
