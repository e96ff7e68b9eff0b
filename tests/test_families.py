"""Coset families, set differences, cores, and compliance verdicts."""

from fractions import Fraction
from itertools import product

import pytest
from conftest import split_family
from hypothesis import given, settings, strategies as st

from vdiam import (
    Coset,
    UnsupportedFamilyShape,
    check_compliant,
    cm_generators,
    family_difference,
    family_for,
    find_core,
    load_variety,
    parse_family,
    parse_polynomial,
    torus_quadrature,
)
from vdiam.polyring import Polynomial
from vdiam.scalars import Exact

HYP, HYP_EXTRAS = load_variety("hyperbola")
CONE, _ = load_variety("cone2d")


def P(text, pres=HYP):
    return parse_polynomial(text, pres.M, pres.N)


def mult_strs(cosets):
    return {str(c.multiplier) for c in cosets}


# ---------------------------------------------------------------------------
# cores of the plain families


def test_monomial_family_core():
    fam = family_for(HYP, "monomial")
    assert mult_strs(split_family(fam)[0]) == {"1", "y1"}
    core = find_core(fam)
    assert core.found
    assert core.t == 0
    assert core.variables == frozenset({0})


def test_cm_family_core():
    fam = family_for(HYP, "cm")
    core = find_core(fam)
    assert core.found
    assert core.t == 1
    # the degree-0 leftovers are finite, not a coset (no free x-prefix in M=1)
    assert [str(f) for f in split_family(fam)[1]] == ["1"]
    assert len(split_family(fam)[0]) == 2
    assert all(c.variables == frozenset({0}) for c in split_family(fam)[0])


def test_cone_cm_family_has_no_core():
    # the low block runs over x1 only while the v-cosets run over both x's
    fam = family_for(CONE, "cm")
    var_sets = {c.variables for c in split_family(fam)[0]}
    assert frozenset({0}) in var_sets and frozenset({0, 1}) in var_sets
    core = find_core(fam)
    assert not core.found
    assert "different variable sets" in core.reason


# ---------------------------------------------------------------------------
# compliance of monomial vs cm


def test_hyperbola_monomial_cm_compliant():
    left = family_for(HYP, "monomial")
    right = family_for(HYP, "cm")
    verdict = check_compliant(left, right)
    assert verdict.compliant
    assert mult_strs(split_family(verdict.diff_left)[0]) == {"x1", "y1"}
    assert split_family(verdict.diff_left)[1] == ()
    v1, v2 = cm_generators(HYP)
    assert {str(c.multiplier) for c in split_family(verdict.diff_right)[0]} == {str(v1), str(v2)}
    assert split_family(verdict.diff_right)[1] == ()
    assert verdict.core_left.t == 1
    assert verdict.core_right.t == 1


def test_cone_monomial_cm_compliant():
    left = family_for(CONE, "monomial")
    right = family_for(CONE, "cm")
    verdict = check_compliant(left, right)
    assert verdict.compliant
    # what the monomials have that cm lacks: x2 times everything, y times everything
    assert mult_strs(split_family(verdict.diff_left)[0]) == {"x2", "y1"}
    assert all(c.variables == frozenset({0, 1}) for c in split_family(verdict.diff_left)[0])
    assert len(split_family(verdict.diff_right)[0]) == 2  # the two sheet polynomials


def test_bb_vs_monomial_compliant():
    quad = torus_quadrature(HYP, 256)
    left = family_for(HYP, "monomial")
    right = family_for(HYP, "bb", quad=quad)
    verdict = check_compliant(left, right)
    assert verdict.compliant


# ---------------------------------------------------------------------------
# scaled families


def test_bundled_scaled_family_not_compliant():
    scaled = parse_family(HYP, HYP_EXTRAS["families"]["scaled2"])
    assert all(c.is_scaled() for c in split_family(scaled)[0])
    verdict = check_compliant(family_for(HYP, "monomial"), scaled)
    assert not verdict.compliant
    assert "scal" in verdict.reason


def test_scaled_difference_keeps_scaled_cosets():
    scaled = parse_family(HYP, HYP_EXTRAS["families"]["scaled2"])
    mono = family_for(HYP, "monomial")
    diff = family_difference(scaled, mono)
    assert any(c.is_scaled() for c in split_family(diff)[0])
    assert not find_core(diff).found
    # the unscaled side sheds the shared degree-0 element but keeps a core
    back = family_difference(mono, scaled)
    assert find_core(back).found


def test_three_halves_scaling_not_compliant():
    doc = {
        "cosets": [
            {"multiplier": "1", "variables": ["x1"], "scales": {"x1": "3/2"}},
            {"multiplier": "y1", "variables": ["x1"], "scales": {"x1": "3/2"}},
        ],
        "finite": [],
    }
    scaled = parse_family(HYP, doc)
    verdict = check_compliant(family_for(HYP, "monomial"), scaled)
    assert not verdict.compliant


def test_unit_modulus_scaling_is_refused():
    doc = {
        "cosets": [{"multiplier": "1", "variables": ["x1"], "scales": {"x1": "-1"}}],
        "finite": [],
    }
    flipped = parse_family(HYP, doc)
    with pytest.raises(UnsupportedFamilyShape):
        family_difference(flipped, family_for(HYP, "monomial"))


def test_scaling_ratios_on_both_sides_of_one_are_refused():
    # (2 x1)^a (x2 / 2)^b equals x1^a x2^b whenever a = b: no finite union
    one = P("1", CONE)
    both = Coset(one, frozenset({0, 1}), ((0, Exact(2)), (1, Exact(Fraction(1, 2)))))
    plain = Coset(one, frozenset({0, 1}))
    with pytest.raises(UnsupportedFamilyShape, match="both sides"):
        family_difference((both,), (plain,))


def test_differing_scalings_with_a_shift_are_refused():
    # x1 (2 x1)^a against x1^a: a shift by x1 and no scalar factor
    shifted = (Coset(P("x1"), frozenset({0}), ((0, Exact(2)),)),)
    plain = (Coset(P("1"), frozenset({0})),)
    with pytest.raises(UnsupportedFamilyShape, match=r"differing variable scalings with a monomial shift$"):
        family_difference(shifted, plain)


@pytest.mark.parametrize("factor", [Fraction(1, 2), Fraction(-1)], ids=["half", "minus-one"])
@pytest.mark.parametrize("scaled_left", [True, False], ids=["scaled-left", "scaled-right"])
def test_a_scalar_factor_no_scaling_reaches_leaves_the_coset_whole(factor, scaled_left):
    # y1 (2 x1)^a = c y1 x1^a needs 2^a = c, which no a meets for c = 1/2 or -1
    scaled = (Coset(P("y1"), frozenset({0}), ((0, Exact(2)),)),)
    plain = (Coset(P("y1") * Exact(factor), frozenset({0})),)
    left, right = (scaled, plain) if scaled_left else (plain, scaled)
    diff = family_difference(left, right)
    assert split_family(diff)[0] == split_family(left)[0]
    assert expand(diff, 1) == expand(left, 1) - expand(right, 1)


def test_a_scalar_factor_a_scaling_reaches_removes_that_element():
    # y1 (2 x1)^2 = 4 y1 x1^2: the overlap is the one element at a = 2
    scaled = (Coset(P("y1"), frozenset({0}), ((0, Exact(2)),)),)
    plain = (Coset(P("4*y1"), frozenset({0})),)
    for left, right in ((scaled, plain), (plain, scaled)):
        diff = family_difference(left, right)
        assert expand(diff, 1) == expand(left, 1) - expand(right, 1)
        assert len(expand(left, 1) - expand(diff, 1)) == 1
    assert mult_strs(split_family(family_difference(plain, scaled))[0]) == {"4*x1^3*y1"}
    assert set(split_family(family_difference(plain, scaled))[1]) == {P("4*y1"), P("4*x1*y1")}


def test_a_scalar_factor_two_scalings_reach_removes_each_solution():
    # y1 (2 x1)^a (4 x2)^b = 8 y1 x1^a x2^b exactly at (a, b) = (3, 0) and (1, 1)
    scaled = (Coset(P("y1", CONE), frozenset({0, 1}), ((0, Exact(2)), (1, Exact(4)))),)
    plain = (Coset(P("8*y1", CONE), frozenset({0, 1})),)
    shared = {P("8*x1^3*y1", CONE), P("8*x1*x2*y1", CONE)}
    for left, right in ((scaled, plain), (plain, scaled)):
        diff = family_difference(left, right)
        assert expand(diff, 2) == expand(left, 2) - expand(right, 2)
        assert expand(left, 2) - expand(diff, 2) == shared


def test_equal_scalings_with_a_shift_balance_by_their_scale_product():
    # 2 x1 y1 (2 x1)^a = y1 (2 x1)^(a + 1): equal scales that are not 1, a
    # shift by x1, and c = 2, the scale product; so the unshifted coset is the
    # shifted one plus y1
    def scaled(mult):
        return (Coset(P(mult), frozenset({0}), ((0, Exact(2)),)),)

    low, high = scaled("y1"), scaled("2*x1*y1")
    diff = family_difference(low, high)
    assert split_family(diff) == ((), (P("y1"),))
    assert family_difference(high, low) == ()
    # with 3 x1 y1 the scales balance for no element: the coset stays whole
    off = scaled("3*x1*y1")
    assert family_difference(low, off) == low
    assert family_difference(off, low) == off


# ---------------------------------------------------------------------------
# difference mechanics


def test_identical_families_cancel():
    fam = family_for(HYP, "monomial")
    diff = family_difference(fam, fam)
    assert diff == ()


def test_finite_elements_absorbed_by_cosets():
    cm = family_for(HYP, "cm")
    mono = family_for(HYP, "monomial")
    diff = family_difference(cm, mono)
    assert split_family(diff)[1] == ()  # the lone constant lies inside the 1-coset


def test_staircase_removes_low_corner():
    # {x^n} minus the single point {1} leaves the shifted coset x*{x^n}
    x_coset = Coset(P("1"), frozenset({0}))
    fam = (x_coset,)
    pt = (Coset(P("1"), frozenset()),)
    diff = family_difference(fam, pt)
    assert mult_strs(split_family(diff)[0]) == {"x1"}


def test_core_of_empty_family_is_wildcard():
    fam = (Coset(P("1"), frozenset()), Coset(P("x1"), frozenset()))
    core = find_core(fam)
    assert core.found
    assert core.variables is None  # nothing constrains the variable set
    assert core.t == 2  # one past the largest finite degree


def test_coset_describe_smoke():
    c = Coset(P("y1"), frozenset({0}))
    assert "y1" in c.describe()


def test_parse_family_rejects_bad_variable():
    with pytest.raises(ValueError):
        parse_family(HYP, {"cosets": [{"multiplier": "1", "variables": ["x9"]}]})


def test_parse_family_rejects_zero_scale():
    doc = {"cosets": [{"multiplier": "1", "variables": ["x1"], "scales": {"x1": "0"}}]}
    with pytest.raises(ValueError, match="nonzero"):
        parse_family(HYP, doc)


@pytest.mark.parametrize(
    "doc, field",
    [
        # Coset.element scales only the coset's own variables, so this scale
        # would mark the coset scaled without changing any element
        ({"cosets": [{"multiplier": "1", "variables": ["x1"], "scales": {"y1": "2"}}]}, "'scales'"),
        ({"cosets": [{"multiplier": "x1", "variables": [], "scales": {"x1": "2"}}]}, "'scales'"),
        ({"cosets": [{"multiplier": "0", "variables": ["x1"]}]}, "'multiplier'"),
        ({"cosets": [{"multiplier": "y1 - y1", "variables": ["x1"]}]}, "'multiplier'"),
        ({"cosets": [], "finite": ["1", "0"]}, "'finite'"),
    ],
    ids=["scale-on-y1", "scale-on-a-point", "zero-multiplier", "cancelling-multiplier", "zero-finite"],
)
def test_parse_family_rejects_fields_that_change_no_element(doc, field):
    with pytest.raises(ValueError, match=f"family field {field}"):
        parse_family(HYP, doc)


# ---------------------------------------------------------------------------
# closed forms for shifted cosets


def test_shifted_two_variable_pair_is_not_compliant():
    # R - L = {x2 * x2^b} and {x1 x2^2 * x1^a x2^b}: two variable sets
    left = (Coset(P("x1*x2", CONE), frozenset({0})),)
    right = (Coset(P("x2", CONE), frozenset({0, 1})),)
    verdict = check_compliant(left, right)
    assert not verdict.compliant
    assert verdict.reason == "right difference has no core: cosets use different variable sets"
    assert {(str(c.multiplier), c.variables) for c in split_family(verdict.diff_right)[0]} == {
        ("x2", frozenset({1})),
        ("x1*x2^2", frozenset({0, 1})),
    }
    assert verdict.diff_left == ()


# ---------------------------------------------------------------------------
# brute-force oracle: expand both sides to a degree and take set differences

ORACLE_DEGREE = 5
SCALES = [Fraction(1), Fraction(1), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-2)]


def expand(fam, M, degree=ORACLE_DEGREE):
    """Every element of `fam` of degree <= `degree`, from the definition."""
    N = M + 1
    out = set()
    # a coset over no variables is its multiplier, when that is low enough
    for c in fam:
        vs = sorted(c.variables)
        room = degree - c.multiplier.degree()
        for es in product(range(max(room + 1, 0)), repeat=len(vs)):
            if sum(es) > room:
                continue
            beta = [0] * N
            factor = Exact(1)
            for v, e in zip(vs, es):
                beta[v] = e
                factor = factor * c.scale_of(v) ** e
            out.add(c.multiplier * Polynomial.monomial(tuple(beta), M, N) * factor)
    return out


@st.composite
def families(draw, M):
    N = M + 1

    def element():
        mono = tuple(draw(st.integers(0, 2)) for _ in range(M)) + (draw(st.integers(0, 1)),)
        poly = Polynomial.monomial(mono, M, N) * Exact(draw(st.sampled_from([1, 2, -1, Fraction(1, 2)])))
        if draw(st.booleans()):
            poly = poly * parse_polynomial(f"y1 + x{M}", M, N)
        return poly

    cosets = []
    for _ in range(draw(st.integers(0, 3))):
        mult = element()
        vs = frozenset(v for v in range(M) if draw(st.booleans()))
        scales = tuple((v, Exact(draw(st.sampled_from(SCALES)))) for v in sorted(vs))
        cosets.append(Coset(mult, vs, tuple((v, s) for v, s in scales if s != Exact(1))))
    finite = tuple(element() for _ in range(draw(st.integers(0, 2))))
    return tuple(cosets) + tuple(Coset(f, frozenset()) for f in finite)


@st.composite
def family_pairs(draw):
    M = draw(st.sampled_from([1, 2]))
    left, right = draw(families(M)), draw(families(M))
    # add left cosets shifted by one x to the right, so that overlaps are common
    extra = []
    for c in left:
        if draw(st.booleans()):
            v = draw(st.integers(0, M - 1))
            x = Polynomial.variable(v, M, M + 1)
            vs = c.variables | ({v} if draw(st.booleans()) else set())
            scale = c.scale_of(v) if draw(st.booleans()) else Exact(1)
            extra.append(Coset(c.multiplier * x * scale, vs, c.scales))
    right = right + tuple(extra)
    return M, left, right


@settings(max_examples=300, deadline=None)
@given(family_pairs())
def test_family_difference_matches_brute_force(pair):
    M, left, right = pair
    try:
        diff = family_difference(left, right)
    except UnsupportedFamilyShape:
        return
    assert expand(diff, M) == expand(left, M) - expand(right, M)
