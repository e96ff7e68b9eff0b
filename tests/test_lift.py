"""The batched sheet lifter against a per-point np.roots reference.

`reference_lift` is the per-point loop the package used before `lift`: one
np.roots call per partial point and generator.  Every sampler and the torus
quadrature must give the same points as that loop, bit for bit.
"""

import numpy as np
import pytest

from vdiam import (
    QuadratureError,
    VarietyPresentation,
    load_variety,
    parse_polynomial,
    random_variety_points,
    segment_sampler,
    torus_quadrature,
    torus_sampler,
)
from vdiam.bases import lift, lift_grid

HYP, _ = load_variety("hyperbola")
CONE, _ = load_variety("cone2d")
NONDISTINCT, _ = load_variety("nondistinct")
TWO_GEN = VarietyPresentation(
    M=1,
    N=3,
    generators=(
        parse_polynomial("y1^2 - x1^2 - 1", 1, 3),
        parse_polynomial("y2^2 - x1^2 - 2", 1, 3),
    ),
)
# y (y + x) = x (x + 1): at x = -1 the constant coefficient is zero, at x = 0
# the linear one too, so an odd segment grid meets every zero pattern
ZEROS = VarietyPresentation(M=1, N=2, generators=(parse_polynomial("y1^2 + x1*y1 - x1^2 - x1", 1, 2),))
CASES = {"hyperbola": HYP, "cone2d": CONE, "nondistinct": NONDISTINCT, "two_gen": TWO_GEN, "zeros": ZEROS}


def reference_lift(pres, xs):
    order = sorted(
        range(len(pres.generators)),
        key=lambda i: min(j for j, e in enumerate(pres.generators[i].leading_monomial()) if e),
    )
    pts = []
    for x in xs:
        partials = [np.concatenate([x.astype(complex), np.full(pres.ny, np.nan + 0j)])]
        for gi in order:
            g = pres.generators[gi]
            yv = min(j for j, e in enumerate(g.leading_monomial()) if e)
            m = g.leading_monomial()[yv]
            nxt = []
            for p in partials:
                coeffs = np.zeros(m + 1, dtype=complex)
                for mono, c in g.items():
                    val = c.to_complex()
                    for j, ej in enumerate(mono):
                        if j == yv or not ej:
                            continue
                        assert not np.isnan(p[j].real)
                        val *= p[j] ** ej
                    coeffs[mono[yv]] += val
                for r in np.roots(coeffs[::-1]):
                    q = p.copy()
                    q[yv] = r
                    nxt.append(q)
            partials = nxt
        pts.extend(partials)
    return np.array(pts)


def reference_grid(pres, line):
    grids = np.meshgrid(*([line] * pres.M), indexing="ij")
    return reference_lift(pres, np.stack([g.ravel() for g in grids], axis=1))


def torus_line(n):
    return np.exp(2j * np.pi * np.arange(n) / n)


def segment_line(n):
    return np.linspace(-1.0, 1.0, n).astype(complex)


def reference_random(pres, count_, seed, radius=(0.6, 1.4)):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pts = []
    while len(pts) < count_:
        r = rng.uniform(radius[0], radius[1], size=pres.M)
        th = rng.uniform(0.0, 2.0 * np.pi, size=pres.M)
        lifted = reference_lift(pres, (r * np.exp(1j * th)).reshape(1, -1))
        pts.append(lifted[rng.integers(lifted.shape[0])])
    return np.array(pts)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == complex
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("line", [torus_line(4), torus_line(7), torus_line(16), segment_line(5), segment_line(8)])
def test_lift_grid_matches_per_point_roots(name, line):
    pres = CASES[name]
    assert_same_bits(lift_grid(pres, line), reference_grid(pres, line))


def test_lift_keeps_x_major_sheet_minor_order():
    xs = np.array([[0.5], [2.0j]])
    pts = lift(TWO_GEN, xs)
    assert pts.shape == (2 * 4, 3)
    assert np.array_equal(pts[:4, 0], [0.5] * 4) and np.array_equal(pts[4:, 0], [2.0j] * 4)
    assert_same_bits(pts, reference_lift(TWO_GEN, xs))


def test_segment_grid_has_exact_zero_roots_at_the_cone_vertex():
    pts = lift_grid(CONE, segment_line(5))
    vertex = pts[(pts[:, 0] == 0) & (pts[:, 1] == 0)]
    assert vertex.shape == (2, 3)
    assert vertex.tobytes() == np.zeros((2, 3), dtype=complex).tobytes()


@pytest.mark.parametrize("name", ["hyperbola", "cone2d", "nondistinct", "two_gen"])
def test_torus_quadrature_matches_per_point_roots(name):
    pres = CASES[name]
    for n in (4, 16):
        assert_same_bits(torus_quadrature(pres, n).points, reference_grid(pres, torus_line(n)))


@pytest.mark.parametrize("name", ["hyperbola", "cone2d", "two_gen"])
def test_grid_samplers_match_per_point_roots(name):
    pres = CASES[name]
    assert_same_bits(torus_sampler(pres, 12).points, reference_grid(pres, torus_line(12)))
    assert_same_bits(segment_sampler(pres, 9).points, reference_grid(pres, segment_line(9)))


@pytest.mark.parametrize("name", ["hyperbola", "cone2d", "two_gen"])
def test_random_variety_points_match_per_point_roots(name):
    pres = CASES[name]
    for seed in range(10):
        assert_same_bits(random_variety_points(pres, 9, seed=seed).points, reference_random(pres, 9, seed))


def test_lift_refuses_coupled_sheets():
    g1 = parse_polynomial("y1^2 - y2 - x1", 1, 3)
    g2 = parse_polynomial("y2^2 - x1", 1, 3)
    pres = VarietyPresentation(M=1, N=3, generators=(g1, g2))
    with pytest.raises(QuadratureError, match="not triangular"):
        lift(pres, np.ones((3, 1)))
