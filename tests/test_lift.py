"""The batched sheet lifter against a per-point np.roots reference.

`reference_lift` is the per-point loop the package used before `lift`: one
np.roots call per partial point and generator.  Every sampler and the torus
quadrature must give the same points as that loop, bit for bit, whichever
blocks `lift` cuts its x-points into.
"""

import re
import warnings

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
from vdiam import bases
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
# roots x + 1/x + O(1/x^3) and -1/x: from x near 1e4 the large root misses by
# more than 1e-9, from x = 1e60 by 1, and at x = 1e200 its residual is inf - inf
SKEW = VarietyPresentation(M=1, N=2, generators=(parse_polynomial("y1^2 - x1*y1 - 1", 1, 2),))
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


# grids over several blocks with a partial last one: blocks of
# _GRAM_BLOCK // d x-points, d = 2 on cone2d, hyperbola and zeros, 4 on two_gen
BLOCK_EDGES = {
    "cone2d": torus_line(40),
    "two_gen": torus_line(1300),
    "hyperbola": torus_line(2100),
    "zeros": segment_line(2101),
}


@pytest.mark.parametrize("name", sorted(BLOCK_EDGES))
def test_lift_matches_per_point_roots_across_block_edges(name):
    pres, line = CASES[name], BLOCK_EDGES[name]
    xs = np.stack([g.ravel() for g in np.meshgrid(*([line] * pres.M), indexing="ij")], axis=1)
    step = bases._GRAM_BLOCK // pres.d
    assert len(xs) > step and len(xs) % step
    want = reference_lift(pres, xs)
    assert_same_bits(lift(pres, xs), want)
    assert_same_bits(lift_grid(pres, line), want)


@pytest.mark.parametrize("name", ["cone2d", "two_gen"])
def test_lift_of_no_x_points_is_empty(name):
    pres = CASES[name]
    for pts in (lift(pres, np.empty((0, pres.M))), lift_grid(pres, np.empty(0))):
        assert pts.shape == (0, pres.N) and pts.dtype == complex


@pytest.mark.parametrize("block", [bases._GRAM_BLOCK, 2], ids=["one block", "a block per x-point"])
def test_residual_check_raises_once_with_the_worst_residual(block, monkeypatch):
    # the worst point of all blocks names the error, not the first block
    # that fails, and a NaN survives the finite blocks after it
    monkeypatch.setattr(bases, "_GRAM_BLOCK", block)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(QuadratureError, match=r"^sheet solve residual 1\.000e\+00 exceeds 1e-9$"):
            lift(SKEW, np.array([[1e5], [0.5], [1e100], [2.0]]))
        with pytest.raises(QuadratureError, match=r"^sheet solve residual nan exceeds 1e-9$"):
            lift(SKEW, np.array([[0.5], [1e200], [1e100], [2.0]]))


@pytest.mark.parametrize(
    "name, xs",
    [("hyperbola", [[np.nan]]), ("hyperbola", [[np.inf]]), ("hyperbola", [[1e160]]), ("cone2d", [[0.5, np.nan]])],
    ids=["nan", "inf", "overflow", "nan-in-x2"],
)
def test_non_finite_coefficients_are_refused_before_the_roots(name, xs):
    # a NaN or inf x-point, or one whose powers overflow, reached numpy's
    # eigvals as LinAlgError, after overflow warnings
    pres = CASES[name]
    message = f"^generator {re.escape(str(pres.generators[0]))} has a non-finite coefficient at an x-point$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match=message):
            lift(pres, np.array(xs, dtype=complex))


def test_torus_quadrature_peaks_at_its_points_and_weights_plus_a_block(traced_peak):
    # lifting the whole grid at once held it several times over: 7.4 MB
    # for a 1.8 MB quadrature at n = 128
    torus_quadrature(CONE, 4)  # numpy's lazy set-up stays outside the trace
    quad, peak = traced_peak(lambda: torus_quadrature(CONE, 128))
    block = bases._GRAM_BLOCK * CONE.N * 16
    assert len(quad) >= 8 * bases._GRAM_BLOCK
    assert peak <= quad.points.nbytes + quad.weights.nbytes + 1.5 * block
