"""Graded bases of the coordinate ring: monomial, sheet-normalized (cm), and
numerically orthonormalized (bb).

The cm construction builds degree-one generators v_i = (y - lambda_i x_M)/c_i
from the points at infinity and normalizes them so the product table in the
quotient ring has unit diagonal in the top x_M coefficient.  The bb basis is
Gram-Schmidt against a torus-lifted quadrature measure; bb_structured runs the
same orthogonalization on the pure-y block only and multiplies by x monomials,
which keeps the family description finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .polyring import (
    Polynomial,
    grevlex_key,
    star,
)
from .scalars import Exact, ExactSqrtError, exact_sqrt
from .variety import (
    VarietyPresentation,
    count,
    decompose_A,
    distinct_infinity_check,
    monomial_basis,
    validate_noether,
    x_monomials,
)


class CmConstructionError(ValueError):
    pass


class QuadratureError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class GradedBasis:
    kind: str
    k: int
    elements: tuple[Polynomial, ...]
    degrees: tuple[int, ...]
    label: str

    def __len__(self) -> int:
        return len(self.elements)

    def weighted_length(self) -> int:
        return sum(self.degrees)


def monomial_graded_basis(pres: VarietyPresentation, k: int) -> GradedBasis:
    monos = monomial_basis(pres, k)
    elems = tuple(Polynomial.monomial(m, pres.M, pres.N, "exact") for m in monos)
    return GradedBasis(
        kind="monomial",
        k=k,
        elements=elems,
        degrees=tuple(sum(m) for m in monos),
        label=f"monomial basis through degree {k}",
    )


# ---------------------------------------------------------------------------
# cm generators


@dataclass(frozen=True)
class CmGenerators:
    t: int
    vs: tuple[Polynomial, ...]
    lambdas: Optional[tuple[Exact, ...]]
    source: str  # "file" or "auto"


def cm_generators(
    pres: VarietyPresentation, v_polys: Optional[Sequence[Polynomial]] = None
) -> CmGenerators:
    rep = validate_noether(pres)
    if not rep.valid:
        raise CmConstructionError(f"invalid presentation: {'; '.join(rep.problems)}")
    d = rep.d
    if v_polys is not None:
        vs = tuple(v_polys)
        if len(vs) != d:
            raise CmConstructionError(f"expected d={d} sheet generators, got {len(vs)}")
        degs = {v.degree() for v in vs}
        if len(degs) != 1:
            raise CmConstructionError(f"sheet generators must share one degree, got {sorted(degs)}")
        return CmGenerators(t=degs.pop(), vs=vs, lambdas=None, source="file")
    if pres.ny != 1:
        raise CmConstructionError("automatic construction needs exactly one y variable")
    inf = distinct_infinity_check(pres)
    if not inf.verdict:
        raise CmConstructionError("points at infinity are not distinct; cannot build sheet generators")
    if inf.exact_roots is None:
        raise CmConstructionError("points at infinity are not expressible in the exact scalar field")
    xM, yv = pres.M - 1, pres.M
    t = 1
    x_poly = Polynomial.variable(xM, pres.M, pres.N, "exact")
    y_poly = Polynomial.variable(yv, pres.M, pres.N, "exact")
    top_mono = tuple(2 * t if j == xM else 0 for j in range(pres.N))
    vs = []
    for lam in inf.exact_roots:
        w = y_poly - x_poly * lam
        c2 = star(w, w, pres.generators).coefficient(top_mono)
        try:
            c = exact_sqrt(c2)
        except ExactSqrtError:
            raise CmConstructionError(
                f"normalizer sqrt({c2}) does not exist in the exact scalar field"
            ) from None
        if c.real_sign() <= 0:
            c = -c
        vs.append(w * c.inverse())
    return CmGenerators(t=t, vs=tuple(vs), lambdas=tuple(inf.exact_roots), source="auto")


@dataclass(frozen=True)
class CmProductReport:
    ok: bool
    problems: tuple[str, ...]
    top_coefficients: tuple[tuple[Exact, ...], ...]
    products: dict


def verify_cm_products(pres: VarietyPresentation, gens: CmGenerators) -> CmProductReport:
    """Check star(v_i, v_j) has x_M^{2t} coefficient delta_ij and bounded x_M degree."""
    t = gens.t
    xM = pres.M - 1
    top_mono = tuple(2 * t if j == xM else 0 for j in range(pres.N))
    problems: list[str] = []
    coefs: list[tuple[Exact, ...]] = []
    products: dict = {}
    one, zero = Exact(1), Exact(0)
    for i, vi in enumerate(gens.vs):
        row = []
        for j, vj in enumerate(gens.vs):
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
    return CmProductReport(not problems, tuple(problems), tuple(coefs), products)


def cm_basis(pres: VarietyPresentation, k: int, gens: Optional[CmGenerators] = None) -> GradedBasis:
    """Graded basis from sheet generators: low-order monomials x_M^l y^alpha with
    l + |alpha| < t, multiplied by monomials in x_1..x_{M-1}, together with
    x^beta x_M^l v_i for every sheet index i."""
    if gens is None:
        gens = cm_generators(pres)
    t = gens.t
    dec = decompose_A(pres)
    xM = pres.M - 1
    per_degree: dict[int, list[tuple[int, tuple, Polynomial]]] = {}

    def push(deg: int, rank: int, key, poly: Polynomial):
        per_degree.setdefault(deg, []).append((rank, key, poly))

    # low-order block: x^beta * x_M^l * y^alpha with l + |alpha| <= t - 1
    for alpha in dec.A:
        for l in range(max(0, t - sum(alpha))):
            base = tuple(e + (l if j == xM else 0) for j, e in enumerate(alpha))
            room = k - sum(base)
            if room < 0:
                continue
            for beta in x_monomials(pres.M - 1, pres.N, room):
                mono = tuple(b + e for b, e in zip(beta, base))
                push(sum(mono), 0, grevlex_key(mono), Polynomial.monomial(mono, pres.M, pres.N, "exact"))
    # sheet block: x^gamma * v_i with gamma over all x variables
    for gmono in x_monomials(pres.M, pres.N, k - t):
        gpoly = Polynomial.monomial(gmono, pres.M, pres.N, "exact")
        for i, v in enumerate(gens.vs):
            push(sum(gmono) + t, 1, (grevlex_key(gmono), i), gpoly * v)

    elements: list[Polynomial] = []
    degrees: list[int] = []
    for deg in sorted(per_degree):
        group = sorted(per_degree[deg], key=lambda item: (item[0], item[1]))
        want = count(pres, deg).N_eq
        if len(group) != want:
            raise CmConstructionError(
                f"sheet basis has {len(group)} elements in degree {deg}, expected {want}"
            )
        for _, _, poly in group:
            elements.append(poly)
            degrees.append(deg)
    return GradedBasis(
        kind="cm",
        k=k,
        elements=tuple(elements),
        degrees=tuple(degrees),
        label=f"sheet-normalized basis through degree {k} (t={t}, d={len(gens.vs)})",
    )


# ---------------------------------------------------------------------------
# quadrature on the torus lifted through the sheets


@dataclass(frozen=True, eq=False)
class QuadratureSpec:
    n: int
    points: np.ndarray  # (P, N) complex
    weights: np.ndarray  # (P,) float

    def __len__(self) -> int:
        return self.points.shape[0]


def default_quadrature_n(k: int) -> int:
    n = 256
    while n < 4 * (k + 1):
        n *= 2
    return n


def _lift_order(pres: VarietyPresentation) -> list[tuple[Polynomial, int, int]]:
    """(generator, the variable it is solved for, its degree in that variable),
    in the order `lift` solves them: by the index of that variable."""
    out = []
    for g in pres.generators:
        lm = g.leading_monomial()
        yv = min(j for j, e in enumerate(lm) if e)
        out.append((g, yv, lm[yv]))
    return sorted(out, key=lambda item: item[1])


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of each row's polynomial (ascending coefficients, nonzero top
    coefficient), bit for bit and in the order numpy's `roots` gives them:
    the companion-matrix eigenvalues of the part above the zero low-order
    coefficients, then one exact zero for each of those."""
    m = coeffs.shape[1] - 1
    roots = np.zeros((coeffs.shape[0], m), dtype=complex)
    low_zeros = np.argmax(coeffs != 0, axis=1)
    for t in np.unique(low_zeros):
        if t == m:
            continue
        rows = low_zeros == t
        p = coeffs[rows, t:][:, ::-1]
        comp = np.zeros((p.shape[0], m - t, m - t), dtype=complex)
        comp[:, 1:, :-1] = np.eye(m - t - 1)
        comp[:, 0, :] = -p[:, 1:] / p[:, :1]
        roots[rows, : m - t] = np.linalg.eigvals(comp)
    return roots


def lift(pres: VarietyPresentation, xs: np.ndarray) -> np.ndarray:
    """The points of the variety over the x-points `xs` (P, M), x-major and
    sheet-minor.  Each generator is solved for its leading variable at every
    partial point at once, so it may involve only x and the variables solved
    before it."""
    pts = np.concatenate(
        [np.asarray(xs, dtype=complex), np.full((len(xs), pres.ny), np.nan + 0j)], axis=1
    )
    solved = set(range(pres.M))
    for g, yv, m in _lift_order(pres):
        coeffs = np.zeros((len(pts), m + 1), dtype=complex)
        for mono, c in g.items():
            val = complex(c)
            for j, ej in enumerate(mono):
                if j == yv or not ej:
                    continue
                if j not in solved:
                    raise QuadratureError(
                        f"generator {g} is not triangular: needs unsolved variable index {j}"
                    )
                # np.power, not **: the array ** 2 fast path rounds differently
                val = val * np.power(pts[:, j], ej)
            coeffs[:, mono[yv]] += val
        pts = np.repeat(pts, m, axis=0)
        pts[:, yv] = _companion_roots(coeffs).ravel()
        solved.add(yv)
    return pts


def lift_grid(pres: VarietyPresentation, line: np.ndarray) -> np.ndarray:
    """`lift` over the M-fold product grid of the nodes `line`, the first x
    varying slowest."""
    grids = np.meshgrid(*([line] * pres.M), indexing="ij")
    return lift(pres, np.stack([g.ravel() for g in grids], axis=1))


def torus_quadrature(pres: VarietyPresentation, n: int) -> QuadratureSpec:
    """Uniform n-point grids on M unit circles, lifted through the d sheets."""
    rep = validate_noether(pres)
    if not rep.valid:
        raise QuadratureError(f"invalid presentation: {'; '.join(rep.problems)}")
    if n < 1:
        raise QuadratureError("need n >= 1")
    points = lift_grid(pres, np.exp(2j * np.pi * np.arange(n) / n))
    for g in pres.generators:
        worst = float(np.abs(g.evaluate(points)).max())
        if not worst <= 1e-9:  # NaN fails this too
            raise QuadratureError(f"sheet solve residual {worst:.3e} exceeds 1e-9")
    P = points.shape[0]
    return QuadratureSpec(n=n, points=points, weights=np.full(P, 1.0 / P))


def inner_product(f: Polynomial, g: Polynomial, quad: QuadratureSpec) -> complex:
    fv = f.evaluate(quad.points)
    gv = g.evaluate(quad.points)
    return complex(np.sum(quad.weights * fv * np.conj(gv)))


def gram(elements: Sequence[Polynomial], quad: QuadratureSpec) -> np.ndarray:
    vals = np.stack([e.evaluate(quad.points) for e in elements], axis=0)
    return (vals * quad.weights) @ np.conj(vals.T)


# ---------------------------------------------------------------------------
# bb bases


def _orthonormalize(vals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with one reorthogonalization pass.  Rows of
    `vals` are the input vectors sampled at the quadrature points; row j of
    the result holds the coefficients of the j-th orthonormal vector over
    the inputs."""
    m = vals.shape[0]
    q = vals.astype(complex).copy()
    c = np.eye(m, dtype=complex)
    for j in range(m):
        for _ in range(2):
            for i in range(j):
                r = np.sum(weights * q[j] * np.conj(q[i]))
                q[j] -= r * q[i]
                c[j] -= r * c[i]
        norm = math.sqrt(float(np.sum(weights * np.abs(q[j]) ** 2).real))
        if norm < 1e-13:
            raise QuadratureError(f"vector {j} is numerically dependent (norm {norm:.3e})")
        q[j] /= norm
        c[j] /= norm
        # phase: make the grevlex-leading coefficient real and positive
        big = [idx for idx in range(c.shape[1]) if abs(c[j, idx]) > 1e-10]
        lead = big[-1] if big else int(np.argmax(np.abs(c[j])))
        ph = c[j, lead] / abs(c[j, lead])
        q[j] /= ph
        c[j] /= ph
    return c


def _orthonormal(
    pres: VarietyPresentation, monos: Sequence[tuple], quad: QuadratureSpec
) -> tuple[tuple[Polynomial, ...], np.ndarray]:
    """Orthonormalize the monomials `monos`, in their order, in the
    quadrature inner product: the float polynomials and their coefficient
    matrix over `monos`."""
    vals = np.stack(
        [Polynomial.monomial(m, pres.M, pres.N, "float").evaluate(quad.points) for m in monos]
    )
    c = _orthonormalize(vals, quad.weights)
    polys = tuple(
        Polynomial({m: complex(cc) for m, cc in zip(monos, row) if cc != 0}, pres.M, pres.N, "float")
        for row in c
    )
    return polys, c


def bb_basis(pres: VarietyPresentation, k: int, quad: QuadratureSpec) -> GradedBasis:
    """Gram-Schmidt orthonormalization of the monomial basis in the quadrature
    inner product, in grevlex order, with leading coefficients real positive."""
    monos = monomial_basis(pres, k)
    elements, _ = _orthonormal(pres, monos, quad)
    return GradedBasis(
        kind="bb",
        k=k,
        elements=elements,
        degrees=tuple(sum(m) for m in monos),
        label=f"orthonormalized basis through degree {k} (n={quad.n})",
    )


def bb_y_block(pres: VarietyPresentation, quad: QuadratureSpec) -> tuple[tuple[Polynomial, ...], np.ndarray]:
    """Orthonormalize the pure-y monomials y^alpha, alpha in A, returning the
    resulting polynomials and their coefficient matrix over that block."""
    return _orthonormal(pres, decompose_A(pres).A, quad)


def bb_structured(pres: VarietyPresentation, k: int, quad: QuadratureSpec) -> GradedBasis:
    """x^beta times the orthonormalized pure-y block; finitely describable but
    only orthonormal in the y directions."""
    yhats, _ = bb_y_block(pres, quad)
    dec = decompose_A(pres)
    items: list[tuple[tuple, Polynomial, int]] = []
    for j, (alpha, yh) in enumerate(zip(dec.A, yhats)):
        da = sum(alpha)
        for beta in x_monomials(pres.M, pres.N, k - da):
            poly = Polynomial.monomial(beta, pres.M, pres.N, "float") * yh
            deg = sum(beta) + da
            items.append(((deg, j, grevlex_key(beta)), poly, deg))
    items.sort(key=lambda it: it[0])
    return GradedBasis(
        kind="bb_structured",
        k=k,
        elements=tuple(it[1] for it in items),
        degrees=tuple(it[2] for it in items),
        label=f"structured orthonormalized basis through degree {k} (n={quad.n})",
    )
