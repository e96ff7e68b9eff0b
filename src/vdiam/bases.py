"""Graded bases of the coordinate ring: monomial, sheet-normalized (cm), and
numerically orthonormalized (bb), and the basis families they come from.

A family is a finite union of cosets {multiplier * x^beta : supp(beta) in S}
plus finitely many extra elements.  `family_for` is the one place where the
monomial, cm and bb families are written down, and `monomial_graded_basis`,
`cm_basis` and `bb_structured` are those families expanded to degree k.  The
cm construction builds degree-one generators v_i = (y - lambda_i x_M)/c_i
from the points at infinity and normalizes them so the product table in the
quotient ring has unit diagonal in the top x_M coefficient.  The bb basis is
`monomial_graded_basis` orthonormalized against a torus-lifted quadrature
measure, a numerical basis with no family; the bb family multiplies the
orthonormalized pure-y block (the monomial family's multipliers) by x
monomials, which keeps its description finite.  It carries that block as
the Cholesky build returns it and trims rounding dust only to print or compare.
"""

from __future__ import annotations

import ctypes
import functools
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .polyring import (
    Polynomial,
    grevlex_key,
    monomial_mul,
    star,
)
from .scalars import Exact, ExactSqrtError, exact_sqrt
from .variety import (
    VarietyPresentation,
    count,
    decompose_A,
    distinct_infinity_check,
    x_monomials,
)


class CmConstructionError(ValueError):
    pass


class QuadratureError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class GradedBasis:
    elements: tuple[Polynomial, ...]
    degrees: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.elements)


# ---------------------------------------------------------------------------
# basis families


@dataclass(frozen=True)
class Coset:
    multiplier: Polynomial
    variables: frozenset[int]
    scales: tuple[tuple[int, Exact], ...] = ()

    def scale_of(self, v: int) -> Exact:
        for w, s in self.scales:
            if w == v:
                return s
        return Exact(1)

    def is_scaled(self) -> bool:
        return any(s != Exact(1) for _, s in self.scales)

    def element(self, beta: Sequence[int]) -> Polynomial:
        """multiplier * x^beta with the coset's variable scalings applied."""
        m = self.multiplier
        out = m * Polynomial.monomial(tuple(beta), m.nx, m.nvars, m.mode)
        for v, sv in self.scales:
            if beta[v]:
                # scaled cosets come from parse_family, so their multipliers are exact
                out = out * sv ** beta[v]
        return out

    def describe(self) -> str:
        names = sorted(f"x{v + 1}" for v in self.variables)
        mult = _trimmed(self.multiplier)
        body = f"({mult}) * monomials in {{{', '.join(names)}}}" if names else f"{mult}"
        if self.is_scaled():
            pairs = ", ".join(f"x{v + 1}->{s}" for v, s in self.scales)
            body += f" with scalings {pairs}"
        return body


@dataclass(frozen=True)
class BasisFamily:
    cosets: tuple[Coset, ...]
    finite: tuple[Polynomial, ...] = ()

    def is_empty(self) -> bool:
        return not self.cosets and not self.finite


def _trimmed(p: Polynomial) -> Polynomial:
    """Drop floating-point dust relative to the largest coefficient modulus:
    every term, and every real or imaginary part, of at most 1e-12 of it."""
    if p.mode == "exact" or p.is_zero():
        return p
    tol = 1e-12 * max(abs(c) for _, c in p.items())
    kept = {
        m: complex(c.real if abs(c.real) > tol else 0.0, c.imag if abs(c.imag) > tol else 0.0)
        for m, c in p.items()
        if abs(c) > tol
    }
    return Polynomial(kept, p.nx, p.nvars, p.mode)


def family_for(
    pres: VarietyPresentation,
    kind: str,
    *,
    gens: Optional[CmGenerators] = None,
    quad: Optional[QuadratureSpec] = None,
) -> BasisFamily:
    """Family description of a named basis kind: monomial, cm, or bb (the
    family of bb_structured, the finitely describable surrogate of bb)."""
    all_x = frozenset(range(pres.M))
    if kind == "monomial":
        dec = decompose_A(pres)
        cosets = tuple(
            Coset(Polynomial.monomial(al, pres.M, pres.N, "exact"), all_x) for al in dec.A
        )
        return BasisFamily(cosets)
    if kind == "cm":
        if gens is None:
            gens = cm_generators(pres)
        prefix = frozenset(range(pres.M - 1))
        dec = decompose_A(pres)
        cosets: list[Coset] = [Coset(v, all_x) for v in gens.vs]
        finite: list[Polynomial] = []
        for alpha in dec.A:
            for l in range(max(0, gens.t - sum(alpha))):
                mono = tuple(
                    e + (l if j == pres.M - 1 else 0) for j, e in enumerate(alpha)
                )
                mult = Polynomial.monomial(mono, pres.M, pres.N, "exact")
                if prefix:
                    cosets.append(Coset(mult, prefix))
                else:
                    finite.append(mult)
        return BasisFamily(tuple(cosets), tuple(finite))
    if kind == "bb":
        if quad is None:
            raise ValueError("bb family needs a quadrature")
        ys = [c.multiplier for c in family_for(pres, "monomial").cosets]
        yhats, _ = _orthonormal(pres, ys, quad)
        return BasisFamily(tuple(Coset(yh, all_x) for yh in yhats))
    raise ValueError(f"unknown basis kind {kind!r}; expected monomial, cm, or bb")


def _expand(family: BasisFamily, k: int) -> GradedBasis:
    """The family's elements of degree <= k: each coset's multiplier times
    every x-monomial in the coset's variables, a finite element being a coset
    over no variables.  Ordered by degree, then by the grevlex key of the
    leading monomial, then by coset index."""
    items = []
    cosets = family.cosets + tuple(Coset(f, frozenset()) for f in family.finite)
    for idx, coset in enumerate(cosets):
        m = coset.multiplier
        lead = m.leading_monomial()
        for beta in x_monomials(m.nx, m.nvars, k - m.degree()):
            if all(v in coset.variables for v, e in enumerate(beta) if e):
                items.append(((grevlex_key(monomial_mul(lead, beta)), idx), coset.element(beta)))
    items.sort(key=lambda it: it[0])
    return GradedBasis(
        elements=tuple(poly for _, poly in items),
        # a grevlex key leads with the degree
        degrees=tuple(key[0] for (key, _), _ in items),
    )


def monomial_graded_basis(pres: VarietyPresentation, k: int) -> GradedBasis:
    return _expand(family_for(pres, "monomial"), k)


# ---------------------------------------------------------------------------
# cm generators


@dataclass(frozen=True)
class CmGenerators:
    t: int
    vs: tuple[Polynomial, ...]
    lambdas: Optional[tuple[Exact, ...]]


def cm_generators(
    pres: VarietyPresentation, v_polys: Optional[Sequence[Polynomial]] = None
) -> CmGenerators:
    decompose_A(pres)
    d = pres.d
    if v_polys is not None:
        vs = tuple(v_polys)
        if len(vs) != d:
            raise CmConstructionError(f"expected d={d} sheet generators, got {len(vs)}")
        degs = {v.degree() for v in vs}
        if len(degs) != 1:
            raise CmConstructionError(f"sheet generators must share one degree, got {sorted(degs)}")
        return CmGenerators(t=degs.pop(), vs=vs, lambdas=None)
    if pres.ny != 1:
        raise CmConstructionError("automatic construction needs exactly one y variable")
    inf = distinct_infinity_check(pres)
    if not inf.distinct:
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
        if c2.is_zero():
            raise CmConstructionError(f"the sheet generator for the root {lam} at infinity has normalizer zero")
        try:
            c = exact_sqrt(c2)
        except ExactSqrtError:
            raise CmConstructionError(
                f"normalizer sqrt({c2}) does not exist in the exact scalar field"
            ) from None
        vs.append(w * c.inverse())
    return CmGenerators(t=t, vs=tuple(vs), lambdas=tuple(inf.exact_roots))


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
    n = len(gens.vs)
    # star is commutative: one product per unordered pair
    once = {(i, j): star(gens.vs[i], gens.vs[j], pres.generators) for i in range(n) for j in range(i, n)}
    products = {(i, j): once[min(i, j), max(i, j)] for i in range(n) for j in range(n)}
    problems: list[str] = []
    coefs: list[tuple[Exact, ...]] = []
    one, zero = Exact(1), Exact(0)
    for i in range(n):
        row = []
        for j in range(n):
            p = products[(i, j)]
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
    """The cm family to degree k: low-order monomials x_M^l y^alpha with
    l + |alpha| < t, multiplied by monomials in x_1..x_{M-1}, together with
    x^beta x_M^l v_i for every sheet index i."""
    basis = _expand(family_for(pres, "cm", gens=gens), k)
    per_degree = Counter(basis.degrees)
    for deg in sorted(per_degree):
        want = count(pres, deg).N_eq
        if per_degree[deg] != want:
            raise CmConstructionError(
                f"sheet basis has {per_degree[deg]} elements in degree {deg}, expected {want}"
            )
    return basis


# ---------------------------------------------------------------------------
# quadrature on the torus lifted through the sheets


@dataclass(frozen=True, eq=False)
class QuadratureSpec:
    points: np.ndarray  # (P, N) complex
    weights: np.ndarray  # (P,) float

    def __len__(self) -> int:
        return self.points.shape[0]


# points per block of the sheet lift and of the Gram accumulation: the lift
# holds one block's partial points beside its output, and a Gram block's
# values take m * 32 KiB, so neither bb nor `gram` holds an m x P matrix
_GRAM_BLOCK = 2048


def default_quadrature_n(k: int) -> int:
    n = 256
    while n < 4 * (k + 1):
        n *= 2
    return n


def _lift_order(pres: VarietyPresentation) -> list[tuple[Polynomial, int, int]]:
    """(generator, the variable it is solved for, its degree in that variable),
    in the order `lift` solves them: by the index of that variable.  Raises
    `QuadratureError` when a generator involves a variable solved after it."""
    out = []
    for g in pres.generators:
        lm = g.leading_monomial()
        yv = min(j for j, e in enumerate(lm) if e)
        out.append((g, yv, lm[yv]))
    out.sort(key=lambda item: item[1])
    solved = set(range(pres.M))
    for g, yv, _ in out:
        for mono, _ in g.items():
            for j, ej in enumerate(mono):
                if ej and j != yv and j not in solved:
                    raise QuadratureError(
                        f"generator {g} is not triangular: needs unsolved variable index {j}"
                    )
        solved.add(yv)
    return out


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
        lead = coeffs[rows, m]
        comp = np.zeros((len(lead), m - t, m - t), dtype=complex)
        comp[:, 1:, :-1] = np.eye(m - t - 1)
        for i in range(m - t):
            # (-c) / lead, column by column: a two-dimensional divide buffers
            # a copy of the whole top row; -(c / lead) differs in signed zeros
            top = comp[:, 0, i]
            np.divide(np.negative(coeffs[rows, m - 1 - i], out=top), lead, out=top)
        roots[rows, : m - t] = np.linalg.eigvals(comp)
    return roots


def _lift_block(
    pres: VarietyPresentation, order: list[tuple[Polynomial, int, int]], xs: np.ndarray
) -> np.ndarray:
    """The points of the variety over the complex x-points `xs`, x-major and
    sheet-minor: each generator of `order` is solved for its variable at
    every partial point at once."""
    pts = np.concatenate([xs, np.full((len(xs), pres.ny), np.nan + 0j)], axis=1)
    for g, yv, m in order:
        coeffs = np.zeros((len(pts), m + 1), dtype=complex)
        for mono, c in g.items():
            val = complex(c)
            for j, ej in enumerate(mono):
                if j != yv and ej:
                    # np.power, not **: the array ** 2 fast path rounds differently
                    val = val * np.power(pts[:, j], ej)
            coeffs[:, mono[yv]] += val
        pts = np.repeat(pts, m, axis=0)
        pts[:, yv] = _companion_roots(coeffs).ravel()
    return pts


def _lift_blocks(
    pres: VarietyPresentation, count_: int, x_block: Callable[[int, int], np.ndarray]
) -> np.ndarray:
    """`lift` over `count_` x-points, where `x_block(start, stop)` gives the
    (stop - start, M) complex rows start..stop-1.  The points are solved in
    blocks of at most `_GRAM_BLOCK` lifted points into one output array;
    every row is solved on its own, so the blocks do not move a bit."""
    decompose_A(pres)
    order = _lift_order(pres)
    d = math.prod(m for _, _, m in order)
    out = np.empty((count_ * d, pres.N), dtype=complex)
    worst = np.zeros(len(pres.generators))
    step = max(1, _GRAM_BLOCK // d)
    for start in range(0, count_, step):
        stop = min(start + step, count_)
        pts = out[start * d : stop * d]
        pts[:] = _lift_block(pres, order, x_block(start, stop))
        # np.maximum, not max: a NaN residual must survive to the check
        worst = np.maximum(worst, [np.abs(g.evaluate(pts)).max() for g in pres.generators])
    for w in worst:
        if not w <= 1e-9:  # NaN fails this too
            raise QuadratureError(f"sheet solve residual {w:.3e} exceeds 1e-9")
    return out


def lift(pres: VarietyPresentation, xs: np.ndarray) -> np.ndarray:
    """The points of the variety over the x-points `xs` (P, M), x-major and
    sheet-minor.  Each generator is solved for its leading variable at every
    partial point of a block at once, so it may involve only x and the
    variables solved before it.  Raises `ValueError` on an invalid
    presentation and `QuadratureError` when a lifted point misses the variety
    by over 1e-9."""
    xs = np.asarray(xs, dtype=complex)
    return _lift_blocks(pres, len(xs), lambda start, stop: xs[start:stop])


def lift_grid(pres: VarietyPresentation, line: np.ndarray) -> np.ndarray:
    """`lift` over the M-fold product grid of the nodes `line`, the first x
    varying slowest; each block's grid points come from their flat indices."""
    line = np.asarray(line, dtype=complex)
    shape = (len(line),) * pres.M

    def x_block(start: int, stop: int) -> np.ndarray:
        return np.stack([line[i] for i in np.unravel_index(np.arange(start, stop), shape)], axis=1)

    return _lift_blocks(pres, math.prod(shape), x_block)


def torus_quadrature(pres: VarietyPresentation, n: int) -> QuadratureSpec:
    """Uniform n-point grids on M unit circles, lifted through the d sheets."""
    if n < 1:
        raise QuadratureError("need n >= 1")
    points = lift_grid(pres, np.exp(2j * np.pi * np.arange(n) / n))
    P = points.shape[0]
    return QuadratureSpec(points=points, weights=np.full(P, 1.0 / P))


def inner_product(f: Polynomial, g: Polynomial, quad: QuadratureSpec) -> complex:
    fv = f.evaluate(quad.points)
    gv = g.evaluate(quad.points)
    return complex(np.sum(quad.weights * fv * np.conj(gv)))


# ---------------------------------------------------------------------------
# bb bases


# (get, set) thread-count symbols, in the order they are looked up: the
# scipy-openblas build that numpy wheels bundle, then a plain OpenBLAS
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_threads():
    """OpenBLAS's (get, set) thread-count functions in the library bundled
    with numpy, or None when there is none. Looked up on the first search or
    bb build, so importing vdiam does not pay for it."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _one_blas_thread(fn):
    """Run `fn` with one OpenBLAS thread, and give the caller's thread count
    back when it returns or raises; a nested call keeps one thread until the
    outermost returns.

    The Fekete exchange and the Gram accumulation are serial loops of small
    matrix-vector products (P x N with N up to a few dozen). Threaded, each
    is split across the cores, whose workers then spin between calls: the
    CPU time doubles on two cores and the wall time does not fall. The split
    also moves the last bits of the sums, so in one thread a result does not
    depend on the host's core count. The count is process-wide: searches or
    builds run from several Python threads at once can hand each other the
    wrong count back."""

    @functools.wraps(fn)
    def run(*args, **kwargs):
        blas = _openblas_threads()
        if blas is None:
            return fn(*args, **kwargs)
        get, set_ = blas
        saved = get()
        set_(1)
        try:
            return fn(*args, **kwargs)
        finally:
            set_(saved)

    return run


# a row whose squared residual d_j is at most this share of G_jj is dependent:
# Cholesky QR loses orthogonality like eps * cond(G) (Fukaya et al., 2014),
# and m * eps / _DEPENDENT is under the 1e-10 Gram bar up to m = 450
_DEPENDENT = 1e-3


@_one_blas_thread
def _gram_upper(elements: Sequence[Polynomial], quad: QuadratureSpec) -> np.ndarray:
    """The upper triangle of the Gram matrix G_ij = <e_i, e_j>, summed over
    blocks of quadrature points.  In each block column j gains one product
    v[:j+1] @ conj(w v[j]), so it depends only on the elements up to j."""
    m = len(elements)
    g = np.zeros((m, m), dtype=complex)
    block = np.empty((m, min(_GRAM_BLOCK, len(quad))), dtype=complex)
    buf = np.empty(block.shape[1], dtype=complex)
    for start in range(0, len(quad), _GRAM_BLOCK):
        points = quad.points[start : start + _GRAM_BLOCK]
        weights = quad.weights[start : start + _GRAM_BLOCK]
        v, wv = block[:, : len(points)], buf[: len(points)]
        for row, e in zip(v, elements):
            row[:] = e.evaluate(points)
        for j in range(m):
            np.multiply(weights, v[j], out=wv)
            g[: j + 1, j] += v[: j + 1] @ np.conjugate(wv, out=wv)
    return g


def gram(elements: Sequence[Polynomial], quad: QuadratureSpec) -> np.ndarray:
    """G_ij = <e_i, e_j> in the quadrature inner product: `_gram_upper` with
    its strict upper triangle mirrored below the diagonal."""
    g = _gram_upper(elements, quad)
    return g + np.conjugate(np.triu(g, 1)).T


def _inverse_cholesky(g: np.ndarray) -> np.ndarray:
    """C = L^-1 for the Cholesky factor G = L L^H of the Gram matrix whose
    upper triangle is `g`, built row by row: row j of L solves
    L[:j, :j] conj(L[j, :j]) = g[:j, j] through the rows of C before it, and
    row j of C follows from L C = I.  So row j depends only on g[:j+1, :j+1],
    and the diagonal 1/L_jj is real and positive."""
    m = g.shape[0]
    c = np.zeros((m, m), dtype=complex)
    for j in range(m):
        lj = np.conjugate(c[:j, :j] @ g[:j, j])
        gjj = g[j, j].real
        d = gjj - np.vdot(lj, lj).real
        if not d > _DEPENDENT * gjj:  # NaN fails this too
            raise QuadratureError(f"vector {j} is numerically dependent (squared residual {d:.3e} of {gjj:.3e})")
        ljj = math.sqrt(d)
        c[j, :j] = -(lj @ c[:j, :j]) / ljj
        c[j, j] = 1 / ljj
    return c


@_one_blas_thread
def _orthonormal(
    pres: VarietyPresentation, monomials: Sequence[Polynomial], quad: QuadratureSpec
) -> tuple[tuple[Polynomial, ...], np.ndarray]:
    """Orthonormalize the monomial polynomials `monomials`, in their order, in
    the quadrature inner product: the float polynomials and their
    coefficient matrix over `monomials`."""
    c = _inverse_cholesky(_gram_upper(monomials, quad))
    keys = [m.leading_monomial() for m in monomials]
    polys = tuple(
        Polynomial({m: complex(cc) for m, cc in zip(keys, row) if cc != 0}, pres.M, pres.N, "float")
        for row in c
    )
    return polys, c


def bb_basis(pres: VarietyPresentation, k: int, quad: QuadratureSpec) -> GradedBasis:
    """The monomial basis orthonormalized in the quadrature inner product, in
    grevlex order: element j is row j of C = L^-1 over the monomials, for the
    Cholesky factor L of their Gram matrix."""
    mono = monomial_graded_basis(pres, k)
    elements, _ = _orthonormal(pres, mono.elements, quad)
    return GradedBasis(elements=elements, degrees=mono.degrees)


def bb_structured(pres: VarietyPresentation, k: int, quad: QuadratureSpec) -> GradedBasis:
    """The bb family to degree k: x^beta times the orthonormalized pure-y
    block; finitely describable but only orthonormal in the y directions."""
    return _expand(family_for(pres, "bb", quad=quad), k)
