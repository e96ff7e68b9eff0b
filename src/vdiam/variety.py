"""Variety presentations in Noether position and their combinatorics.

A presentation fixes the split z = (x_1..x_M, y_1..y_{N-M}) together with
generators whose leading terms are pure powers y_i^{m_i}, one per y
variable.  On top of that this module provides the direct-sum
decomposition over the finite exponent set A, whose cosets x^beta y^alpha
`bases.family_for` expands to the monomial basis, dimension counts with
their asymptotics, and the distinctness check for the intersection points
with the hyperplane at infinity (used to build sheet polynomials).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path
from typing import Optional

import numpy as np

from .polyring import (
    Monomial,
    Polynomial,
    grevlex_key,
    parse_polynomial,
    s_poly_check,
    top_homogeneous,
)
from .scalars import IMAG, Exact, ExactSqrtError, exact_sqrt


@dataclass(frozen=True)
class VarietyPresentation:
    M: int
    N: int
    generators: tuple[Polynomial, ...]
    # the variety file's sheet generators, for `bases.cm_generators`
    v_polys: Optional[tuple[Polynomial, ...]] = None

    @property
    def ny(self) -> int:
        return self.N - self.M

    @property
    def d(self) -> int:
        """The sheet count: the product of the generators' leading degrees."""
        return math.prod(sum(g.leading_monomial()) for g in self.generators)


@dataclass(frozen=True)
class NoetherReport:
    valid: bool
    problems: tuple[str, ...]
    m_degrees: tuple[int, ...]
    d: Optional[int]
    spoly_ok: Optional[bool]


def validate_noether(pres: VarietyPresentation) -> NoetherReport:
    problems: list[str] = []
    if not (1 <= pres.M <= pres.N):
        problems.append(f"need 1 <= M <= N, got M={pres.M}, N={pres.N}")
        return NoetherReport(False, tuple(problems), (), None, None)
    ny = pres.ny
    if len(pres.generators) != ny:
        problems.append(f"{ny} y-variables need {ny} generators, got {len(pres.generators)}")
    covered: dict[int, int] = {}
    for gi, g in enumerate(pres.generators, start=1):
        if g.is_zero():
            problems.append(f"generator {gi} is zero")
            continue
        if g.nvars != pres.N:
            problems.append(f"generator {gi} has {g.nvars} variables, ambient has {pres.N}")
            continue
        coef, mono = g.leading_term()
        ys = [(j - pres.M, e) for j, e in enumerate(mono) if e and j >= pres.M]
        xs = [j for j, e in enumerate(mono) if e and j < pres.M]
        if xs or len(ys) != 1:
            problems.append(f"generator {gi} leading term {Polynomial.monomial(mono, g.nx, g.nvars)} is not a pure y power")
            continue
        yj, m = ys[0]
        if not isinstance(coef, Exact):
            problems.append(f"generator {gi} has float coefficients; presentations are exact")
        elif coef != Exact(1):
            problems.append(f"generator {gi} leading coefficient is not 1")
        if yj in covered:
            problems.append(f"y{yj + 1} is covered by more than one leading term")
        covered[yj] = m
    for yj in range(ny):
        if yj not in covered:
            problems.append(f"y{yj + 1} is not covered by any leading term")
    m_degrees = tuple(covered.get(j, 0) for j in range(ny))
    structural_ok = not problems
    spoly_ok: Optional[bool] = None
    if structural_ok and pres.generators:
        spoly_ok = s_poly_check(pres.generators)
        if not spoly_ok:
            problems.append("an S-polynomial of a generator pair does not reduce to zero")
    d = pres.d if structural_ok else None
    return NoetherReport(not problems, tuple(problems), m_degrees, d, spoly_ok)


# ---------------------------------------------------------------------------
# decomposition


def decompose_A(pres: VarietyPresentation) -> tuple[Monomial, ...]:
    """The exponent set A of the direct-sum decomposition: the y-monomials
    y^alpha with alpha_i < m_i, as full-width exponent vectors whose x-part
    is zero, in grevlex order.  Raises `ValueError` on an invalid
    presentation."""
    rep = validate_noether(pres)
    if not rep.valid:
        raise ValueError(f"invalid presentation: {'; '.join(rep.problems)}")
    return tuple(sorted(((0,) * pres.M + ys for ys in product(*map(range, rep.m_degrees))), key=grevlex_key))


def x_monomials(M: int, nvars: int, max_degree: int) -> list[Monomial]:
    """All pure-x exponent vectors of total degree <= max_degree, ascending."""
    out: list[Monomial] = []
    for deg in range(max_degree + 1):
        for combo in combinations_with_replacement(range(M), deg):
            beta = [0] * nvars
            for j in combo:
                beta[j] += 1
            out.append(tuple(beta))
    out.sort(key=grevlex_key)
    return out


# ---------------------------------------------------------------------------
# counting


@dataclass(frozen=True)
class CountRecord:
    k: int
    N_eq: int
    N: int
    l: int
    Nx: int
    lx: int


def _nx(M: int, k: int) -> int:
    return math.comb(M + k, M) if k >= 0 else 0


def _nx_eq(M: int, k: int) -> int:
    if k < 0:
        return 0
    return math.comb(M + k - 1, M - 1) if M >= 1 else (1 if k == 0 else 0)


def count(pres: VarietyPresentation, k: int) -> CountRecord:
    A = decompose_A(pres)
    M = pres.M

    def n_of(j: int) -> int:
        return sum(_nx(M, j - sum(al)) for al in A) if j >= 0 else 0

    n_k = n_of(k)
    n_eq = n_k - n_of(k - 1)
    l_k = sum(j * (n_of(j) - n_of(j - 1)) for j in range(1, k + 1))
    lx = sum(j * _nx_eq(M, j) for j in range(1, k + 1))
    return CountRecord(k=k, N_eq=n_eq, N=n_k, l=l_k, Nx=_nx(M, k), lx=lx)


def count_table(pres: VarietyPresentation, k_max: int) -> list[CountRecord]:
    return [count(pres, k) for k in range(k_max + 1)]


def sandwich_check(pres: VarietyPresentation, k: int) -> bool:
    """n*Nx_{k-a} <= N_k <= n*Nx_k, with n = |A| and a the largest degree in
    A, plus the same for the degree-weighted sums."""
    A = decompose_A(pres)
    a, n = max(map(sum, A)), len(A)
    if k < a:
        raise ValueError(f"need k >= a = {a}, got k = {k}")
    rec = count(pres, k)
    lo, hi = n * _nx(pres.M, k - a), n * rec.Nx
    if not (lo <= rec.N <= hi):
        return False
    lx_lo = sum(j * _nx_eq(pres.M, j) for j in range(1, k - a + 1))
    l_lo = n * lx_lo
    l_hi = n * (rec.lx + a * rec.Nx)  # each of the n copies shifted by at most a
    return l_lo <= rec.l <= l_hi


def asymptotic_ratios(pres: VarietyPresentation, k: int) -> tuple[float, float]:
    """(N_k/l_k, k*N_k/l_k); the second converges to (M+1)/M."""
    if k < 1:
        raise ValueError("need k >= 1")
    rec = count(pres, k)
    return rec.N / rec.l, k * rec.N / rec.l


# ---------------------------------------------------------------------------
# intersection with infinity


@dataclass(frozen=True)
class InfinityReport:
    points: tuple[tuple[complex, complex], ...]  # (x_M, y) homogeneous pairs
    distinct: bool  # d points, all with x_M != 0, pairwise distinct
    xM_nonzero: bool
    min_chordal: float
    exact_roots: Optional[tuple[Exact, ...]]


def _chordal(u: complex, v: complex) -> float:
    # hypot and one division at a time: (1 + |u|^2)(1 + |v|^2) overflows for
    # roots near 1e77, and a distance of 0 then reads as a double root
    return abs(u - v) / math.hypot(1, abs(u)) / math.hypot(1, abs(v))


def _divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of two polynomials, highest power first; the
    remainder has no leading zeros, so it is empty when b divides a."""
    quotient, rest = [], list(a)
    while len(rest) >= len(b):
        f = rest[0] / b[0]
        quotient.append(f)
        rest = [x - f * y for x, y in zip(rest[1:], b[1:] + [0] * (len(rest) - len(b)))]
    while rest and not rest[0]:
        del rest[0]
    return quotient, rest


def _exact_poly_roots(coeffs: list[Exact]) -> Optional[list[Exact]]:
    """Roots of sum c_e mu^e inside Q(sqrt2)(i), or None: closed forms up to
    degree 2 (a negative real discriminant has the roots' imaginary square
    root); above it every root rational, each a simple root of the exact
    square-free part that double precision resolves."""
    while coeffs and coeffs[-1].is_zero():
        coeffs = coeffs[:-1]
    if len(coeffs) <= 1:
        return []
    deg = len(coeffs) - 1
    if deg == 1:
        return [-coeffs[0] / coeffs[1]]
    if deg == 2:
        a, b, c = coeffs[2], coeffs[1], coeffs[0]
        disc = b * b - 4 * a * c
        try:
            r = IMAG * exact_sqrt(-disc) if disc.is_real() and disc.real_sign() < 0 else exact_sqrt(disc)
        except ExactSqrtError:
            return None
        return [(-b + r) / (2 * a), (-b - r) / (2 * a)]
    if not all(co.is_rational() for co in coeffs):
        return None
    # q is monic, so q(nu/den) * den^deg is a monic integer polynomial in nu
    # and each rational root of q is nu/den with nu an integer.  The rational
    # roots are those of the square-free part s = q / gcd(q, q'), where each
    # is simple, so den times the numeric roots of s round to the nu, or do
    # after one exact Newton step.  Each candidate that divides s exactly is
    # divided out of q for its full multiplicity; the quotient of s gives
    # the next round's candidates, until s is a constant or a round finds no
    # root.
    q = [co.as_fraction() / coeffs[-1].as_fraction() for co in reversed(coeffs)]
    g, h = q, [co * (deg - i) for i, co in enumerate(q[:-1])]
    while h:
        g, h = h, _divmod(g, h)[1]
    s = _divmod(q, [co / g[0] for co in g])[0]
    roots: list[Exact] = []
    while len(s) > 1:
        den = math.lcm(*(co.denominator for co in s))
        nus = set()
        for z in np.roots([float(co) for co in s]):
            # one exact Newton step from the rounded value, with s'(x) the
            # value at x of s's quotient by (mu - x), moves a simple root that
            # double precision rounded to a neighbour onto its nu
            nu = round(z.real * den)
            x = Fraction(nu, den)
            quotient, value = _divmod(s, [1, -x])
            slope = _divmod(quotient, [1, -x])[1]
            nus.add(nu)
            if value and slope:
                nus.add(round((x - value[0] / slope[0]) * den))
        found = len(roots)
        for nu in sorted(nus):
            root = Fraction(nu, den)
            quotient, remainder = _divmod(s, [1, -root])
            if remainder:
                continue
            s = quotient
            while True:
                quotient, remainder = _divmod(q, [1, -root])
                if remainder:
                    break
                q = quotient
                roots.append(Exact(root))
        if len(roots) == found:
            return None
    return roots


def distinct_infinity_check(pres: VarietyPresentation) -> InfinityReport:
    """Roots of the top form on the line t = x_1 = ... = x_{M-1} = 0."""
    if len(pres.generators) != 1:
        raise ValueError("distinct_infinity_check needs a single-generator presentation")
    g = pres.generators[0]
    D = g.degree()
    restricted = top_homogeneous(g).restrict_zero(range(pres.M - 1))
    if restricted.is_zero():
        raise ValueError("top form vanishes identically on the x_M line")
    xM, yv = pres.M - 1, pres.M
    coeffs = [Exact(0)] * (D + 1)
    for mono, c in restricted.items():
        if any(e and j not in (xM, yv) for j, e in enumerate(mono)):
            raise ValueError("restricted top form involves more than one y variable")
        if not isinstance(c, Exact):
            raise ValueError("the generator has float coefficients; presentations are exact")
        coeffs[mono[yv]] = c
    xM_nonzero = not coeffs[D].is_zero()
    try:
        got = _exact_poly_roots(coeffs) if xM_nonzero else None
        exact_roots = None if got is None else tuple(
            sorted(got, key=lambda r: (-float(r.a) - float(r.b) * 2 ** 0.5, -float(r.c)))
        )
        if exact_roots is not None:
            mus = np.array([r.to_complex() for r in exact_roots])
            pairwise_distinct = len(set(exact_roots)) == len(exact_roots)
        else:
            # roots of p(mu) = sum_e c_e mu^e, highest power first for np.roots
            mus = np.roots([c.to_complex() for c in reversed(coeffs)])
            pairwise_distinct = True
    except OverflowError:
        raise ValueError("the top form's coefficients or roots at infinity lie beyond the float range") from None
    points = tuple((1 + 0j, complex(mu)) for mu in mus)
    if not xM_nonzero:
        points = points + ((0j, 1 + 0j),)
    min_ch = min((_chordal(u, v) for u, v in combinations(mus, 2)), default=math.inf)
    # a bool, not numpy's: the chordal distance is a numpy float
    distinct = bool(len(points) == pres.d and xM_nonzero and min_ch > 1e-8 and pairwise_distinct)
    return InfinityReport(
        points=points,
        distinct=distinct,
        xM_nonzero=xM_nonzero,
        min_chordal=min_ch if min_ch < math.inf else math.nan,
        exact_roots=exact_roots,
    )


# ---------------------------------------------------------------------------
# variety files


def data_path(name: str) -> Path:
    return Path(str(resources.files("vdiam") / "data" / name))


def _polynomial_strings(doc: dict, field: str) -> list[str]:
    vals = doc[field]
    if not isinstance(vals, (list, tuple)) or not all(isinstance(v, str) for v in vals):
        raise ValueError(f"variety field {field!r} must be a list of polynomial strings")
    return list(vals)


def _integer(doc: dict, field: str) -> int:
    v = doc[field]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"variety field {field!r} must be an integer, got {v!r}")
    return v


def load_variety(source) -> tuple[VarietyPresentation, dict]:
    """Load a presentation from a dict, a path, or a bundled file name.

    Returns (presentation, extras). The file's sheet generators `v_polys`,
    parsed, land on the presentation; extras carries the optional fields
    name and families (raw dict for the family layer).
    """
    if isinstance(source, dict):
        doc = source
    else:
        p = Path(source)
        if not p.exists():
            bundled = data_path(p.name if p.suffix else p.name + ".var")
            if bundled.exists():
                p = bundled
            else:
                raise FileNotFoundError(f"variety file not found: {source}")
        doc = json.loads(p.read_text())
    if not isinstance(doc, dict):
        raise ValueError("a variety file must hold a JSON object")
    try:
        M, N = _integer(doc, "M"), _integer(doc, "N")
        gen_strs = _polynomial_strings(doc, "generators")
    except KeyError as e:
        raise ValueError(f"variety file is missing field {e.args[0]!r}") from None
    gens = tuple(parse_polynomial(s, M, N) for s in gen_strs)
    pres = VarietyPresentation(M=M, N=N, generators=gens)
    if doc.get("d") is not None:
        d = _integer(doc, "d")
        # the sheet count is defined once every leading term is a pure y
        # power; for other generators `validate_noether` names the problem
        leads = [g.leading_monomial() for g in gens if not g.is_zero()]
        pure_y = len(leads) == len(gens) and all(not any(m[:M]) and sum(map(bool, m)) == 1 for m in leads)
        if pure_y and d != pres.d:
            raise ValueError(f"variety field 'd' is {d}, but the generators' leading terms give {pres.d} sheets")
    families = doc.get("families")
    if families is not None and not (isinstance(families, dict) and all(isinstance(f, dict) for f in families.values())):
        raise ValueError("variety field 'families' must map family names to objects")
    if doc.get("v_polys") is not None:
        pres = replace(pres, v_polys=tuple(parse_polynomial(s, M, N) for s in _polynomial_strings(doc, "v_polys")))
    return pres, {"name": doc.get("name"), "families": families}
