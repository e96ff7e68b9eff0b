"""Variety presentations in Noether position and their combinatorics.

A presentation fixes the split z = (x_1..x_M, y_1..y_{N-M}) together with
generators whose leading terms are pure powers y_i^{m_i}, one per y
variable.  On top of that this module provides the standard monomial
basis of the coordinate ring, the direct-sum decomposition over the
finite exponent set A, dimension counts with their asymptotics, and the
distinctness check for the intersection points with the hyperplane at
infinity (used to build sheet polynomials).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .polyring import (
    Monomial,
    Polynomial,
    grevlex_key,
    monomial_divides,
    parse_polynomial,
    s_poly_check,
    top_homogeneous,
)
from .scalars import Exact, ExactSqrtError, exact_sqrt


@dataclass(frozen=True)
class VarietyPresentation:
    M: int
    N: int
    generators: tuple[Polynomial, ...]
    d_hint: Optional[int] = None

    @property
    def ny(self) -> int:
        return self.N - self.M

    @property
    def d(self) -> int:
        if self.d_hint is not None:
            return self.d_hint
        out = 1
        for g in self.generators:
            out *= sum(g.leading_monomial())
        return out


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
            problems.append(f"generator {gi} leading term {Polynomial.monomial(mono, g.nx, g.nvars, g.mode)} is not a pure y power")
            continue
        yj, m = ys[0]
        monic = (coef == Exact(1)) if g.mode == "exact" else abs(coef - 1) < 1e-12
        if not monic:
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
        if all(g.mode == "exact" for g in pres.generators):
            spoly_ok = s_poly_check(pres.generators)
            if not spoly_ok:
                problems.append("an S-polynomial of a generator pair does not reduce to zero")
    d = None
    if structural_ok:
        d = pres.d_hint if pres.d_hint is not None else math.prod(m_degrees) if m_degrees else 1
    return NoetherReport(not problems, tuple(problems), m_degrees, d, spoly_ok)


# ---------------------------------------------------------------------------
# decomposition and monomial basis


@dataclass(frozen=True)
class Decomposition:
    A: tuple[Monomial, ...]  # full-width exponent vectors, x-part zero
    a: int
    n: int


def decompose_A(pres: VarietyPresentation) -> Decomposition:
    rep = validate_noether(pres)
    if not rep.valid:
        raise ValueError(f"invalid presentation: {'; '.join(rep.problems)}")
    ny = pres.ny
    ranges = [range(m) for m in rep.m_degrees] if ny else []
    alphas: list[Monomial] = []

    def rec(prefix: list[int], j: int):
        if j == ny:
            alphas.append((0,) * pres.M + tuple(prefix))
            return
        for e in ranges[j]:
            rec(prefix + [e], j + 1)

    rec([], 0)
    alphas.sort(key=grevlex_key)
    a = max(sum(al) for al in alphas)
    return Decomposition(tuple(alphas), a, len(alphas))


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


def monomial_basis(pres: VarietyPresentation, k: int) -> list[Monomial]:
    """Monomials of degree <= k outside the leading-term ideal, ascending."""
    dec = decompose_A(pres)
    out: list[Monomial] = []
    for alpha in dec.A:
        da = sum(alpha)
        if da > k:
            continue
        for beta in x_monomials(pres.M, pres.N, k - da):
            out.append(tuple(b + a for b, a in zip(beta, alpha)))
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
    dec = decompose_A(pres)
    M = pres.M

    def n_of(j: int) -> int:
        return sum(_nx(M, j - sum(al)) for al in dec.A) if j >= 0 else 0

    n_k = n_of(k)
    n_eq = n_k - n_of(k - 1)
    l_k = 0
    prev = n_of(-1)
    for j in range(0, k + 1):
        cur = n_of(j)
        l_k += j * (cur - prev)
        prev = cur
    lx = sum(j * _nx_eq(M, j) for j in range(1, k + 1))
    return CountRecord(k=k, N_eq=n_eq, N=n_k, l=l_k, Nx=_nx(M, k), lx=lx)


def count_table(pres: VarietyPresentation, k_max: int) -> list[CountRecord]:
    return [count(pres, k) for k in range(k_max + 1)]


def sandwich_check(pres: VarietyPresentation, k: int) -> bool:
    """n*Nx_{k-a} <= N_k <= n*Nx_k, plus the same for the degree-weighted sums."""
    dec = decompose_A(pres)
    if k < dec.a:
        raise ValueError(f"need k >= a = {dec.a}, got k = {k}")
    rec = count(pres, k)
    lo, hi = dec.n * _nx(pres.M, k - dec.a), dec.n * rec.Nx
    if not (lo <= rec.N <= hi):
        return False
    lx_lo = sum(j * _nx_eq(pres.M, j) for j in range(1, k - dec.a + 1))
    l_lo = dec.n * lx_lo
    l_hi = dec.n * (rec.lx + dec.a * rec.Nx)  # each of the n copies shifted by at most a
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
    distinct: bool
    xM_nonzero: bool
    d: int
    min_chordal: float
    exact_roots: Optional[tuple[Exact, ...]]

    @property
    def verdict(self) -> bool:
        return self.distinct and self.xM_nonzero and len(self.points) == self.d


def _chordal(u: complex, v: complex) -> float:
    num = abs(u - v)
    return num / math.sqrt((1 + abs(u) ** 2) * (1 + abs(v) ** 2))


def _exact_poly_roots(coeffs: list[Exact]) -> Optional[list[Exact]]:
    """Roots of sum c_e mu^e inside Q(sqrt2), or None when not expressible."""
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
            r = exact_sqrt(disc)
        except ExactSqrtError:
            return None
        return [(-b + r) / (2 * a), (-b - r) / (2 * a)]
    # rational-root scan for higher degree with rational coefficients
    if not all(co.is_rational() for co in coeffs):
        return None
    fracs = [co.as_fraction() for co in coeffs]
    den = math.lcm(*[f.denominator for f in fracs])
    ints = [int(f * den) for f in fracs]
    roots: list[Exact] = []
    while len(ints) > 2:
        a0, an = ints[0], ints[-1]
        if a0 == 0:
            roots.append(Exact(0))
            ints = ints[1:]
            continue
        found = None
        for p in _divisors(abs(a0)):
            for q in _divisors(abs(an)):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if sum(co * cand ** e for e, co in enumerate(ints)) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            return None
        roots.append(Exact(found))
        # synthetic division by (mu - cand)
        new = [Fraction(0)] * (len(ints) - 1)
        carry = Fraction(0)
        for e in range(len(ints) - 1, 0, -1):
            carry = Fraction(ints[e]) + carry * found
            new[e - 1] = carry
        den2 = math.lcm(*[f.denominator for f in new])
        ints = [int(f * den2) for f in new]
    if len(ints) == 2:
        roots.append(Exact(Fraction(-ints[0], ints[1])))
    return roots


def _divisors(n: int) -> list[int]:
    out = [i for i in range(1, int(math.isqrt(n)) + 1) if n % i == 0]
    return sorted(set(out + [n // i for i in out]))


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
    coeffs_exact: list[Exact] = []
    coeffs_float = np.zeros(D + 1, dtype=complex)
    for mono, c in restricted.items():
        if any(e and j not in (xM, yv) for j, e in enumerate(mono)):
            raise ValueError("restricted top form involves more than one y variable")
        e = mono[yv]
        coeffs_float[e] = complex(c)
    if g.mode == "exact":
        coeffs_exact = [Exact(0)] * (D + 1)
        for mono, c in restricted.items():
            coeffs_exact[mono[pres.M]] = c
    xM_nonzero = coeffs_float[D] != 0
    exact_roots = None
    if g.mode == "exact" and xM_nonzero:
        got = _exact_poly_roots(list(coeffs_exact))
        if got is not None and len(got) == D:
            exact_roots = tuple(sorted(got, key=lambda r: (-float(r.a) - float(r.b) * 2 ** 0.5, -float(r.c))))
    if exact_roots is not None:
        mus = np.array([r.to_complex() for r in exact_roots])
        pairwise_distinct = all(
            exact_roots[i] != exact_roots[j]
            for i in range(len(exact_roots))
            for j in range(i + 1, len(exact_roots))
        )
    else:
        # roots of p(mu) = sum_e c_e mu^e, highest power first for np.roots
        mus = np.roots(coeffs_float[::-1]) if D >= 1 else np.array([])
        pairwise_distinct = True
    points = tuple((1 + 0j, complex(mu)) for mu in mus)
    if not xM_nonzero:
        points = points + ((0j, 1 + 0j),)
    min_ch = math.inf
    for i in range(len(mus)):
        for j in range(i + 1, len(mus)):
            min_ch = min(min_ch, _chordal(mus[i], mus[j]))
    distinct = (
        len(points) == pres.d
        and xM_nonzero
        and (len(mus) < 2 or min_ch > 1e-8)
        and pairwise_distinct
    )
    return InfinityReport(
        points=points,
        distinct=distinct,
        xM_nonzero=bool(xM_nonzero),
        d=pres.d,
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


def load_variety(source) -> tuple[VarietyPresentation, dict]:
    """Load a presentation from a dict, a path, or a bundled file name.

    Returns (presentation, extras) where extras carries optional fields:
    name, v_polys (parsed), families (raw dict for the family layer).
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
        M, N = int(doc["M"]), int(doc["N"])
        gen_strs = _polynomial_strings(doc, "generators")
    except KeyError as e:
        raise ValueError(f"variety file is missing field {e.args[0]!r}") from None
    gens = tuple(parse_polynomial(s, M, N, "exact") for s in gen_strs)
    d_hint = int(doc["d"]) if "d" in doc and doc["d"] is not None else None
    pres = VarietyPresentation(M=M, N=N, generators=gens, d_hint=d_hint)
    extras = {
        "name": doc.get("name"),
        "v_polys": [parse_polynomial(s, M, N, "exact") for s in _polynomial_strings(doc, "v_polys")]
        if doc.get("v_polys")
        else None,
        "families": doc.get("families"),
    }
    return pres, extras
