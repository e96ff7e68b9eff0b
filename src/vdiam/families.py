"""Set differences of basis families and the compliance check.

Families (`Coset`, `BasisFamily`) and the families of the named bases
(`family_for`) live in `bases`; this module builds no basis elements.
Differences of families are computed exactly as unions of smaller cosets; a
family is `compliant` against another when both differences admit a core
description (uniform variable set, no variable scalings), which is what the
diameter comparison machinery needs.  `parse_family` reads a family from a
variety file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .bases import BasisFamily, Coset, _trimmed
from .polyring import Polynomial, parse_polynomial
from .scalars import ONE, Exact
from .variety import VarietyPresentation

Scalar = Union[Exact, complex]


class UnsupportedFamilyShape(Exception):
    pass


# ---------------------------------------------------------------------------
# scalar and polynomial comparison helpers

_TOL = 1e-9


def _scalar_same(a: Scalar, b: Scalar) -> bool:
    if isinstance(a, Exact) and isinstance(b, Exact):
        return a == b
    ca = complex(a) if not isinstance(a, Exact) else a.to_complex()
    cb = complex(b) if not isinstance(b, Exact) else b.to_complex()
    return abs(ca - cb) <= _TOL * max(1.0, abs(cb))


def _modulus_side(a: Exact) -> int:
    """Sign of |a| - 1."""
    return (a.modulus_squared() - Exact(1)).real_sign()


def _poly_same(p: Polynomial, q: Polynomial) -> bool:
    if p.mode == "exact" and q.mode == "exact":
        return p == q
    pf = _trimmed(p.to_float())
    qf = _trimmed(q.to_float())
    monos = set(pf.monomials()) | set(qf.monomials())
    scale = max(
        [abs(c) for _, c in pf.items()] + [abs(c) for _, c in qf.items()] + [1.0]
    )
    return all(abs(complex(pf.coefficient(m)) - complex(qf.coefficient(m))) <= _TOL * scale for m in monos)


def _poly_ratio(p: Polynomial, q: Polynomial) -> Optional[tuple[Scalar, tuple[int, ...]]]:
    """Find (c, delta) with p == c * x^delta * q, delta integer (maybe negative)."""
    exact = p.mode == "exact" and q.mode == "exact"
    pf = p if exact else _trimmed(p.to_float())
    qf = q if exact else _trimmed(q.to_float())
    if pf.is_zero() or qf.is_zero() or pf.num_terms() != qf.num_terms():
        return None
    lp, lq = pf.leading_term(), qf.leading_term()
    delta = tuple(a - b for a, b in zip(lp.monomial, lq.monomial))
    dplus = tuple(max(e, 0) for e in delta)
    dminus = tuple(max(-e, 0) for e in delta)
    p1 = pf * Polynomial.monomial(dminus, pf.nx, pf.nvars, pf.mode)
    q1 = qf * Polynomial.monomial(dplus, qf.nx, qf.nvars, qf.mode)
    if exact:
        c: Scalar = lp.coefficient * lq.coefficient.inverse()
    else:
        c = complex(lp.coefficient) / complex(lq.coefficient)
    return (c, delta) if _poly_same(p1, q1 * c) else None


def _scale_prod(p: Coset, g: Coset, delta: Sequence[int]) -> Exact:
    """prod_v s_v^delta_v, with s_v p's scale on S_p and g's elsewhere."""
    out = Exact(1)
    for v, e in enumerate(delta):
        if e:
            out = out * (p if v in p.variables else g).scale_of(v) ** e
    return out


# ---------------------------------------------------------------------------
# coset subtraction


def _piece(p: Coset, shift: Sequence[int], keep: frozenset[int]) -> Coset:
    """p's sub-coset over `keep` starting at p's element at `shift`."""
    return Coset(p.element(shift), keep, tuple((v, s) for v, s in p.scales if v in keep))


def _staircase(p: Coset, dplus: tuple[int, ...]) -> list[Coset]:
    """Split {beta over S_p} into pieces with beta not >= dplus."""
    out: list[Coset] = []
    fixed = [0] * len(dplus)
    for v in sorted(v for v in range(len(dplus)) if dplus[v] > 0):
        for e in range(dplus[v]):
            shift = list(fixed)
            shift[v] = e
            out.append(_piece(p, shift, p.variables - {v}))
        fixed[v] = dplus[v]
    return out


def _punctured(p: Coset, base: Sequence[int], vs: Sequence[int], points: Sequence[tuple[int, ...]]) -> list[Coset]:
    """Split {beta >= base over S_p} minus the beta whose entries on the
    sorted variables vs equal one of the (nonempty) points, into cosets."""
    out: list[Coset] = []

    def split(shift: list[int], done: frozenset[int], hits: Sequence[tuple[int, ...]]) -> None:
        if len(done) == len(vs):
            return
        v = vs[len(done)]
        values = {b[len(done)] for b in hits}

        def at(e: int) -> list[int]:
            return shift[:v] + [e] + shift[v + 1 :]

        for e in range(base[v], max(values) + 1):
            if e not in values:
                out.append(_piece(p, at(e), p.variables - done - {v}))
        out.append(_piece(p, at(max(values) + 1), p.variables - done))
        for e in sorted(values):
            split(at(e), done | {v}, [b for b in hits if b[len(done)] == e])

    split(list(base), frozenset(), points)
    return out


def _exponents_reaching(scale_prod: Exact, rhos: Sequence[Exact], c: Scalar) -> list[tuple[int, ...]]:
    """Every beta >= 0 with scale_prod * prod_v rhos[v]^beta_v = c, when every
    |rho_v| lies strictly on one side of 1: then beta_v log|rho_v| <=
    log|c / scale_prod| (signs taken on that side) bounds every beta_v, and each
    candidate is checked exactly. With no rho that is [()] or []."""
    if not rhos:
        return [()] if _scalar_same(c, scale_prod) else []
    side = 1.0 if abs(complex(rhos[0])) > 1 else -1.0
    logs = [side * math.log(abs(complex(r))) for r in rhos]
    target = side * (math.log(abs(complex(c))) - math.log(abs(complex(scale_prod))))
    slack = 1e-9 * max(1.0, abs(target))
    out: list[tuple[int, ...]] = []

    def walk(beta: tuple[int, ...], prod: Exact, rest: float) -> None:
        i = len(beta)
        if i == len(rhos) - 1:
            e = round(rest / logs[i])
            if e >= 0 and _scalar_same(c, prod * rhos[i] ** e):
                out.append(beta + (e,))
            return
        e = 0
        while e * logs[i] <= rest + slack:
            walk(beta + (e,), prod * rhos[i] ** e, rest - e * logs[i])
            e += 1

    walk((), scale_prod, target)
    return out


def _subtract_coset(p: Coset, g: Coset) -> list[Coset]:
    """Pieces of p not contained in g (either may be a single point: S empty).

    With g's multiplier c * x^delta * p's, p's element at beta equals g's
    element at beta - delta, so it lies in g exactly when beta >= delta+,
    delta+ lies in S_p and delta- in S_g, beta_v = delta_v off S_g, and the
    scales balance: _scale_prod(p, g, delta) * prod_v rho_v^beta_v = c, over
    the shared variables whose ratio rho_v = s_v^p / s_v^g is not 1. With
    every |rho_v| on one side of 1 that leaves finitely many beta on those
    variables, each fixing a sub-coset; with no rho, one or none. A rho is
    answered only without a shift (delta = 0)."""
    ratio = _poly_ratio(g.multiplier, p.multiplier)
    if ratio is None:
        return [p]
    c, delta = ratio
    dplus = tuple(max(e, 0) for e in delta)
    dminus = tuple(max(-e, 0) for e in delta)
    if any(e and v not in p.variables for v, e in enumerate(dplus)):
        return [p]
    if any(e and v not in g.variables for v, e in enumerate(dminus)):
        return [p]
    rhos = {v: p.scale_of(v) / g.scale_of(v) for v in sorted(p.variables & g.variables)}
    sides = {v: _modulus_side(rho) for v, rho in rhos.items() if rho != ONE}
    if sides and any(delta):
        raise UnsupportedFamilyShape(
            "cannot subtract cosets that combine differing variable scalings "
            "with a monomial shift"
        )
    for v, side in sides.items():
        if side == 0:
            raise UnsupportedFamilyShape(
                f"variable scaling ratio on x{v + 1} has modulus one; the overlap is not a finite union of cosets"
            )
    if len(set(sides.values())) > 1:
        raise UnsupportedFamilyShape(
            "variable scaling ratios lie on both sides of modulus one; the overlap is not a finite union of cosets"
        )
    reached = _exponents_reaching(_scale_prod(p, g, delta), [rhos[v] for v in sides], c)
    if not reached:
        return [p]
    # each reached beta fixes the scaled variables; the pinned ones, off S_g, stay at delta+
    vs = sorted((p.variables - g.variables) | set(sides))
    points = [tuple(dict(zip(sides, beta)).get(v, dplus[v]) for v in vs) for beta in reached]
    return _staircase(p, dplus) + _punctured(p, dplus, vs, points)


def family_difference(left: BasisFamily, right: BasisFamily) -> BasisFamily:
    """Elements of `left` not in `right`, as a family (exact set difference)."""
    work = list(left)
    for g in right:
        work = [piece for p in work for piece in _subtract_coset(p, g)]
    return tuple(work)


# ---------------------------------------------------------------------------
# cores and compliance


@dataclass(frozen=True)
class CoreResult:
    found: bool
    reason: str
    multipliers: tuple[Polynomial, ...] = ()
    t: int = 0
    variables: Optional[frozenset[int]] = None  # None = no constraint (wildcard)


def find_core(fam: BasisFamily) -> CoreResult:
    if any(c.is_scaled() for c in fam):
        return CoreResult(False, "a coset carries variable scalings")
    cosets = [c for c in fam if c.variables]
    t = max((1 + c.multiplier.degree() for c in fam if not c.variables), default=0)
    if not cosets:
        return CoreResult(True, "no cosets; any variable set works", (), t, None)
    var_sets = {c.variables for c in cosets}
    if len(var_sets) > 1:
        return CoreResult(False, "cosets use different variable sets")
    mults = tuple(c.multiplier for c in cosets)
    t = max(t, min(m.degree() for m in mults))
    return CoreResult(True, "core found", mults, t, var_sets.pop())


@dataclass(frozen=True)
class ComplianceVerdict:
    compliant: bool
    reason: str
    diff_left: BasisFamily
    diff_right: BasisFamily
    core_left: CoreResult
    core_right: CoreResult


def check_compliant(left: BasisFamily, right: BasisFamily) -> ComplianceVerdict:
    dl = family_difference(left, right)
    dr = family_difference(right, left)
    cl, cr = find_core(dl), find_core(dr)
    if not cl.found:
        return ComplianceVerdict(False, f"left difference has no core: {cl.reason}", dl, dr, cl, cr)
    if not cr.found:
        return ComplianceVerdict(False, f"right difference has no core: {cr.reason}", dl, dr, cl, cr)
    if cl.variables is not None and cr.variables is not None and cl.variables != cr.variables:
        return ComplianceVerdict(
            False, "difference cores use different variable sets", dl, dr, cl, cr
        )
    return ComplianceVerdict(True, "both differences admit cores", dl, dr, cl, cr)


# ---------------------------------------------------------------------------
# families from variety files


def _var_index(name: str, pres: VarietyPresentation) -> int:
    kind, num = name[0], name[1:]
    if kind not in ("x", "y") or not num.isdigit():
        raise ValueError(f"bad variable name {name!r}")
    j = int(num) - 1
    idx = j if kind == "x" else pres.M + j
    if not (0 <= idx < pres.N) or (kind == "x" and j >= pres.M):
        raise ValueError(f"variable {name!r} out of range")
    return idx


def _list_of(doc: dict, field: str, kind: type, what: str) -> list:
    vals = doc.get(field, [])
    if not isinstance(vals, list) or not all(isinstance(v, kind) for v in vals):
        raise ValueError(f"family field {field!r} must be a list of {what}")
    return vals


def parse_family(pres: VarietyPresentation, doc: dict) -> BasisFamily:
    """Family from its JSON description: cosets with multiplier/variables/scales
    plus optional finite extras, which follow them as cosets over no
    variables.  Coset variables must be x variables, scales may fall only on
    them, and multipliers and finite extras are nonzero."""
    cosets: list[Coset] = []
    for cd in _list_of(doc, "cosets", dict, "objects"):
        if not isinstance(cd.get("multiplier"), str):
            raise ValueError("family field 'multiplier' must be a polynomial string in every coset")
        mult = parse_polynomial(cd["multiplier"], pres.M, pres.N)
        if mult.is_zero():
            raise ValueError("family field 'multiplier' must be nonzero in every coset")
        vs = frozenset(_var_index(nm, pres) for nm in _list_of(cd, "variables", str, "variable names"))
        if any(v >= pres.M for v in vs):
            raise ValueError("coset variables must be x variables")
        scale_doc = cd.get("scales") or {}
        if not isinstance(scale_doc, dict):
            raise ValueError("family field 'scales' must map variable names to constants")
        scales: list[tuple[int, Exact]] = []
        for nm, sval in scale_doc.items():
            v = _var_index(nm, pres)
            if v not in vs:
                raise ValueError(f"family field 'scales' names {nm}, which is not among its coset's variables")
            sp = parse_polynomial(str(sval), pres.M, pres.N)
            if sp.degree() > 0 or sp.is_zero():
                raise ValueError(f"scale for {nm} must be a nonzero constant, got {sval!r}")
            scales.append((v, sp.coefficient((0,) * pres.N)))
        cosets.append(Coset(mult, vs, tuple(sorted(scales, key=lambda p: p[0]))))
    finite = [parse_polynomial(s, pres.M, pres.N) for s in _list_of(doc, "finite", str, "polynomial strings")]
    if any(f.is_zero() for f in finite):
        raise ValueError("family field 'finite' must hold nonzero polynomials")
    return tuple(cosets) + tuple(Coset(f, frozenset()) for f in finite)
