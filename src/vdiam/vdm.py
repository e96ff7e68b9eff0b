"""Vandermonde determinants over graded bases and their maximization.

The diameter estimates come from greedily maximizing |det(e_j(z_i))| over
point tuples drawn from a candidate set on the variety, then normalizing the
log-determinant by the degree weight l_k (or by k*N_k).  The row-scale bound
compares two graded bases through the LU pivots of their exact change of
basis, which sandwiches one determinant by the other.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .bases import (
    CmGenerators,
    GradedBasis,
    QuadratureSpec,
    _lift_order,
    bb_basis,
    bb_structured,
    cm_basis,
    cm_generators,
    default_quadrature_n,
    lift,
    lift_grid,
    monomial_graded_basis,
    torus_quadrature,
)
from .polyring import Polynomial
from .scalars import ONE, Exact
from .variety import CountRecord, VarietyPresentation, count, validate_noether


class FeketeError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# candidate samplers


@dataclass(frozen=True, eq=False)
class CompactSetSampler:
    name: str
    points: np.ndarray  # (P, N) complex

    def __len__(self) -> int:
        return self.points.shape[0]


def _check_on_variety(pres: VarietyPresentation, points: np.ndarray):
    for g in pres.generators:
        res = np.abs(g.evaluate(points))
        # max propagates NaN, and NaN fails every comparison
        if res.size and not float(res.max()) <= 1e-8:
            raise ValueError(f"candidate points leave the variety: residual {float(res.max()):.3e}")


def torus_sampler(pres: VarietyPresentation, nodes: int) -> CompactSetSampler:
    """Unit-circle grids in each x variable, lifted through the sheets."""
    if nodes < 1:
        raise ValueError(f"need at least 1 node per x variable, got {nodes}")
    pts = lift_grid(pres, np.exp(2j * np.pi * np.arange(nodes) / nodes))
    _check_on_variety(pres, pts)
    return CompactSetSampler(name=f"torus:{nodes}", points=pts)


def segment_sampler(pres: VarietyPresentation, nodes: int) -> CompactSetSampler:
    """Equispaced grids on [-1, 1] in each x variable, lifted through the sheets."""
    if nodes < 1:
        raise ValueError(f"need at least 1 node per x variable, got {nodes}")
    pts = lift_grid(pres, np.linspace(-1.0, 1.0, nodes).astype(complex))
    _check_on_variety(pres, pts)
    return CompactSetSampler(name=f"segment:{nodes}", points=pts)


def points_sampler(pres: VarietyPresentation, points: np.ndarray, name: str = "points") -> CompactSetSampler:
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2 or pts.shape[1] != pres.N:
        raise ValueError(f"points must have shape (P, {pres.N})")
    _check_on_variety(pres, pts)
    return CompactSetSampler(name=name, points=pts)


def file_sampler(pres: VarietyPresentation, path) -> CompactSetSampler:
    """Points from a JSON file: a list of rows, each a list of numbers or
    [re, im] pairs."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, list):
        raise ValueError(f"point file {path} must hold a list of rows")
    rows = []
    for row in doc:
        if not isinstance(row, list):
            raise ValueError(f"point file {path}: a row must be a list, got {row!r}")
        vals = []
        for entry in row:
            if isinstance(entry, list) and len(entry) == 2 and all(isinstance(v, (int, float)) for v in entry):
                vals.append(complex(entry[0], entry[1]))
            elif isinstance(entry, (int, float)):
                vals.append(complex(entry))
            else:
                raise ValueError(f"point file {path}: an entry must be a number or an [re, im] pair, got {entry!r}")
        rows.append(vals)
    return points_sampler(pres, np.array(rows, dtype=complex), name=f"file:{path}")


def random_variety_points(
    pres: VarietyPresentation, count_: int, seed: int, radius: tuple[float, float] = (0.6, 1.4)
) -> CompactSetSampler:
    """Generic points: random x in an annulus, one random sheet per point."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sheets = math.prod(m for _, _, m in _lift_order(pres))
    xs = np.empty((count_, pres.M), dtype=complex)
    picks = np.empty(count_, dtype=int)
    for i in range(count_):
        r = rng.uniform(radius[0], radius[1], size=pres.M)
        th = rng.uniform(0.0, 2.0 * np.pi, size=pres.M)
        xs[i] = r * np.exp(1j * th)
        picks[i] = rng.integers(sheets)
    out = lift(pres, xs)[np.arange(count_) * sheets + picks]
    _check_on_variety(pres, out)
    return CompactSetSampler(name=f"random:{seed}", points=out)


# ---------------------------------------------------------------------------
# Vandermonde evaluation


def vdm_matrix(basis: GradedBasis, points: np.ndarray) -> np.ndarray:
    """Matrix e_j(z_i): rows are points, columns are basis elements."""
    cols = [e.evaluate(points) for e in basis.elements]
    return np.stack(cols, axis=1)


def _slogabs(a: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(a)
    return float(logdet) if sign != 0 else -math.inf


def log_abs_vdm(basis: GradedBasis, points: np.ndarray) -> float:
    a = vdm_matrix(basis, points)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got {a.shape}")
    return _slogabs(a)


@dataclass(frozen=True)
class VdmEvaluation:
    indices: tuple[int, ...]
    log_abs: float


# ---------------------------------------------------------------------------
# Fekete-style maximization


def _greedy_init(E: np.ndarray) -> list[int]:
    """Column-pivoted orthogonalization over the candidate rows: repeatedly
    take the row with the largest residual norm, until that norm falls to
    1e-14 of the largest entry of E (so a power-of-two scaling of E picks the
    same rows)."""
    P, N = E.shape
    work = E.astype(complex)
    floor = 1e-28 * float(np.max(np.abs(work))) ** 2
    norms = np.einsum("ij,ij->i", work, np.conj(work)).real
    chosen: list[int] = []
    for _ in range(N):
        norms[chosen] = -1.0
        j = int(np.argmax(norms))
        if norms[j] <= floor:
            break
        chosen.append(j)
        q = work[j] / math.sqrt(norms[j])
        work -= np.outer(work @ np.conj(q), q)
        norms = np.einsum("ij,ij->i", work, np.conj(work)).real
    return chosen


@dataclass(frozen=True)
class FeketeResult:
    indices: tuple[int, ...]
    log_abs: float
    sweeps: int
    starts: int
    start_logs: tuple[float, ...]


# Slack on the rounding terms of the exchange certificate: the forward error
# of an LU solve is taken as at most this many times N eps cond(A).
_CERT_SLACK = 64.0
_MAX_SWEEPS = 200


class _KeptInverse:
    """An inverse X of the tuple matrix A = E[idx], kept by rank-one
    (Sherman-Morrison) updates, with bounds `phi` on the column norms of the
    residual F = I - A X.

    `phi` starts from the residual measured after the inversion. Replacing
    row s of A right-multiplies F by I - e_s w^T / beta, which adds
    phi[s] |w_j / beta| to column j and divides column s by |beta|; the
    rounding of the update adds a `slack` term to every column. `row2`
    holds the squared row norms of E."""

    def __init__(self, E: np.ndarray, idx: np.ndarray, row2: np.ndarray):
        self.E, self.idx, self.row2 = E, idx, row2
        self.slack = _CERT_SLACK * len(idx) * np.finfo(float).eps
        self.e_max = math.sqrt(float(row2.max()))
        A = E[idx]
        self.X = np.linalg.inv(A)
        self._measure()
        F = A @ self.X
        F[np.diag_indices(len(idx))] -= 1.0
        self.phi = np.sqrt(np.einsum("ij,ij->j", F, F.conj()).real) + self.slack * self.a_norm * self.x_norm
        self.f_norm = math.sqrt(float(self.phi @ self.phi))

    def _measure(self) -> None:
        self.a_norm = math.sqrt(float(self.row2[self.idx].sum()))
        self.x_norm = math.sqrt(np.vdot(self.X, self.X).real)

    @property
    def usable(self) -> bool:
        """The residual bound is below 1/2 (False for NaN)."""
        return self.f_norm < 0.5

    def ratios(self, s: int) -> tuple[np.ndarray, float]:
        """|E @ X[:, s]| and eta. eta bounds the ratios' distance from those
        of a fresh LU solve for A^-1[:, s]: the error of X[:, s], at most
        |A^-1| phi[s] with |A^-1| <= |X| / (1 - |F|), plus the solve's
        forward error, `slack` cond(A) |A^-1[:, s]|, both times the largest
        row norm of E."""
        x = self.X[:, s]
        xs = math.sqrt(np.vdot(x, x).real)
        h = self.x_norm / (1.0 - self.f_norm)
        err = h * self.phi[s]
        eta = self.e_max * (err + self.slack * (self.a_norm * h + 1.0) * (xs + err))
        return np.abs(self.E @ x), eta

    def swap(self, s: int, new: int) -> None:
        """Replace row s of A by E[new]."""
        w = (self.E[new] - self.E[self.idx[s]]) @ self.X
        self.idx[s] = new
        beta = 1.0 + w[s]
        if not abs(beta) > 0.0:
            self.f_norm = math.inf
            return
        w /= beta
        self.X -= self.X[:, s, None] * w
        q = np.abs(w)
        t = self.slack * (self.a_norm + 2.0 * self.e_max) * self.x_norm
        phi_s = self.phi[s]
        self.phi += (phi_s + t) * q + t
        self.phi[s] = phi_s / abs(beta) + t * (1.0 + q[s])
        self.f_norm = math.sqrt(float(self.phi @ self.phi))
        self._measure()


def _sweep_to_convergence(E: np.ndarray, sel: list[int], max_sweeps: int) -> tuple[list[int], float, int]:
    """Coordinate exchange from the tuple `sel`: (tuple, log|det|, sweeps);
    no sweep when E[sel] is singular. Slot s takes the candidate c with the
    largest ratio |E[c] @ A^-1[:, s]| = |det| after / |det| before
    (A = E[sel]) when it exceeds 1 + 1e-14 and c is not in the tuple; sweeps
    over the slots stop once one gains less than 1e-12 in log|det|.

    A fresh solve per slot decides this. Here the ratios come from an
    inverse, inverted once per sweep and kept by rank-one updates, and they
    decide a slot only when its certificate shows the fresh solve would
    decide the same: from ratios within `eta` of a fresh solve's, a slot is
    settled when no candidate outside the tuple can reach 1 + 1e-14 (no
    swap), or when the argmax clears every other ratio and 1 + 1e-11 by
    2 eta (a swap whose log alone passes the 1e-12 stop test). Every other
    slot takes the fresh solve. So the tuple, sweep count and log|det|
    equal the fresh-solve loop's, which tests/test_vdm.py keeps as the
    reference."""
    sign, log_abs = np.linalg.slogdet(E[sel])
    if sign == 0:
        return sel, -math.inf, 0
    log_abs = float(log_abs)
    N = len(sel)
    row2 = np.einsum("ij,ij->i", E, E.conj()).real
    sweeps, swapped = 0, False
    while sweeps < max_sweeps:
        sweeps += 1
        gain = 0.0  # the fresh logs of this sweep's swaps
        certified_gain = False  # a certified swap alone exceeds 1e-12
        try:
            kept: Optional[_KeptInverse] = _KeptInverse(E, np.array(sel), row2)
        except np.linalg.LinAlgError:
            kept = None
        for s in range(N):
            if kept is not None and not kept.usable:
                kept = None
            certified = False
            if kept is not None:
                r, eta = kept.ratios(s)
                occupants = r[kept.idx]
                r[kept.idx] = -np.inf
                c = int(r.argmax())
                top = r[c]
                if top < 1.0 + 1e-14 - eta:
                    continue
                floor = top - 2.0 * eta
                # the runner-up and the occupants' maximum only here, since
                # most slots are settled by `top` alone
                if floor > 1.0 + 1e-11:
                    r[c] = -np.inf
                    certified = floor > r.max() and floor > occupants.max()
            if certified:
                certified_gain = True
            else:
                rhs = np.zeros(N, dtype=complex)
                rhs[s] = 1.0
                try:
                    bcol = np.linalg.solve(E[sel], rhs)
                except np.linalg.LinAlgError:
                    break  # A is singular
                ratios = np.abs(E @ bcol)
                c = int(np.argmax(ratios))
                if not (ratios[c] > 1.0 + 1e-14 and c not in sel):
                    continue
                gain += math.log(ratios[c])
            if kept is not None:
                kept.swap(s, c)
            sel[s] = c
            swapped = True
        if not certified_gain and gain < 1e-12:
            break
    if swapped:
        log_abs = _slogabs(E[sel])
    return sel, log_abs, sweeps


def _initial_tuples(E: np.ndarray, *, seed: int, starts: int, exhaustive: bool = False) -> list[list[int]]:
    """The greedy tuple, then `starts - 1` seeded random nonsingular ones;
    with `exhaustive`, one per candidate, forced into the greedy tuple's
    first slot."""
    P, N = E.shape
    if P < N:
        raise FeketeError(f"need at least {N} candidates, got {P}")
    base_init = _greedy_init(E)
    if len(base_init) < N:
        raise FeketeError("candidate set does not span the basis (rank-deficient)")
    inits: list[list[int]] = []
    if exhaustive:
        for c in range(P):
            init = list(base_init)
            if c in init:
                init.remove(c)
            else:
                init.pop()
            inits.append([c] + init)
    else:
        inits.append(list(base_init))
        if starts > 1:
            seq = np.random.SeedSequence(seed)
            for child in seq.spawn(starts - 1):
                rng = np.random.default_rng(child)
                init = None
                for _ in range(20):
                    cand = list(rng.choice(P, size=N, replace=False))
                    if np.linalg.slogdet(E[cand])[0] != 0:
                        init = cand
                        break
                inits.append(init if init is not None else list(base_init))
    return inits


def _fekete_result(E: np.ndarray, runs: Sequence[tuple[list[int], float, int]]) -> FeketeResult:
    """The best start's tuple, sorted, with log|det| evaluated on the sorted
    rows, so the value does not depend on the order the slots were filled
    in."""
    best: Optional[tuple[list[int], float, int]] = None
    for run in runs:
        if best is None or run[1] > best[1]:
            best = run
    assert best is not None
    sel, log_abs, sweeps = best
    indices = tuple(sorted(sel))
    if math.isfinite(log_abs):
        log_abs = _slogabs(E[list(indices)])
    return FeketeResult(
        indices=indices,
        log_abs=log_abs,
        sweeps=sweeps,
        starts=len(runs),
        start_logs=tuple(run[1] for run in runs),
    )


def _searched(E_search: np.ndarray, inits: Sequence[list[int]], max_sweeps: int) -> list[tuple[list[int], float, int]]:
    """The exchange in E_search from each start; a repeated start reuses
    its first run."""
    runs: dict[tuple[int, ...], tuple[list[int], float, int]] = {}
    for init in inits:
        if tuple(init) not in runs:
            runs[tuple(init)] = _sweep_to_convergence(E_search, list(init), max_sweeps)
    return [runs[tuple(init)] for init in inits]


def _scored(E: np.ndarray, runs: Sequence[tuple[list[int], float, int]]) -> FeketeResult:
    """The best of `runs` by log|det| of E on each final tuple as the
    exchange left it; a run from a singular start scores -inf."""
    return _fekete_result(
        E, [(sel, _slogabs(E[sel]) if math.isfinite(log_abs) else -math.inf, sweeps) for sel, log_abs, sweeps in runs]
    )


def fekete_maximize(
    basis: GradedBasis,
    sampler: CompactSetSampler,
    *,
    search: Optional[GradedBasis] = None,
    seed: int = 0,
    starts: int = 1,
    exhaustive: bool = False,
    max_sweeps: int = _MAX_SWEEPS,
) -> FeketeResult:
    """Greedy coordinate-exchange maximization of |det| over point tuples.

    Multistart uses independent random initial subsets; `exhaustive` instead
    runs one start per candidate with that candidate forced into the first
    slot of the initial tuple. The exchange runs in `search` (default
    `basis`), a basis of the same space and length, from `basis`'s starts,
    and each final tuple is scored in `basis`: when E_basis = E_search T^T,
    every exchange ratio, and so every decision, is the same in both in
    exact arithmetic."""
    E = vdm_matrix(basis, sampler.points)
    inits = _initial_tuples(E, seed=seed, starts=starts, exhaustive=exhaustive)
    E_search = E
    if search is not None:
        if len(search) != len(basis):
            raise ValueError(f"search basis has {len(search)} elements, the basis {len(basis)}")
        E_search = vdm_matrix(search, sampler.points)
    return _scored(E, _searched(E_search, inits, max_sweeps))


def brute_force_max(basis: GradedBasis, sampler: CompactSetSampler) -> VdmEvaluation:
    E = vdm_matrix(basis, sampler.points)
    P, N = E.shape
    best_log, best_idx = -math.inf, None
    for combo in combinations(range(P), N):
        sign, log_abs = np.linalg.slogdet(E[list(combo)])
        if sign != 0 and log_abs > best_log:
            best_log, best_idx = float(log_abs), combo
    if best_idx is None:
        raise FeketeError("all tuples are singular")
    return VdmEvaluation(indices=tuple(best_idx), log_abs=best_log)


# ---------------------------------------------------------------------------
# diameter sequences


@dataclass(frozen=True)
class DiameterEstimate:
    kind: str
    k: int
    N: int
    l: int
    log_vdm: float
    est_lk: float
    est_kNk: float
    indices: tuple[int, ...]


def build_basis(
    pres: VarietyPresentation,
    kind: str,
    k: int,
    *,
    gens: Optional[CmGenerators] = None,
    quad: Optional[QuadratureSpec] = None,
) -> GradedBasis:
    if kind == "monomial":
        return monomial_graded_basis(pres, k)
    if kind == "cm":
        return cm_basis(pres, k, gens if gens is not None else cm_generators(pres))
    if kind == "bb":
        if quad is None:
            quad = torus_quadrature(pres, default_quadrature_n(k))
        return bb_basis(pres, k, quad)
    if kind == "bb_structured":
        if quad is None:
            quad = torus_quadrature(pres, default_quadrature_n(k))
        return bb_structured(pres, k, quad)
    raise ValueError(f"unknown basis kind {kind!r}")


def _prefix(basis: GradedBasis, k: int) -> GradedBasis:
    keep = [i for i, d in enumerate(basis.degrees) if d <= k]
    return GradedBasis(
        kind=basis.kind,
        k=k,
        elements=tuple(basis.elements[i] for i in keep),
        degrees=tuple(basis.degrees[i] for i in keep),
        label=basis.label,
    )


def _estimate(kind: str, k: int, rec: CountRecord, res: FeketeResult) -> DiameterEstimate:
    return DiameterEstimate(
        kind=kind,
        k=k,
        N=rec.N,
        l=rec.l,
        log_vdm=res.log_abs,
        est_lk=res.log_abs / rec.l,
        est_kNk=res.log_abs / (k * rec.N),
        indices=res.indices,
    )


def _grow(E: Optional[np.ndarray], basis: GradedBasis, k: int, points: np.ndarray) -> np.ndarray:
    """The matrix of the elements of degree <= k, from E, that of a shorter
    prefix of `basis` (None for the empty one), by appending the columns of
    the elements it lacks; the bytes are those of `vdm_matrix` on the prefix
    basis."""
    lo = 0 if E is None else E.shape[1]
    hi = sum(1 for deg in basis.degrees if deg <= k)
    if hi == lo:
        return E
    new = vdm_matrix(replace(basis, elements=basis.elements[lo:hi], degrees=basis.degrees[lo:hi]), points)
    return new if E is None else np.concatenate([E, new], axis=1)


def _sequences(
    pres: VarietyPresentation,
    kinds: Sequence[str],
    k_max: int,
    sampler: CompactSetSampler,
    *,
    gens: Optional[CmGenerators],
    quad: Optional[QuadratureSpec],
    seed: int,
    starts: int,
) -> dict[str, list[DiameterEstimate]]:
    """Each basis's diameter sequence over one candidate set, with one
    search for all: at each k, the monomial basis (built here when it is
    not among `kinds`) and every basis draw their starts as
    `fekete_maximize` would, every distinct start runs once through the
    exchange on the monomial matrix, and each basis reports the best of its
    own log|det| over all the final tuples (`_scored`). So on bases whose
    change of basis has |det| 1 the estimates agree to rounding. The
    elements come in ascending degree, so each k's matrix is the last one
    with the columns of the new elements appended: every element is
    evaluated once, and only one matrix per basis is held. An error is
    raised as running the sequences one kind after another would meet it:
    the first kind's first."""
    kinds = list(dict.fromkeys(kinds))
    fulls: dict[str, GradedBasis] = {}
    errors: dict[str, Exception] = {}
    for kind in kinds:
        try:
            fulls[kind] = build_basis(pres, kind, k_max, gens=gens, quad=quad)
        except Exception as e:  # raised once the kinds before it have run
            errors[kind] = e
            break
    bases = dict(fulls)
    if fulls and "monomial" not in fulls:
        bases = {"monomial": monomial_graded_basis(pres, k_max), **fulls}
    out: dict[str, list[DiameterEstimate]] = {kind: [] for kind in fulls}
    Es: dict[str, np.ndarray] = {}
    for k in range(1, k_max + 1):
        live = [kind for kind in fulls if kind not in errors]
        if not live:
            break
        rec = count(pres, k)
        inits: list[list[int]] = []  # every basis's starts, scored by every basis
        # the search basis's starts come first, whether or not it is a kind
        for kind in dict.fromkeys(["monomial", *live]):
            Es[kind] = _grow(Es.get(kind), bases[kind], k, sampler.points)
            try:
                inits += _initial_tuples(Es[kind], seed=seed, starts=starts)
            except FeketeError as e:
                if kind in fulls:
                    errors.setdefault(kind, e)
        runs = _searched(Es["monomial"], list(dict.fromkeys(map(tuple, inits))), _MAX_SWEEPS)
        for kind in live:
            if kind not in errors:
                out[kind].append(_estimate(kind, k, rec, _scored(Es[kind], runs)))
    for kind in kinds:
        if kind in errors:
            raise errors[kind]
    return out


def diameter_sequence(
    pres: VarietyPresentation,
    kind: str,
    k_max: int,
    sampler: CompactSetSampler,
    *,
    gens: Optional[CmGenerators] = None,
    quad: Optional[QuadratureSpec] = None,
    seed: int = 0,
    starts: int = 1,
) -> list[DiameterEstimate]:
    full = build_basis(pres, kind, k_max, gens=gens, quad=quad)
    return [
        _estimate(kind, k, count(pres, k), fekete_maximize(_prefix(full, k), sampler, seed=seed, starts=starts))
        for k in range(1, k_max + 1)
    ]


@dataclass(frozen=True)
class CompareReport:
    kinds: tuple[str, ...]
    k_values: tuple[int, ...]
    estimates: dict
    spreads: tuple[float, ...]
    nonincreasing: bool


def compare_bases(
    pres: VarietyPresentation,
    kinds: Sequence[str],
    k_max: int,
    sampler: CompactSetSampler,
    *,
    gens: Optional[CmGenerators] = None,
    quad: Optional[QuadratureSpec] = None,
    seed: int = 0,
    starts: int = 1,
) -> CompareReport:
    """Diameter estimates for several bases over one shared candidate set.
    Every search runs in the monomial basis, whether or not it is among
    `kinds`, so bases whose matrices differ by a graded change of basis
    share their exchanges; see `_sequences`."""
    seqs = _sequences(pres, kinds, k_max, sampler, gens=gens, quad=quad, seed=seed, starts=starts)
    spreads = []
    for i in range(k_max):
        vals = [seqs[kind][i].est_lk for kind in kinds]
        spreads.append(max(abs(a - b) for a in vals for b in vals))
    noninc = all(spreads[i + 1] <= spreads[i] + 1e-12 for i in range(len(spreads) - 1))
    return CompareReport(
        kinds=tuple(kinds),
        k_values=tuple(range(1, k_max + 1)),
        estimates=seqs,
        spreads=tuple(spreads),
        nonincreasing=noninc,
    )


# ---------------------------------------------------------------------------
# row-scale bounds between bases


def _monomial_columns(*bases: GradedBasis) -> dict:
    """Column of each monomial the bases use, ordered by degree, then by the
    reversed exponent vector."""
    monos = {m for b in bases for e in b.elements for m in e.monomials()}
    return {m: j for j, m in enumerate(sorted(monos, key=lambda m: (sum(m), tuple(reversed(m)))))}


def _coef_rows(basis: GradedBasis, cols: dict) -> list[dict]:
    """Exact coefficient rows, each a sparse {column: nonzero Exact}."""
    return [{cols[m]: c for m, c in e.items()} for e in basis.elements]


def _sub_scaled(row: dict, f: Exact, other: dict) -> None:
    """row -= f * other on sparse rows {column: nonzero Exact}; an entry that
    cancels to an exact zero is dropped."""
    for j, v in other.items():
        x = row[j] - f * v if j in row else -(f * v)
        if x:
            row[j] = x
        else:
            del row[j]


def _exact_change_of_basis(bc: list[dict], cc: list[dict], width: int) -> list[dict]:
    """T with T @ C = B, via row reduction of C carrying combination vectors.
    Rows are sparse, so the work follows the nonzero pattern: for graded
    bases the fill-in stays inside each degree block."""
    n = len(cc)
    rows = [dict(r) for r in cc]
    combos = [{i: ONE} for i in range(n)]
    piv_cols: list[int] = []
    r = 0
    for col in range(width):
        pr = next((i for i in range(r, n) if col in rows[i]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        combos[r], combos[pr] = combos[pr], combos[r]
        inv = rows[r][col].inverse()
        rows[r] = {j: v * inv for j, v in rows[r].items()}
        combos[r] = {j: v * inv for j, v in combos[r].items()}
        for i in range(n):
            if i != r and col in rows[i]:
                f = rows[i][col]
                _sub_scaled(rows[i], f, rows[r])
                _sub_scaled(combos[i], f, combos[r])
        piv_cols.append(col)
        r += 1
        if r == n:
            break
    if r < n:
        raise ValueError("second basis has linearly dependent elements")
    t_rows: list[dict] = []
    for b in bc:
        resid, t = dict(b), {}
        for i, col in enumerate(piv_cols):
            f = resid.get(col)
            if f is None:
                continue
            _sub_scaled(resid, f, rows[i])
            _sub_scaled(t, -f, combos[i])
        if resid:
            raise ValueError("bases do not span the same monomial space")
        t_rows.append(t)
    return t_rows


def _first_nonzero_pivots_exact(t: list[dict]) -> list[Exact]:
    n = len(t)
    work = [dict(r) for r in t]
    used: set[int] = set()
    pivots: list[Exact] = []
    for col in range(n):
        pr = next((i for i in range(n) if i not in used and col in work[i]), None)
        if pr is None:
            raise ValueError("change of basis is singular")
        used.add(pr)
        piv = work[pr][col]
        pivots.append(piv)
        inv = piv.inverse()
        for i in range(n):
            if i not in used and col in work[i]:
                _sub_scaled(work[i], work[i][col] * inv, work[pr])
    return pivots


@dataclass(frozen=True)
class ScaleBoundReport:
    m: float
    Mx: float
    pivot_abs: tuple[float, ...]
    log_abs_det: float
    triples: tuple[tuple[float, float, float], ...]
    sandwich_ok: bool
    identity_rel_errors: tuple[float, ...]
    identity_ok: bool
    mode: str


def row_scale_bound(
    basis_b: GradedBasis,
    basis_c: GradedBasis,
    point_sets: Sequence[np.ndarray] = (),
    *,
    identity_tol: float = 1e-10,
) -> ScaleBoundReport:
    """Pivot bounds for the change of basis T with B = T C, for exact bases.

    The first-nonzero-pivot elimination of T is the only row operation that
    rescales; its pivot moduli give m and Mx with
    N log m + log|VDM_C| <= log|VDM_B| <= N log Mx + log|VDM_C|,
    and the determinant ratio of the two Vandermonde matrices must match the
    pivot-modulus product on every nonsingular tuple.
    """
    if len(basis_b) != len(basis_c):
        raise ValueError("bases must have the same length")
    n = len(basis_b)
    if any(e.mode != "exact" for e in basis_b.elements + basis_c.elements):
        raise ValueError("row-scale bounds need exact bases")
    cols = _monomial_columns(basis_b, basis_c)
    t_rows = _exact_change_of_basis(_coef_rows(basis_b, cols), _coef_rows(basis_c, cols), len(cols))
    piv_abs = [abs(p.to_complex()) for p in _first_nonzero_pivots_exact(t_rows)]
    m, mx = min(piv_abs), max(piv_abs)
    log_det = sum(math.log(p) for p in piv_abs)
    triples: list[tuple[float, float, float]] = []
    id_errs: list[float] = []
    sandwich = True
    for pts in point_sets:
        lb = log_abs_vdm(basis_b, pts)
        lc = log_abs_vdm(basis_c, pts)
        lo, hi = n * math.log(m) + lc, n * math.log(mx) + lc
        triples.append((lo, lb, hi))
        if not (lo - 1e-9 <= lb <= hi + 1e-9):
            sandwich = False
        err = abs((lb - lc) - log_det) / max(1.0, abs(log_det))
        id_errs.append(err)
    identity_ok = all(e <= identity_tol for e in id_errs)
    return ScaleBoundReport(
        m=m,
        Mx=mx,
        pivot_abs=tuple(piv_abs),
        log_abs_det=log_det,
        triples=tuple(triples),
        sandwich_ok=sandwich,
        identity_rel_errors=tuple(id_errs),
        identity_ok=identity_ok,
        mode="exact",
    )


# ---------------------------------------------------------------------------
# bb vs structured normalization


@dataclass(frozen=True)
class BbNormalizationReport:
    diag_abs: tuple[float, ...]
    min_diag: float
    max_diag: float
    degree_triangular_ok: bool
    first_nonunit: Optional[tuple[int, float]]


def bb_normalization(
    pres: VarietyPresentation, k: int, quad: QuadratureSpec
) -> BbNormalizationReport:
    """Change of basis from the structured to the fully orthonormalized basis:
    block-triangular across degrees; the diagonal moduli measure how far the
    structured family is from orthonormal."""
    full = bb_basis(pres, k, quad)
    st = bb_structured(pres, k, quad)
    cols = _monomial_columns(full, st)
    bm, sm = (np.zeros((len(b), len(cols)), dtype=complex) for b in (full, st))
    for b, mat in ((full, bm), (st, sm)):
        for i, row in enumerate(_coef_rows(b, cols)):
            for j, c in row.items():
                mat[i, j] = complex(c)
    t, *_ = np.linalg.lstsq(sm.T, bm.T, rcond=None)
    t = t.T
    n = t.shape[0]
    tri_ok = True
    for i in range(n):
        for j in range(n):
            if st.degrees[j] > full.degrees[i] and abs(t[i, j]) > 1e-8:
                tri_ok = False
    diag = tuple(float(abs(t[i, i])) for i in range(n))
    first_nonunit = None
    for i, v in enumerate(diag):
        if abs(v - 1.0) > 1e-6:
            first_nonunit = (i, v)
            break
    return BbNormalizationReport(
        diag_abs=diag,
        min_diag=min(diag),
        max_diag=max(diag),
        degree_triangular_ok=tri_ok,
        first_nonunit=first_nonunit,
    )
