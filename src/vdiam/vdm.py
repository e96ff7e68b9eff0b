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
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .bases import (
    GradedBasis,
    QuadratureSpec,
    _equal_weight,
    _one_blas_thread,
    bb_basis,
    bb_structured,
    cm_basis,
    default_quadrature_n,
    lift,
    lift_grid,
    monomial_graded_basis,
    torus_quadrature,
)
from .polyring import grevlex_key
from .scalars import ONE, Exact, log_positive
from .variety import CountRecord, VarietyPresentation, count


class FeketeError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# candidate samplers: each returns its points as the rule with weights 1/P


def torus_sampler(pres: VarietyPresentation, nodes: int) -> QuadratureSpec:
    """Unit-circle grids in each x variable, lifted through the sheets: the
    rule `torus_quadrature(pres, nodes)`."""
    if nodes < 1:
        raise ValueError(f"need at least 1 node per x variable, got {nodes}")
    return torus_quadrature(pres, nodes)


def segment_sampler(pres: VarietyPresentation, nodes: int) -> QuadratureSpec:
    """Equispaced grids on [-1, 1] in each x variable, lifted through the sheets."""
    if nodes < 1:
        raise ValueError(f"need at least 1 node per x variable, got {nodes}")
    return _equal_weight(lift_grid(pres, np.linspace(-1.0, 1.0, nodes).astype(complex)))


def points_sampler(pres: VarietyPresentation, points: np.ndarray) -> QuadratureSpec:
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2 or pts.shape[1] != pres.N:
        raise ValueError(f"points must have shape (P, {pres.N})")
    # lifted points are checked in `lift`; these come from the caller
    for g in pres.generators:
        res = np.abs(g.evaluate(pts))
        # max propagates NaN, and NaN fails every comparison
        if res.size and not float(res.max()) <= 1e-8:
            raise ValueError(f"candidate points leave the variety: residual {float(res.max()):.3e}")
    return _equal_weight(pts)


def file_sampler(pres: VarietyPresentation, path) -> QuadratureSpec:
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
            pair = entry if isinstance(entry, list) and len(entry) == 2 else [entry, 0.0]
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair):
                raise ValueError(f"point file {path}: an entry must be a number or an [re, im] pair, got {entry!r}")
            try:
                vals.append(complex(pair[0], pair[1]))
            except OverflowError:
                raise ValueError(f"point file {path}: an entry is too large for a float") from None
        rows.append(vals)
    return points_sampler(pres, np.array(rows, dtype=complex))


def random_variety_points(pres: VarietyPresentation, count_: int, seed: int) -> QuadratureSpec:
    """Generic points: random x in the annulus 0.6 <= |x_j| <= 1.4, one
    random sheet per point."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sheets = pres.d
    xs = np.empty((count_, pres.M), dtype=complex)
    picks = np.empty(count_, dtype=int)
    for i in range(count_):
        r = rng.uniform(0.6, 1.4, size=pres.M)
        th = rng.uniform(0.0, 2.0 * np.pi, size=pres.M)
        xs[i] = r * np.exp(1j * th)
        picks[i] = rng.integers(sheets)
    return _equal_weight(lift(pres, xs)[np.arange(count_) * sheets + picks])


# ---------------------------------------------------------------------------
# Vandermonde evaluation


def vdm_matrix(basis: GradedBasis, points: np.ndarray) -> np.ndarray:
    """Matrix e_j(z_i): rows are points, columns are basis elements. Each
    coordinate power is computed once and shared by every element; one point
    (a 1-D array) gives one row."""
    Z = np.asarray(points, dtype=complex)
    single = Z.ndim == 1
    if single:
        Z = Z[None, :]
    E = np.empty((Z.shape[0], len(basis)), dtype=complex)
    powers: dict = {}
    for i, e in enumerate(basis):
        E[:, i] = e.evaluate(Z, powers=powers)
    return E[0] if single else E


def _slogabs(a: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(a)
    return float(logdet) if sign != 0 else -math.inf


def _square_slogabs(a: np.ndarray) -> float:
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got {a.shape}")
    return _slogabs(a)


def log_abs_vdm(basis: GradedBasis, points: np.ndarray) -> float:
    return _square_slogabs(vdm_matrix(basis, points))


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
    buf = np.conj(work)  # conj(work), then each projection's outer product
    norms = np.einsum("ij,ij->i", work, buf).real
    chosen: list[int] = []
    for _ in range(N):
        norms[chosen] = -1.0
        j = int(np.argmax(norms))
        if norms[j] <= floor:
            break
        chosen.append(j)
        if len(chosen) == N:
            break  # the last projection would go unread
        q = work[j] / math.sqrt(norms[j])
        work -= np.multiply((work @ np.conj(q))[:, None], q, out=buf)
        norms = np.einsum("ij,ij->i", work, np.conjugate(work, out=buf)).real
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


class _ReadConstants:
    """What every kept inverse of one candidate matrix E shares, so a search
    builds it once per matrix (`_searched`) and not once per start: `e_max`,
    the largest row norm of E; `a_norm` = sqrt(N) e_max, which bounds |A|_F
    for every tuple and enters only upper bounds; the certificate's `slack`;
    the read's relative rounding `read_err` = (N + 6) 2^-23, its `underflow`
    term and its `read_limit` on e_max |x|; and `E32`.

    `E32` is a column-major complex64 copy of E, made only when e_max < 2^100
    and N < 2^14: every entry of E is then below 2^100 in modulus, so the
    copy is finite and its cast cannot overflow, and N u stays below 2^-10
    in `_KeptInverse.ratios`' bound."""

    def __init__(self, E: np.ndarray):
        N = E.shape[1]
        self.e_max = math.sqrt(float(np.einsum("ij,ij->i", E, E.conj()).real.max()))
        self.a_norm = math.sqrt(N) * self.e_max
        self.slack = _CERT_SLACK * N * np.finfo(float).eps
        self.read_err = (N + 6) * 2.0**-23
        self.underflow = N * 2.0**-148
        self.read_limit = 2.0**100 / N  # on e_max |x|
        readable = self.e_max < 2.0**100 and N < 2**14
        self.E32 = np.asfortranarray(E, dtype=np.complex64) if readable else None


class _KeptInverse:
    """An inverse X of the tuple matrix A = E[idx], inverted once per start
    and kept by rank-one (Sherman-Morrison) updates, with bounds `phi` on
    the column norms of the residual F = A X - I, and E's `_ReadConstants`
    in `read`. `idx` is the exchange's own tuple array, which the exchange
    writes after each `swap`.

    `phi` is set from a measured residual, after the inversion and at each
    re-measurement (`_usable`): the column norms of the computed F plus a
    `slack` term for the rounding of A X. Replacing row s of A
    right-multiplies F by I - e_s w^T / beta, which adds phi[s] |w_j / beta|
    to column j and divides column s by |beta|; the rounding of the update
    adds a `slack` term to every column. So `phi` bounds F through every
    update, and the residual needs measuring again only where that bound
    has grown: at a sweep start where |F| <= |phi| has reached `read_err`,
    the read's own rounding, below which the bound adds less to `ratios`'
    eta than the read does, and mid-sweep where it has reached 1/2."""

    def __init__(self, E: np.ndarray, idx: np.ndarray, read: _ReadConstants):
        self.E, self.idx, self.read = E, idx, read
        self.X = np.linalg.inv(E[idx])
        self._measure()

    def _measure(self) -> None:
        """`phi` from the residual of X as it is now."""
        F = self.E[self.idx] @ self.X
        F.flat[:: len(F) + 1] -= 1.0
        self.x_norm = math.sqrt(np.vdot(self.X, self.X).real)
        self.phi = np.sqrt((F * F.conj()).real.sum(axis=0)) + self.read.slack * self.read.a_norm * self.x_norm
        self._bound()

    def _bound(self) -> None:
        """|F| from `phi`, and the factors of `ratios`' eta that it fixes."""
        self.f_norm = math.sqrt(float(self.phi @ self.phi))
        self.h = self.x_norm / (1.0 - self.f_norm)
        self.solve_err = self.read.slack * (self.read.a_norm * self.h + 1.0)

    def ratios(self, s: int) -> tuple[Optional[np.ndarray], float]:
        """The slot ratios read in single precision, |E32 @ complex64(x)|
        with x = X[:, s], and eta, which bounds their distance from those of
        a fresh LU solve for A^-1[:, s] (float32 values; compare them as
        Python floats, since numpy compares a float32 with a Python float in
        float32). (None, inf) when the read could overflow: when E32 was not
        made, or |x| or N e_max |x| is not below 2^100 (NaN included); the
        slot then takes the fresh solve.

        Double-precision part: the error of x, at most |A^-1| phi[s] with
        |A^-1| <= h = |X| / (1 - |F|), plus the solve's forward error,
        `slack` cond(A) |A^-1[:, s]| with cond(A) <= |A| h, both times
        e_max.

        The read's own rounding, with u = 2^-24 the unit roundoff of
        float32: rounding E and x to complex64 moves each entry by at most
        u times its modulus (the real and imaginary parts are rounded
        apart), so E[c] @ x moves by at most (2u + u^2) S, S = sum_j
        |E[c, j]| |x_j| <= e_max |x| (Cauchy-Schwarz). A complex product
        rounds its real and imaginary parts within gamma_2 of the sums of
        their two terms' moduli, at most sqrt(2) gamma_2 |a| |b| in modulus,
        and each part's sum of N terms adds gamma_(N-1) in any summation
        order, FMA or not: sqrt(2) gamma_(N+1) S' in all, S' <= (1 + u)^2 S.
        `abs` adds at most 2u of the result. With gamma_n = n u / (1 - n u),
        the total is below (sqrt(2) (N + 1) + 5) u S for N u < 2^-10, so
        below `read_err` e_max |x| = (N + 6) 2^-23 e_max |x|. Gradual
        underflow adds an absolute error of at most 2^-150 to each cast and
        each real product and none to a sum: sqrt(2N) 2^-150 (|x| + e_max)
        from the casts, 2 sqrt(2) N 2^-150 from the products and 2^-150
        from `abs`, together below `underflow` (|x| + e_max + 1) =
        N 2^-148 (|x| + e_max + 1). Below 2^100 every product and partial
        sum stays finite in float32."""
        r = self.read
        x = self.X[:, s]
        x_norm = math.sqrt(np.vdot(x, x).real)
        ex = r.e_max * x_norm
        if r.E32 is None or not (x_norm < 2.0**100 and ex < r.read_limit):
            return None, math.inf
        err = self.h * float(self.phi[s])
        eta = (r.e_max * (err + self.solve_err * (x_norm + err)) + r.read_err * ex
               + r.underflow * (x_norm + r.e_max + 1.0))
        return np.abs(r.E32 @ x.astype(np.complex64)), eta

    def swap(self, s: int, new: int) -> None:
        """Replace row s of A, E[idx[s]], by E[new]; the caller then writes
        `new` into idx[s]."""
        w = (self.E[new] - self.E[self.idx[s]]) @ self.X
        beta = 1.0 + w[s]
        if not abs(beta) > 0.0:
            self.f_norm = math.inf
            return
        w /= beta
        self.X -= self.X[:, s, None] * w
        q = np.abs(w)
        r = self.read
        t = r.slack * (r.a_norm + 2.0 * r.e_max) * self.x_norm
        phi_s = self.phi[s]
        self.phi += (phi_s + t) * q + t
        self.phi[s] = phi_s / abs(beta) + t * (1.0 + q[s])
        self.x_norm = math.sqrt(np.vdot(self.X, self.X).real)
        self._bound()


def _usable(
    kept: Optional[_KeptInverse], E: np.ndarray, idx: np.ndarray, read: _ReadConstants
) -> Optional[_KeptInverse]:
    """`kept` with its residual measured again, or a new inverse of E[idx]
    where there is none or that bound is not below 1/2 (after a swap that
    met beta = 0, X still inverts the old A, so F[s, s] is about -1); None
    when the inversion fails or its bound stays at 1/2 or more (or NaN)."""
    try:
        if kept is not None:
            kept._measure()
        if kept is None or not kept.f_norm < 0.5:
            kept = _KeptInverse(E, idx, read)
    except np.linalg.LinAlgError:
        return None
    return kept if kept.f_norm < 0.5 else None


def _sweep_to_convergence(E: np.ndarray, sel: list[int], read: _ReadConstants) -> tuple[list[int], float, int]:
    """Coordinate exchange from the tuple `sel`: (tuple, log|det|, sweeps);
    no sweep when E[sel] is singular. Slot s takes the candidate c with the
    largest ratio |E[c] @ A^-1[:, s]| = |det| after / |det| before
    (A = E[sel]) when it exceeds 1 + 1e-14 and c is not in the tuple; sweeps
    over the slots stop once one gains less than 1e-12 in log|det|, or at
    the slot where a fresh solve finds A singular.

    A fresh solve per slot decides this. Here the ratios come from an
    inverse, inverted once per start and kept by rank-one updates, and are
    read in single precision with E's `read` constants; they decide a slot
    only when its certificate shows the fresh solve would decide the same:
    from ratios within `eta` of a fresh solve's, a slot is settled when no
    candidate outside the tuple can reach 1 + 1e-14 (no swap), or when the
    argmax clears every other ratio and 1 + 1e-11 by 2 eta (a swap whose
    log alone passes the 1e-12 stop test).
    The residual is measured again at a sweep start only where its running
    bound has reached `read_err`, the read's own rounding, and mid-sweep
    where it has reached 1/2; A is inverted again only where the measured
    bound does. An inverse that stays there, or fails, leaves the rest of
    the sweep to the solve, and the next sweep start tries a new one. Every
    slot the certificate does not settle takes the fresh solve. So the
    tuple, sweep count and log|det| equal the fresh-solve loop's, which
    tests/test_vdm.py keeps as the reference."""
    sel = np.array(sel)  # the one copy of the tuple, shared with the kept inverse
    sign, log_abs = np.linalg.slogdet(E[sel])
    if sign == 0:
        return sel.tolist(), -math.inf, 0
    log_abs = float(log_abs)
    N = len(sel)
    sweeps, swapped, singular = 0, False, False
    kept: Optional[_KeptInverse] = None
    while sweeps < _MAX_SWEEPS:
        sweeps += 1
        gain = 0.0  # the fresh logs of this sweep's swaps
        certified_gain = False  # a certified swap alone exceeds 1e-12
        if kept is None or kept.f_norm >= read.read_err:
            kept = _usable(kept, E, sel, read)
        for s in range(N):
            if kept is not None and not kept.f_norm < 0.5:
                kept = _usable(kept, E, sel, read)
            certified = False
            r, eta = kept.ratios(s) if kept is not None else (None, math.inf)
            if r is not None:
                occupants = r[sel]
                r[sel] = -np.inf
                c = int(r.argmax())
                top = float(r[c])
                if top < 1.0 + 1e-14 - eta:
                    continue
                floor = top - 2.0 * eta
                # the runner-up and the occupants' maximum only here, since
                # most slots are settled by `top` alone; each read through
                # argmax, which costs under half of max on these arrays
                if floor > 1.0 + 1e-11:
                    r[c] = -np.inf
                    certified = floor > float(r[r.argmax()]) and floor > float(occupants[occupants.argmax()])
            if certified:
                certified_gain = True
            else:
                rhs = np.zeros(N, dtype=complex)
                rhs[s] = 1.0
                try:
                    bcol = np.linalg.solve(E[sel], rhs)
                except np.linalg.LinAlgError:
                    singular = True  # A is singular: the exchange ends here
                    break
                ratios = np.abs(E @ bcol)
                c = int(np.argmax(ratios))
                if not (ratios[c] > 1.0 + 1e-14 and c not in sel):
                    continue
                gain += math.log(ratios[c])
            if kept is not None:
                kept.swap(s, c)
            sel[s] = c
            swapped = True
        if singular or (not certified_gain and gain < 1e-12):
            break
    if swapped:
        log_abs = _slogabs(E[sel])
    return sel.tolist(), log_abs, sweeps


def _initial_tuples(E: np.ndarray, *, seed: int, starts: int, exhaustive: bool = False) -> list[list[int]]:
    """The greedy tuple, then `starts - 1` seeded random nonsingular ones;
    with `exhaustive`, one per candidate, forced into the greedy tuple's
    first slot."""
    P, N = E.shape
    if P < N:
        raise FeketeError(f"need at least {N} candidates, got {P}")
    base_init = _greedy_init(E)
    if len(base_init) < N:
        raise FeketeError("candidate set does not span the basis numerically: the greedy start found"
                          f" {len(base_init)} of {N} rows above 1e-28 * max|E|^2")
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


def _searched(E_search: np.ndarray, inits: Sequence[list[int]]) -> list[tuple[list[int], float, int]]:
    """The exchange in E_search from each start, all with one set of
    E_search's read constants; a repeated start reuses its first run."""
    read = _ReadConstants(E_search)
    runs: dict[tuple[int, ...], tuple[list[int], float, int]] = {}
    for init in inits:
        if tuple(init) not in runs:
            runs[tuple(init)] = _sweep_to_convergence(E_search, init, read)
    return [runs[tuple(init)] for init in inits]


def _scored(E: np.ndarray, runs: Sequence[tuple[list[int], float, int]]) -> FeketeResult:
    """The best of `runs` by log|det| of E on each final tuple as the
    exchange left it, the first on a tie; a run from a singular start scores
    -inf. The best tuple comes sorted, with log|det| evaluated on the sorted
    rows, so the value does not depend on the order the slots were filled
    in."""
    logs = [_slogabs(E[sel]) if math.isfinite(log_abs) else -math.inf for sel, log_abs, _ in runs]
    best = max(range(len(runs)), key=logs.__getitem__)
    sel, _, sweeps = runs[best]
    indices = tuple(sorted(sel))
    log_abs = _slogabs(E[list(indices)]) if math.isfinite(logs[best]) else logs[best]
    return FeketeResult(indices=indices, log_abs=log_abs, sweeps=sweeps, starts=len(runs), start_logs=tuple(logs))


@_one_blas_thread
def fekete_maximize(
    basis: GradedBasis,
    sampler: QuadratureSpec,
    *,
    search: Optional[GradedBasis] = None,
    seed: int = 0,
    starts: int = 1,
    exhaustive: bool = False,
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
    return _scored(E, _searched(E_search, inits))


def brute_force_max(basis: GradedBasis, sampler: QuadratureSpec) -> VdmEvaluation:
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
    quad: Optional[QuadratureSpec] = None,
) -> GradedBasis:
    """The basis `kind` of `pres` to degree k: "monomial", "cm" on the sheet
    generators of `cm_generators(pres)`, or "bb" or "bb_structured"
    orthonormalized in `quad` (by default
    `torus_quadrature(pres, default_quadrature_n(k))`). Every kind is graded:
    its elements of degree <= j are its first `count(pres, j).N`."""
    if kind == "monomial":
        return monomial_graded_basis(pres, k)
    if kind == "cm":
        return cm_basis(pres, k)
    if kind in ("bb", "bb_structured"):
        if quad is None:
            quad = torus_quadrature(pres, default_quadrature_n(k))
        return (bb_basis if kind == "bb" else bb_structured)(pres, k, quad)
    raise ValueError(f"unknown basis kind {kind!r}")


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


def _grow(E: Optional[np.ndarray], basis: GradedBasis, n: int, points: np.ndarray) -> np.ndarray:
    """The matrix of the first n elements of `basis`, from E, that of a
    shorter prefix (None for the empty one), by appending the columns of the
    elements it lacks; the bytes are those of `vdm_matrix` on the prefix
    basis."""
    lo = 0 if E is None else E.shape[1]
    new = vdm_matrix(basis[lo:n], points)
    return new if E is None else np.concatenate([E, new], axis=1)


@_one_blas_thread
def diameter_sequence(
    pres: VarietyPresentation,
    kind: str,
    k_max: int,
    sampler: QuadratureSpec,
    *,
    quad: Optional[QuadratureSpec] = None,
    seed: int = 0,
    starts: int = 1,
) -> list[DiameterEstimate]:
    """Diameter estimates for k = 1..k_max in one basis: `kind` is built once
    at k_max, and each k runs one `fekete_maximize` on its first N_k
    elements, the degree <= k prefix. The exchange searches in that basis
    itself, where `compare_bases` and `vdiam fekete` search in the monomial
    basis."""
    full = build_basis(pres, kind, k_max, quad=quad)
    out = []
    for k in range(1, k_max + 1):
        rec = count(pres, k)
        out.append(_estimate(kind, k, rec, fekete_maximize(full[: rec.N], sampler, seed=seed, starts=starts)))
    return out


@dataclass(frozen=True)
class CompareReport:
    kinds: tuple[str, ...]
    k_values: tuple[int, ...]
    estimates: dict
    spreads: tuple[float, ...]
    nonincreasing: bool


@_one_blas_thread
def compare_bases(
    pres: VarietyPresentation,
    kinds: Sequence[str],
    k_max: int,
    sampler: QuadratureSpec,
    *,
    quad: Optional[QuadratureSpec] = None,
    seed: int = 0,
    starts: int = 1,
) -> CompareReport:
    """Diameter estimates for several bases over one candidate set, with one
    search for all: at each k, the monomial basis (built here when it is not
    among `kinds`) and every basis draw their starts as `fekete_maximize`
    would, every distinct start runs once through the exchange on the
    monomial matrix, and each basis reports the best of its own log|det|
    over all the final tuples (`_scored`). So bases whose matrices differ by
    a graded change of basis share their exchanges, and where its |det| is 1
    their estimates agree to rounding. The elements come in ascending
    degree, so each k's matrix is the last one with the columns of the new
    elements appended: every element is evaluated once, and only one matrix
    per basis is held.

    Every basis is built before any search, in the order of `kinds`. At
    each k the monomial basis draws its starts first, then the kinds in
    order, and the first `FeketeError` of a kind is raised; when the
    monomial basis is not a kind, a failed draw of its starts only leaves
    them out."""
    if not kinds:
        raise ValueError("compare_bases needs at least one basis kind")
    estimates: dict[str, list[DiameterEstimate]] = {kind: [] for kind in kinds}
    built = {kind: build_basis(pres, kind, k_max, quad=quad) for kind in estimates}
    # the search basis comes first, whether or not it is a kind
    bases = {"monomial": built["monomial"] if "monomial" in built else monomial_graded_basis(pres, k_max), **built}
    Es: dict[str, np.ndarray] = {}
    for k in range(1, k_max + 1):
        rec = count(pres, k)
        inits: list[list[int]] = []  # every basis's starts, scored by every basis
        for kind, basis in bases.items():
            Es[kind] = _grow(Es.get(kind), basis, rec.N, sampler.points)
            try:
                inits += _initial_tuples(Es[kind], seed=seed, starts=starts)
            except FeketeError:
                if kind in estimates:
                    raise
        runs = _searched(Es["monomial"], list(dict.fromkeys(map(tuple, inits))))
        for kind, seq in estimates.items():
            seq.append(_estimate(kind, k, rec, _scored(Es[kind], runs)))
    spreads = [max(abs(a.est_lk - b.est_lk) for a in col for b in col) for col in zip(*estimates.values())]
    return CompareReport(
        kinds=tuple(kinds),
        k_values=tuple(range(1, k_max + 1)),
        estimates=estimates,
        spreads=tuple(spreads),
        nonincreasing=all(spreads[i + 1] <= spreads[i] + 1e-12 for i in range(len(spreads) - 1)),
    )


# ---------------------------------------------------------------------------
# row-scale bounds between bases


def _monomial_columns(*bases: GradedBasis) -> dict:
    """Column of each monomial the bases use, in the graded order."""
    monos = {m for b in bases for e in b for m in e.monomials()}
    return {m: j for j, m in enumerate(sorted(monos, key=grevlex_key))}


def _coef_rows(basis: GradedBasis, cols: dict) -> list[dict]:
    """Exact coefficient rows, each a sparse {column: nonzero Exact}."""
    return [{cols[m]: c for m, c in e.items()} for e in basis]


def _sub_scaled(row: dict, f: Exact, other: dict) -> None:
    """row -= f * other on sparse rows {column: nonzero Exact}; an entry that
    cancels to an exact zero is dropped."""
    for j, v in other.items():
        x = row[j] - f * v if j in row else -(f * v)
        if x:
            row[j] = x
        else:
            del row[j]


def _eliminate(rows: list[dict], width: int) -> dict[int, int]:
    """Sparse forward elimination of the columns below `width`, in place.

    Each column's pivot is the first row, in the given order, that is not yet
    a pivot and is nonzero there; it is subtracted from every other such row.
    Columns from `width` on are carried along. Returns {column: pivot row};
    a pivot row is not changed after it is chosen, so rows[r][col] is the
    pivot. Rows are sparse, so the work follows the nonzero pattern: for
    graded bases the fill-in stays inside each degree block."""
    free = list(range(len(rows)))
    pivots: dict[int, int] = {}
    for col in range(width):
        pr = next((i for i in free if col in rows[i]), None)
        if pr is None:
            continue
        free.remove(pr)
        pivots[col] = pr
        inv = rows[pr][col].inverse()
        for i in free:
            if col in rows[i]:
                _sub_scaled(rows[i], rows[i][col] * inv, rows[pr])
    return pivots


def _change_of_basis_pivots(basis_b: GradedBasis, basis_c: GradedBasis) -> list[Exact]:
    """First-nonzero pivots of the exact T with B = T C.

    The stacked rows [C | I ; B | 0] are eliminated over the monomial
    columns. C's rows come first, so they are the pivots when C is
    independent, and a B row is one only when B leaves span(C); each other B
    row reduces to [0 | -T]. T is then eliminated by the same rule."""
    n = len(basis_c)
    cols = _monomial_columns(basis_b, basis_c)
    w = len(cols)
    rows = [{**r, w + i: ONE} for i, r in enumerate(_coef_rows(basis_c, cols))]
    rows += _coef_rows(basis_b, cols)
    used = set(_eliminate(rows, w).values())
    if not used.issuperset(range(n)):
        raise ValueError("second basis has linearly dependent elements")
    if len(used) > n:
        raise ValueError("bases do not span the same monomial space")
    t = [{j - w: -v for j, v in r.items()} for r in rows[n:]]
    pivots = _eliminate(t, n)
    if len(pivots) < n:
        raise ValueError("change of basis is singular")
    return [t[pivots[j]][j] for j in range(n)]


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
    worst_cond: Optional[float]


def row_scale_bound(
    basis_b: GradedBasis,
    basis_c: GradedBasis,
    point_sets: Sequence[np.ndarray] = (),
) -> ScaleBoundReport:
    """Pivot bounds for the change of basis T with B = T C, for exact bases.

    The first-nonzero-pivot elimination of T is the only row operation that
    rescales; its pivot moduli give m and Mx with
    N log m + log|VDM_C| <= log|VDM_B| <= N log Mx + log|VDM_C|,
    and the determinant ratio of the two Vandermonde matrices must match the
    pivot-modulus product, to a relative 1e-10, on every tuple. A tuple on
    which either matrix is singular has no ratio: its error is inf, so it
    fails the check. `worst_cond` is the larger condition number of the two
    Vandermonde matrices on the tuple with the largest identity error (the
    first such), or None with no tuples: LU-based log|det| is good to about
    N eps cond, so it says whether a miss is conditioning.
    """
    if len(basis_b) != len(basis_c):
        raise ValueError("bases must have the same length")
    n = len(basis_b)
    if any(e.mode != "exact" for e in basis_b + basis_c):
        raise ValueError("row-scale bounds need exact bases")
    pivots = _change_of_basis_pivots(basis_b, basis_c)
    piv_abs = [abs(p.to_complex()) for p in pivots]
    m, mx = min(piv_abs), max(piv_abs)
    # one log of the exact |det T|^2, so a |det T| of exactly 1 reads 0
    log_det = 0.5 * log_positive(math.prod((p.modulus_squared() for p in pivots), start=ONE))
    triples: list[tuple[float, float, float]] = []
    id_errs: list[float] = []
    sandwich = True
    matrices: list[tuple[np.ndarray, np.ndarray]] = []
    for pts in point_sets:
        matrices.append((vdm_matrix(basis_b, pts), vdm_matrix(basis_c, pts)))
        lb, lc = (_square_slogabs(a) for a in matrices[-1])
        lo, hi = n * math.log(m) + lc, n * math.log(mx) + lc
        triples.append((lo, lb, hi))
        if not (lo - 1e-9 <= lb <= hi + 1e-9):
            sandwich = False
        singular = min(lb, lc) == -math.inf
        id_errs.append(math.inf if singular else abs((lb - lc) - log_det) / max(1.0, abs(log_det)))
    identity_ok = all(e <= 1e-10 for e in id_errs)
    worst_cond = None
    if matrices:
        worst = max(range(len(matrices)), key=id_errs.__getitem__)
        worst_cond = max(float(np.linalg.cond(a)) for a in matrices[worst])
    return ScaleBoundReport(
        m=m,
        Mx=mx,
        pivot_abs=tuple(piv_abs),
        log_abs_det=log_det,
        triples=tuple(triples),
        sandwich_ok=sandwich,
        identity_rel_errors=tuple(id_errs),
        identity_ok=identity_ok,
        worst_cond=worst_cond,
    )
