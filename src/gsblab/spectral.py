"""Ground-state eigensolver, shifted-resolvent solver and the thread pool they share.

Two numerical primitives feed every identity check: the lowest eigenpair of
a hermitian operator and the application of (H - E + s)^-1 for shifts s > 0
(Jacobi-preconditioned conjugate gradients on the positive definite shifted
operator: one H.apply per iteration, every vector update in place through
BLAS axpy/scal).  The eigenpair comes from dense eigh up to DENSE_MAX_DIM
and from a thick-restart Lanczos above it (Wu and Simon, SIAM J. Matrix
Anal. Appl. 22 (2000) 602), both in the dtype of H and, for the resolvent,
of the right-hand side: a real model gets a real ground vector, real
right-hand sides and real solves.  Every solve runs on the blocks of
sector_blocks, which H holds: H itself, or the two matter parity sectors of
an H large enough to split, which is held as those blocks alone.  The ground
solve takes each block through parallel_map by the solver its size picks,
with one residual check on the whole H, applied block by block; each level
of regularity's resolvent chains solves on one block.  Both solvers are
deterministic for a fixed seed; above the dense cut-off H is never
factorized, only applied.
A stack of small dense hermitian matrices (the single-mode Hamiltonians of a
separable infrared sweep) is solved by one batched eigh.

parallel_map runs independent solves on up to one thread per usable core:
the sectors of a ground solve here, the levels of resolvent chains in
regularity.  Each solve is deterministic, so its results are bitwise those
of a serial loop.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from functools import cache, partial

import numpy as np
from pydantic import BaseModel, ConfigDict, Field
from scipy.linalg import get_blas_funcs

from .fock import MIN_THREAD_NNZ, LinOp
from .model import GroundState, GsbModel

__all__ = [
    "SolverConfig",
    "NonConverged",
    "NonPositiveShift",
    "ground_state",
    "solve_model",
    "stacked_ground_states",
    "resolvent_apply",
    "sector_blocks",
    "parallel_map",
]

# Largest dimension ground_state solves by dense eigh.  The single-mode
# stacks of separable sweeps always go through stacked_ground_states instead.
DENSE_MAX_DIM = 128

NEAR_DEGENERATE_FACTOR = 1e-8

# The Lanczos basis holds KRYLOV_DIM vectors; a restart keeps the
# KRYLOV_KEEP lowest Ritz vectors of the full basis.
KRYLOV_DIM = 16
KRYLOV_KEEP = 6
# A Lanczos run stops at the SETTLE_CHECKS-th restart in a row at which
# both lowest Ritz pairs meet eig_tol.  A ground level that is exactly
# degenerate shows one vector of its eigenspace to a single start vector;
# the partner enters only through rounding, once the ground vector has
# converged, and the two extra cycles give it room to.  Stopping at the
# first passing check missed the partner of the delta = 0 spin boson
# (dimensions 420 to 1,584) for 52 of 120 seeds, at the second for 2 and
# at the third for none, for 17% more applications on the M = 12 sectors.
SETTLE_CHECKS = 3
# A Lanczos coupling at or below this share of the spectral width (the
# largest absolute row sum of H) is round-off: the Krylov space is invariant.
BREAKDOWN = 1e-13
# The orthogonalization against the basis runs a second pass when the first
# leaves less than this share of the vector's norm (Daniel, Gragg, Kaufman
# and Stewart's criterion).
DGKS = 1.0 / math.sqrt(2.0)


class SolverConfig(BaseModel):
    """Tolerances, iteration caps and the seed for deterministic starts.

    max_lanczos caps the operator applications of each solve (one solve per
    parity sector of a split solve); a dense solve counts as dim
    applications.  This is the `solver` section of a run config:
    construction validates every field and raises ValueError on an unknown
    field, a non-finite or out-of-range value, or a non-integer cap.
    """

    model_config = ConfigDict(frozen=True, extra="forbid", allow_inf_nan=False)

    eig_tol: float = Field(default=1e-11, gt=0, lt=1)
    max_lanczos: int = Field(default=2000, ge=1)
    cg_tol: float = Field(default=1e-11, gt=0, lt=1)
    cg_max: int = Field(default=20000, ge=1)
    seed: int = Field(default=7, ge=0)


class NonConverged(RuntimeError):
    """Solver ran out of iterations; carries the best residual reached."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(f"{message} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


class NonPositiveShift(ValueError):
    """The shifted system H - E + s needs s > 0 to be positive definite."""


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@cache
def _pool():
    """The workers of parallel_map: one per usable core but the caller's, started on first use."""
    return ThreadPoolExecutor(max_workers=max(1, _usable_cores() - 1))


def parallel_map(solve, items: list, nnz: int) -> list:
    """[solve(x) for x in items], bitwise, on as many threads as pay.

    That is one thread per usable core, per item and per MIN_THREAD_NNZ
    stored entries (nnz) of the operator the solves apply, at most: under
    two, the caller runs the loop alone and the pool is never touched.
    The caller and the workers of _pool take the items in order and start
    none once a solve has failed.  When all have stopped, the error of the
    first failing item is raised, as in the serial loop: every item before
    it was solved, since one left unsolved was taken after a failure of an
    earlier one.  Workers run in a copy of the caller's context, so its
    np.errstate holds there too.  Solves are deterministic, so the results
    are bitwise those of the loop.
    """
    threads = min(_usable_cores(), nnz // MIN_THREAD_NNZ, len(items))
    out = [None] * len(items)
    pending = enumerate(items)  # next() on it runs whole under the GIL
    failed = []

    def work():
        for i, x in pending:
            if failed:
                return
            try:
                out[i] = solve(x)
            except BaseException as exc:  # raised below, once every thread stopped
                out[i] = exc
                failed.append(i)

    workers = [_pool().submit(partial(copy_context().run, work)) for _ in range(threads - 1)]
    work()
    for worker in workers:
        worker.result()
    for result in out:
        if isinstance(result, BaseException):
            raise result
    return out


def _random_vector(rng, dim: int, dtype) -> np.ndarray:
    v = rng.standard_normal(dim)
    if np.issubdtype(dtype, np.complexfloating):
        v = v + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _eigh(H: np.ndarray, cfg: SolverConfig):
    """np.linalg.eigh of a hermitian matrix or (k, n, n) stack; a failed eigh, and n above
    max_lanczos (a dense solve counts as n applications), raise NonConverged."""
    n = H.shape[-1]
    if n > cfg.max_lanczos:
        raise NonConverged(
            f"a dense solve of dimension {n} exceeds max_lanczos={cfg.max_lanczos}",
            float("inf"),
        )
    try:
        return np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NonConverged(f"dense eigh failed: {exc}", float("inf")) from exc


def _orthogonalize(V: np.ndarray, w: np.ndarray):
    """(w minus its projection on the rows of V, the norm left) by classical Gram-Schmidt.

    A second pass runs when the first leaves less than DGKS of the norm;
    it removes the round-off of the first, so the result is orthogonal to
    the rows to working precision.  V^H w is taken as conj(conj(w) V^T),
    which copies no basis vector, and numpy's products release the GIL, so
    the sectors of a split solve run side by side.
    """
    norm = np.linalg.norm(w)
    for _ in range(2):
        w -= (w.conj() @ V.T).conj() @ V
        left, norm = norm, np.linalg.norm(w)
        if norm >= DGKS * left:
            break
    return w, norm


def _lanczos_ground(H: LinOp, width: float, cfg: SolverConfig):
    """Two lowest eigenpairs by thick-restart Lanczos; returns (values, ground vector, applications).

    The basis is the rows of V.  T holds V^H H V: tridiagonal, and after a
    restart an arrowhead coupling the kept Ritz vectors to the next vector.
    Each new vector is H v_i less its terms in T, then orthogonalized
    against the whole basis.  Each time the basis is full, both lowest Ritz
    pairs are checked for residual estimate |beta s_i| <= eig_tol
    max(1, |theta_i|), s_i the last entry of Ritz vector i, and the basis
    restarts from its KRYLOV_KEEP lowest Ritz vectors; the run stops at the
    SETTLE_CHECKS-th check in a row that passes.  A coupling at round-off
    (BREAKDOWN of the spectral width `width`) means the basis spans an
    invariant space: the run continues from a fresh seeded vector
    orthogonal to it, coupled by 0, so an eigenvalue whose eigenvectors the
    start vector missed is still found.  Every product is one H.apply; more
    than max_lanczos of them, or a product that overflows, raise
    NonConverged.  The budget's message names the pair that missed eig_tol
    at the last restart check, and reports the larger of the two pairs'
    estimates there (inf before the first check).
    """
    dtype = np.result_type(H.dtype, float)
    rng = np.random.default_rng(cfg.seed)
    V = np.empty((KRYLOV_DIM, H.dim), dtype=dtype)
    T = np.zeros((KRYLOV_DIM, KRYLOV_DIM))
    V[0] = _random_vector(rng, H.dim, dtype)
    i = applied = passed = 0
    met, worst = None, math.inf  # at the last check: each pair's test, the larger estimate
    while True:
        if applied >= cfg.max_lanczos:
            raise NonConverged(
                f"lanczos did not reach eig_tol={cfg.eig_tol} within "
                f"{cfg.max_lanczos} operator applications; {_missed(met, passed)}", worst)
        w = H.apply(V[i])
        applied += 1
        T[i, i] = np.vdot(V[i], w).real
        # the recurrence (the arrowhead at i = KRYLOV_KEEP) removes the bulk of
        # w, so one pass against the basis cleans up its rounding; without it
        # every step of the M = 12 spin boson took DGKS's second pass
        lo = 0 if i == KRYLOV_KEEP else max(i - 1, 0)
        w -= T[lo:i + 1, i] @ V[lo:i + 1]
        w, norm = _orthogonalize(V[:i + 1], w)
        if not np.isfinite(norm):
            raise NonConverged("lanczos overflowed: H is too large to apply", float("inf"))
        beta = norm if norm > BREAKDOWN * width else 0.0
        if i + 1 < KRYLOV_DIM:
            T[i + 1, i] = T[i, i + 1] = beta
        else:
            theta, S = np.linalg.eigh(T)
            tol = cfg.eig_tol * np.maximum(1.0, np.abs(theta[:2]))
            estimates = np.abs(beta * S[-1, :2])
            worst, met = float(estimates.max()), estimates <= tol
            passed = passed + 1 if met.all() else 0
            if passed == SETTLE_CHECKS:
                return theta[:2], S[:, 0] @ V, applied
            V[:KRYLOV_KEEP] = S[:, :KRYLOV_KEEP].T @ V
            T[:] = 0.0
            T[range(KRYLOV_KEEP), range(KRYLOV_KEEP)] = theta[:KRYLOV_KEEP]
            T[KRYLOV_KEEP, :KRYLOV_KEEP] = T[:KRYLOV_KEEP, KRYLOV_KEEP] = beta * S[-1, :KRYLOV_KEEP]
            i = KRYLOV_KEEP - 1
        if not beta:
            w, norm = _orthogonalize(V[:i + 1], _random_vector(rng, H.dim, dtype))
        V[i + 1] = w / norm
        i += 1


def _missed(met, passed: int) -> str:
    """Which of the two lowest Ritz pairs missed eig_tol at the last restart check of
    _lanczos_ground: met holds each pair's test there, None before the first check."""
    if met is None:
        return "no restart check was reached"
    missed = [pair for pair, ok in zip(("ground", "second"), met) if not ok]
    if missed:
        return (f"the {' and '.join(missed)} pair{'s' * (len(missed) - 1)} missed it "
                "at the last restart check")
    return f"both pairs met it at the last restart check, {passed} of {SETTLE_CHECKS} in a row"


def _block_ground(H: LinOp, width: float, cfg: SolverConfig):
    """Two lowest eigenvalues, ground vector, applications and method of one block of H.

    Dense eigh ("dense") up to DENSE_MAX_DIM and thick-restart Lanczos
    ("lanczos") above, whose breakdown test reads `width`, the spectral
    width of the whole H.
    """
    if H.dim <= DENSE_MAX_DIM:
        vals, vecs = _eigh(H.mat.toarray(), cfg)
        return vals[:2], vecs[:, 0], H.dim, "dense"
    return *_lanczos_ground(H, width, cfg), "lanczos"


def sector_blocks(H: LinOp) -> list:
    """The (idx, LinOp) blocks every solve on H runs on: the blocks H.mat[idx][:, idx]
    a split H holds, one per parity sector, else H itself, [(slice(None), H)].

    H splits when it carries sectors and at least 2 MIN_THREAD_NNZ stored
    entries (so a dimension above DENSE_MAX_DIM); with no entry between
    sectors, H is the blocks' direct sum.  The blocks are H's own, built once
    with it.
    """
    return H.blocks or [(slice(None), H)]


def ground_state(H: LinOp, cfg: SolverConfig) -> GroundState:
    """Lowest eigenpair of a hermitian operator (not checked: model.check_matter owns it).

    Each block of sector_blocks(H) is solved through parallel_map, by dense eigh
    up to DENSE_MAX_DIM and thick-restart Lanczos above, in H's own dtype;
    the ground vector is the lowest block's, zero off it (the first on a
    tie), and method is the one block's solver or "lanczos-sectors" for two.
    A non-finite entry of H raises NonConverged before any solve.  Returns a
    GroundState whose vector is a normalized numpy array, with the explicit
    residual ||H v - E v|| <= eig_tol * max(1, |E|) on the whole H (a nan
    residual raises NonConverged too), the gap to the second eigenvalue, and
    a near-degeneracy flag when the gap is tiny relative to the spectral
    width (the largest absolute row sum of H).
    w_top stays nan: H carries no basis.  Deterministic for a fixed cfg.seed.
    """
    blocks = sector_blocks(H)
    mats = [b.mat for _, b in blocks]  # H's rows, each whole in one block
    if not all(np.isfinite(m.data).all() for m in mats):
        raise NonConverged("H has a non-finite entry", float("inf"))
    width = 0.0
    for m in mats:
        # the reduction of scipy's CSR row sum, on |data| alone rather than a copy of H,
        # over the nonempty rows only (an empty row sums to 0)
        starts = m.indptr[np.flatnonzero(np.diff(m.indptr))]
        width = max(width, np.add.reduceat(np.abs(m.data), starts).max(initial=0.0))
    # an overflowing product or residual is refused, without a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        vals, vecs, applied, methods = zip(*parallel_map(
            lambda b: _block_ground(b[1], width, cfg), blocks, H.nnz))
        low = int(np.argmin([v[0] for v in vals]))
        vec = np.zeros(H.dim, dtype=vecs[low].dtype)
        vec[blocks[low][0]] = vecs[low]
        vec /= np.linalg.norm(vec)
        hv = H.apply(vec)
        energy = float(np.real(np.vdot(vec, hv)))
        residual = float(np.linalg.norm(hv - energy * vec))
    method = methods[0] if len(blocks) == 1 else "lanczos-sectors"
    if not residual <= cfg.eig_tol * max(1.0, abs(energy)):
        raise NonConverged(f"{method} missed eig_tol={cfg.eig_tol}", residual)
    vals = np.sort(np.concatenate(vals))
    gap = float(vals[1] - vals[0]) if len(vals) > 1 else float("nan")
    near = bool(np.isfinite(gap)
                and gap <= NEAR_DEGENERATE_FACTOR * max(width, abs(energy), 1e-300))
    return GroundState(
        energy=energy, vector=vec, residual=residual,
        gap=gap, near_degenerate=near, iterations=sum(applied), method=method,
    )


def solve_model(model: GsbModel, cfg: SolverConfig) -> GroundState:
    """Ground state of an assembled model, with w_top taken on the model's basis."""
    gs = ground_state(model.H, cfg)
    gs.w_top = model.basis.w_top(gs.vector)
    return gs


def stacked_ground_states(H, cfg: SolverConfig):
    """Lowest eigenpair of every matrix in a (k, n, n) stack of hermitian matrices.

    One batched dense eigh, with the checks ground_state makes on each matrix:
    a non-finite entry or n > max_lanczos raises NonConverged before the eigh,
    and so do a failed eigh and any residual ||H v - E v|| that is nan or
    above eig_tol * max(1, |E|).  E is the Rayleigh quotient of the
    normalized vector.  Returns (energies of shape (k,), vectors of shape
    (k, n)).  The stack is held densely: k n^2 entries.
    """
    H = np.asarray(H)
    finite = np.isfinite(H).all(axis=(1, 2))
    if not finite.all():
        raise NonConverged(f"dense stack has a non-finite entry on matrix "
                           f"{int(np.argmin(finite))}", float("inf"))
    vecs = _eigh(H, cfg)[1][:, :, 0]
    vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    hv = np.einsum("kij,kj->ki", H, vecs)
    energies = np.einsum("ki,ki->k", vecs.conj(), hv).real
    # as in ground_state: an inf residual is refused below, without a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = np.linalg.norm(hv - energies[:, None] * vecs, axis=1)
    excess = residuals / (cfg.eig_tol * np.maximum(1.0, np.abs(energies)))
    worst = int(np.argmax(excess))
    if not excess[worst] <= 1.0:
        raise NonConverged(f"dense stack missed eig_tol={cfg.eig_tol} on matrix {worst}",
                           float(residuals[worst]))
    return energies, vecs


def resolvent_apply(H: LinOp, E: float, s: float, v: np.ndarray, cfg: SolverConfig):
    """Apply (H - E + s)^-1 to the array v by preconditioned conjugate gradients.

    E must be the ground energy (so H - E >= 0) and s > 0, making the system
    positive definite.  Starts from u = 0 and stops at
    ||(H - E + s) u - v|| <= cg_tol ||v||.  Runs in the dtype
    np.result_type(H.dtype, v, float), so a real H with a real v solves in
    real arithmetic; u is a numpy array of that dtype.  Returns
    (u, iterations, relres).

    Each iteration calls H.apply exactly once and allocates no other
    vector: the shift, the x, r and p updates and the preconditioner write
    into the solver's own arrays, so v is never modified.  A nan in v or in
    H.apply's result raises NonConverged.
    """
    if s <= 0:
        raise NonPositiveShift(f"shift must be > 0, got {s}")
    v = np.asarray(v)
    # astype copies, so the residual r starts as v without touching it
    r = v.astype(np.result_type(H.dtype, v, float))
    x = np.zeros_like(r)
    # every level-1 call goes to scipy's BLAS (dot is dotc for a complex r):
    # numpy bundles another OpenBLAS, and two thread pools on the same cores
    # spin against each other.  axpy and scal overwrite their last argument,
    # or return a copy when its dtype or layout does not fit: always keep
    # the returned array
    axpy, scal, dot = get_blas_funcs(("axpy", "scal", "dot"), dtype=r.dtype)
    bnorm = math.sqrt(dot(r, r).real)
    if bnorm == 0.0:
        return x, 0, 0.0
    shift = s - E
    # diagonal entries of a hermitian operator are >= E, so pre >= s > 0
    pre = np.real(H.diagonal) + shift
    inv_pre = 1.0 / np.maximum(pre, 0.5 * s)
    z = r * inv_pre
    p = z.copy()
    rz = dot(r, z).real
    tol_abs = cfg.cg_tol * bnorm
    rnorm = bnorm
    it = 0
    while not rnorm <= tol_abs:
        if it >= cfg.cg_max:
            raise NonConverged(
                f"CG did not reach cg_tol={cfg.cg_tol} within {cfg.cg_max} iterations",
                rnorm / bnorm,
            )
        hp = axpy(p, H.apply(p), a=shift)
        denom = dot(p, hp).real
        if not denom > 0:
            raise NonConverged("CG lost positive definiteness", rnorm / bnorm)
        a = rz / denom
        x = axpy(p, x, a=a)
        r = axpy(hp, r, a=-a)
        rnorm = math.sqrt(dot(r, r).real)
        np.multiply(r, inv_pre, out=z)
        rz_new = dot(r, z).real
        p = axpy(z, scal(rz_new / rz, p))
        rz = rz_new
        it += 1
    return x, it, rnorm / bnorm
