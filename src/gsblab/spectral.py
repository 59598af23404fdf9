"""Ground-state eigensolver and shifted-resolvent solver.

Two numerical primitives feed every identity check: the lowest eigenpair of
a hermitian operator and the application of (H - E + s)^-1 for shifts s > 0
(Jacobi-preconditioned conjugate gradients on the positive definite shifted
operator: one H.apply per iteration, every vector update in place through
BLAS axpy/scal).  The eigenpair comes from dense eigh up to DENSE_MAX_DIM
and from ARPACK's implicitly restarted Lanczos (scipy eigsh, two lowest
eigenpairs) above it, both in the dtype of H and, for the resolvent, of
the right-hand side: a real model gets a real ground vector, real
right-hand sides and real solves.  Both are deterministic for a fixed
seed; above the dense cut-off H is never factorized, only applied.
A stack of small dense hermitian matrices (the single-mode Hamiltonians of a
separable infrared sweep) is solved by one batched eigh.
"""

from __future__ import annotations

import math

import numpy as np
from pydantic import BaseModel, ConfigDict, Field
from scipy.linalg import get_blas_funcs
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .fock import LinOp
from .model import GroundState, GsbModel

__all__ = [
    "SolverConfig",
    "NonConverged",
    "NonPositiveShift",
    "ground_state",
    "solve_model",
    "stacked_ground_states",
    "resolvent_apply",
]

# Largest dimension ground_state solves by dense eigh.  The single-mode
# stacks of separable sweeps always go through stacked_ground_states instead.
DENSE_MAX_DIM = 128

NEAR_DEGENERATE_FACTOR = 1e-8


class SolverConfig(BaseModel):
    """Tolerances, iteration caps and the seed for deterministic starts.

    max_lanczos caps the operator applications of one ground solve; a dense
    solve counts as dim applications.  This is the `solver` section of a run
    config: construction validates every field and raises ValueError on an
    unknown field, a non-finite or out-of-range value, or a non-integer cap.
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


class _BudgetExhausted(Exception):
    pass


def _start_vector(dim: int, seed: int, dtype) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    if np.issubdtype(dtype, np.complexfloating):
        v = v + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _check_dense_budget(dim: int, cfg: SolverConfig) -> None:
    # a dense solve counts as dim operator applications
    if dim > cfg.max_lanczos:
        raise NonConverged(
            f"a dense solve of dimension {dim} exceeds max_lanczos={cfg.max_lanczos}",
            float("inf"),
        )


def _eigh(H: np.ndarray):
    """np.linalg.eigh of a hermitian matrix or stack, raising NonConverged on failure."""
    try:
        return np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NonConverged(f"dense eigh failed: {exc}", float("inf")) from exc


def _dense_ground(H: LinOp, cfg: SolverConfig):
    """All eigenpairs by eigh; returns (values, ground vector, applications)."""
    _check_dense_budget(H.dim, cfg)
    vals, vecs = _eigh(H.mat.toarray())
    return vals[:2], vecs[:, 0], H.dim


def _eigsh_ground(H: LinOp, row_sums, cfg: SolverConfig):
    """Two lowest eigenpairs by ARPACK; returns (values, ground vector, applications).

    ARPACK accepts a Ritz pair once ||r|| <= tol * |theta|, which no
    tolerance meets for theta near 0: it then misses an eigenvalue at 0
    altogether.  So it runs on H + shift, with low <= E <= high (Gershgorin
    below, the smallest diagonal entry above) putting the wanted eigenvalue
    theta in [1, 1 + high - low].  With max(1, |E|) >= max(1, low, -high),
    the tol below keeps tol * theta <= eig_tol * max(1, |E|).
    """
    diag = H.diagonal.real
    low = float(np.min(diag + np.abs(diag) - row_sums))
    high = float(diag.min())
    shift = 1.0 - low
    tol = cfg.eig_tol * max(1.0, low, -high) / (1.0 + high - low)
    applied = 0
    axpy = get_blas_funcs("axpy", dtype=H.dtype)

    def matvec(v):
        nonlocal applied
        if applied >= cfg.max_lanczos:
            raise _BudgetExhausted
        applied += 1
        return axpy(v, H.apply(v), a=shift)

    op = LinearOperator((H.dim, H.dim), matvec=matvec, dtype=H.dtype)
    try:
        vals, vecs = eigsh(op, k=2, which="SA", tol=tol,
                           v0=_start_vector(H.dim, cfg.seed, H.dtype))
    except _BudgetExhausted:
        raise NonConverged(
            f"eigsh did not reach eig_tol={cfg.eig_tol} within "
            f"{cfg.max_lanczos} operator applications", float("inf")) from None
    except ArpackError as exc:
        raise NonConverged(f"eigsh failed: {exc}", float("inf")) from exc
    order = np.argsort(vals)
    return vals[order] - shift, vecs[:, order[0]], applied


def ground_state(H: LinOp, cfg: SolverConfig) -> GroundState:
    """Lowest eigenpair of a hermitian operator.

    Dense eigh up to DENSE_MAX_DIM, scipy eigsh above, in H's own dtype.
    A non-finite entry of H raises NonConverged before any solve.
    Returns a GroundState whose vector is a normalized numpy array, with
    the explicit residual ||H v - E v|| <= eig_tol * max(1, |E|) (a nan
    residual raises NonConverged too), the gap to the second eigenvalue, and
    a near-degeneracy flag when the gap is tiny relative to the spectral
    width (the largest absolute row sum of H).  w_top stays nan: H carries
    no basis.  Deterministic for a fixed cfg.seed.
    """
    if not H.hermitian:
        raise ValueError("ground_state requires a hermitian operator")
    if not np.all(np.isfinite(H.mat.data)):
        raise NonConverged("H has a non-finite entry", float("inf"))
    # the reduction of scipy's CSR row sum, on |data| alone rather than a copy of H
    indptr = H.mat.indptr
    nonempty = np.flatnonzero(np.diff(indptr))
    row_sums = np.zeros(H.dim)
    row_sums[nonempty] = np.add.reduceat(np.abs(H.mat.data), indptr[nonempty])
    if H.dim <= DENSE_MAX_DIM:
        method, (vals, vec, applied) = "dense", _dense_ground(H, cfg)
    else:
        method, (vals, vec, applied) = "eigsh", _eigsh_ground(H, row_sums, cfg)
    vec = vec / np.linalg.norm(vec)
    hv = H.apply(vec)
    energy = float(np.real(np.vdot(vec, hv)))
    # a huge H overflows the norm to inf, refused below without a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.linalg.norm(hv - energy * vec))
    if not residual <= cfg.eig_tol * max(1.0, abs(energy)):
        raise NonConverged(f"{method} missed eig_tol={cfg.eig_tol}", residual)
    gap = float(vals[1] - vals[0]) if len(vals) > 1 else float("nan")
    near = bool(np.isfinite(gap)
                and gap <= NEAR_DEGENERATE_FACTOR * max(row_sums.max(), abs(energy), 1e-300))
    return GroundState(
        energy=energy, vector=vec, residual=residual,
        gap=gap, near_degenerate=near, iterations=applied, method=method,
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
    _check_dense_budget(H.shape[-1], cfg)
    vecs = _eigh(H)[1][:, :, 0]
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
