"""Generalized spin-boson models on a matter (x) truncated Fock composite.

A model is H = A (x) 1 + 1 (x) dGamma(omega) + alpha * sum_j B_j (x) phi(lambda_j)
with dense hermitian matter operators A, B_j, a discrete mode set carrying
one coupling column per channel, and a total-quanta truncation n_max.

The commutant density T(k_i) = (sum_j lambda_j(k_i) B_j) (x) 1 / sqrt(2) is
fixed by the exact discrete commutator [1 (x) a_i, H_I] = sqrt(w_i) T(k_i)
on states below the top grade; that equation is what the unit tests pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .fock import FockBasis, KronSumOp, LinOp, StateVector
from .modes import ModeSet

__all__ = [
    "GsbModel",
    "GroundState",
    "assemble",
    "t_operator",
    "coupling_budget",
    "van_hove_oracle",
    "VanHoveValues",
    "preset_van_hove",
    "preset_spin_boson",
    "is_separable",
]

HERMITICITY_TOL = 1e-12


def _check_hermitian(name: str, m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    m = m.astype(np.result_type(m.dtype, float))  # real stays real, complex stays complex
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.conj().T).max() > HERMITICITY_TOL * scale:
        raise ValueError(f"{name} is not hermitian within {HERMITICITY_TOL}")
    return m


@dataclass
class GroundState:
    """Normalized ground eigenvector with solver diagnostics.

    residual is ||H v - E v||, gap the distance to the second eigenvalue,
    w_top the truncation weight of the vector.  near_degenerate flags a gap
    small relative to the spectral width; identity checks stay well posed
    for whichever normalized ground vector was returned.  iterations counts
    operator applications and method names the solver ("dense" or "eigsh").
    """

    energy: float
    vector: StateVector
    residual: float
    gap: float
    near_degenerate: bool = False
    iterations: int = 0
    method: str = ""

    @property
    def w_top(self) -> float:
        return self.vector.w_top()


class GsbModel:
    """Assembled model: operators H, H0, HI plus the ingredients they came from."""

    def __init__(self, A, B, grid: ModeSet, alpha: float, n_max: int,
                 basis: FockBasis, H0: KronSumOp, HI: KronSumOp, H: KronSumOp):
        self.A = A
        self.B = B
        self.grid = grid
        self.alpha = float(alpha)
        self.n_max = int(n_max)
        self.basis = basis
        self.d_matter = A.shape[0]
        self.dim = self.d_matter * len(basis)
        self.H0 = H0
        self.HI = HI
        self.H = H
        self.E_A = float(np.linalg.eigvalsh(A)[0])

    def state(self, amplitudes) -> StateVector:
        return StateVector(amplitudes, self.d_matter, self.basis)

    def __repr__(self) -> str:
        return (
            f"GsbModel(d={self.d_matter}, modes={self.grid.n_modes}, "
            f"n_max={self.n_max}, dim={self.dim}, alpha={self.alpha})"
        )


def assemble(A, B, grid: ModeSet, alpha: float, n_max: int,
             max_states: int | None = None,
             sparse_threshold: int = 200_000) -> GsbModel:
    """Build H = A (x) 1 + 1 (x) dGamma(omega) + alpha * sum_j B_j (x) phi(lambda_j).

    A and every B_j must be hermitian (checked to 1e-12) and share one
    dimension; the grid must carry one coupling column per B_j.  Real A and
    B_j give a real H, so the ground solve runs in real arithmetic.  Operators
    cache a sparse matrix when the composite dimension stays at or below
    sparse_threshold and fall back to term-wise Kronecker application above.
    """
    A = _check_hermitian("A", A)
    B = [_check_hermitian(f"B[{j}]", b) for j, b in enumerate(B)]
    d = A.shape[0]
    for j, b in enumerate(B):
        if b.shape != (d, d):
            raise ValueError(f"B[{j}] has shape {b.shape}, expected {(d, d)}")
    if len(B) != grid.n_channels:
        raise ValueError(
            f"{len(B)} matter channels but {grid.n_channels} coupling columns on the grid"
        )
    basis = fock.enumerate_basis(grid.n_modes, n_max, max_states=max_states)
    nf = len(basis)

    dg_omega = fock.dgamma(grid.omega, basis)
    h0_terms = [(A, None), (None, dg_omega)]
    hi_terms = [(b, fock.field_operator(grid.channel(j), grid, basis)) for j, b in enumerate(B)]
    H0 = KronSumOp(d, nf, h0_terms, hermitian=True)
    HI = KronSumOp(d, nf, hi_terms, hermitian=True)
    h_terms = h0_terms + [(alpha * b, phi) for (b, phi) in hi_terms]
    H = KronSumOp(d, nf, h_terms, hermitian=True)

    if d * nf <= sparse_threshold:
        for op in (H0, HI, H):
            op.to_sparse_cached()
    return GsbModel(A, B, grid, alpha, n_max, basis, H0, HI, H)


def t_operator(model: GsbModel, i: int) -> KronSumOp:
    """Commutant density T(k_i) = (sum_j lambda_j(k_i) B_j) (x) 1 / sqrt(2).

    Satisfies [1 (x) a_i, H_I] = sqrt(w_i) T(k_i) exactly on states with
    total quanta <= n_max - 1; independent of the coupling constant alpha.
    """
    if not 0 <= i < model.grid.n_modes:
        raise ValueError(f"mode index {i} out of range")
    m = sum(
        model.grid.channel(j)[i] * b for j, b in enumerate(model.B)
    ) / math.sqrt(2.0)
    return fock.matter_embed(m, len(model.basis))


def coupling_budget(model: GsbModel, a_consts) -> float:
    """Kato-Rellich style coupling budget (sum_j a_j ||lambda_j/sqrt(w)||^2)^-1.

    a_j are user-supplied relative-bound constants for the B_j; with all
    a_j = 0 (bounded matter operators) the budget is infinite.  Reported as
    a diagnostic only, every finite-dimensional H is already self-adjoint.
    """
    a_consts = np.asarray(a_consts, dtype=float)
    if len(a_consts) != len(model.B):
        raise ValueError("need one constant per coupling channel")
    if np.any(a_consts < 0):
        raise ValueError("relative-bound constants must be >= 0")
    w, om = model.grid.weights, model.grid.omega
    denom = sum(
        a_consts[j] * float(np.sum(w * model.grid.channel(j) ** 2 / om))
        for j in range(len(model.B))
    )
    return math.inf if denom == 0 else 1.0 / denom


@dataclass(frozen=True)
class VanHoveValues:
    """Closed-form ground-state data of the scalar-matter (van Hove) model."""

    E_exact: float
    N_exact: float
    a_expectation: np.ndarray


def van_hove_oracle(grid: ModeSet, alpha: float, channel: int = 0) -> VanHoveValues:
    """Exact ground-state values for d = 1, B = [1]: coherent displacement.

    Completing the square in (a, a*) displaces each mode by
    c_i = -alpha lambda_i sqrt(w_i) / (sqrt(2) omega_i), giving
    E = -alpha^2 sum_i lambda_i^2 w_i / (2 omega_i),
    <N> = alpha^2 sum_i lambda_i^2 w_i / (2 omega_i^2),
    <a_i> = c_i on the ground state.
    """
    lam = grid.channel(channel)
    w, om = grid.weights, grid.omega
    E = -(alpha**2) * float(np.sum(lam * lam * w / (2.0 * om)))
    N = alpha**2 * float(np.sum(lam * lam * w / (2.0 * om * om)))
    a_exp = -alpha * lam * np.sqrt(w) / (math.sqrt(2.0) * om)
    return VanHoveValues(E_exact=E, N_exact=N, a_expectation=a_exp)


def preset_van_hove() -> tuple[np.ndarray, list[np.ndarray]]:
    """Scalar matter part: A = [[0]], B = [[1]]."""
    return np.zeros((1, 1)), [np.ones((1, 1))]


def preset_spin_boson(delta: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """Two-level matter part: A = (delta/2)(sigma_z + 1) >= 0, B = [sigma_x].

    The constant shift keeps A nonnegative without changing any identity,
    shifts cancel in H - E.
    """
    if delta < 0:
        raise ValueError(f"level splitting must be >= 0, got {delta}")
    sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]])
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    A = 0.5 * delta * (sigma_z + np.eye(2))
    return A, [sigma_x]


def is_separable(A, B) -> bool:
    """True when the model factorizes over modes: scalar matter, one channel."""
    A = np.asarray(A)
    return A.shape == (1, 1) and len(B) == 1 and np.asarray(B[0]).shape == (1, 1)
