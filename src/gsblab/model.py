"""Generalized spin-boson models on a matter (x) truncated Fock composite.

A model is H = A (x) 1 + 1 (x) dGamma(omega) + alpha * sum_j B_j (x) phi(lambda_j)
with dense hermitian matter operators A, B_j, a discrete mode set carrying
one coupling column per channel, and a total-quanta truncation n_max.  H is
assembled once, its CSR arrays written in place on the matter-major
composite, with the entries the Kronecker sums of the formula give.

When signs u in {+1, -1}^d make U A U = A and U B_j U = -B_j (U = diag(u)),
H commutes exactly with U (x) (-1)^N on the truncated space, since the field
changes the total quanta by one and the truncation keeps whole grades.  The
basis state (a, n) then lies in the parity sector u_a (-1)^|n|, and the
assembled H carries the two sectors' index sets, which the ground solve
uses to solve each sector on its own; an H large enough to split is
assembled as its two sector blocks and never held whole (fock.LinOp).

The commutant density T(k_i) = (sum_j lambda_j(k_i) B_j) (x) 1 / sqrt(2) is
fixed by the exact discrete commutator [1 (x) a_i, H_I] = sqrt(w_i) T(k_i)
on states below the top grade, with H_I = (H - H|alpha=0) / alpha; that
equation is what the unit tests pin.  `t_operator` returns its d x d matter
factor, which `fock.apply_matter` applies to composite vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fock
from .fock import FockBasis, LinOp
from .modes import ModeSet

__all__ = [
    "GsbModel",
    "GroundState",
    "assemble",
    "matter_parity",
    "t_operator",
    "van_hove_oracle",
    "VanHoveValues",
    "preset_van_hove",
    "preset_spin_boson",
    "check_matter",
]

HERMITICITY_TOL = 1e-12


def check_matter(A, B, n_channels=None) -> tuple[np.ndarray, list[np.ndarray]]:
    """A and the B_j as float (or complex) arrays, each a finite hermitian matrix of A's shape.

    Hermiticity is checked to 1e-12 times the largest entry (at least 1).
    With n_channels given, the B_j must number one per coupling column.
    """
    A = _check_hermitian("A", A)
    B = [_check_hermitian(f"B[{j}]", b) for j, b in enumerate(B)]
    for j, b in enumerate(B):
        if b.shape != A.shape:
            raise ValueError(f"B[{j}] has shape {b.shape}, expected {A.shape}")
    if n_channels is not None and len(B) != n_channels:
        raise ValueError(f"{len(B)} matter channel(s) but {n_channels} coupling column(s)")
    return A, B


def _check_hermitian(name: str, m) -> np.ndarray:
    try:
        m = np.asarray(m)
    except ValueError:  # numpy refuses ragged nested lists
        raise ValueError(f"{name} must be a square matrix, got ragged rows") from None
    m = m.astype(np.result_type(m.dtype, float))  # real stays real, complex stays complex
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has a non-finite entry")
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.conj().T).max() > HERMITICITY_TOL * scale:
        raise ValueError(f"{name} is not hermitian within {HERMITICITY_TOL}")
    return m


@dataclass
class GroundState:
    """Normalized ground eigenvector with solver diagnostics.

    vector is a numpy array in the dtype of H, matter major for a model.
    residual is ||H v - E v||, gap the distance to the second eigenvalue.
    near_degenerate flags a gap small relative to the spectral width;
    identity checks stay well posed for whichever normalized ground vector
    was returned.  iterations counts operator applications, summed over the
    sectors of a split solve, and method names the solver: "dense",
    "lanczos", or "lanczos-sectors" for one solve per parity sector.
    w_top is the truncation weight of the vector: `spectral.solve_model`
    fills it from the model's basis, and it is nan from a bare
    `spectral.ground_state`.
    """

    energy: float
    vector: np.ndarray
    residual: float
    gap: float
    near_degenerate: bool = False
    iterations: int = 0
    method: str = ""
    w_top: float = math.nan


class GsbModel:
    """Assembled model: the operator H plus the ingredients it came from."""

    def __init__(self, A, B, grid: ModeSet, alpha: float, n_max: int,
                 basis: FockBasis, H: LinOp):
        self.A = A
        self.B = B
        self.grid = grid
        self.alpha = float(alpha)
        self.n_max = int(n_max)
        self.basis = basis
        self.d_matter = A.shape[0]
        self.dim = self.d_matter * len(basis)
        self.H = H

    def __repr__(self) -> str:
        return (
            f"GsbModel(d={self.d_matter}, modes={self.grid.n_modes}, "
            f"n_max={self.n_max}, dim={self.dim}, alpha={self.alpha})"
        )


def assemble(A, B, grid: ModeSet, alpha: float, n_max: int) -> GsbModel:
    """Build H = A (x) 1 + 1 (x) dGamma(omega) + alpha * sum_j B_j (x) phi(lambda_j).

    A and the B_j must pass check_matter, with one coupling column on the
    grid per B_j.  Each entry of H is the one the Kronecker sums of the
    formula, added as CSR matrices in the order written, give: the same
    products summed in the same order, with exact zeros dropped
    (_hamiltonian).  Real A and B_j give a real H, so the ground solve runs
    in real arithmetic.  When matter_parity finds signs u, H.sectors holds
    the indices of the states of parity +1 and of parity -1 (module
    docstring), else None.  An alpha large enough to overflow an entry of H
    raises no warning here: the ground solvers reject a non-finite H with
    NonConverged.
    """
    A, B = check_matter(A, B, grid.n_channels)
    basis = fock.enumerate_basis(grid.n_modes, n_max)
    sectors = None
    u = matter_parity(A, B)
    if u is not None:
        parity = np.outer(u, 1 - 2 * (basis.totals % 2)).ravel()
        # (0, vacuum) is even; with n_max = 0 and every u_a = +1 no state is odd
        if parity.min() < 0:
            sectors = (np.flatnonzero(parity > 0), np.flatnonzero(parity < 0))
    H = _hamiltonian(A, B, grid, alpha, basis, sectors)
    return GsbModel(A, B, grid, alpha, n_max, basis, H)


def _hamiltonian(A, B, grid: ModeSet, alpha: float, basis: FockBasis, sectors) -> LinOp:
    """H as a LinOp, its CSR arrays written once, in place: whole, or, when it splits
    (fock.LinOp), as the two sector blocks, in one pair of arrays.

    Row (a, t) holds, for each matter column b in turn, the entries at
    (b, t - e_i) for the modes i in descending order, at (b, t), and at
    (b, t + e_i) for the modes in ascending order: ascending columns, since
    the basis is grade ordered and, within a grade, t - e_i moves down and
    t + e_i up as i grows.  The entry at (b, t) is A_ab, plus dGamma(omega)
    at t when a = b.  The entries between (a, t) and (b, t -+ e_i) are
    field[a, b, i, n], with n the i-th occupation of the higher of the two
    states: sum_j (alpha B_j)_ab ((lambda_ji sqrt(w_i)) sqrt(n)) (1 / sqrt(2))
    over the channels whose factors are nonzero, in channel order from 0,
    which is the arithmetic of fock.field_operator, scipy's kron and
    csr_plus_csr.  An entry that is exactly 0 is not stored, as csr_plus_csr
    stores none.  The rows are counted first; then each matter column b in
    turn is written for all matter rows a at once, in one pass over the
    modes, with the targets t - e_i from FockBasis.rank_steps: each pair
    t, t - e_i gives one entry in each of the two rows.
    """
    d, nf, M = len(A), len(basis), basis.n_modes
    occ, inner = basis.occupations, ~basis.top_mask
    dtype = np.result_type(A, *B)
    field = np.zeros((d, d, M, basis.n_max + 2), dtype)
    root = np.sqrt(np.arange(1, basis.n_max + 1))
    # a huge alpha or omega overflows entries to inf silently; the ground solvers refuse them
    with np.errstate(over="ignore", invalid="ignore"):
        fock_diag = occ @ grid.omega  # the product fock.dgamma makes
        for j, b in enumerate(B):
            coeff = grid.channel(j) * np.sqrt(grid.weights)
            live = coeff != 0  # the modes fock.field_operator keeps
            # scipy divides a sparse matrix by sqrt(2) as a product with 1 / sqrt(2)
            phi = coeff[live, None] * root * (1.0 / math.sqrt(2.0))
            ab = alpha * b
            for a, c in zip(*np.nonzero(ab)):
                field[a, c, live, 1:-1] += ab[a, c] * phi
    live = field != 0

    def diagonal(b):
        """The matter rows a with an A_ab or a = b, and their entries at (b, t)."""
        rows = np.flatnonzero((A[:, b] != 0) | (np.arange(d) == b))
        values = A[rows, b, None] + np.zeros(nf)
        with np.errstate(over="ignore"):
            values[rows == b] += fock_diag
        return rows, values

    lengths = np.zeros((d, nf), dtype=np.int64)
    for b in range(d):
        rows, values = diagonal(b)
        lengths[rows] += values != 0
    per_mode = live.sum(axis=1, dtype=np.int32)  # matter columns b with an entry, by (a, i, n)
    for i in np.flatnonzero(per_mode.any(axis=(0, 2))):
        n = np.ascontiguousarray(occ[:, i])  # gathers run faster on a contiguous index
        lengths += np.take(per_mode[:, i], n, axis=1)
        lengths += np.take(per_mode[:, i, 1:], n, axis=1) * inner
    lengths = lengths.ravel()
    nnz = int(lengths.sum())
    split = LinOp.splits(sectors, nnz)
    groups = sectors if split else [np.arange(d * nf)]
    index = np.int32 if nnz < 2**31 else np.int64  # as scipy picks
    # each group's rows and columns numbered within it; free: each row's next free slot
    local, free = np.empty(d * nf, dtype=index), np.empty(d * nf, dtype=np.int64)
    indptrs, start = [], 0
    for idx in groups:
        local[idx] = np.arange(len(idx))
        indptr = np.zeros(len(idx) + 1, dtype=index)
        np.cumsum(lengths[idx], out=indptr[1:])
        free[idx] = start + indptr[:-1]
        indptrs.append(indptr)
        start += int(indptr[-1])
    del lengths
    data, indices = np.empty(nnz, dtype), np.empty(nnz, dtype=index)

    def put(slots, cols, values):
        data[slots] = values
        indices[slots] = cols

    def append_diagonal(b, cols):  # (a, t) -> (b, t), for every matter row a at once
        rows, values = diagonal(b)
        a, t = np.nonzero(values)
        values, rows = values[a, t], rows[a] * nf + t
        put(free[rows], cols[t], values)
        free[rows] += 1

    def write(b):
        """Block column b of every row: the entries (a, t) -> (b, t - e_i), then (b, t),
        then (b, t + e_i)."""
        cols = local[b * nf:(b + 1) * nf]  # column (b, t), numbered within its group
        coupled = np.flatnonzero(live[:, b].any(axis=(1, 2)))
        # the entries to t - e_i take the first slots of the block in row (a, t),
        # filled back from their end as the modes ascend; the others are appended
        below = {}
        for a in coupled:
            first = free[a * nf:(a + 1) * nf]
            below[a] = first + sum(np.take(live[a, b, i], occ[:, i]) for i in range(M))
            first[:] = below[a]
        append_diagonal(b, cols)
        for i, step in basis.rank_steps() if len(coupled) else ():
            n = np.ascontiguousarray(occ[:, i])  # gathers run faster on a contiguous index
            for a in coupled:
                t = np.flatnonzero(np.take(live[a, b, i], n))
                lowered, values = t - step[t], np.take(field[a, b, i], n[t])
                slots = below[a][t] - 1
                below[a][t] = slots
                put(slots, cols[lowered], values)  # (a, t) -> (b, t - e_i)
                first = free[a * nf:(a + 1) * nf]
                slots = first[lowered]
                first[lowered] = slots + 1
                put(slots, cols[t], values)  # (a, t - e_i) -> (b, t)

    for b in range(d):
        write(b)
    blocks, lo = [], 0
    for idx, indptr in zip(groups, indptrs):
        hi = lo + int(indptr[-1])
        blocks.append(sp.csr_matrix((data[lo:hi], indices[lo:hi], indptr),
                                    shape=(len(idx), len(idx))))
        lo = hi
    return LinOp.direct_sum(blocks, sectors) if split else LinOp(blocks[0], sectors)


def matter_parity(A, B) -> np.ndarray | None:
    """Signs u in {+1, -1}^d with u_a u_b = +1 wherever A_ab != 0 and -1 wherever some B_j,ab != 0.

    Then U A U = A and U B_j U = -B_j for U = diag(u).  This two-colours the
    matter indices: the lowest index of each connected set of them takes +1.
    Returns an int array, or None when no such u exists (a nonzero diagonal
    entry of some B_j, a pair coupled by both A and some B_j, or an odd
    cycle of sign flips).
    """
    A = np.asarray(A)
    same = A != 0
    flip = np.zeros_like(same)
    for b in B:
        flip |= np.asarray(b) != 0
    if np.any(same & flip):
        return None
    u = np.zeros(len(A), dtype=int)
    for start in range(len(A)):
        if u[start]:
            continue
        u[start], todo = 1, [start]
        while todo:
            a = todo.pop()
            for b in np.flatnonzero(same[a] | flip[a]):
                sign = -u[a] if flip[a, b] else u[a]
                if not u[b]:
                    u[b] = sign
                    todo.append(b)
                elif u[b] != sign:
                    return None
    return u


def t_operator(model: GsbModel, i: int) -> np.ndarray:
    """Matter factor t of the commutant density T(k_i) = t (x) 1.

    t = (sum_j lambda_j(k_i) B_j) / sqrt(2) is a d x d matrix, which
    `fock.apply_matter` applies to composite vectors.  T(k_i) satisfies
    [1 (x) a_i, H_I] = sqrt(w_i) T(k_i) exactly on states with total quanta
    <= n_max - 1; independent of the coupling constant alpha.
    """
    if not 0 <= i < model.grid.n_modes:
        raise ValueError(f"mode index {i} out of range")
    return sum(
        model.grid.channel(j)[i] * b for j, b in enumerate(model.B)
    ) / math.sqrt(2.0)


@dataclass(frozen=True)
class VanHoveValues:
    """Closed-form ground-state data of the scalar-matter (van Hove) model."""

    E_exact: float
    N_exact: float
    a_expectation: np.ndarray


def van_hove_oracle(grid: ModeSet, alpha: float) -> VanHoveValues:
    """Exact ground-state values for d = 1, B = [1]: coherent displacement.

    Completing the square in (a, a*) displaces each mode by
    c_i = -alpha lambda_i sqrt(w_i) / (sqrt(2) omega_i), giving
    E = -alpha^2 sum_i lambda_i^2 w_i / (2 omega_i),
    <N> = alpha^2 sum_i lambda_i^2 w_i / (2 omega_i^2),
    <a_i> = c_i on the ground state.
    """
    lam = grid.channel(0)
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

