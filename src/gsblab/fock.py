"""Truncated bosonic Fock space over M discrete modes.

The space is spanned by occupation tuples (n_1, ..., n_M) with
sum n_i <= n_max, ordered by grade (total quanta) and then lexicographically
descending within a grade, so index 0 is the vacuum and the ordering is
bit-stable across runs.

Truncation convention: every operator is P * Op * P with P the projector
onto the truncated space.  Annihilators map grade n to n - 1 and are exact;
creators therefore kill the top grade, and canonical commutation relations
hold exactly on states supported below the top grade.  The weight a state
carries on the top grade (w_top) is the sole source of identity error and is
reported alongside every check.

Every Fock operator is a scipy CSR matrix and every vector a numpy array;
`LinOp` wraps only a model's assembled H.  A composite vector over
matter (x) Fock is matter major, entry (m, t) at m * fock_dim + t;
`apply_fock` and `apply_matter` apply 1 (x) X and T (x) 1 to it by
reshaping it to (d_matter, fock_dim).  `LinOp.apply` is the plain `mat @ v`;
what runs in parallel is whole solves, through `spectral.parallel_map`.
"""

from __future__ import annotations

import math
import os
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .modes import ModeSet

__all__ = [
    "FockBasis",
    "LinOp",
    "BasisSizeError",
    "check_size",
    "check_basis_size",
    "enumerate_basis",
    "annihilator",
    "creator",
    "smearing_coefficients",
    "smeared_annihilator",
    "dgamma",
    "field_operator",
    "apply_fock",
    "apply_matter",
]

DEFAULT_MAX_STATES = 200_000
MAX_DIM_ENV = "GSB_MAX_DIM"


class BasisSizeError(ValueError):
    """Raised when a requested basis would exceed the configured size guard."""


class FockBasis:
    """Graded occupation-number basis with a closed-form tuple -> index rank.

    `occupations` holds one row per state in basis order, and `rank` maps
    occupation rows back to their indices.  Annihilators are built once per
    mode and kept (`lowering`), and so are their grade blocks (`lowering_block`).
    """

    def __init__(self, n_modes: int, n_max: int, occupations):
        """occupations: every tuple with total <= n_max, one per row, in any order."""
        self.n_modes = n_modes
        self.n_max = n_max
        # _rank_table[k, s] = C(s + M - k - 1, M - k): tuples over the M - k
        # modes k..M-1 with total below s.  Each entry is below the basis
        # dimension, so int64 holds it for any basis that fits in memory.
        self._rank_table = np.array(
            [[math.comb(s + n_modes - k - 1, n_modes - k) for s in range(n_max + 1)]
             for k in range(n_modes)],
            dtype=np.int64,
        )
        occ = np.asarray(occupations, dtype=np.int64).reshape(-1, n_modes)
        self.occupations = np.empty_like(occ)
        self.occupations[self.rank(occ)] = occ
        self.totals = self.occupations.sum(axis=1)
        self.top_mask = self.totals == n_max
        self.interior_mask = self.totals <= n_max - 1
        self._lowering: dict = {}
        self._blocks: dict = {}

    def rank(self, occupations) -> np.ndarray:
        """Basis index of each occupation row (combinatorial number system).

        The states before n are those of lower grade, plus, for each k >= 1,
        those that agree with n on modes < k - 1 and put more quanta on mode
        k - 1, hence fewer on modes >= k.  With suffix sums
        s_k = n_k + ... + n_{M-1} that count is sum_k C(s_k + M - k - 1, M - k).
        """
        occ = np.asarray(occupations, dtype=np.int64)
        suffix = np.cumsum(occ[:, ::-1], axis=1)[:, ::-1]
        return self._rank_table[np.arange(self.n_modes), suffix].sum(axis=1)

    def lowering(self, i: int) -> sp.csr_matrix:
        """a_i on this basis, built by `annihilator` on first use and kept."""
        if i not in self._lowering:
            self._lowering[i] = annihilator(i, self)
        return self._lowering[i]

    def lowering_block(self, i: int, g: int) -> sp.csr_matrix:
        """a_i from grades <= g to grades <= g - 1, sliced from `lowering(i)` and kept.

        The basis is grade ordered and a_i lowers the grade by one, so the
        leading (end(g - 1), end(g)) block, with end(g) = C(M + g, M) the
        number of states of grade <= g, loses no entry of those columns: its
        rows hold every one of them, and no other.
        """
        if not 0 <= g <= self.n_max:
            raise ValueError(f"grade must lie in [0, n_max={self.n_max}], got {g}")
        if (i, g) not in self._blocks:
            rows, cols = (math.comb(self.n_modes + h, self.n_modes) for h in (g - 1, g))
            self._blocks[i, g] = self.lowering(i)[:rows, :cols]
        return self._blocks[i, g]

    def diagonal_form(self, psi, f) -> float:
        """Re <psi, (1 (x) diag f) psi> for a composite vector psi of any matter dimension.

        f holds one entry per basis state (bool, int or float).  psi is
        matter major, so its reshape to (-1, len(self)) holds one Fock row
        per matter component, and f weights each row entrywise.
        """
        V = np.reshape(psi, (-1, len(self)))
        return float(np.real(np.vdot(V, f * V)))

    def w_top(self, psi) -> float:
        """Probability weight of a composite vector on the top grade: the truncation indicator."""
        return self.diagonal_form(psi, self.top_mask)

    def __len__(self) -> int:
        return len(self.occupations)

    def __repr__(self) -> str:
        return f"FockBasis(n_modes={self.n_modes}, n_max={self.n_max}, dim={len(self)})"


def check_size(count: int, what: str) -> int:
    """count, refused above the size guard: GSB_MAX_DIM when set, else DEFAULT_MAX_STATES
    (200000).  A count above it raises BasisSizeError, which names `what`, and a
    GSB_MAX_DIM that is not an integer ValueError."""
    env = os.environ.get(MAX_DIM_ENV)
    try:
        guard = DEFAULT_MAX_STATES if env is None else int(env)
    except ValueError:
        raise ValueError(f"{MAX_DIM_ENV} must be an integer, got {env!r}") from None
    if count > guard:
        raise BasisSizeError(f"{what} exceeds the guard of {guard}; "
                             f"set {MAX_DIM_ENV} to raise it")
    return count


def check_basis_size(n_modes: int, n_max: int) -> int:
    """The state count C(n_modes + n_max, n_modes) of a basis, refused above the size guard
    (check_size)."""
    count = math.comb(n_modes + n_max, n_modes)
    return check_size(count, f"basis with {count} states")


def enumerate_basis(n_modes: int, n_max: int) -> FockBasis:
    """Enumerate occupation tuples with total quanta <= n_max over n_modes modes.

    The count is C(n_modes + n_max, n_modes); check_basis_size refuses one
    that would not fit in memory.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    count = check_basis_size(n_modes, n_max)
    # grow the tuples one mode at a time; FockBasis puts them in basis order
    occ = np.zeros((1, 0), dtype=np.int64)
    for _ in range(n_modes):
        choices = n_max + 1 - occ.sum(axis=1)
        first = np.repeat(np.cumsum(choices) - choices, choices)
        occ = np.column_stack([np.repeat(occ, choices, axis=0),
                               np.arange(choices.sum()) - first])
    basis = FockBasis(n_modes, n_max, occ)
    assert len(basis) == count
    return basis


# ---------------------------------------------------------------------------
# Linear operators


class LinOp:
    """A model's assembled H: a square scipy CSR matrix `mat` with a hermiticity flag.

    The solvers read `hermitian`, the cached `diagonal` and `sectors`: None,
    or two index arrays that partition the basis with no entry of `mat`
    between them (the matter parity sectors `model.assemble` finds).  `mat`
    is never modified after construction.  The solvers apply H to vectors
    only through `apply`, so a caller can replace it on one instance (to
    count applications, for example); the solves apply the blocks of
    spectral.sector_blocks, which are that instance for an H that does not
    split and sector LinOps of their own for one that does.  `apply`
    reads `mat` and nothing else, so threads share one LinOp.
    """

    def __init__(self, mat, hermitian: bool = False, sectors=None):
        self.mat = sp.csr_matrix(mat)
        if self.mat.shape[0] != self.mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {self.mat.shape}")
        self.hermitian = bool(hermitian)
        self.sectors = sectors

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.mat.dtype

    def apply(self, v: np.ndarray) -> np.ndarray:
        """H v as a new array: `mat @ v`, which refuses a v of the wrong length."""
        return self.mat @ v

    @cached_property
    def diagonal(self) -> np.ndarray:
        """Main diagonal of `mat`, computed on first use and kept."""
        return self.mat.diagonal()


# ---------------------------------------------------------------------------
# Second-quantized operators on the Fock factor


def annihilator(i: int, basis: FockBasis) -> sp.csr_matrix:
    """Mode annihilator a_i: |..., n_i, ...> -> sqrt(n_i) |..., n_i - 1, ...>.

    Builds a new matrix; `basis.lowering(i)` returns the copy kept on the
    basis, which every operator below reuses.
    """
    if not 0 <= i < basis.n_modes:
        raise ValueError(f"mode index {i} out of range for {basis.n_modes} modes")
    occ = basis.occupations
    cols = np.flatnonzero(occ[:, i])
    lowered = occ[cols]
    lowered[:, i] -= 1
    n = len(basis)
    return sp.csr_matrix(
        (np.sqrt(occ[cols, i]), (basis.rank(lowered), cols)), shape=(n, n), dtype=float
    )


def creator(i: int, basis: FockBasis) -> sp.csr_matrix:
    """Truncated creator P a_i* P: |..., n_i, ...> -> sqrt(n_i + 1) |..., n_i + 1, ...>
    below the top grade, zero on it.  Built from the occupation table, not from
    the annihilator, so the CCR suite's adjoint pairing compares two constructions.
    """
    if not 0 <= i < basis.n_modes:
        raise ValueError(f"mode index {i} out of range for {basis.n_modes} modes")
    cols = np.flatnonzero(basis.interior_mask)
    raised = basis.occupations[cols]
    raised[:, i] += 1
    n = len(basis)
    return sp.csr_matrix(
        (np.sqrt(raised[:, i]), (basis.rank(raised), cols)), shape=(n, n), dtype=float
    )


def smearing_coefficients(f, grid: ModeSet) -> np.ndarray:
    """The coefficients conj(f_i) sqrt(w_i) of the a_i in a(f).

    f is a complex column of function values on the grid points; the
    sqrt(w_i) factor is the cell-normalization convention of the mode set.
    """
    f = np.asarray(f, dtype=complex)
    if f.shape != (grid.n_modes,):
        raise ValueError("column length must match grid and basis mode count")
    return np.conj(f) * np.sqrt(grid.weights)


def smeared_annihilator(f, grid: ModeSet, basis: FockBasis) -> sp.csr_matrix:
    """a(f) = sum_i conj(f_i) sqrt(w_i) a_i, anti-linear in f (see smearing_coefficients)."""
    if grid.n_modes != basis.n_modes:
        raise ValueError("column length must match grid and basis mode count")
    return _lowering_sum(smearing_coefficients(f, grid), basis)


def _lowering_sum(coeff: np.ndarray, basis: FockBasis) -> sp.csr_matrix:
    """sum_i coeff_i a_i in the dtype of coeff, from the lowerings kept on the basis."""
    n = len(basis)
    modes = np.flatnonzero(coeff)
    if not len(modes):
        return sp.csr_matrix((n, n), dtype=coeff.dtype)
    # a_i sends t to t - e_i, so no two modes share an entry: concatenate the scaled a_i
    lowerings = [basis.lowering(i) for i in modes]
    rows = np.concatenate([np.repeat(np.arange(n), np.diff(a.indptr)) for a in lowerings])
    cols = np.concatenate([a.indices for a in lowerings])
    data = np.concatenate([coeff[i] * a.data for i, a in zip(modes, lowerings)])
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def dgamma(g, basis: FockBasis) -> sp.csr_matrix:
    """Second quantization of a multiplication operator: diagonal sum_i g_i n_i."""
    g = np.asarray(g, dtype=float)
    if len(g) != basis.n_modes:
        raise ValueError("column length must match basis mode count")
    return sp.diags(basis.occupations @ g, format="csr")


def field_operator(lam, grid: ModeSet, basis: FockBasis) -> sp.csr_matrix:
    """Smeared field (a*(lam) + a(lam)) / sqrt(2) for a real column lam, in real arithmetic.

    a(lam) has the real coefficients lam_i sqrt(w_i), so a*(lam) is its transpose.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (grid.n_modes,) or grid.n_modes != basis.n_modes:
        raise ValueError("column length must match grid and basis mode count")
    a = _lowering_sum(lam * np.sqrt(grid.weights), basis)
    return (a + a.T) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Composite-space helpers


def apply_fock(X, v: np.ndarray) -> np.ndarray:
    """(1 (x) X) v: the sparse Fock matrix X on each matter row of v.

    v is matter major, so v.reshape(d_matter, fock_dim) holds one Fock row
    per matter component.
    """
    return np.concatenate([X @ row for row in np.reshape(v, (-1, X.shape[0]))])


def apply_matter(T, v: np.ndarray) -> np.ndarray:
    """(T (x) 1) v: the dense d x d matter matrix T mixing the matter rows of v."""
    T = np.asarray(T)
    return (T @ np.reshape(v, (len(T), -1))).reshape(-1)
