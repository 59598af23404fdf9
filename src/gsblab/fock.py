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
reshaping it to (d_matter, fock_dim).

`LinOp.apply` multiplies H in row blocks on a thread pool, one block per
usable core, and gives the result of `mat @ v` bit for bit.  It stays
serial on one core and below MIN_BLOCK_NNZ stored entries per block; there
is no setting for it.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
from functools import cache, cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .modes import ModeSet

__all__ = [
    "FockBasis",
    "LinOp",
    "BasisSizeError",
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
    "write_matrix_market",
]

DEFAULT_MAX_STATES = 200_000
MAX_DIM_ENV = "GSB_MAX_DIM"
# Fewest stored entries per row block of a parallel `LinOp.apply`: below
# about this many, handing a block to a worker thread costs more than it saves.
MIN_BLOCK_NNZ = 50_000


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
        """a_i from grades <= g to grades <= g - 1, kept like `lowering`.

        The basis is grade ordered and a_i lowers the grade by one, so this
        is exactly the leading (end(g - 1), end(g)) block of `lowering(i)`,
        with end(g) = C(M + g, M) the number of states of grade <= g: its
        rows hold every entry of those columns, and no other.
        """
        if not 0 <= g <= self.n_max:
            raise ValueError(f"grade must lie in [0, n_max={self.n_max}], got {g}")
        if (i, g) not in self._blocks:
            a = self.lowering(i)
            rows = math.comb(self.n_modes + g - 1, self.n_modes)
            stop = a.indptr[rows]
            self._blocks[i, g] = sp.csr_matrix(
                (a.data[:stop], a.indices[:stop], a.indptr[:rows + 1]),
                shape=(rows, math.comb(self.n_modes + g, self.n_modes)))
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


def check_basis_size(n_modes: int, n_max: int) -> int:
    """The state count C(n_modes + n_max, n_modes) of a basis, refused above the guard.

    The guard is GSB_MAX_DIM when set, else DEFAULT_MAX_STATES (200000); a
    count above it raises BasisSizeError, and a GSB_MAX_DIM that is not an
    integer ValueError.
    """
    env = os.environ.get(MAX_DIM_ENV)
    try:
        guard = DEFAULT_MAX_STATES if env is None else int(env)
    except ValueError:
        raise ValueError(f"{MAX_DIM_ENV} must be an integer, got {env!r}") from None
    count = math.comb(n_modes + n_max, n_modes)
    if count > guard:
        raise BasisSizeError(
            f"basis with {count} states exceeds the guard of {guard}; "
            f"set {MAX_DIM_ENV} to raise it"
        )
    return count


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


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@cache
def _pool() -> concurrent.futures.ThreadPoolExecutor:
    """The workers of a blocked `LinOp.apply`: one per usable core but the caller's.

    concurrent.futures loads its thread module on this first use, so a run
    with no blocked product does not pay for it.
    """
    return concurrent.futures.ThreadPoolExecutor(max_workers=max(1, _usable_cores() - 1))


def _matvec_into(block: tuple, v: np.ndarray, out: np.ndarray) -> None:
    """Add a row block (lo, hi, indptr, indices, data) of H times v to out[lo:hi].

    csr_matvec is the kernel of `mat @ v`: it sums each row in stored order
    onto its out entry, so a zeroed out gets the rows of `mat @ v` exactly.
    It releases the GIL while it runs.
    """
    lo, hi, indptr, indices, data = block
    _sparsetools.csr_matvec(hi - lo, len(v), indptr, indices, data, v, out[lo:hi])


class LinOp:
    """A model's assembled H: a square scipy CSR matrix `mat` with a hermiticity flag.

    The solvers read `hermitian` and the cached `diagonal`.  `mat` is never
    modified after construction.  The solvers apply H to vectors only
    through `apply`, so a caller can replace it on one instance (to count
    applications, for example).

    `apply` multiplies row blocks of about equal stored entries in
    parallel, one per usable core and at most one per MIN_BLOCK_NNZ
    entries: the caller takes the first, a module-wide thread pool the
    rest.  The result is bitwise that of `mat @ v`, which one block (one
    core, or a small H) runs without a thread.
    """

    def __init__(self, mat, hermitian: bool = False):
        self.mat = sp.csr_matrix(mat)
        if self.mat.shape[0] != self.mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {self.mat.shape}")
        self.hermitian = bool(hermitian)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.mat.dtype

    @cached_property
    def blocks(self) -> list:
        """(lo, hi, indptr, indices, data) of each row block lo..hi-1 `apply` multiplies.

        indices and data are views of `mat`'s (a csr_matrix made from them
        would copy a slice under half its base).
        """
        mat = self.mat
        n = max(1, min(_usable_cores(), mat.nnz // MIN_BLOCK_NNZ))
        # the first row at which 1/n, 2/n, ... of the stored entries lie above
        cuts = np.searchsorted(mat.indptr, np.arange(1, n) * (mat.nnz / n))
        rows = np.unique(np.concatenate(([0], cuts, [self.dim]))).tolist()
        blocks = []
        for lo, hi in zip(rows, rows[1:]):
            a, b = mat.indptr[lo], mat.indptr[hi]
            blocks.append((lo, hi, mat.indptr[lo:hi + 1] - a,
                           mat.indices[a:b], mat.data[a:b]))
        return blocks

    def apply(self, v: np.ndarray) -> np.ndarray:
        """H v as a new array, bitwise equal to `mat @ v`.

        Any v but one vector of length dim goes to `mat @ v`, which checks
        its shape (csr_matvec does not).  A block's error is raised here.
        """
        v = np.asarray(v)
        blocks = self.blocks
        if len(blocks) < 2 or v.shape != (self.dim,):
            return self.mat @ v
        out = np.zeros(self.dim, dtype=np.result_type(self.dtype, v))
        pool = _pool()
        futures = [pool.submit(_matvec_into, block, v, out) for block in blocks[1:]]
        _matvec_into(blocks[0], v, out)
        for future in futures:
            future.result()
        return out

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
    coeff = smearing_coefficients(f, grid)
    n = len(basis)
    modes = np.flatnonzero(coeff)
    if not len(modes):
        return sp.csr_matrix((n, n), dtype=complex)
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
    """Smeared field (a*(lam) + a(lam)) / sqrt(2) for a real column lam."""
    lam = np.asarray(lam, dtype=float)
    a = smeared_annihilator(lam, grid, basis)
    return ((a + a.conj().T) / math.sqrt(2.0)).real


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


def write_matrix_market(op: LinOp, path) -> None:
    """Dump an operator in MatrixMarket coordinate format."""
    from scipy.io import mmwrite

    mmwrite(str(path), sp.coo_matrix(op.mat))
