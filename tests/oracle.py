"""Independent dense reference implementation used to cross-check the package.

Everything here is built the slow, obvious way: occupation tuples from
itertools, operators as dense numpy matrices assembled entry by entry,
ground states from numpy.linalg.eigh.  No code is shared with the package
beyond numpy itself.
"""

import itertools
import math

import numpy as np


def dense_basis(n_modes, n_max):
    """All occupation tuples with sum <= n_max, graded then descending lex."""
    tuples = [
        t for t in itertools.product(range(n_max + 1), repeat=n_modes)
        if sum(t) <= n_max
    ]
    tuples.sort(key=lambda t: (sum(t), tuple(-x for x in t)))
    return tuples


def dense_annihilator(i, states):
    """a_i as a dense matrix: a_i |n> = sqrt(n_i) |n - e_i>."""
    index = {t: k for k, t in enumerate(states)}
    dim = len(states)
    mat = np.zeros((dim, dim))
    for col, t in enumerate(states):
        if t[i] == 0:
            continue
        lowered = list(t)
        lowered[i] -= 1
        mat[index[tuple(lowered)], col] = math.sqrt(t[i])
    return mat


def graded_states(n_modes, n_max):
    """dense_basis by recursive compositions, for sizes itertools.product cannot reach."""
    def compositions(total, m):
        if m == 1:
            yield (total,)
            return
        for head in range(total, -1, -1):
            for rest in compositions(total - head, m - 1):
                yield (head,) + rest

    return [t for g in range(n_max + 1) for t in compositions(g, n_modes)]


def loop_annihilator(i, states):
    """a_i as a scipy CSR matrix, one state at a time through a tuple index."""
    import scipy.sparse as sp

    index = {t: k for k, t in enumerate(states)}
    rows, cols, vals = [], [], []
    for col, t in enumerate(states):
        if t[i] == 0:
            continue
        rows.append(index[t[:i] + (t[i] - 1,) + t[i + 1:]])
        cols.append(col)
        vals.append(math.sqrt(t[i]))
    dim = len(states)
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=float)


def dense_creator(i, states):
    return dense_annihilator(i, states).T


def dense_dgamma(g, states):
    return np.diag([sum(gi * ni for gi, ni in zip(g, t)) for t in states])


def dense_smeared_annihilator(f, weights, states):
    mats = [dense_annihilator(i, states) for i in range(len(f))]
    out = np.zeros((len(states), len(states)), dtype=complex)
    for i, m in enumerate(mats):
        out += np.conj(f[i]) * math.sqrt(weights[i]) * m
    return out


def dense_field(lam, weights, states):
    a = dense_smeared_annihilator(lam, weights, states)
    return (a + a.conj().T) / math.sqrt(2)


def dense_hamiltonian(A, B_list, omega, lam_columns, weights, alpha, states):
    """Full dense H = A x 1 + 1 x dGamma(omega) + alpha sum_j B_j x phi(lam_j)."""
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    nf = len(states)
    H = np.kron(A, np.eye(nf)) + np.kron(np.eye(d), dense_dgamma(omega, states))
    for Bj, lam in zip(B_list, lam_columns):
        H = H + alpha * np.kron(np.asarray(Bj, dtype=float),
                                dense_field(lam, weights, states))
    return H


def kron_hamiltonian(A, B_list, omega, lam_columns, weights, alpha, states):
    """H as scipy CSR matrices summed in the formula's order: the Kronecker-sum assembly.

    H = 0 + A (x) 1 + 1 (x) dGamma(omega) + sum_j (alpha B_j) (x) phi_j, each
    term a csr matrix, phi_j = (a + a^T) / sqrt(2) with a = sum_i
    lam_ji sqrt(w_i) a_i over the modes with a nonzero coefficient.  Each
    addition sums coinciding entries in that order and drops exact zeros,
    so the CSR arrays of this matrix are, bit for bit, those of the
    package's H.  The grade-ordered `states` give the Fock index.
    """
    import scipy.sparse as sp

    A = np.asarray(A)
    d, nf = len(A), len(states)
    occupations = np.array(states, dtype=np.int64).reshape(nf, -1)
    H = sp.csr_matrix((d * nf, d * nf), dtype=np.result_type(A, *B_list))
    H = H + sp.kron(sp.csr_matrix(A), sp.identity(nf, format="csr"), format="csr")
    H = H + sp.kron(sp.identity(d, format="csr"),
                    sp.diags(occupations @ np.asarray(omega, dtype=float), format="csr"),
                    format="csr")
    with np.errstate(over="ignore", invalid="ignore"):
        for Bj, lam in zip(B_list, lam_columns):
            coeff = np.asarray(lam, dtype=float) * np.sqrt(weights)
            a = sp.csr_matrix((nf, nf))
            for i in np.flatnonzero(coeff):
                a = a + coeff[i] * loop_annihilator(i, states)
            H = H + sp.kron(sp.csr_matrix(alpha * np.asarray(Bj)), (a + a.T) / math.sqrt(2.0),
                            format="csr")
    return H


def dense_ground_state(H):
    vals, vecs = np.linalg.eigh(H)
    return vals[0], vecs[:, 0]


def coherent_closed_forms(lam, weights, omega, alpha):
    """Exactly solvable single-channel scalar model (completing the square).

    Returns (E, N, displacements z_i) for
    H = dGamma(omega) + alpha * phi(lam): z_i = -alpha lam_i sqrt(w_i) /
    (sqrt(2) omega_i), E = -alpha^2/2 sum lam_i^2 w_i / omega_i,
    N = sum |z_i|^2.
    """
    lam = np.asarray(lam, dtype=float)
    w = np.asarray(weights, dtype=float)
    om = np.asarray(omega, dtype=float)
    z = -alpha * lam * np.sqrt(w) / (np.sqrt(2.0) * om)
    E = -(alpha**2) / 2.0 * float(np.sum(lam**2 * w / om))
    N = float(np.sum(z**2))
    return E, N, z


def dense_falling_factorial(psi, states, n):
    """<psi, prod_{j=1..n} (N - j + 1)_+ psi> evaluated per basis state."""
    totals = np.array([sum(t) for t in states])
    weights = np.ones(len(states))
    for j in range(1, n + 1):
        weights = weights * np.maximum(totals - j + 1, 0)
    d = len(psi) // len(states)
    acc = 0.0
    for m in range(d):
        block = psi[m * len(states):(m + 1) * len(states)]
        acc += float(np.sum(weights * np.abs(block) ** 2))
    return acc


def dense_chain_norm_sq(psi, states, mode_tuple, d_matter=1):
    """||a_{i_1} ... a_{i_n} psi||^2 using dense matrices on each block."""
    nf = len(states)
    op = np.eye(nf)
    for i in mode_tuple:
        op = dense_annihilator(i, states) @ op
    acc = 0.0
    for m in range(d_matter):
        block = psi[m * nf:(m + 1) * nf]
        acc += float(np.linalg.norm(op @ block) ** 2)
    return acc


def midpoint_grid(nu, sigma, Lambda, n_shells):
    """Reference uniform shell grid with surface-area weights."""
    surface = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[nu]
    dr = (Lambda - sigma) / n_shells
    pts = np.array([sigma + (i + 0.5) * dr for i in range(n_shells)])
    wts = surface * pts ** (nu - 1) * dr
    return pts, wts


def reference_pcg(H, E, s, v, cg_tol, cg_max):
    """(H - E + s)^-1 v by Jacobi-preconditioned CG, one new array per update.

    H is a scipy sparse matrix or a dense array.  Same start (u = 0) and
    stop rule as the package kernel, ||(H - E + s) u - v|| <= cg_tol ||v||,
    in the dtype of H and v combined.  Returns (u, iterations, relres), or
    raises RuntimeError when cg_max iterations do not reach the tolerance.
    """
    v = np.asarray(v, dtype=np.result_type(H.dtype, v, float))
    x = np.zeros_like(v)
    bnorm = float(np.linalg.norm(v))
    shift = s - E
    inv_pre = 1.0 / np.maximum(np.real(H.diagonal()) + shift, 0.5 * s)

    def apply_shifted(y):
        return H @ y + shift * y

    r = v.copy()
    z = r * inv_pre
    p = z.copy()
    rz = np.real(np.vdot(r, z))
    rnorm = float(np.linalg.norm(r))
    it = 0
    while rnorm > cg_tol * bnorm:
        if it >= cg_max:
            raise RuntimeError("reference CG ran out of iterations")
        hp = apply_shifted(p)
        a = rz / np.real(np.vdot(p, hp))
        x = x + a * p
        r = r - a * hp
        rnorm = float(np.linalg.norm(r))
        z = r * inv_pre
        rz_new = np.real(np.vdot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
    return x, it, rnorm / bnorm
