"""Identity checks and infrared sweeps on solved ground states.

Every check compares two independently computed values (or a vector against
its resolvent reconstruction) and emits a RegularityReport carrying both
sides, the discrepancy, the truncation weight w_top of the state, and the
tolerance that was applied.  Each check kind of the CLI is one call here.

Pass rule: a check has an error err (|lhs - rhs| by default) on a scale
(max(|lhs|, |rhs|) by default), reports rel_err = err / scale and passes
when rel_err <= tol or err <= tol * max(scale, 1).  Pull-through takes err
= ||difference|| on the larger of the two sides' norms; the projection
bound takes _bound_violation(lhs, rhs) on scale 1, the same test every row
of an infrared sweep must pass; the commutation and relative-bound
deviations scale 1 too, so their tolerance is absolute.  A sweep passes by
its verdict and that bound test.

The pull-through, moment and higher-moment checks read one memoized solver
of resolvent chains over mode multisets, _chains; its level 1 is the
pull-through vector (H - E + omega_i)^-1 T(k_i) phi_g.  The solves of one
level are independent and run on up to one thread per usable core, with
results bitwise those of the serial loop.

Tolerance ladder: identities that are exact on the truncated space (the
finite-mode decompositions, interior commutation relations) are held to
1e-12 * scale; identities mediated by resolvent solves inherit truncation
and solver error and are held to max(1e-7, 10 sqrt(w_top) + 100 cg_tol),
capped at 0.5: sides of size 1 or more must agree within a factor 2.

A finite truncation always has a ground state, so the absence-type results
are verified through their computable content: the proof inequality at
fixed cutoff, and the divergence of the number expectation as the infrared
cutoff is swept to zero.  ir_sweep returns a sweep's one report, which
expects divergence only where the projection bound forces it: a singular
coupling and a bound above round-off on every rung.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from itertools import combinations, combinations_with_replacement

import numpy as np
import scipy.sparse as sp

from . import fock, model as model_mod, spectral
from .fock import FockBasis, apply_fock, apply_matter
from .model import GroundState, GsbModel, t_operator
from .modes import ModeSet, l2_criteria
from .spectral import SolverConfig, resolvent_apply

__all__ = [
    "RegularityReport",
    "resolvent_tol",
    "pullthrough_check",
    "moment_identity",
    "absence_lower_bound",
    "check_higher_order",
    "higher_moment_identity",
    "number_decomposition",
    "factorial_moment_decomposition",
    "appendix_suite",
    "ccr_and_bound_suite",
    "separable_matter",
    "check_sigma_ladder",
    "ir_sweep",
]

EXACT_TOL = 1e-12
RESOLVENT_TOL_FLOOR = 1e-7
# below 1: uncapped, 10 sqrt(w_top) reaches 1 at w_top = 0.01 and a check
# then passes at rel_err = 1, its sides arbitrarily far apart
RESOLVENT_TOL_CAP = 0.5
ABSENCE_TOL = 1e-9
# a sweep's projection bound at or below this share of alpha^2 lam_over_w_norm
# max_j ||B_j||^2 is round-off, and forces no divergence
BOUND_FLOOR = 1e-16
GROUND_RESIDUAL_CAP = 1e-10


def resolvent_tol(w_top: float, cg_tol: float) -> float:
    tol = max(RESOLVENT_TOL_FLOOR, 10.0 * math.sqrt(max(w_top, 0.0)) + 100.0 * cg_tol)
    return min(tol, RESOLVENT_TOL_CAP)


@dataclass
class RegularityReport:
    """Outcome of one identity check, made by _report: a plain record that cli writes.

    lhs and rhs are the two computed values (scalars, or norms for vector
    identities).  rel_err is the check's error err over its scale, and
    passed is rel_err <= tol_used or err <= tol_used * max(scale, 1).  A
    sweep passes instead when its verdict is the expected one (if any) and
    every rung keeps the projection bound; its metadata holds the verdict,
    the expected kind and the rows as plain dicts.
    """

    check_name: str
    lhs: float
    rhs: float
    rel_err: float
    w_top: float
    tol_used: float
    passed: bool
    metadata: dict = dataclass_field(default_factory=dict)


def _report(name, lhs, rhs, w_top, tol, metadata=None, err=None, scale=None,
            passed=None) -> RegularityReport:
    """The report of a check by the pass rule (module docstring), in plain floats.

    err defaults to |lhs - rhs| and scale to max(|lhs|, |rhs|); passed,
    when given, overrides the rule.
    """
    # numpy scalars sneak in through accumulations; plain types keep the
    # JSON and CSV writers format-stable
    lhs, rhs = float(lhs), float(rhs)
    err = abs(lhs - rhs) if err is None else float(err)
    scale = max(abs(lhs), abs(rhs)) if scale is None else float(scale)
    rel_err = err / max(scale, 1e-300)
    if passed is None:
        passed = rel_err <= tol or err <= tol * max(scale, 1.0)
    return RegularityReport(check_name=name, lhs=lhs, rhs=rhs, rel_err=rel_err,
                            w_top=float(w_top), tol_used=float(tol), passed=bool(passed),
                            metadata=metadata or {})


def _require_solved(gs: GroundState) -> None:
    # relative to the same max(1, |E|) scale the eigensolver accepts, so
    # shifting A by a constant leaves the verdict alone
    cap = GROUND_RESIDUAL_CAP * max(1.0, abs(gs.energy))
    if not gs.residual <= cap:
        raise ValueError(
            f"ground-state residual {gs.residual:.3e} exceeds {cap:.3e}; "
            "tighten the eigensolver before running identity checks"
        )


def _chains(m: GsbModel, gs: GroundState, cfg: SolverConfig, multisets) -> dict:
    """{S: (v(S), cg_iterations, cg_relres)} for each multiset S solved, sub-multisets included.

    v(S) = (H - E + sum_{j in S} omega_j)^-1 sum_{j in S} T(k_j) v(S minus one
    copy of j), v(()) = phi_g: one solve per multiset S (a sorted tuple of
    modes), level by level from a memo, aggregates all orderings of its
    chains.  Level 1 is the pull-through vector (H - E + omega_i)^-1 T(k_i) phi_g.
    A level reads only the levels below it, so its solves go through
    spectral.parallel_map.
    """
    t_ops = {j: t_operator(m, j) for j in sorted(set().union(*multisets))}
    memo = {(): (gs.vector, 0, 0.0)}

    def solve(S):
        rhs = np.zeros_like(gs.vector)
        for j in sorted(set(S)):
            k = S.index(j)  # S minus one copy of j, still sorted
            rhs += S.count(j) * apply_matter(t_ops[j], memo[S[:k] + S[k + 1:]][0])
        shift = float(sum(m.grid.omega[j] for j in S))
        return resolvent_apply(m.H, gs.energy, shift, rhs, cfg)

    # the nonempty sub-multisets of the requested ones, level by level
    subs = {sub for S in multisets for k in range(1, len(S) + 1) for sub in combinations(S, k)}
    for n in sorted({len(S) for S in subs}):
        level = sorted(S for S in subs if len(S) == n)
        memo.update(zip(level, spectral.parallel_map(solve, level, m.H.mat.nnz)))
    del memo[()]
    return memo


def _chain_report(name: str, m: GsbModel, gs: GroundState, cfg: SolverConfig, n: int, G,
                  lhs: float) -> RegularityReport:
    """The report of lhs against its order-n chain sum, with resolvent_tol and the solve stats.

    The sum is alpha^2n sum_S (n! / prod_l m_l!) prod_{j in S} G_j w_j
    ||v(S)||^2.  S runs over the size-n multisets of the modes with G_j > 0
    (none when alpha = 0); one with multiplicities (m_1, ...) stands for
    n! / prod m_l! ordered tuples.
    """
    modes = [int(j) for j in np.flatnonzero(G > 0)] if m.alpha != 0.0 else []
    multisets = list(combinations_with_replacement(modes, n))
    chains = _chains(m, gs, cfg, multisets)
    rhs = 0.0
    for S in multisets:
        tuples = math.factorial(n) // math.prod(math.factorial(S.count(j)) for j in set(S))
        weight = float(np.prod([G[j] * m.grid.weights[j] for j in S]))
        rhs += tuples * weight * float(np.linalg.norm(chains[S][0]) ** 2)
    if multisets:  # an empty sum is 0 even where alpha^2n overflows a float
        rhs *= m.alpha ** (2 * n)
    return _report(name, lhs, rhs, gs.w_top, resolvent_tol(gs.w_top, cfg.cg_tol),
                   _solve_stats(chains))


def _solve_stats(chains: dict) -> dict:
    """The solver stats of a check's chain solves: count, CG iterations, worst residual."""
    return {"resolvent_solves": len(chains),
            "cg_iterations": sum(c[1] for c in chains.values()),
            "worst_cg_relres": max((c[2] for c in chains.values()), default=0.0)}


def _dgamma_expectation(m: GsbModel, gs: GroundState, G):
    """(G as floats, <phi_g, (1 (x) dGamma(G)) phi_g>) for a solved gs and a G >= 0."""
    _require_solved(gs)
    G = np.asarray(G, dtype=float)
    if G.shape != (m.grid.n_modes,):
        raise ValueError("column length must match grid and basis mode count")
    if np.any(G < 0):
        raise ValueError("G must be entrywise >= 0")
    return G, m.basis.diagonal_form(gs.vector, m.basis.occupations @ G)


def _bound_violation(value: float, bound: float) -> float:
    """How far value falls below bound, relative to max(|value|, |bound|, 1)."""
    return max(bound - value, 0.0) / max(abs(value), abs(bound), 1.0)


# ---------------------------------------------------------------------------
# Pull-through and moments


def pullthrough_check(m: GsbModel, gs: GroundState, f, cfg: SolverConfig) -> RegularityReport:
    """Resolvent reconstruction of the annihilated ground state.

    Compares (1 (x) a(f)) phi_g against
    -alpha sum_i conj(f_i) w_i (H - E + omega_i)^-1 T(k_i) phi_g.
    Each mode contributes one sqrt(w_i) from the smearing convention and one
    from the discrete commutator [1 (x) a_i, H_I] = sqrt(w_i) T(k_i).
    The report's lhs is the norm of the difference, rhs the norm of the
    reconstruction, and the scale the larger of the two sides' norms.
    """
    _require_solved(gs)
    f = np.asarray(f, dtype=complex)
    phi = gs.vector
    lhs_vec = apply_fock(fock.smeared_annihilator(f, m.grid, m.basis), phi)
    rhs_vec = np.zeros_like(lhs_vec)
    coeff = np.conj(f) * m.grid.weights
    modes = np.flatnonzero(coeff) if m.alpha != 0.0 else []
    chains = _chains(m, gs, cfg, [(int(i),) for i in modes])
    for (i,), (u, _, _) in chains.items():
        rhs_vec -= m.alpha * coeff[i] * u
    diff = float(np.linalg.norm(lhs_vec - rhs_vec))
    rhs_norm = float(np.linalg.norm(rhs_vec))
    lhs_norm = float(np.linalg.norm(lhs_vec))
    return _report("pullthrough", diff, rhs_norm, gs.w_top, resolvent_tol(gs.w_top, cfg.cg_tol),
                   {**_solve_stats(chains), "lhs_norm": lhs_norm},
                   err=diff, scale=max(rhs_norm, lhs_norm))


def moment_identity(m: GsbModel, gs: GroundState, G, cfg: SolverConfig) -> RegularityReport:
    """<phi_g, (1 (x) dGamma(G)) phi_g> against its resolvent form.

    The right-hand side is alpha^2 sum_i G_i w_i ||(H - E + omega_i)^-1
    T(k_i) phi_g||^2, the order-1 chain sum; G must be entrywise nonnegative.
    """
    G, lhs = _dgamma_expectation(m, gs, G)
    return _chain_report("moment_identity", m, gs, cfg, 1, G, lhs)


def absence_lower_bound(m: GsbModel, gs: GroundState, G) -> RegularityReport:
    """Projection lower bound under the number-type moment.

    Checks <phi_g, (1 (x) dGamma(G)) phi_g> >=
    alpha^2 sum_i G_i w_i |<phi_g, T(k_i) phi_g>|^2 / omega_i^2 - tol.
    The bound follows by projecting each resolvent vector onto phi_g; it is
    an equality when every T(k_i) acts as a scalar on the ground state
    (scalar matter), which is the divergence engine of the no-ground-state
    results once the right side is summed against a singular coupling.
    For parity-symmetric models such as the spin boson (a matter involution
    U with U A U* = A and U B_j U* = -B_j), <phi_g, T(k_i) phi_g> = 0, so
    the bound is identically 0 up to round-off and constrains nothing there.
    """
    G, lhs = _dgamma_expectation(m, gs, G)
    phi = gs.vector
    rhs = 0.0
    t_expect = []
    for i in range(m.grid.n_modes):
        t_phi = complex(np.vdot(phi, apply_matter(t_operator(m, i), phi)))
        t_expect.append(t_phi)
        rhs += G[i] * m.grid.weights[i] * abs(t_phi) ** 2 / float(m.grid.omega[i]) ** 2
    rhs *= m.alpha**2
    # a one-sided bound: only a lhs below rhs is an error
    return _report("absence_lower_bound", lhs, rhs, gs.w_top, ABSENCE_TOL,
                   {"t_expectations_real": [t.real for t in t_expect]},
                   err=_bound_violation(lhs, rhs), scale=1.0)


# ---------------------------------------------------------------------------
# Higher factorial moments

HIGHER_MODE_CAPS = {1: 64, 2: 8, 3: 4}


def _check_order_range(n: int, n_max: int) -> None:
    if not 1 <= n <= n_max:
        raise ValueError(f"order must lie in [1, n_max={n_max}], got {n}")


def check_higher_order(n: int, n_max: int, n_modes: int) -> None:
    """Refuse a higher-moment order this model cannot run: n outside 1..3,
    above n_max (the left side then vanishes on the truncated space), or on
    more modes than the order's cost guard allows."""
    if n not in HIGHER_MODE_CAPS:
        raise ValueError(f"order n must be 1, 2 or 3, got {n}")
    _check_order_range(n, n_max)
    if n_modes > HIGHER_MODE_CAPS[n]:
        raise ValueError(
            f"cost guard: order {n} allows at most {HIGHER_MODE_CAPS[n]} modes, got {n_modes}"
        )


def _falling_factorial(basis: FockBasis, n: int) -> np.ndarray:
    """N (N - 1) ... (N - n + 1) on each basis state, N its total: 0 below grade n."""
    return np.prod(basis.totals[:, None] - np.arange(n), axis=1)


def higher_moment_identity(m: GsbModel, gs: GroundState, n: int,
                           cfg: SolverConfig) -> RegularityReport:
    """Factorial moment of order n against the permutation-resolvent sum.

    The right-hand side is alpha^2n sum_S (n! / prod_l m_l!) prod_{j in S}
    w_j ||v(S)||^2 over the mode multisets S of size n, each chain v(S)
    aggregating all n! permutation chains of a tuple (see _chains).  Solves
    are memoized per multiset, one solve each.  An order check_higher_order
    refuses raises ValueError.
    """
    _require_solved(gs)
    M = m.grid.n_modes
    check_higher_order(n, m.n_max, M)
    lhs = m.basis.diagonal_form(gs.vector, _falling_factorial(m.basis, n))
    return _chain_report(f"higher_moment_n{n}", m, gs, cfg, n, np.ones(M), lhs)


# ---------------------------------------------------------------------------
# Exact finite-mode decompositions


def _fock_columns(psi: np.ndarray, basis: FockBasis) -> np.ndarray:
    """The real and imaginary parts of psi's matter rows as 2 d real Fock columns.

    1 (x) a_i acts on the Fock factor of each matter component and a_i is
    real, so one sparse product lowers all of them.
    """
    V = np.reshape(psi, (-1, len(basis)))
    return np.ascontiguousarray(np.concatenate([V.real, V.imag]).T)


def number_decomposition(psi: np.ndarray, K, basis: FockBasis,
                         grid: ModeSet) -> RegularityReport:
    """sum_m ||a(conj(K_m) e_m) psi||^2 == <psi, dGamma(|K|^2) psi>.

    psi is a matter-major composite vector; e_m is the normalized cell
    function of mode m, so a(conj(K_m) e_m) is its smearing coefficient
    times a_m, applied through the grade-n_max block of a_m.  Exact on the
    truncated space because annihilators lower the grade without touching
    the cutoff.
    """
    K = np.asarray(K, dtype=complex)
    coeff = fock.smearing_coefficients(np.conj(K) / np.sqrt(grid.weights), grid)
    cols = _fock_columns(psi, basis)
    lhs = 0.0
    for mo in range(basis.n_modes):
        lowered = basis.lowering_block(mo, basis.n_max) @ cols
        lhs += abs(coeff[mo]) ** 2 * float(np.linalg.norm(lowered) ** 2)
    rhs = basis.diagonal_form(psi, basis.occupations @ np.abs(K) ** 2)
    return _report("number_decomposition", lhs, rhs, basis.w_top(psi), EXACT_TOL)


def factorial_moment_decomposition(psi: np.ndarray, n: int,
                                   basis: FockBasis) -> RegularityReport:
    """sum over n-tuples ||a_{i_1} ... a_{i_n} psi||^2 == n-th falling factorial moment.

    The sum runs over every ordered tuple.  After k lowerings a branch lives
    on grades <= n_max - k, so the next one multiplies it by the
    grade-(n_max - k) blocks of the a_i (FockBasis.lowering_block): the
    products never touch the states the branch has left.
    """
    _check_order_range(n, basis.n_max)
    blocks = [[basis.lowering_block(i, basis.n_max - k) for i in range(basis.n_modes)]
              for k in range(n)]

    def branch_sum(block: np.ndarray, depth: int) -> float:
        if depth == n:
            return float(np.linalg.norm(block) ** 2)
        return sum(branch_sum(a @ block, depth + 1) for a in blocks[depth])

    lhs = branch_sum(_fock_columns(psi, basis), 0)
    rhs = basis.diagonal_form(psi, _falling_factorial(basis, n))
    return _report("factorial_moment_decomposition", lhs, rhs, basis.w_top(psi), EXACT_TOL)


def appendix_suite(m: GsbModel, draws: int, order: int, seed: int) -> list:
    """The worst of `draws` seeded draws of each exact decomposition on m's space.

    Each draw is a normalized complex composite vector and a complex mode
    column; the factorial moment is taken at order min(order, n_max).
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    rng = np.random.default_rng(seed)
    order = min(order, m.n_max)
    worst = [None, None]
    for _ in range(draws):
        v = rng.standard_normal(m.dim) + 1j * rng.standard_normal(m.dim)
        psi = v / np.linalg.norm(v)
        K = rng.standard_normal(m.grid.n_modes) + 1j * rng.standard_normal(m.grid.n_modes)
        reps = (number_decomposition(psi, K, m.basis, m.grid),
                factorial_moment_decomposition(psi, order, m.basis))
        worst = [r if w is None or r.rel_err > w.rel_err else w for w, r in zip(worst, reps)]
    return worst


# ---------------------------------------------------------------------------
# Commutation relations and relative bounds


def ccr_and_bound_suite(basis: FockBasis, grid: ModeSet, seed: int, n_draws: int) -> list:
    """Canonical commutation relations and the standard relative bounds.

    Emits one report per named check: interior CCR ([a_i, a_j*] = delta_ij
    below the top grade, [a, a] and [a*, a*] everywhere), the Leibniz
    commutators of dGamma against smeared operators on interior states, the
    adjoint pairing of creator and annihilator, and the quadratic bounds
    ||a(f) psi||^2 <= ||f/sqrt(omega)||^2 <psi, dGamma(omega) psi> and its
    creator counterpart on n_draws seeded random draws, taken as one block in
    the generator's order and lowered together, one product per mode.  No
    operator is made dense.
    """
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    rng = np.random.default_rng(seed)
    M = basis.n_modes
    reports = []
    a_ops = [basis.lowering(i) for i in range(M)]
    c_ops = [fock.creator(i, basis) for i in range(M)]
    interior_cols = np.where(basis.interior_mask)[0]
    identity = sp.identity(len(basis), format="csr")

    def worst(mats, cols=None):
        # the largest |entry| of the matrices, on the columns cols when given
        return max(float(abs(d if cols is None else d[:, cols]).max()) for d in mats)

    def absolute(name, value, w_top=0.0, tol=1e-13):
        # value is an error measure against a zero target: scale 1 makes tol absolute
        reports.append(_report(name, value, 0.0, w_top, tol, scale=1.0))

    pairs = [(i, j) for i in range(M) for j in range(M)]
    # [a_i, a_j*] - delta_ij on interior columns
    absolute("ccr_interior", worst(
        ((a_ops[i] @ c_ops[j]) - (c_ops[j] @ a_ops[i]) - (identity if i == j else 0)
         for i, j in pairs), interior_cols))
    # [a_i, a_j] and [a_i*, a_j*] on all columns
    absolute("ccr_aa_and_creation", worst(
        (x[i] @ x[j]) - (x[j] @ x[i]) for i, j in pairs for x in (a_ops, c_ops)))
    # adjoint pairing: creator equals the conjugate transpose of the annihilator
    absolute("creator_adjoint_pairing", worst(c - a.conj().T for c, a in zip(c_ops, a_ops)))

    # Leibniz commutators of dGamma on interior columns
    g = rng.uniform(0.25, 2.0, size=M)
    f = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    dg = fock.dgamma(g, basis)
    af = fock.smeared_annihilator(f, grid, basis)
    agf = fock.smeared_annihilator(g * f, grid, basis)
    cf = af.conj().T
    cgf = agf.conj().T
    absolute("dgamma_leibniz_commutators", worst(
        [(dg @ af) - (af @ dg) + agf, (dg @ cf) - (cf @ dg) - cgf], interior_cols))

    # relative bounds on random draws, one row per draw in the generator's
    # order (the real and imaginary parts of psi, then of f), lowered as one
    # (dim, n_draws) block per mode: a(f) psi is sum_i c_i a_i psi and
    # a(f)* psi is sum_i conj(c_i) a_i^T psi
    omega = grid.omega
    n = len(basis)
    re_psi, im_psi, re_f, im_f = np.split(rng.standard_normal((n_draws, 2 * n + 2 * M)),
                                          [n, 2 * n, 2 * n + M], axis=1)
    unit = [psi / np.linalg.norm(psi) for psi in re_psi + 1j * im_psi]
    f = re_f + 1j * im_f
    psis = np.column_stack(unit)
    coeffs = np.column_stack([fock.smearing_coefficients(row, grid) for row in f])
    f_sq = np.abs(f) ** 2 * grid.weights
    f_over, f_norm = np.sum(f_sq / omega, axis=1), np.sum(f_sq, axis=1)
    top_weight = max(map(basis.w_top, unit))
    energy_half = (basis.occupations @ omega) @ (np.abs(psis) ** 2)
    a_psi = sum(c * (a @ psis) for c, a in zip(coeffs, a_ops))
    c_psi = sum(c.conj() * (a.T @ psis) for c, a in zip(coeffs, a_ops))
    lhs_a = np.sum(np.abs(a_psi) ** 2, axis=0)
    lhs_c = np.sum(np.abs(c_psi) ** 2, axis=0)
    worst_a_viol = max(0.0, float(np.max(lhs_a - f_over * energy_half)))
    worst_c_viol = max(0.0, float(np.max(lhs_c - (f_over * energy_half + f_norm))))
    # both worst violations are at least 0.0, so each is its own error
    absolute("relative_bound_annihilator", worst_a_viol, top_weight, 1e-10)
    absolute("relative_bound_creator", worst_c_viol, top_weight, 1e-10)
    return reports


# ---------------------------------------------------------------------------
# Infrared sweep


def _fit_log(sigmas, values):
    x = np.log(1.0 / np.asarray(sigmas))
    y = np.asarray(values)
    b, a = np.polyfit(x, y, 1)
    pred = a + b * x
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(b), float(a), r2


def _single_mode_operators(n_max: int):
    """Number diagonal and field (a + a*)/sqrt(2) of one mode, as dense arrays.

    Built once per sweep on the one-mode Fock basis, so the GSB_MAX_DIM
    guard still applies.
    """
    basis = fock.enumerate_basis(1, n_max)
    a = basis.lowering(0).toarray()
    return basis.occupations[:, 0].astype(float), (a + a.T) / math.sqrt(2.0)


def _single_mode_ground_states(grid: ModeSet, b: float, alpha: float, ops,
                               cfg: SolverConfig):
    """Per-mode E, <N>, absence term and w_top of a scalar-matter model.

    Mode i carries H_i = omega_i N + alpha b lambda_i sqrt(w_i) X, the
    field_operator convention; all M of them are solved as one stack.  The
    absence term is alpha^2 w_i |<phi_i, T(k_i) phi_i>|^2 / omega_i^2 with
    T(k_i) = b lambda_i / sqrt(2).
    """
    number, field = ops
    lam, w, om = grid.channel(0), grid.weights, grid.omega
    # an overflow to inf is refused by stacked_ground_states, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        H = (om[:, None, None] * np.diag(number)
             + (alpha * b * lam * np.sqrt(w))[:, None, None] * field)
    energies, phi = spectral.stacked_ground_states(H, cfg)
    prob = np.abs(phi) ** 2
    t_phi = b * lam / math.sqrt(2.0) * prob.sum(axis=1)
    absence = alpha**2 * w * t_phi**2 / om**2
    # the last basis state is the only one on the top grade n_max
    return energies, prob @ number, absence, prob[:, -1]


def _solve_sigma_full(grid: ModeSet, A, B, alpha: float, n_max: int, cfg: SolverConfig):
    m = model_mod.assemble(A, B, grid, alpha, n_max)
    gs = spectral.solve_model(m, cfg)
    rep_abs = absence_lower_bound(m, gs, np.ones(grid.n_modes))
    return gs.energy, rep_abs.lhs, rep_abs.rhs, gs.w_top


def separable_matter(A, B) -> bool:
    """Whether the model factorizes over modes, so that ir_sweep solves it mode by
    mode on one one-mode basis: scalar matter (A is 1x1) on one channel."""
    return A.shape == (1, 1) and len(B) == 1


def check_sigma_ladder(sigmas) -> None:
    """Refuse an infrared ladder of fewer than two cutoffs, or one that is not
    strictly decreasing."""
    if len(sigmas) < 2:
        raise ValueError("need at least two sigma values")
    if any(s2 >= s1 for s1, s2 in zip(sigmas, sigmas[1:])):
        raise ValueError("sigmas must be strictly decreasing")


def ir_sweep(ladder, A, B, alpha: float, n_max: int, cfg: SolverConfig,
             ctol: float) -> RegularityReport:
    """Solve the model on a ladder of infrared cutoffs; the report of _sweep_report.

    ladder holds (sigma, grid) rungs, sigma strictly decreasing, each grid
    carrying one coupling column per B_j; A, B, alpha and n_max are as for
    model.assemble.  Each row records the ground energy, the number
    expectation (the moment-identity left side), the projection lower bound
    with G = 1, and the discrete ||lambda/omega||^2 summed over channels.
    The verdict is judged against the analytic infrared class of the
    smallest cutoff's grid (singular when any channel is).  Scalar-matter
    single-channel models factorize over modes: their single-mode operators
    are built once per call, and each rung solves all single-mode
    Hamiltonians as one stacked dense eigenproblem.  Everything else is
    solved as one composite eigenproblem per rung.
    """
    check_sigma_ladder([s for s, _ in ladder])
    # assemble's rule on every rung; the separable path would read channel 0 alone
    for n_channels in {grid.n_channels for _, grid in ladder}:
        A, B = model_mod.check_matter(A, B, n_channels)
    separable = separable_matter(A, B)
    if separable:
        # a hermitian 1x1 matrix is real
        a0, b = float(A[0, 0].real), float(B[0][0, 0].real)
        ops = _single_mode_operators(n_max)
    rows = []
    for sigma, grid in ladder:
        if separable:
            # a commuting sum of single-mode problems: E (on top of the
            # constant a0), <N> and the absence terms add over modes
            E, N, absence, w_top = _single_mode_ground_states(grid, b, alpha, ops, cfg)
            E, N, absence, w_top = a0 + E.sum(), N.sum(), absence.sum(), w_top.max()
        else:
            E, N, absence, w_top = _solve_sigma_full(grid, A, B, alpha, n_max, cfg)
        crit = l2_criteria(grid)
        rows.append({"sigma": sigma, "n_shells": grid.n_modes, "E": E, "expectation_N": N,
                     "absence_bound": absence, "lam_over_w_norm": crit.norm_lam_over_w,
                     "max_w_top": w_top})
    return _sweep_report(rows, crit.ir_class, alpha, B, ctol)


def _sweep_report(rows, ir_class: str, alpha: float, B, ctol: float) -> RegularityReport:
    """A sweep's report: the verdict on its rows, and <N> against the projection
    bound at the smallest sigma.

    On at least three rows the verdict is "converging" when <N> is Cauchy
    along the sigma ladder (shrinking increments, an increment at or below
    EXACT_TOL |<N>| counting as shrinking, final increment below ctol
    relative), else "diverging" when it grows like a + b log(1/sigma) with a
    solid linear fit, or grows super-logarithmically (increments not
    shrinking), else "inconclusive"; on two rows it is "inconclusive".  A
    regular class expects "converging".  A singular one expects "diverging"
    only when on every row the projection bound, which <N> cannot fall
    below, exceeds BOUND_FLOOR alpha^2 lam_over_w_norm max_j ||B_j||_2^2; on
    one channel the bound is alpha^2 |<phi, B phi>|^2 lam_over_w_norm / 2,
    so that reads |<phi, B phi>| > 1.4e-8 ||B||.  Otherwise nothing is
    expected: parity-symmetric matter such as the unbiased spin boson has
    <phi, B phi> = 0 and may keep a ground state with no infrared
    regularization.  The report passes when the verdict is the expected
    one, if any, and every row keeps <N> >= the bound within ABSENCE_TOL
    (_bound_violation), as absence_lower_bound does; truncation breaks the
    bound.
    """
    values = [r["expectation_N"] for r in rows]
    increments = [abs(v2 - v1) for v1, v2 in zip(values, values[1:])]
    slope_b, intercept_a, r2 = _fit_log([r["sigma"] for r in rows], values)
    final_inc = increments[-1]
    final_rel = final_inc / max(abs(values[-1]), 1e-300)
    # an increment at round-off of <N> (as <N> = 0 at alpha = 0) counts as shrinking
    shrinking = all(i2 < i1 or i2 <= EXACT_TOL * abs(v)
                    for i1, i2, v in zip(increments, increments[1:], values[2:]))
    growing_values = all(v2 > v1 for v1, v2 in zip(values, values[1:]))
    non_shrinking = all(i2 >= 0.9 * i1 for i1, i2 in zip(increments, increments[1:]))
    # on two rungs the log fit has r^2 = 1, and one increment can neither show
    # that the increments shrink nor that they do not
    kind, div_kind = "inconclusive", ""
    if len(rows) >= 3:
        if shrinking and final_rel <= ctol:
            kind = "converging"
        elif slope_b > 0 and r2 >= 0.99:
            kind, div_kind = "diverging", "logarithmic"
        elif growing_values and non_shrinking:
            kind, div_kind = "diverging", "super-logarithmic"
    floor = BOUND_FLOOR * alpha**2 * max(float(np.linalg.norm(b, 2)) for b in B) ** 2
    expected = {"regular": "converging", "singular": "diverging"}.get(ir_class)
    if expected == "diverging" and any(r["absence_bound"] <= floor * r["lam_over_w_norm"]
                                       for r in rows):
        expected = None
    violations = [_bound_violation(r["expectation_N"], r["absence_bound"]) for r in rows]
    worst = int(np.argmax(violations))
    last = rows[-1]
    return _report(
        "ir_sweep_verdict", last["expectation_N"], last["absence_bound"], last["max_w_top"],
        ctol, {"verdict": {"kind": kind, "slope_b": slope_b, "intercept_a": intercept_a,
                           "r_squared": r2, "final_increment": final_inc,
                           "final_increment_rel": final_rel, "divergence_kind": div_kind,
                           "analytic_ir_class": ir_class},
               "expected": expected, "worst_bound_violation": violations[worst],
               "worst_bound_sigma": rows[worst]["sigma"], "rows": rows},
        passed=expected in (None, kind) and violations[worst] <= ABSENCE_TOL)
