"""Identity checks and infrared sweeps on solved ground states.

Every check compares two independently computed values (or a vector against
its resolvent reconstruction) and emits a RegularityReport carrying both
sides, the discrepancy, the truncation weight w_top of the state, and the
tolerance that was applied.  Each check kind of the CLI is one call here.
The pull-through, moment and higher-moment checks read one memoized solver
of resolvent chains over mode multisets, _chains; its level 1 is the
pull-through vector (H - E + omega_i)^-1 T(k_i) phi_g.

Tolerance ladder: identities that are exact on the truncated space (the
finite-mode decompositions, interior commutation relations) are held to
1e-12 * scale; identities mediated by resolvent solves inherit truncation
and solver error and are held to max(1e-7, 10 sqrt(w_top) + 100 cg_tol).

A finite truncation always has a ground state, so the absence-type results
are verified through their computable content: the proof inequality at
fixed cutoff, and the divergence of the number expectation as the infrared
cutoff is swept to zero; sweep_verdict_report turns a sweep into one report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from itertools import combinations, combinations_with_replacement

import numpy as np

from . import fock, model as model_mod, spectral
from .fock import FockBasis, apply_fock, apply_matter
from .model import GroundState, GsbModel, t_operator
from .modes import CouplingFamily, ModeSet, build_radial_grid, eval_coupling, ir_class_of, l2_criteria
from .spectral import SolverConfig, resolvent_apply

__all__ = [
    "RegularityReport",
    "IrSweepRow",
    "SweepVerdict",
    "SweepTemplate",
    "resolvent_tol",
    "pullthrough_check",
    "moment_identity",
    "absence_lower_bound",
    "higher_moment_identity",
    "number_decomposition",
    "factorial_moment_decomposition",
    "appendix_suite",
    "ccr_and_bound_suite",
    "ir_sweep",
    "sweep_verdict_report",
]

EXACT_TOL = 1e-12
RESOLVENT_TOL_FLOOR = 1e-7
ABSENCE_TOL = 1e-9
GROUND_RESIDUAL_CAP = 1e-10


def resolvent_tol(w_top: float, cg_tol: float) -> float:
    return max(RESOLVENT_TOL_FLOOR, 10.0 * math.sqrt(max(w_top, 0.0)) + 100.0 * cg_tol)


@dataclass
class RegularityReport:
    """Outcome of one identity check.

    lhs and rhs are the two computed values (scalars, or norms for vector
    identities); passed is decided by rel_err <= tol_used or
    abs_err <= tol_used * scale with scale = max(|lhs|, |rhs|, 1).
    """

    check_name: str
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    w_top: float
    tol_used: float
    passed: bool
    metadata: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        # numpy scalars sneak in through accumulations; pin plain types so
        # the JSON and CSV writers stay format-stable.
        self.lhs = float(self.lhs)
        self.rhs = float(self.rhs)
        self.abs_err = float(self.abs_err)
        self.rel_err = float(self.rel_err)
        self.w_top = float(self.w_top)
        self.tol_used = float(self.tol_used)
        self.passed = bool(self.passed)

    def to_row(self) -> list:
        return [self.check_name, self.lhs, self.rhs, self.rel_err, self.w_top, self.passed]

    def to_json(self) -> dict:
        # vars, not dataclasses.asdict, which would deep-copy metadata (the
        # sweep rows of an ir_sweep report) on every write
        out = dict(vars(self))
        out["pass"] = out.pop("passed")
        return out


def _scalar_report(name, lhs, rhs, w_top, tol, metadata=None,
                   deviation=False) -> RegularityReport:
    # deviation=True: lhs is itself an error measure against a zero target,
    # so rel_err is the deviation and the tolerance is absolute.
    lhs, rhs = float(lhs), float(rhs)
    abs_err = abs(lhs - rhs)
    if deviation:
        rel_err = abs_err
        passed = abs_err <= tol
    else:
        scale = max(abs(lhs), abs(rhs), 1.0)
        rel_err = abs_err / max(abs(lhs), abs(rhs), 1e-300)
        passed = rel_err <= tol or abs_err <= tol * scale
    return RegularityReport(
        check_name=name, lhs=lhs, rhs=rhs, abs_err=abs_err, rel_err=rel_err,
        w_top=w_top, tol_used=tol, passed=passed, metadata=metadata or {},
    )


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
    """
    t_ops = {j: t_operator(m, j) for j in sorted(set().union(*multisets))}
    memo = {(): (gs.vector, 0, 0.0)}
    # the nonempty sub-multisets of the requested ones, fewest modes first
    subs = {sub for S in multisets for k in range(1, len(S) + 1) for sub in combinations(S, k)}
    for S in sorted(subs, key=lambda S: (len(S), S)):
        rhs = np.zeros_like(gs.vector)
        for j in sorted(set(S)):
            k = S.index(j)  # S minus one copy of j, still sorted
            rhs += S.count(j) * apply_matter(t_ops[j], memo[S[:k] + S[k + 1:]][0])
        shift = float(sum(m.grid.omega[j] for j in S))
        memo[S] = resolvent_apply(m.H, gs.energy, shift, rhs, cfg)
    del memo[()]
    return memo


def _chain_moment(m: GsbModel, gs: GroundState, cfg: SolverConfig, n: int, G):
    """(alpha^2n sum_S (n! / prod_l m_l!) prod_{j in S} G_j w_j ||v(S)||^2, the chains).

    S runs over the size-n multisets of the modes with G_j > 0; one with
    multiplicities (m_1, ...) stands for n! / prod m_l! ordered tuples.
    """
    modes = [int(j) for j in np.flatnonzero(G > 0)]
    if m.alpha == 0.0 or not modes:
        return 0.0, {}
    multisets = list(combinations_with_replacement(modes, n))
    chains = _chains(m, gs, cfg, multisets)
    total = 0.0
    for S in multisets:
        tuples = math.factorial(n)
        for j in set(S):
            tuples //= math.factorial(S.count(j))
        weight = float(np.prod([G[j] * m.grid.weights[j] for j in S]))
        total += tuples * weight * float(np.linalg.norm(chains[S][0]) ** 2)
    return total * m.alpha ** (2 * n), chains


def _mode_stats(chains: dict) -> list:
    """Per-mode solver stats of level-1 chains, in the order they were solved."""
    return [{"mode": S[0], "cg_iterations": iters, "cg_relres": relres}
            for S, (_, iters, relres) in chains.items()]


def _dgamma_expectation(m: GsbModel, gs: GroundState, G):
    """(G as floats, <phi_g, (1 (x) dGamma(G)) phi_g>) for a solved gs and a G >= 0."""
    _require_solved(gs)
    G = np.asarray(G, dtype=float)
    if np.any(G < 0):
        raise ValueError("G must be entrywise >= 0")
    phi = gs.vector
    return G, float(np.real(np.vdot(phi, apply_fock(fock.dgamma(G, m.basis), phi))))


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
    reconstruction; per-mode solver residuals ride along in the metadata.
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
    rel_err = diff / max(rhs_norm, lhs_norm, 1e-300)
    tol = resolvent_tol(gs.w_top, cfg.cg_tol)
    return RegularityReport(
        check_name="pullthrough", lhs=diff, rhs=rhs_norm, abs_err=diff,
        rel_err=rel_err, w_top=gs.w_top, tol_used=tol,
        passed=rel_err <= tol or diff <= tol * max(rhs_norm, 1.0),
        metadata={"mode_solves": _mode_stats(chains), "lhs_norm": lhs_norm,
                  "alpha": m.alpha, "n_max": m.n_max},
    )


def moment_identity(m: GsbModel, gs: GroundState, G, cfg: SolverConfig) -> RegularityReport:
    """<phi_g, (1 (x) dGamma(G)) phi_g> against its resolvent form.

    The right-hand side is alpha^2 sum_i G_i w_i ||(H - E + omega_i)^-1
    T(k_i) phi_g||^2, the order-1 chain sum; G must be entrywise nonnegative.
    """
    G, lhs = _dgamma_expectation(m, gs, G)
    rhs, chains = _chain_moment(m, gs, cfg, 1, G)
    tol = resolvent_tol(gs.w_top, cfg.cg_tol)
    return _scalar_report(
        "moment_identity", lhs, rhs, gs.w_top, tol,
        metadata={"mode_solves": _mode_stats(chains), "alpha": m.alpha, "n_max": m.n_max},
    )


def absence_lower_bound(m: GsbModel, gs: GroundState, G, cfg: SolverConfig) -> RegularityReport:
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
    violation = _bound_violation(lhs, rhs)
    return RegularityReport(
        check_name="absence_lower_bound", lhs=lhs, rhs=rhs,
        abs_err=max(rhs - lhs, 0.0), rel_err=violation, w_top=gs.w_top,
        tol_used=ABSENCE_TOL, passed=violation <= ABSENCE_TOL,
        metadata={
            "margin": lhs - rhs,
            "equality_gap": abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0),
            "t_expectations_real": [t.real for t in t_expect],
            "alpha": m.alpha, "n_max": m.n_max,
        },
    )


# ---------------------------------------------------------------------------
# Higher factorial moments

HIGHER_MODE_CAPS = {1: 64, 2: 8, 3: 4}


def _falling_factorial_expectation(psi: np.ndarray, basis: FockBasis, n: int) -> float:
    """<psi, prod_{j=1..n} (N - j + 1)_+ psi> for a matter-major composite psi.

    The operator is diagonal in the occupation basis.
    """
    totals = basis.totals.astype(float)
    ff = np.ones_like(totals)
    for j in range(1, n + 1):
        ff *= np.maximum(totals - j + 1, 0.0)
    V = np.reshape(psi, (-1, len(basis)))
    return float(np.sum(ff[None, :] * np.abs(V) ** 2))


def higher_moment_identity(m: GsbModel, gs: GroundState, n: int,
                           cfg: SolverConfig) -> RegularityReport:
    """Factorial moment of order n against the permutation-resolvent sum.

    The right-hand side is alpha^2n sum_S (n! / prod_l m_l!) prod_{j in S}
    w_j ||v(S)||^2 over the mode multisets S of size n, each chain v(S)
    aggregating all n! permutation chains of a tuple (see _chains).  Solves
    are memoized per multiset, one solve each, and the hit rate against the
    naive per-chain count is reported, with the total CG iterations and the
    worst relative residual of those solves.
    """
    _require_solved(gs)
    if not 1 <= n <= 3:
        raise ValueError(f"order n must be 1, 2 or 3, got {n}")
    M = m.grid.n_modes
    if M > HIGHER_MODE_CAPS[n]:
        raise ValueError(
            f"cost guard: order {n} allows at most {HIGHER_MODE_CAPS[n]} modes, got {M}"
        )
    lhs = _falling_factorial_expectation(gs.vector, m.basis, n)
    rhs, chains = _chain_moment(m, gs, cfg, n, np.ones(M))
    naive = (M**n) * math.factorial(n) * n  # a mode set has at least one mode
    tol = resolvent_tol(gs.w_top, cfg.cg_tol)
    return _scalar_report(
        f"higher_moment_n{n}", lhs, rhs, gs.w_top, tol,
        metadata={
            "order": n, "resolvent_solves": len(chains),
            "cg_iterations": sum(c[1] for c in chains.values()),
            "worst_cg_relres": max((c[2] for c in chains.values()), default=0.0),
            "naive_solves": naive, "memo_hit_rate": 1.0 - len(chains) / naive,
            "alpha": m.alpha, "n_max": m.n_max,
        },
    )


# ---------------------------------------------------------------------------
# Exact finite-mode decompositions


def number_decomposition(psi: np.ndarray, K, basis: FockBasis,
                         grid: ModeSet) -> RegularityReport:
    """sum_m ||a(conj(K_m) e_m) psi||^2 == <psi, dGamma(|K|^2) psi>.

    psi is a matter-major composite vector; e_m is the normalized cell
    function of mode m.  Exact on the truncated space because annihilators
    lower the grade without touching the cutoff.
    """
    K = np.asarray(K, dtype=complex)
    lhs = 0.0
    for mo in range(basis.n_modes):
        f = np.zeros(basis.n_modes, dtype=complex)
        f[mo] = np.conj(K[mo]) / math.sqrt(grid.weights[mo])
        a_mat = fock.smeared_annihilator(f, grid, basis)
        lhs += float(np.linalg.norm(apply_fock(a_mat, psi)) ** 2)
    dg = fock.dgamma(np.abs(K) ** 2, basis)
    rhs = float(np.real(np.vdot(psi, apply_fock(dg, psi))))
    return _scalar_report("number_decomposition", lhs, rhs, basis.w_top(psi), EXACT_TOL)


def factorial_moment_decomposition(psi: np.ndarray, n: int,
                                   basis: FockBasis) -> RegularityReport:
    """sum over n-tuples ||a_{i_1} ... a_{i_n} psi||^2 == n-th falling factorial moment."""
    if n < 1 or n > basis.n_max:
        raise ValueError(f"order must lie in [1, n_max={basis.n_max}], got {n}")
    # 1 (x) a_i acts on the Fock factor of each matter component, and a_i is
    # real: the real and imaginary parts of the components are 2 d real
    # columns, all lowered by one sparse product per branch.
    V = np.reshape(psi, (-1, len(basis)))
    cols = np.ascontiguousarray(np.concatenate([V.real, V.imag]).T)
    a_mats = [basis.lowering(i) for i in range(basis.n_modes)]

    def branch_sum(block: np.ndarray, depth: int) -> float:
        if depth == n:
            return float(np.linalg.norm(block) ** 2)
        return sum(branch_sum(a @ block, depth + 1) for a in a_mats)

    lhs = branch_sum(cols, 0)
    rhs = _falling_factorial_expectation(psi, basis, n)
    return _scalar_report("factorial_moment_decomposition", lhs, rhs, basis.w_top(psi),
                          EXACT_TOL)


def appendix_suite(m: GsbModel, draws: int, order: int, seed: int) -> list:
    """The worst of `draws` seeded draws of each exact decomposition on m's space.

    Each draw is a normalized complex composite vector and a complex mode
    column; the factorial moment is taken at order min(order, n_max).  Both
    reports record the draw count.
    """
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
    for rep in worst:
        rep.metadata["draws"] = draws
    return worst


# ---------------------------------------------------------------------------
# Commutation relations and relative bounds


def ccr_and_bound_suite(basis: FockBasis, grid: ModeSet, seed: int = 7,
                        n_draws: int = 200) -> list:
    """Canonical commutation relations and the standard relative bounds.

    Emits one report per named check: interior CCR ([a_i, a_j*] = delta_ij
    below the top grade, [a, a] and [a*, a*] everywhere), the Leibniz
    commutators of dGamma against smeared operators on interior states, the
    adjoint pairing of creator and annihilator, and the quadratic bounds
    ||a(f) psi||^2 <= ||f/sqrt(omega)||^2 <psi, dGamma(omega) psi> and its
    creator counterpart on seeded random draws.
    """
    rng = np.random.default_rng(seed)
    M = basis.n_modes
    reports = []
    a_ops = [basis.lowering(i) for i in range(M)]
    c_ops = [fock.creator(i, basis) for i in range(M)]
    interior_cols = np.where(basis.interior_mask)[0]

    # [a_i, a_j*] - delta_ij on interior columns
    worst = 0.0
    for i in range(M):
        for j in range(M):
            dm = ((a_ops[i] @ c_ops[j]) - (c_ops[j] @ a_ops[i])).toarray()
            if i == j:
                dm = dm - np.eye(len(basis))
            worst = max(worst, float(np.abs(dm[:, interior_cols]).max()))
    reports.append(_scalar_report("ccr_interior", worst, 0.0, 0.0, 1e-13, deviation=True))

    # [a_i, a_j] and [a_i*, a_j*] on all columns
    worst = 0.0
    for i in range(M):
        for j in range(M):
            c1 = (a_ops[i] @ a_ops[j]) - (a_ops[j] @ a_ops[i])
            c2 = (c_ops[i] @ c_ops[j]) - (c_ops[j] @ c_ops[i])
            worst = max(worst, float(np.abs(c1.toarray()).max()),
                        float(np.abs(c2.toarray()).max()))
    reports.append(_scalar_report("ccr_aa_and_creation", worst, 0.0, 0.0, 1e-13, deviation=True))

    # adjoint pairing: creator equals the conjugate transpose of the annihilator
    worst = 0.0
    for i in range(M):
        dm = (c_ops[i] - a_ops[i].conj().T).toarray()
        worst = max(worst, float(np.abs(dm).max()))
    reports.append(_scalar_report("creator_adjoint_pairing", worst, 0.0, 0.0, 1e-13, deviation=True))

    # Leibniz commutators of dGamma on interior columns
    g = rng.uniform(0.25, 2.0, size=M)
    f = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    dg = fock.dgamma(g, basis)
    af = fock.smeared_annihilator(f, grid, basis)
    agf = fock.smeared_annihilator(g * f, grid, basis)
    comm_a = ((dg @ af) - (af @ dg) + agf).toarray()
    worst_a = float(np.abs(comm_a[:, interior_cols]).max())
    cf = af.conj().T
    cgf = agf.conj().T
    comm_c = ((dg @ cf) - (cf @ dg) - cgf).toarray()
    worst_c = float(np.abs(comm_c[:, interior_cols]).max())
    reports.append(
        _scalar_report("dgamma_leibniz_commutators", max(worst_a, worst_c), 0.0, 0.0, 1e-13,
                       deviation=True)
    )

    # relative bounds on random draws
    omega = grid.omega
    dgw = fock.dgamma(omega, basis)
    worst_a_viol = worst_c_viol = top_weight = 0.0
    for _ in range(n_draws):
        psi = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        psi /= np.linalg.norm(psi)
        f = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        f_over = float(np.sum(np.abs(f) ** 2 * grid.weights / omega))
        f_norm = float(np.sum(np.abs(f) ** 2 * grid.weights))
        energy_half = float(np.real(np.vdot(psi, dgw @ psi)))
        a_op = fock.smeared_annihilator(f, grid, basis)
        lhs_a = float(np.linalg.norm(a_op @ psi) ** 2)
        lhs_c = float(np.linalg.norm(a_op.conj().T @ psi) ** 2)
        worst_a_viol = max(worst_a_viol, lhs_a - f_over * energy_half)
        worst_c_viol = max(worst_c_viol, lhs_c - (f_over * energy_half + f_norm))
        top_weight = max(top_weight, basis.w_top(psi))
    # both worst violations start at 0.0, so each deviation is the violation
    for name, viol in (("relative_bound_annihilator", worst_a_viol),
                       ("relative_bound_creator", worst_c_viol)):
        reports.append(_scalar_report(name, viol, 0.0, top_weight, 1e-10,
                                      metadata={"draws": n_draws}, deviation=True))
    return reports


# ---------------------------------------------------------------------------
# Infrared sweep


@dataclass(frozen=True)
class SweepTemplate:
    """Model shape an infrared sweep holds fixed while sigma varies."""

    nu: int
    Lambda: float
    A: np.ndarray
    B: tuple
    n_max: int
    mass: float = 0.0


@dataclass
class IrSweepRow:
    sigma: float
    n_shells: int
    E: float
    expectation_N: float
    absence_bound: float
    lam_over_w_norm: float
    max_w_top: float


@dataclass
class SweepVerdict:
    """Divergence call for a sweep plus the fit diagnostics behind it.

    kind is "converging" when the number expectation is Cauchy along the
    sigma ladder (shrinking increments, final increment below ctol), else
    "diverging" when it grows like a + b log(1/sigma) with a solid linear
    fit, or grows super-logarithmically (increments not shrinking); kind
    "inconclusive" is reserved for data matching neither pattern.
    """

    kind: str
    slope_b: float
    intercept_a: float
    r_squared: float
    final_increment: float
    final_increment_rel: float
    divergence_kind: str = ""
    analytic_ir_class: str = "unknown"


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


def _solve_sigma_full(grid: ModeSet, template: SweepTemplate, alpha: float,
                      cfg: SolverConfig):
    m = model_mod.assemble(np.asarray(template.A), [np.asarray(b) for b in template.B],
                           grid, alpha, template.n_max)
    gs = spectral.solve_model(m, cfg)
    ones = np.ones(grid.n_modes)
    rep_abs = absence_lower_bound(m, gs, ones, cfg)
    return gs.energy, rep_abs.lhs, rep_abs.rhs, gs.w_top


def ir_sweep(family: CouplingFamily, template: SweepTemplate, sigmas,
             shells_per_decade: int, alpha: float, cfg: SolverConfig,
             ctol: float = 1e-3):
    """Solve the model on a ladder of infrared cutoffs and classify the trend.

    Grids are log-midpoint with shells_per_decade shells per decade of
    [sigma, Lambda].  Each row records the ground energy, the number
    expectation (the moment-identity left side), the projection lower bound
    with G = 1, and the discrete ||lambda/omega||^2.  The verdict must agree
    with the analytic infrared class of the coupling family.  Scalar-matter
    single-channel models factorize over modes: their single-mode operators
    are built once per call, and each sigma solves all single-mode
    Hamiltonians as one stacked dense eigenproblem.  Everything else is
    solved as one composite eigenproblem per sigma.
    """
    sigmas = [float(s) for s in sigmas]
    if len(sigmas) < 2:
        raise ValueError("need at least two sigma values")
    if any(s2 >= s1 for s1, s2 in zip(sigmas, sigmas[1:])):
        raise ValueError("sigmas must be strictly decreasing")
    if shells_per_decade < 1:
        raise ValueError("shells_per_decade must be >= 1")
    separable = model_mod.is_separable(np.asarray(template.A),
                                       [np.asarray(b) for b in template.B])
    if separable:
        # assemble's hermiticity rule; a hermitian 1x1 matrix is real
        a0 = float(model_mod._check_hermitian("A", template.A)[0, 0].real)
        b = float(model_mod._check_hermitian("B[0]", template.B[0])[0, 0].real)
        ops = _single_mode_operators(template.n_max)
    rows = []
    for sigma in sigmas:
        decades = math.log10(template.Lambda / sigma)
        n_shells = max(1, math.ceil(shells_per_decade * decades))
        grid = build_radial_grid(template.nu, sigma, template.Lambda, n_shells,
                                 rule="log-midpoint", mass=template.mass)
        lam = eval_coupling(family, grid)
        grid = grid.with_coupling(lam, family)
        if separable:
            # a commuting sum of single-mode problems: E (on top of the
            # constant a0), <N> and the absence terms add over modes
            E, N, absence, w_top = _single_mode_ground_states(grid, b, alpha, ops, cfg)
            E, N, absence, w_top = a0 + E.sum(), N.sum(), absence.sum(), w_top.max()
        else:
            E, N, absence, w_top = _solve_sigma_full(grid, template, alpha, cfg)
        crit = l2_criteria(grid, 0)
        rows.append(IrSweepRow(
            sigma=sigma, n_shells=n_shells, E=E, expectation_N=N,
            absence_bound=absence, lam_over_w_norm=crit.norm_lam_over_w,
            max_w_top=w_top,
        ))

    values = [r.expectation_N for r in rows]
    increments = [abs(v2 - v1) for v1, v2 in zip(values, values[1:])]
    slope_b, intercept_a, r2 = _fit_log(sigmas, values)
    final_inc = increments[-1]
    final_rel = final_inc / max(abs(values[-1]), 1e-300)
    shrinking = all(i2 < i1 for i1, i2 in zip(increments, increments[1:]))
    growing_values = all(v2 > v1 for v1, v2 in zip(values, values[1:]))
    non_shrinking = all(i2 >= 0.9 * i1 for i1, i2 in zip(increments, increments[1:]))
    if shrinking and final_rel <= ctol:
        kind, div_kind = "converging", ""
    elif slope_b > 0 and r2 >= 0.99:
        kind, div_kind = "diverging", "logarithmic"
    elif growing_values and non_shrinking:
        kind, div_kind = "diverging", "super-logarithmic"
    else:
        kind, div_kind = "inconclusive", ""
    verdict = SweepVerdict(
        kind=kind, slope_b=slope_b, intercept_a=intercept_a, r_squared=r2,
        final_increment=final_inc, final_increment_rel=final_rel,
        divergence_kind=div_kind,
        analytic_ir_class=ir_class_of(family, template.nu, template.mass),
    )
    return rows, verdict


def sweep_verdict_report(rows, verdict: SweepVerdict, ctol: float) -> RegularityReport:
    """A sweep's report: <N> against the projection bound at the smallest sigma.

    It passes when the verdict matches the analytic infrared class (any
    verdict does for "unknown") and every row keeps <N> >= the bound within
    ABSENCE_TOL, as absence_lower_bound does; truncation breaks the bound.
    """
    expected = {"singular": "diverging", "regular": "converging"}.get(verdict.analytic_ir_class)
    violations = [_bound_violation(r.expectation_N, r.absence_bound) for r in rows]
    worst = int(np.argmax(violations))
    last = rows[-1]
    abs_err = abs(last.expectation_N - last.absence_bound)
    return RegularityReport(
        check_name="ir_sweep_verdict", lhs=last.expectation_N, rhs=last.absence_bound,
        abs_err=abs_err,
        rel_err=abs_err / max(abs(last.expectation_N), abs(last.absence_bound), 1e-300),
        w_top=last.max_w_top, tol_used=ctol,
        passed=(expected is None or verdict.kind == expected)
        and violations[worst] <= ABSENCE_TOL,
        # vars gives a dataclass's field dict without dataclasses.asdict's deep copy
        metadata={"verdict": vars(verdict), "worst_bound_violation": violations[worst],
                  "worst_bound_sigma": rows[worst].sigma, "rows": [vars(r) for r in rows]},
    )
