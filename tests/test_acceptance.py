"""End-to-end acceptance gate.

Nine numbered checks cover the full capability surface at desk scale
(matter dimension <= 2, modes <= 8, n_max <= 24).  Run with -v to get one
pass/fail line per check.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from gsblab import (
    CouplingFamily,
    SolverConfig,
    absence_lower_bound,
    annihilator,
    assemble,
    build_radial_grid,
    ccr_and_bound_suite,
    cli,
    enumerate_basis,
    eval_coupling,
    factorial_moment_decomposition,
    higher_moment_identity,
    ir_sweep,
    moment_identity,
    number_decomposition,
    preset_spin_boson,
    preset_van_hove,
    pullthrough_check,
    solve_model,
    van_hove_oracle,
)

import oracle

EXAMPLES = Path(__file__).parent.parent / "examples"
MODEL_CONFIGS = [
    "van_hove_single_mode.json",
    "van_hove_multimode.json",
    "spin_boson_2level.json",
    "spin_boson_higher_moments.json",
]
SWEEP_CONFIGS = [
    "ir_sweep_nu1_p0.json",
    "ir_sweep_nu1_p1.json",
    "ir_sweep_nu3_p0.json",
    "ir_sweep_nu3_p1.json",
]


def make_grid(nu, sigma, Lambda, n_shells, rule, rho0, p):
    family = CouplingFamily(rho0=rho0, p=p, uv=10.0)
    grid = build_radial_grid(nu, sigma, Lambda, n_shells, rule=rule)
    return grid.with_coupling(eval_coupling(family, grid), family)


def unit_mode_grid():
    # one shell on [0.5, 1.5] in one dimension: r = 1, w = 2, omega = 1,
    # lambda = 1, so lambda sqrt(w) = sqrt(2)
    return make_grid(1, 0.5, 1.5, 1, "midpoint", rho0=1.0, p=0.0)


@pytest.fixture(scope="module")
def cfg():
    return SolverConfig()


@pytest.fixture(scope="module")
def spin_boson_ladder(cfg):
    """One spin-boson model (d=2, M=4) solved at three cutoffs."""
    grid = make_grid(3, 0.4, 2.0, 4, "midpoint", rho0=0.9, p=1.0)
    A, B = preset_spin_boson(1.0)
    out = {}
    for n_max in (8, 12, 16):
        m = assemble(A, B, grid, alpha=0.3, n_max=n_max)
        out[n_max] = (m, solve_model(m, cfg))
    return out


def ladder_tol(w_top):
    return max(1e-7, 10.0 * math.sqrt(w_top))


def test_01_coherent_state_oracle(cfg):
    # single mode at unit frequency: displaced vacuum with amplitude -1
    grid = unit_mode_grid()
    A, B = preset_van_hove()
    m = assemble(A, B, grid, alpha=1.0, n_max=24)
    gs = solve_model(m, cfg)
    assert abs(gs.energy - (-1.0)) <= 1e-8

    rep = moment_identity(m, gs, np.ones(1), cfg)
    assert abs(rep.lhs - 1.0) <= 1e-8

    a1 = annihilator(0, m.basis)
    phi = gs.vector
    assert np.linalg.norm(a1 @ phi + phi) <= 1e-7

    # multi-mode closed form: energy and number expectation to 1e-7 relative
    grid6 = make_grid(3, 0.3, 1.0, 6, "log-midpoint", rho0=1.0, p=1.0)
    m6 = assemble(A, B, grid6, alpha=0.5, n_max=12)
    gs6 = solve_model(m6, cfg)
    exact = van_hove_oracle(grid6, 0.5)
    assert abs(gs6.energy - exact.E_exact) <= 1e-7 * abs(exact.E_exact)
    n6 = moment_identity(m6, gs6, np.ones(6), cfg)
    assert abs(n6.lhs - exact.N_exact) <= 1e-7 * abs(exact.N_exact)


def test_02_annihilated_ground_state_resolvent_identity(cfg, spin_boson_ladder):
    errs = []
    for n_max in (8, 12, 16):
        m, gs = spin_boson_ladder[n_max]
        rep = pullthrough_check(m, gs, m.grid.channel(0), cfg)
        assert rep.rel_err <= ladder_tol(gs.w_top), (n_max, rep.rel_err)
        errs.append(rep.rel_err)
    assert errs[1] <= errs[0] and errs[2] <= errs[1], errs


def test_03_weighted_number_identity_and_additivity(cfg, spin_boson_ladder):
    for n_max in (8, 12, 16):
        m, gs = spin_boson_ladder[n_max]
        om = m.grid.omega
        for G in (np.ones_like(om), om, om**2):
            rep = moment_identity(m, gs, G, cfg)
            assert rep.rel_err <= ladder_tol(gs.w_top), (n_max, rep.rel_err)

    m, gs = spin_boson_ladder[12]
    om = m.grid.omega
    r1 = moment_identity(m, gs, om, cfg)
    r2 = moment_identity(m, gs, om**2, cfg)
    r12 = moment_identity(m, gs, om + om**2, cfg)
    scale_l = max(abs(r12.lhs), 1.0)
    scale_r = max(abs(r12.rhs), 1.0)
    assert abs(r12.lhs - (r1.lhs + r2.lhs)) <= 1e-12 * scale_l
    assert abs(r12.rhs - (r1.rhs + r2.rhs)) <= 1e-12 * scale_r


def test_04_ground_state_projection_bound(cfg):
    for name in MODEL_CONFIGS:
        run_cfg = cli.load_config(EXAMPLES / name)
        grid = cli.build_grid(run_cfg.grid, run_cfg.coupling)
        m = cli.build_model(run_cfg, grid)
        gs = solve_model(m, run_cfg.solver)
        rep = absence_lower_bound(m, gs, np.ones(grid.n_modes), cfg)
        scale = max(abs(rep.lhs), abs(rep.rhs), 1.0)
        assert rep.lhs >= rep.rhs - 1e-9 * scale, (name, rep.lhs, rep.rhs)
        if name.startswith("van_hove"):
            # scalar matter saturates the bound
            assert abs(rep.lhs - rep.rhs) <= 1e-8 * scale, (name, rep.lhs, rep.rhs)


def test_05_higher_factorial_moments(cfg):
    # coherent state with |z| = 1: <N(N-1)> = |z|^4 = 1
    grid = unit_mode_grid()
    A, B = preset_van_hove()
    m = assemble(A, B, grid, alpha=1.0, n_max=24)
    gs = solve_model(m, cfg)
    rep = higher_moment_identity(m, gs, 2, cfg)
    assert abs(rep.lhs - 1.0) <= 1e-7
    assert abs(rep.rhs - 1.0) <= 1e-7

    # spin-boson, three modes, order two
    grid3 = make_grid(3, 0.4, 2.0, 3, "midpoint", rho0=0.6, p=1.0)
    A, B = preset_spin_boson(1.0)
    m3 = assemble(A, B, grid3, alpha=0.3, n_max=10)
    gs3 = solve_model(m3, cfg)
    rep3 = higher_moment_identity(m3, gs3, 2, cfg)
    assert rep3.rel_err <= 1e-6, rep3.rel_err

    # solve budget: memoization keeps the count at one solve per multiset
    M = 3
    n_multisets_2 = M * (M + 1) // 2
    assert rep3.metadata["resolvent_solves"] <= M**2 * n_multisets_2

    # order three at two modes
    grid2 = make_grid(3, 0.4, 2.0, 2, "midpoint", rho0=0.6, p=1.0)
    m2 = assemble(A, B, grid2, alpha=0.3, n_max=10)
    gs2 = solve_model(m2, cfg)
    rep2 = higher_moment_identity(m2, gs2, 3, cfg)
    assert rep2.rel_err <= 1e-6, rep2.rel_err


def test_06_occupancy_decompositions_on_random_states():
    grid = make_grid(3, 0.4, 2.0, 3, "midpoint", rho0=0.6, p=1.0)
    basis = enumerate_basis(3, 4)
    rng = np.random.default_rng(202)
    for _ in range(50):
        raw = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        psi = raw / np.linalg.norm(raw)
        K = rng.standard_normal(3) + 1j * rng.standard_normal(3)

        rep_n = number_decomposition(psi, K, basis, grid)
        scale = max(abs(rep_n.lhs), abs(rep_n.rhs), 1.0)
        assert abs(rep_n.lhs - rep_n.rhs) <= 1e-12 * scale

        rep_f = factorial_moment_decomposition(psi, 2, basis)
        scale = max(abs(rep_f.lhs), abs(rep_f.rhs), 1.0)
        assert abs(rep_f.lhs - rep_f.rhs) <= 1e-12 * scale

    # one dense brute-force cross-check of the last draw
    states = oracle.dense_basis(3, 4)
    vec = psi
    dense_lhs = 0.0
    for i in range(3):
        for j in range(3):
            ai = oracle.dense_annihilator(i, states)
            aj = oracle.dense_annihilator(j, states)
            dense_lhs += float(np.linalg.norm(ai @ (aj @ vec)) ** 2)
    assert abs(dense_lhs - rep_f.lhs) <= 1e-12 * max(dense_lhs, 1.0)


def test_07_commutation_relations_and_relative_bounds():
    grid = make_grid(3, 0.4, 2.0, 2, "midpoint", rho0=0.6, p=1.0)
    basis = enumerate_basis(2, 6)
    reports = {r.check_name: r for r in
               ccr_and_bound_suite(basis, grid, seed=11, n_draws=200)}
    for name in ("ccr_interior", "ccr_aa_and_creation",
                 "creator_adjoint_pairing", "dgamma_leibniz_commutators"):
        assert reports[name].rel_err <= 1e-13, (name, reports[name].rel_err)
    for name in ("relative_bound_annihilator", "relative_bound_creator"):
        assert reports[name].passed, name
    assert all(r.passed for r in reports.values())


def test_08_infrared_dichotomy(cfg):
    t0 = time.time()
    sigmas = [1e-1, 1e-2, 1e-3, 1e-4]
    A, B = preset_van_hove()

    def ladder(p):
        # log-midpoint rungs on [sigma, 1] with 16 shells per decade
        return [(s, make_grid(3, s, 1.0, max(1, math.ceil(16 * math.log10(1.0 / s))),
                              "log-midpoint", rho0=1.0, p=p)) for s in sigmas]

    # flat coupling: logarithmic growth of the number expectation
    flat = ladder(0.0)
    rows, verdict = ir_sweep(flat, A, B, alpha=0.5, n_max=12, cfg=cfg)
    assert verdict.kind == "diverging"
    assert verdict.divergence_kind == "logarithmic"
    assert verdict.slope_b > 0.0
    assert verdict.r_squared >= 0.99
    for row, (_, g) in zip(rows, flat):
        assert row.n_shells == g.n_modes
        exact = van_hove_oracle(g, 0.5)
        assert abs(row.expectation_N - exact.N_exact) <= 1e-6 * exact.N_exact

    # linearly vanishing coupling: the ladder is Cauchy
    rows, verdict = ir_sweep(ladder(1.0), A, B, alpha=0.5, n_max=12, cfg=cfg)
    assert verdict.kind == "converging"
    values = [r.expectation_N for r in rows]
    increments = [abs(b - a) for a, b in zip(values, values[1:])]
    assert all(b < a for a, b in zip(increments, increments[1:]))
    assert increments[-1] <= 1e-3 * values[-1]

    assert time.time() - t0 <= 600.0


def test_09_byte_identical_reports(tmp_path):
    runner = CliRunner()
    outputs = {}
    for tag in ("first", "second"):
        blobs = []
        for name in MODEL_CONFIGS + SWEEP_CONFIGS:
            sub = "sweep" if name.startswith("ir_sweep") else "run"
            out = tmp_path / tag / name.replace(".json", "")
            result = runner.invoke(cli.main, [
                sub, "--config", str(EXAMPLES / name), "--out", str(out),
            ])
            assert result.exit_code == 0, (name, result.output)
            blobs.append((out / "report.csv").read_bytes())
            sweep_csv = out / "sweep.csv"
            if sweep_csv.exists():
                blobs.append(sweep_csv.read_bytes())
        outputs[tag] = blobs
    assert outputs["first"] == outputs["second"]
