"""Dense/eigsh ground states and conjugate-gradient resolvent solves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsblab import (
    CouplingFamily,
    LinOp,
    NonConverged,
    NonPositiveShift,
    SolverConfig,
    assemble,
    build_radial_grid,
    eval_coupling,
    ground_state,
    preset_spin_boson,
    resolvent_apply,
    solve_model,
)
from gsblab import fock
from gsblab.spectral import DENSE_MAX_DIM, stacked_ground_states
import scipy.sparse as sp

import oracle


CFG = SolverConfig()


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2.0


def spin_boson_model(n_modes=2, n_max=6, alpha=0.4):
    grid = build_radial_grid(3, 0.3, 1.5, n_modes)
    fam = CouplingFamily(rho0=0.8, p=1.0, uv=10.0, profile="hard-cutoff")
    grid = grid.with_coupling(eval_coupling(fam, grid), fam)
    A, B = preset_spin_boson(1.0)
    return assemble(A, B, grid, alpha, n_max)


class TestGroundState:
    @given(seed=st.integers(0, 10_000), dim=st.integers(2, 40))
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_eigh(self, seed, dim):
        H_dense = random_hermitian(dim, seed)
        H = LinOp(sp.csr_matrix(H_dense), hermitian=True)
        gs = ground_state(H, CFG)
        E_ref, vec_ref = oracle.dense_ground_state(H_dense)
        assert gs.energy == pytest.approx(E_ref, abs=1e-9 * max(1.0, abs(E_ref)))
        overlap = abs(np.vdot(vec_ref, gs.vector))
        if gs.gap > 1e-8:
            assert overlap == pytest.approx(1.0, abs=1e-7)

    def test_residual_bound_honored(self):
        m = spin_boson_model()
        gs = solve_model(m, CFG)
        Hv = m.H.apply(gs.vector)
        res = np.linalg.norm(Hv - gs.energy * gs.vector)
        assert res <= CFG.eig_tol * max(1.0, abs(gs.energy)) * 10
        assert gs.residual == pytest.approx(res, rel=1e-6, abs=1e-14)

    def test_normalized_vector(self):
        m = spin_boson_model()
        gs = solve_model(m, CFG)
        assert np.linalg.norm(gs.vector) == pytest.approx(1.0, abs=1e-12)

    def test_gap_against_dense(self):
        m = spin_boson_model(n_modes=1, n_max=5)
        gs = solve_model(m, CFG)
        vals = np.linalg.eigvalsh(m.H.mat.toarray())
        assert gs.energy == pytest.approx(vals[0], abs=1e-10)
        assert gs.gap == pytest.approx(vals[1] - vals[0], rel=1e-6)
        assert not gs.near_degenerate

    def test_near_degenerate_flagged(self):
        # the computed gap, measured against the spectral width, drives the flag
        H = LinOp(sp.diags(np.array([0.0, 1e-12, 1.0])), hermitian=True)
        gs = ground_state(H, CFG)
        assert gs.near_degenerate
        well_gapped = ground_state(LinOp(sp.diags([0.0, 1.0, 2.0]), hermitian=True), CFG)
        assert not well_gapped.near_degenerate

    def test_dim_one(self):
        H = LinOp(sp.diags(np.array([4.2])), hermitian=True)
        gs = ground_state(H, CFG)
        assert gs.energy == pytest.approx(4.2)

    def test_max_iterations_exhausted_raises(self):
        H_dense = random_hermitian(60, 11)
        H = LinOp(sp.csr_matrix(H_dense), hermitian=True)
        tight = SolverConfig(eig_tol=1e-15, max_lanczos=3)
        with pytest.raises(NonConverged) as err:
            ground_state(H, tight)
        assert err.value.best_residual > 0

    def test_non_hermitian_rejected(self):
        mat = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        H = LinOp(mat, hermitian=False)
        with pytest.raises(ValueError):
            ground_state(H, CFG)

    def test_nan_residual_raises(self):
        # an operator that returns nan must not pass the residual check
        H = LinOp(sp.diags(np.array([1.0, 2.0, 3.0])), hermitian=True)
        H.apply = lambda v: np.full(len(v), np.nan)
        with pytest.raises(NonConverged, match="missed eig_tol"):
            ground_state(H, CFG)

    def test_w_top_needs_the_basis(self):
        # a bare operator carries no basis; solve_model takes w_top on the model's
        m = spin_boson_model()
        bare, gs = ground_state(m.H, CFG), solve_model(m, CFG)
        assert np.isnan(bare.w_top)
        np.testing.assert_array_equal(bare.vector, gs.vector)
        V = gs.vector.reshape(m.d_matter, len(m.basis))
        assert gs.w_top == np.sum(np.abs(V[:, m.basis.top_mask]) ** 2) > 0

    def test_seed_determinism(self):
        m = spin_boson_model()
        g1 = solve_model(m, CFG)
        g2 = solve_model(m, CFG)
        assert g1.energy == g2.energy
        np.testing.assert_array_equal(g1.vector, g2.vector)


class TestResolvent:
    def test_matches_dense_solve(self):
        m = spin_boson_model(n_modes=1, n_max=6)
        gs = solve_model(m, CFG)
        H_dense = m.H.mat.toarray()
        rng = np.random.default_rng(2)
        v = rng.standard_normal(m.dim) + 1j * rng.standard_normal(m.dim)
        for s in (0.1, 1.0, 7.5):
            x, iters, relres = resolvent_apply(m.H, gs.energy, s, v, CFG)
            want = np.linalg.solve(
                H_dense - gs.energy * np.eye(m.dim) + s * np.eye(m.dim), v
            )
            np.testing.assert_allclose(x, want, atol=1e-8 * np.linalg.norm(want))
            assert relres <= CFG.cg_tol
            # a real H with a genuinely complex right-hand side solves in complex
            assert x.dtype == np.complex128

    def test_zero_rhs(self):
        m = spin_boson_model(n_modes=1, n_max=4)
        gs = solve_model(m, CFG)
        x, iters, relres = resolvent_apply(
            m.H, gs.energy, 1.0, np.zeros(m.dim, dtype=complex), CFG
        )
        assert np.linalg.norm(x) == 0.0

    def test_nonpositive_shift_rejected(self):
        m = spin_boson_model(n_modes=1, n_max=4)
        gs = solve_model(m, CFG)
        v = np.ones(m.dim, dtype=complex)
        with pytest.raises(NonPositiveShift):
            resolvent_apply(m.H, gs.energy, 0.0, v, CFG)
        with pytest.raises(NonPositiveShift):
            resolvent_apply(m.H, gs.energy, -0.5, v, CFG)

    def test_dtype_follows_operator_and_rhs(self):
        # the working dtype is np.result_type(H, v): only a real H with a real
        # v solves in real arithmetic; a complex v stays complex even when its
        # imaginary part is zero
        real = spin_boson_model(n_modes=2, n_max=6)
        cplx = assemble(real.A.astype(complex), [b.astype(complex) for b in real.B],
                        real.grid, real.alpha, real.n_max)
        gs = solve_model(real, CFG)
        v = np.random.default_rng(3).standard_normal(real.dim)
        x_r, it_r, res_r = resolvent_apply(real.H, gs.energy, 0.5, v, CFG)
        x_c, it_c, res_c = resolvent_apply(cplx.H, gs.energy, 0.5, v, CFG)
        x_z, it_z, _ = resolvent_apply(real.H, gs.energy, 0.5, v.astype(complex), CFG)
        assert x_r.dtype == np.float64
        assert x_c.dtype == np.complex128 and x_z.dtype == np.complex128
        assert it_r == it_c == it_z and max(res_r, res_c) <= CFG.cg_tol
        assert np.linalg.norm(x_r - x_c) <= 1e-12 * np.linalg.norm(x_c)
        assert np.linalg.norm(x_r - x_z) <= 1e-12 * np.linalg.norm(x_z)

    def test_resolvent_eigenvector_scaling(self):
        m = spin_boson_model(n_modes=1, n_max=5)
        gs = solve_model(m, CFG)
        phi = gs.vector
        x, _, _ = resolvent_apply(m.H, gs.energy, 2.0, phi, CFG)
        np.testing.assert_allclose(x, phi / 2.0, atol=1e-9)

    def test_monotone_shift_decay(self):
        m = spin_boson_model(n_modes=1, n_max=5)
        gs = solve_model(m, CFG)
        rng = np.random.default_rng(9)
        v = rng.standard_normal(m.dim) + 1j * rng.standard_normal(m.dim)
        norms = []
        for s in (0.1, 0.5, 1.0, 3.0, 10.0):
            x, _, _ = resolvent_apply(m.H, gs.energy, s, v, CFG)
            norms.append(np.linalg.norm(x))
        assert all(a >= b - 1e-10 for a, b in zip(norms, norms[1:]))

    def test_resolvent_positivity(self):
        m = spin_boson_model(n_modes=1, n_max=5)
        gs = solve_model(m, CFG)
        rng = np.random.default_rng(10)
        v = rng.standard_normal(m.dim) + 1j * rng.standard_normal(m.dim)
        x, _, _ = resolvent_apply(m.H, gs.energy, 0.8, v, CFG)
        assert np.real(np.vdot(v, x)) > 0

    def test_cg_budget_exhausted_raises(self):
        m = spin_boson_model(n_modes=2, n_max=6)
        gs = solve_model(m, CFG)
        v = np.ones(m.dim, dtype=complex)
        tight = SolverConfig(cg_tol=1e-14, cg_max=2)
        with pytest.raises(NonConverged):
            resolvent_apply(m.H, gs.energy, 1e-6, v, tight)


def cg_problem(kind):
    """A hermitian model, its ground energy and a right-hand side in its dtype."""
    m = spin_boson_model(n_modes=2, n_max=6)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(m.dim)
    if kind == "complex":
        # sigma_y coupling: a genuinely complex hermitian H
        m = assemble(m.A.astype(complex), [np.array([[0.0, -1j], [1j, 0.0]])],
                     m.grid, m.alpha, m.n_max)
        v = v + 1j * rng.standard_normal(m.dim)
    return m, solve_model(m, CFG).energy, v


class TestCgKernel:
    """The in-place CG kernel against the allocating reference in the oracle."""

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_reference_pcg(self, kind):
        m, E, v = cg_problem(kind)
        assert (m.H.dtype == np.complex128) == (kind == "complex")
        for s in (0.1, 0.5, 2.0):
            u, it, relres = resolvent_apply(m.H, E, s, v, CFG)
            want, it_ref, relres_ref = oracle.reference_pcg(
                m.H.mat, E, s, v, CFG.cg_tol, CFG.cg_max)
            assert it == it_ref > 0
            assert u.dtype == want.dtype
            assert np.linalg.norm(u - want) <= 1e-12 * np.linalg.norm(want)
            assert relres <= CFG.cg_tol and relres == pytest.approx(relres_ref, rel=1e-2)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_one_apply_per_iteration(self, kind):
        m, E, v = cg_problem(kind)
        calls = []
        apply = m.H.apply
        m.H.apply = lambda x: calls.append(1) or apply(x)
        _, it, _ = resolvent_apply(m.H, E, 0.5, v, CFG)
        assert len(calls) == it > 0

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_inputs_not_modified(self, kind):
        m, E, v = cg_problem(kind)
        v_copy = v.copy()
        resolvent_apply(m.H, E, 0.5, v, CFG)
        np.testing.assert_array_equal(v, v_copy)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_level_one_calls_stay_in_scipy_blas(self, kind, monkeypatch):
        # numpy and scipy bundle separate OpenBLAS libraries, each with a
        # thread pool: a numpy dot or norm between scipy's axpy calls puts
        # both pools on the same cores
        m, E, v = cg_problem(kind)
        want, it_ref, _ = oracle.reference_pcg(m.H.mat, E, 0.5, v, CFG.cg_tol, CFG.cg_max)

        def refuse(*args, **kwargs):
            raise AssertionError("numpy level-1 call in the CG loop")

        monkeypatch.setattr(np, "vdot", refuse)
        monkeypatch.setattr(np.linalg, "norm", refuse)
        u, it, relres = resolvent_apply(m.H, E, 0.5, v, CFG)
        assert it == it_ref > 0 and relres <= CFG.cg_tol
        assert u.dtype == want.dtype
        err = math.sqrt(np.sum(np.abs(u - want) ** 2))
        assert err <= 1e-14 * math.sqrt(np.sum(np.abs(want) ** 2))

    def test_nan_raises(self):
        # a nan right-hand side or operator must not return as a converged solve
        m, E, v = cg_problem("real")
        with pytest.raises(NonConverged):
            resolvent_apply(m.H, E, 0.5, np.full(m.dim, np.nan), CFG)
        m.H.apply = lambda x: np.full(len(x), np.nan)
        with pytest.raises(NonConverged):
            resolvent_apply(m.H, E, 0.5, v, CFG)

    def test_indefinite_system_raises(self):
        # E above the ground energy by more than s: the ground vector sees a
        # negative eigenvalue of H - E + s
        m = spin_boson_model(n_modes=2, n_max=6)
        gs = solve_model(m, CFG)
        s = 0.5
        with pytest.raises(NonConverged, match="CG lost positive definiteness"):
            resolvent_apply(m.H, gs.energy + 2 * s, s, gs.vector, CFG)


class TestBlockedProduct:
    def test_solvers_unchanged(self, monkeypatch):
        # M=8, n_max=7: about 109k stored entries, two blocks of H on two cores
        m = spin_boson_model(n_modes=8, n_max=7, alpha=0.3)
        assert m.H.mat.nnz >= 2 * fock.MIN_BLOCK_NNZ
        v = np.random.default_rng(3).standard_normal(m.dim)
        runs = []
        for cores in (1, 2):
            monkeypatch.setattr(fock, "_usable_cores", lambda: cores)
            H = LinOp(m.H.mat, hermitian=True)
            gs = ground_state(H, CFG)
            assert len(H.blocks) == cores
            runs.append((gs, *resolvent_apply(H, gs.energy, 0.5, v, CFG)))
        (gs1, u1, it1, res1), (gs2, u2, it2, res2) = runs
        assert gs1.energy == gs2.energy and gs1.iterations == gs2.iterations
        assert gs1.residual == gs2.residual and gs1.gap == gs2.gap
        np.testing.assert_array_equal(gs1.vector, gs2.vector)
        assert it1 == it2 > 0 and res1 == res2
        np.testing.assert_array_equal(u1, u2)


class TestStackedGroundStates:
    def test_matches_ground_state_per_matrix(self):
        stack = np.stack([random_hermitian(9, seed) for seed in range(6)])
        energies, vecs = stacked_ground_states(stack, CFG)
        assert vecs.shape == (6, 9)
        for k, H in enumerate(stack):
            gs = ground_state(LinOp(sp.csr_matrix(H), hermitian=True), CFG)
            assert energies[k] == pytest.approx(gs.energy, rel=1e-13)
            assert abs(np.vdot(gs.vector, vecs[k])) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(vecs[k]) == pytest.approx(1.0, abs=1e-14)

    def test_real_stack_stays_real(self):
        stack = np.stack([random_hermitian(5, seed).real for seed in range(3)])
        energies, vecs = stacked_ground_states(stack, CFG)
        assert vecs.dtype == np.float64
        np.testing.assert_allclose(energies, np.linalg.eigvalsh(stack)[:, 0], rtol=1e-13)

    def test_dimension_above_max_lanczos_raises(self):
        stack = np.stack([random_hermitian(6, 0)])
        with pytest.raises(NonConverged, match="max_lanczos=5"):
            stacked_ground_states(stack, SolverConfig(max_lanczos=5))
        stacked_ground_states(stack, SolverConfig(max_lanczos=6))

    def test_nan_residual_is_checked(self):
        stack = np.stack([np.diag([1.0, 2.0]), np.diag([np.nan, 1.0])])
        with np.errstate(invalid="ignore"), pytest.raises(NonConverged, match="on matrix 1"):
            stacked_ground_states(stack, CFG)

    def test_residual_is_checked(self):
        # no floating-point eigenvector reaches a residual of 1e-300
        stack = np.stack([np.diag([1.0, 2.0]), random_hermitian(2, 3)])
        with pytest.raises(NonConverged, match="on matrix 1"):
            stacked_ground_states(stack, SolverConfig(eig_tol=1e-300))


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.eig_tol == 1e-11
        assert cfg.cg_tol == 1e-11
        assert cfg.seed == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(eig_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(cg_max=0)

    @pytest.mark.parametrize("field", [{"max_lanczos": 2.5}, {"foo": 1}, {"cg_tol": math.nan}])
    def test_rejects_what_the_run_config_rejects(self, field):
        with pytest.raises(ValueError):
            SolverConfig(**field)


class TestEigshPath:
    def test_complex_hermitian_sparse_above_dense_cutoff(self):
        dim = DENSE_MAX_DIM + 172
        rng = np.random.default_rng(21)
        raw = sp.random(dim, dim, density=0.02, random_state=rng, format="csr")
        raw = raw + 1j * sp.random(dim, dim, density=0.02, random_state=rng, format="csr")
        mat = (raw + raw.conj().T) / 2.0 + sp.diags(np.arange(dim) / dim)
        gs = ground_state(LinOp(mat, hermitian=True), CFG)
        E_ref, vec_ref = oracle.dense_ground_state(mat.toarray())
        vals = np.linalg.eigvalsh(mat.toarray())
        assert gs.method == "eigsh"
        assert np.iscomplexobj(gs.vector)
        assert gs.energy == pytest.approx(E_ref, abs=1e-10 * max(1.0, abs(E_ref)))
        assert gs.gap == pytest.approx(vals[1] - vals[0], rel=1e-6)
        assert abs(np.vdot(vec_ref, gs.vector)) == pytest.approx(1.0, abs=1e-7)

    def test_real_and_complex_dtype_agree(self):
        grid = build_radial_grid(3, 0.3, 1.5, 3)
        fam = CouplingFamily(rho0=0.8, p=1.0, uv=10.0, profile="hard-cutoff")
        grid = grid.with_coupling(eval_coupling(fam, grid), fam)
        A, B = preset_spin_boson(1.0)
        real = assemble(A, B, grid, 0.4, 6)
        cplx = assemble(A.astype(complex), [b.astype(complex) for b in B], grid, 0.4, 6)
        assert real.H.mat.dtype == np.float64 and cplx.H.mat.dtype == np.complex128
        g_r, g_c = solve_model(real, CFG), solve_model(cplx, CFG)
        assert g_r.method == g_c.method == "eigsh"
        assert g_c.energy == pytest.approx(g_r.energy, abs=1e-10 * max(1.0, abs(g_r.energy)))
        overlap = abs(np.vdot(g_r.vector, g_c.vector))
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_iterations_count_operator_applications(self):
        m = spin_boson_model(n_modes=3, n_max=6)
        calls = []
        apply = m.H.apply
        m.H.apply = lambda v: calls.append(1) or apply(v)
        gs = solve_model(m, CFG)
        assert gs.method == "eigsh"
        # every application but the final residual check is eigsh's
        assert gs.iterations == len(calls) - 1 > 2

    def test_zero_ground_energy_found(self):
        # a relative Ritz test never accepts theta = 0; the solver must not skip it
        H = LinOp(sp.diags(np.linspace(0.0, 5.0, DENSE_MAX_DIM + 172)), hermitian=True)
        gs = ground_state(H, CFG)
        assert gs.method == "eigsh"
        assert gs.energy == pytest.approx(0.0, abs=1e-12)
        assert gs.gap == pytest.approx(5.0 / (DENSE_MAX_DIM + 171), rel=1e-8)

    def test_exact_degeneracy_found(self):
        """At delta = 0 the spin boson's ground level is exactly twice degenerate.

        H = dGamma(omega) + alpha sigma_x (x) phi splits into sigma_x = +1 and
        -1 sectors, which (-1)^N maps onto each other.  A Lanczos run from one
        start vector sees one vector per eigenvalue, so it finds the partner
        only through rounding, over a long run at tight tolerance.  A two-stage
        solve (eigsh k=2 to sqrt(eig_tol), then k=1 from its Ritz vector)
        reported a gap of 0.5-0.7 and no near-degeneracy on such models.
        """
        grid = build_radial_grid(3, 0.4, 2.0, 4, rule="midpoint")
        fam = CouplingFamily(rho0=0.9, p=1.0, uv=10.0)
        grid = grid.with_coupling(eval_coupling(fam, grid), fam)
        A, B = preset_spin_boson(0.0)
        m = assemble(A, B, grid, 0.3, 6)
        assert m.dim == 420 > DENSE_MAX_DIM
        gs = solve_model(m, CFG)
        assert gs.method == "eigsh"
        assert gs.gap <= 1e-12
        assert gs.near_degenerate

    def test_dense_path_counts_dimension(self):
        gs = ground_state(LinOp(sp.diags(np.array([3.0, 1.0, 2.0])), hermitian=True), CFG)
        assert (gs.method, gs.iterations, gs.energy, gs.gap) == ("dense", 3, 1.0, 1.0)

    def test_eigsh_budget_exhausted_raises(self):
        m = spin_boson_model(n_modes=3, n_max=6)
        with pytest.raises(NonConverged):
            solve_model(m, SolverConfig(max_lanczos=5))
