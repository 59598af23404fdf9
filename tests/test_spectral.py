"""Dense/Lanczos ground states, parity-sector solves and conjugate-gradient resolvent solves."""

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
from gsblab import spectral
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


class TestLanczosPath:
    def test_complex_hermitian_sparse_above_dense_cutoff(self):
        dim = DENSE_MAX_DIM + 172
        rng = np.random.default_rng(21)
        raw = sp.random(dim, dim, density=0.02, random_state=rng, format="csr")
        raw = raw + 1j * sp.random(dim, dim, density=0.02, random_state=rng, format="csr")
        mat = (raw + raw.conj().T) / 2.0 + sp.diags(np.arange(dim) / dim)
        gs = ground_state(LinOp(mat, hermitian=True), CFG)
        E_ref, vec_ref = oracle.dense_ground_state(mat.toarray())
        vals = np.linalg.eigvalsh(mat.toarray())
        assert gs.method == "lanczos"
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
        assert g_r.method == g_c.method == "lanczos"
        assert g_c.energy == pytest.approx(g_r.energy, abs=1e-10 * max(1.0, abs(g_r.energy)))
        overlap = abs(np.vdot(g_r.vector, g_c.vector))
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_iterations_count_operator_applications(self):
        m = spin_boson_model(n_modes=3, n_max=6)
        calls = []
        apply = m.H.apply
        m.H.apply = lambda v: calls.append(1) or apply(v)
        gs = solve_model(m, CFG)
        assert gs.method == "lanczos"
        # every application but the final residual check is the Lanczos run's
        assert gs.iterations == len(calls) - 1 > 2

    def test_zero_ground_energy_found(self):
        # a relative Ritz test never accepts theta = 0; the solver must not skip it
        H = LinOp(sp.diags(np.linspace(0.0, 5.0, DENSE_MAX_DIM + 172)), hermitian=True)
        gs = ground_state(H, CFG)
        assert gs.method == "lanczos"
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
        assert gs.method == "lanczos"
        assert gs.gap <= 1e-12
        assert gs.near_degenerate

    def test_dense_path_counts_dimension(self):
        gs = ground_state(LinOp(sp.diags(np.array([3.0, 1.0, 2.0])), hermitian=True), CFG)
        assert (gs.method, gs.iterations, gs.energy, gs.gap) == ("dense", 3, 1.0, 1.0)

    def test_lanczos_budget_exhausted_raises(self):
        m = spin_boson_model(n_modes=3, n_max=6)
        with pytest.raises(NonConverged, match="lanczos did not reach eig_tol") as stop:
            solve_model(m, SolverConfig(max_lanczos=5))
        # stopped before its first restart, so with no residual estimate
        assert stop.value.best_residual == math.inf

    def test_overflowing_product_raises_without_a_warning(self):
        # finite entries whose products overflow: refused at once, and the
        # RuntimeWarning filter of the test run would fail on any overflow warning
        n = DENSE_MAX_DIM + 72
        H = sp.diags([np.full(n, 1e307), np.full(n - 1, 1e307), np.full(n - 1, 1e307)],
                     [0, 1, -1])
        with pytest.raises(NonConverged, match="lanczos overflowed"):
            ground_state(LinOp(H, hermitian=True), CFG)

    @pytest.mark.parametrize("diag", [
        np.r_[0.0, np.ones(299)],
        np.repeat([2.0, -1.0, 0.5], 100),
        np.r_[np.linspace(0.0, 3.0, 298), -1.0, -1.0],
    ], ids=["zero_then_ones", "three_valued", "degenerate_ground"])
    def test_invariant_krylov_space_continues_from_a_fresh_vector(self, diag):
        # a diagonal operator's Krylov space is invariant after as many steps
        # as it has distinct eigenvalues, here two or three
        H = LinOp(sp.diags(diag), hermitian=True)
        gs = ground_state(H, CFG)
        vals = np.linalg.eigvalsh(np.diag(diag))
        assert gs.method == "lanczos"
        assert gs.energy == pytest.approx(vals[0], abs=1e-12)
        assert gs.gap == pytest.approx(vals[1] - vals[0], abs=1e-12)
        assert gs.residual <= CFG.eig_tol * max(1.0, abs(gs.energy))

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_degeneracy_found_from_any_seed(self, seed):
        # the partner shows up through rounding; the settling checks give it
        # the cycles to, whichever start vector the seed draws
        grid = build_radial_grid(3, 0.4, 2.0, 4, rule="midpoint")
        fam = CouplingFamily(rho0=0.9, p=1.0, uv=10.0)
        grid = grid.with_coupling(eval_coupling(fam, grid), fam)
        m = assemble(*preset_spin_boson(0.0), grid, 0.3, 8)
        assert m.dim == 990 and m.H.mat.nnz < 2 * spectral.MIN_THREAD_NNZ
        gs = solve_model(m, SolverConfig(seed=seed))
        assert gs.method == "lanczos"
        assert gs.gap <= 1e-12 and gs.near_degenerate


def identities_m4(turn=0.0):
    """The spin boson of the benchmark's identities M=4 config (dim 3,640), its matter turned
    by `turn` radians: at 0 it carries parity sectors, otherwise no sign pattern."""
    grid = build_radial_grid(3, 0.4, 2.0, 4)
    fam = CouplingFamily(rho0=0.9, p=1.0, uv=10.0)
    grid = grid.with_coupling(eval_coupling(fam, grid), fam)
    A, B = preset_spin_boson(1.0)
    c, s = math.cos(turn), math.sin(turn)
    R = np.array([[c, -s], [s, c]])
    return assemble(R @ A @ R.T, [R @ b @ R.T for b in B], grid, 0.3, 12)


class TestOneBlock:
    """An H that does not split is one whole block, solved as it was before blocks existed."""

    @pytest.mark.parametrize("make, method, nnz, sectored", [
        # sectors, but 25,479 stored entries: below the split size
        (lambda: identities_m4(), "lanczos", 25_479, True),
        # 50,960 stored entries, but no parity to split by
        (lambda: identities_m4(0.3), "lanczos", 50_960, False),
        (lambda: spin_boson_model(n_modes=1, n_max=5), "dense", 31, True),
    ], ids=["identities_m4", "no_parity", "dense"])
    def test_an_unsplit_h_is_one_whole_block(self, make, method, nnz, sectored, monkeypatch):
        m = make()
        assert (m.H.mat.nnz, m.H.sectors is not None) == (nnz, sectored)
        blocks = spectral.sector_blocks(m.H)
        assert len(blocks) == 1
        idx, block = blocks[0]
        assert idx == slice(None) and block is m.H
        applied = []
        apply = m.H.apply
        monkeypatch.setattr(m.H, "apply", lambda v: applied.append(1) or apply(v))
        gs = ground_state(m.H, CFG)
        assert gs.method == method
        # every Lanczos product and the residual's go through H.apply; eigh counts dim
        if method == "dense":
            assert (gs.iterations, len(applied)) == (m.dim, 1)
        else:
            assert len(applied) == gs.iterations + 1


class TestParitySectors:
    """An H with two parity sectors and enough entries is solved one sector per thread."""

    @pytest.fixture(scope="class")
    def split(self):
        # M=8, n_max=7: dimension 12,870 and about 109,000 stored entries
        m = spin_boson_model(n_modes=8, n_max=7)
        assert m.H.sectors is not None and m.H.mat.nnz >= 2 * spectral.MIN_THREAD_NNZ
        parts = [ground_state(LinOp(m.H.mat[idx][:, idx], hermitian=True), CFG)
                 for idx in m.H.sectors]
        return m, solve_model(m, CFG), parts

    def test_vector_and_iterations_come_from_the_sectors(self, split):
        m, gs, parts = split
        assert gs.method == "lanczos-sectors"
        low = int(np.argmin([p.energy for p in parts]))
        assert gs.iterations == sum(p.iterations for p in parts)
        assert not gs.vector[m.H.sectors[1 - low]].any()
        # the merged vector is the lower sector's, normalized again
        np.testing.assert_allclose(gs.vector[m.H.sectors[low]], parts[low].vector, atol=1e-15)

    def test_max_lanczos_caps_each_sector(self, split):
        m, gs, parts = split
        most = max(p.iterations for p in parts)
        assert gs.iterations > most
        assert solve_model(m, SolverConfig(max_lanczos=most)).iterations == gs.iterations
        with pytest.raises(NonConverged, match="lanczos did not reach eig_tol") as stop:
            solve_model(m, SolverConfig(max_lanczos=most - 1))
        # the budget stop carries the best ground estimate of its restarts
        assert 0.0 <= stop.value.best_residual < math.inf

    def test_exact_degeneracy_between_sectors(self):
        # at delta = 0 the sectors' ground energies are equal: the doublet of
        # the sigma_x = +1 and -1 ground states
        grid = build_radial_grid(3, 0.3, 1.5, 8)
        fam = CouplingFamily(rho0=0.8, p=1.0, uv=10.0, profile="hard-cutoff")
        grid = grid.with_coupling(eval_coupling(fam, grid), fam)
        gs = solve_model(assemble(*preset_spin_boson(0.0), grid, 0.4, 7), CFG)
        assert gs.method == "lanczos-sectors"
        assert gs.gap <= 1e-12 and gs.near_degenerate

    def test_one_ground_state_and_one_product_with_h(self, split, monkeypatch):
        # the sectors are solved on their own blocks; the whole H is entered,
        # accepted and applied once, for its residual
        m = split[0]
        solve, apply, record = spectral.ground_state, m.H.apply, spectral.GroundState
        calls = {"ground_state": 0, "GroundState": 0, "apply": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(spectral, "ground_state", counting("ground_state", solve))
        monkeypatch.setattr(spectral, "GroundState", counting("GroundState", record))
        monkeypatch.setattr(m.H, "apply", counting("apply", apply))
        gs = solve_model(m, CFG)
        assert gs.method == "lanczos-sectors"
        assert calls == {"ground_state": 1, "GroundState": 1, "apply": 1}

    @pytest.mark.parametrize("cores", [1, 2])
    def test_overflowing_sector_product_raises_without_a_warning(self, split, chain_cores,
                                                                 cores):
        # a worker thread solves under the caller's np.errstate: without it the
        # sector on the second thread warned "overflow encountered in dot"
        m = split[0]
        chain_cores(cores)
        H = LinOp(m.H.mat * 1e305, hermitian=True, sectors=m.H.sectors)
        with pytest.raises(NonConverged, match="lanczos overflowed"):
            ground_state(H, CFG)

    def test_each_sector_takes_the_solver_its_size_picks(self):
        # sectors of 259 states (Lanczos) and of 1 state (dense eigh); the
        # random block alone stores 259^2 entries, enough to split
        d = 260
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((d - 1, d - 1))
        A = np.zeros((d, d))
        A[:d - 1, :d - 1] = (raw + raw.T) / 2.0
        A[d - 1, d - 1] = 5.0
        B = np.zeros((d, d))
        B[0, d - 1] = B[d - 1, 0] = 1.0
        grid = build_radial_grid(3, 0.3, 1.5, 2)
        fam = CouplingFamily(rho0=0.8, p=1.0, uv=10.0, profile="hard-cutoff")
        grid = grid.with_coupling(eval_coupling(fam, grid), fam)
        m = assemble(A, [B], grid, 0.4, 0)
        assert sorted(len(idx) for idx in m.H.sectors) == [1, d - 1]
        assert m.H.mat.nnz == (d - 1) ** 2 + 1 >= 2 * spectral.MIN_THREAD_NNZ
        gs = solve_model(m, CFG)
        assert gs.method == "lanczos-sectors"
        ref = np.linalg.eigvalsh(m.H.mat.toarray())
        assert gs.energy == pytest.approx(ref[0], abs=1e-12 * max(1.0, abs(ref[0])))
        assert gs.gap == pytest.approx(ref[1] - ref[0], rel=1e-9)
