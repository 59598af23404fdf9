"""Hamiltonian assembly, the commutant density T(k), and the van Hove oracle."""

import math

import numpy as np
import pytest
import scipy.io

from gsblab import (
    CouplingFamily,
    annihilator,
    assemble,
    build_radial_grid,
    eval_coupling,
    matter_parity,
    preset_spin_boson,
    preset_van_hove,
    t_operator,
    van_hove_oracle,
)

import oracle


def coupled_grid(n_modes, rho0=1.0, p=0.0, nu=3, sigma=0.2, Lambda=None):
    Lambda = Lambda or sigma + 0.3 * n_modes
    grid = build_radial_grid(nu, sigma, Lambda, n_modes)
    fam = CouplingFamily(rho0=rho0, p=p, uv=10.0, profile="hard-cutoff")
    return grid.with_coupling(eval_coupling(fam, grid), fam)


class TestAssembly:
    def test_dense_cross_check(self):
        grid = coupled_grid(2)
        A, B = preset_spin_boson(1.0)
        m = assemble(A, B, grid, 0.4, 3)
        states = oracle.dense_basis(2, 3)
        H_ref = oracle.dense_hamiltonian(
            A, B, grid.omega, [np.asarray(grid.channel(0))], grid.weights, 0.4,
            states,
        )
        H_got = m.H.mat.toarray()
        np.testing.assert_allclose(H_got, H_ref, atol=1e-13)

    def test_h0_plus_alpha_hi(self):
        # H(alpha) = H0 + alpha H_I, with H_I = (H(alpha) - H(0)) / alpha the same at every alpha
        grid = coupled_grid(2)
        A, B = preset_spin_boson(0.7)
        H0 = assemble(A, B, grid, 0.0, 2).H.mat
        states = oracle.dense_basis(2, 2)
        nf = len(states)
        H0_ref = np.kron(A, np.eye(nf)) + np.kron(np.eye(2),
                                                  oracle.dense_dgamma(grid.omega, states))
        np.testing.assert_allclose(H0.toarray(), H0_ref, atol=1e-13)
        HI_ref = np.kron(B[0], oracle.dense_field(grid.channel(0), grid.weights, states).real)
        for alpha in (0.25, -1.5):
            HI = (assemble(A, B, grid, alpha, 2).H.mat - H0).toarray() / alpha
            np.testing.assert_allclose(HI, HI_ref, atol=1e-13)

    def test_complex_matter_matches_kron_reference(self, tmp_path):
        # gsb_custom shape: d = 3, two channels, a complex hermitian B_1
        grid = build_radial_grid(3, 0.2, 0.8, 2)
        for rho0, p in ((1.0, 0.0), (0.6, 1.0)):
            fam = CouplingFamily(rho0=rho0, p=p, uv=10.0, profile="hard-cutoff")
            grid = grid.with_coupling(eval_coupling(fam, grid), fam)
        A = np.array([[0.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 2.0]])
        B = [np.array([[1.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.5, 0.0, 0.0]]),
             np.array([[0.0, 1.0j, 0.0], [-1.0j, 0.5, 0.2 - 0.4j], [0.0, 0.2 + 0.4j, -0.5]])]
        alpha, n_max = 0.35, 3
        m = assemble(A, B, grid, alpha, n_max)
        states = oracle.dense_basis(2, n_max)
        nf = len(states)
        want = np.kron(A, np.eye(nf)) + np.kron(np.eye(3), oracle.dense_dgamma(grid.omega, states))
        for j, b in enumerate(B):
            want = want + alpha * np.kron(b, oracle.dense_field(grid.channel(j), grid.weights,
                                                                states))
        assert m.H.mat.dtype == np.complex128
        assert assemble(A, B, grid, 0.0, n_max).H.mat.dtype == np.complex128
        np.testing.assert_allclose(m.H.mat.toarray(), want, rtol=0, atol=1e-13)
        path = tmp_path / "H.mtx"
        scipy.io.mmwrite(str(path), m.H.mat)
        back = scipy.io.mmread(str(path))
        assert back.dtype == np.complex128
        np.testing.assert_array_equal(back.toarray(), m.H.mat.toarray())

    def test_dimension(self):
        grid = coupled_grid(3)
        A, B = preset_spin_boson(1.0)
        m = assemble(A, B, grid, 0.1, 4)
        assert m.dim == 2 * math.comb(3 + 4, 3)
        assert m.d_matter == 2

    def test_nonhermitian_matter_rejected(self):
        grid = coupled_grid(1)
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            assemble(A, [np.eye(2)], grid, 0.1, 2)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_matter_rejected(self, bad):
        # a non-finite A or B_j would reach the solvers as a nan residual
        grid = coupled_grid(1)
        with pytest.raises(ValueError, match="A has a non-finite entry"):
            assemble(np.array([[bad]]), [np.ones((1, 1))], grid, 0.3, 3)
        with pytest.raises(ValueError, match=r"B\[0\] has a non-finite entry"):
            assemble(np.zeros((1, 1)), [np.array([[bad]])], grid, 0.3, 3)

    def test_channel_count_mismatch_rejected(self):
        grid = coupled_grid(1)
        A, B = preset_spin_boson(1.0)
        with pytest.raises(ValueError):
            assemble(A, B + [np.eye(2)], grid, 0.1, 2)

    def test_alpha_zero_ground_energy(self):
        grid = coupled_grid(2)
        A, B = preset_spin_boson(1.0)
        m = assemble(A, B, grid, 0.0, 3)
        E, _ = oracle.dense_ground_state(m.H.mat.toarray())
        assert E == pytest.approx(np.linalg.eigvalsh(m.A)[0], abs=1e-12)


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
# 3-level matter with u = (1, 1, -1): A mixes levels 0 and 1, B couples both to 2
THREE_LEVELS = (np.array([[1.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 3.0]]),
                [np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.7], [1.0, 0.7, 0.0]])])


class TestMatterParity:
    """Signs u with U A U = A and U B_j U = -B_j make U (x) (-1)^N a symmetry of H."""

    def test_spin_boson(self):
        assert tuple(matter_parity(*preset_spin_boson(1.0))) == (1, -1)
        assert tuple(matter_parity(*preset_spin_boson(0.0))) == (1, -1)

    @pytest.mark.parametrize("case", ["biased_spin_boson", "van_hove", "rotated_matter"])
    def test_none_without_a_sign_pattern(self, case):
        if case == "biased_spin_boson":
            A, B = np.array([[1.0, 0.25], [0.25, 0.0]]), [SIGMA_X]
        elif case == "van_hove":
            A, B = preset_van_hove()
        else:
            c, s = math.cos(0.3), math.sin(0.3)
            R = np.array([[c, -s], [s, c]])
            A, B = preset_spin_boson(1.0)
            A, B = R @ A @ R.T, [R @ b @ R.T for b in B]
        assert matter_parity(A, B) is None
        assert assemble(A, B, coupled_grid(2), 0.4, 3).H.sectors is None

    def test_three_levels(self):
        A, B = THREE_LEVELS
        u = matter_parity(A, B)
        assert tuple(u) == (1, 1, -1)
        U = np.diag(u)
        np.testing.assert_array_equal(U @ A @ U, A)
        np.testing.assert_array_equal(U @ B[0] @ U, -B[0])

    @pytest.mark.parametrize("matter", ["spin_boson", "three_levels"])
    def test_sectors_partition_the_basis_with_no_entry_between(self, matter):
        A, B = preset_spin_boson(1.0) if matter == "spin_boson" else THREE_LEVELS
        m = assemble(A, B, coupled_grid(3), 0.4, 4)
        even, odd = m.H.sectors
        np.testing.assert_array_equal(np.sort(np.r_[even, odd]), np.arange(m.dim))
        assert m.H.mat[even][:, odd].nnz == m.H.mat[odd][:, even].nnz == 0
        # state (a, n) lies in sector u_a (-1)^|n|
        parity = np.outer(matter_parity(A, B), (-1) ** m.basis.totals).ravel()
        assert (parity[even] == 1).all() and (parity[odd] == -1).all()


class TestTOperator:
    def test_commutator_defines_t(self):
        # [1 (x) a_i, H_I] = sqrt(w_i) T(k_i) on interior columns
        grid = coupled_grid(2, rho0=0.8, p=1.0)
        A, B = preset_spin_boson(1.3)
        m = assemble(A, B, grid, 0.6, 3)
        nf = len(m.basis)
        HI = (m.H.mat - assemble(A, B, grid, 0.0, 3).H.mat).toarray() / 0.6
        for i in range(2):
            a_full = np.kron(np.eye(2), annihilator(i, m.basis).toarray())
            comm = a_full @ HI - HI @ a_full
            t_dense = np.kron(t_operator(m, i), np.eye(nf))
            cols = np.where(np.tile(m.basis.interior_mask, 2))[0]
            np.testing.assert_allclose(
                comm[:, cols],
                (math.sqrt(grid.weights[i]) * t_dense)[:, cols],
                atol=1e-12,
            )

    def test_scalar_factor(self):
        # T(k_i) = 2^{-1/2} sum_j lam_j(k_i) B_j (x) 1
        grid = coupled_grid(1, rho0=2.0, p=1.0)
        A, B = preset_spin_boson(1.0)
        m = assemble(A, B, grid, 0.5, 2)
        lam = grid.channel(0)[0]
        np.testing.assert_allclose(t_operator(m, 0), lam / math.sqrt(2.0) * B[0], atol=1e-14)


class TestVanHove:
    def test_oracle_single_mode_unit(self):
        grid = coupled_grid(1, sigma=0.5, Lambda=1.5, nu=1)
        vh = van_hove_oracle(grid, 1.0)
        assert vh.E_exact == pytest.approx(-1.0)
        assert vh.N_exact == pytest.approx(1.0)
        assert vh.a_expectation[0] == pytest.approx(-1.0)

    def test_oracle_matches_dense_diagonalization(self):
        grid = coupled_grid(2, rho0=0.7, p=1.0)
        A, B = preset_van_hove()
        m = assemble(A, B, grid, 0.5, 14)
        E, vec = oracle.dense_ground_state(m.H.mat.toarray())
        vh = van_hove_oracle(grid, 0.5)
        assert E == pytest.approx(vh.E_exact, abs=1e-10)
        N_op = oracle.dense_dgamma(np.ones(2), oracle.dense_basis(2, 14))
        n_val = float(np.real(vec.conj() @ N_op @ vec))
        assert n_val == pytest.approx(vh.N_exact, abs=1e-9)

    def test_oracle_matches_reference_formulas(self):
        grid = coupled_grid(3, rho0=1.2, p=1.0)
        E, N, z = oracle.coherent_closed_forms(
            grid.channel(0), grid.weights, grid.omega, 0.4
        )
        vh = van_hove_oracle(grid, 0.4)
        assert vh.E_exact == pytest.approx(E, rel=1e-14)
        assert vh.N_exact == pytest.approx(N, rel=1e-14)
        np.testing.assert_allclose(vh.a_expectation, z, rtol=1e-13)


class TestPresets:
    def test_van_hove_matter(self):
        A, B = preset_van_hove()
        assert np.asarray(A).shape == (1, 1)
        assert len(B) == 1 and np.asarray(B[0]).item() == 1.0

    def test_spin_boson_matter(self):
        A, B = preset_spin_boson(2.0)
        vals = np.linalg.eigvalsh(A)
        np.testing.assert_allclose(vals, [0.0, 2.0], atol=1e-14)
        np.testing.assert_allclose(B[0], [[0.0, 1.0], [1.0, 0.0]], atol=0)
