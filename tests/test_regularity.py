"""Identity checks: pull-through, moments, absence bounds, exact decompositions."""

import itertools
import math
import sys
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from gsblab import (
    CouplingFamily,
    GsbModel,
    LinOp,
    NonConverged,
    SolverConfig,
    absence_lower_bound,
    apply_fock,
    apply_matter,
    assemble,
    build_radial_grid,
    ccr_and_bound_suite,
    dgamma,
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
    t_operator,
    van_hove_oracle,
)
from gsblab import regularity, spectral

import oracle

CFG = SolverConfig()


def hard_family(rho0=1.0, p=0.0):
    return CouplingFamily(rho0=rho0, p=p, uv=10.0, profile="hard-cutoff")


def van_hove_unit_model(n_max=24):
    grid = build_radial_grid(1, 0.5, 1.5, 1)
    grid = grid.with_coupling(eval_coupling(hard_family(), grid), hard_family())
    A, B = preset_van_hove()
    return assemble(A, B, grid, 1.0, n_max)


def spin_boson(n_modes=2, n_max=8, alpha=0.3, rho0=0.8):
    grid = build_radial_grid(3, 0.3, 1.5, n_modes)
    fam = hard_family(rho0=rho0, p=1.0)
    grid = grid.with_coupling(eval_coupling(fam, grid), fam)
    A, B = preset_spin_boson(1.0)
    return assemble(A, B, grid, alpha, n_max)


def dense_pullthrough_rhs(m, gs, f):
    """Reference reconstruction via dense linear solves."""
    H = m.H.mat.toarray()
    phi = gs.vector
    rhs = np.zeros(m.dim, dtype=np.result_type(phi, np.asarray(f)))
    for i in range(m.grid.n_modes):
        shifted = H - gs.energy * np.eye(m.dim) + m.grid.omega[i] * np.eye(m.dim)
        t_phi = apply_matter(t_operator(m, i), phi)
        rhs -= m.alpha * np.conj(f[i]) * m.grid.weights[i] * np.linalg.solve(shifted, t_phi)
    return rhs


class TestPullthrough:
    def test_dense_cross_check(self):
        m = spin_boson(n_modes=2, n_max=8)
        gs = solve_model(m, CFG)
        f = np.asarray(m.grid.channel(0), dtype=complex)
        rep = pullthrough_check(m, gs, f, CFG)
        want = dense_pullthrough_rhs(m, gs, f)
        # the check's rhs is the norm of the reconstruction
        assert rep.rhs == pytest.approx(float(np.linalg.norm(want)), rel=1e-8)
        assert rep.passed

    def test_truncation_ladder(self):
        errs = []
        tops = []
        for n_max in (6, 10, 14):
            m = spin_boson(n_modes=2, n_max=n_max)
            gs = solve_model(m, CFG)
            rep = pullthrough_check(m, gs, np.asarray(m.grid.channel(0)), CFG)
            errs.append(rep.rel_err)
            tops.append(rep.w_top)
        assert errs[0] >= errs[1] >= errs[2]
        # error tracks sqrt(w_top): fitted constant stays bounded
        cs = [e / math.sqrt(t) for e, t in zip(errs, tops) if t > 0]
        assert all(c < 10.0 for c in cs)

    def test_van_hove_exactness(self):
        m = van_hove_unit_model()
        gs = solve_model(m, CFG)
        rep = pullthrough_check(m, gs, np.asarray(m.grid.channel(0)), CFG)
        assert rep.rel_err < 1e-10
        assert rep.passed

    def test_alpha_zero_trivial(self):
        grid = build_radial_grid(1, 0.5, 1.5, 1)
        grid = grid.with_coupling(eval_coupling(hard_family(), grid), hard_family())
        A, B = preset_van_hove()
        m = assemble(A, B, grid, 0.0, 6)
        gs = solve_model(m, CFG)
        rep = pullthrough_check(m, gs, np.ones(1, dtype=complex), CFG)
        assert rep.lhs == pytest.approx(0.0, abs=1e-13)
        assert rep.passed

    def test_unconverged_ground_state_rejected(self):
        m = spin_boson(n_modes=1, n_max=4)
        gs = solve_model(m, CFG)
        gs.residual = 1e-3
        with pytest.raises(ValueError):
            pullthrough_check(m, gs, np.ones(1, dtype=complex), CFG)

    def test_nan_residual_rejected(self):
        m = spin_boson(n_modes=1, n_max=4)
        gs = replace(solve_model(m, CFG), residual=float("nan"))
        with pytest.raises(ValueError, match="residual nan"):
            pullthrough_check(m, gs, np.ones(1, dtype=complex), CFG)


class TestMomentIdentity:
    def test_lhs_is_dgamma_expectation(self):
        m = spin_boson(n_modes=2, n_max=8)
        gs = solve_model(m, CFG)
        G = np.array([0.7, 1.3])
        rep = moment_identity(m, gs, G, CFG)
        states = oracle.dense_basis(2, 8)
        dg = oracle.dense_dgamma(G, states)
        phi = gs.vector
        want = 0.0
        nf = len(states)
        for blk in range(2):
            b = phi[blk * nf:(blk + 1) * nf]
            want += float(np.real(b.conj() @ dg @ b))
        assert rep.lhs == pytest.approx(want, rel=1e-12)
        assert rep.passed

    def test_additivity(self):
        m = spin_boson(n_modes=2, n_max=8)
        gs = solve_model(m, CFG)
        g1 = np.array([1.0, 0.0])
        g2 = np.array([0.5, 2.0])
        r1 = moment_identity(m, gs, g1, CFG)
        r2 = moment_identity(m, gs, g2, CFG)
        r12 = moment_identity(m, gs, g1 + g2, CFG)
        assert r12.lhs == pytest.approx(r1.lhs + r2.lhs, abs=1e-12 * max(1.0, r12.lhs))
        assert r12.rhs == pytest.approx(r1.rhs + r2.rhs, rel=1e-7)

    def test_negative_g_rejected(self):
        m = spin_boson(n_modes=2, n_max=6)
        gs = solve_model(m, CFG)
        with pytest.raises(ValueError):
            moment_identity(m, gs, np.array([1.0, -0.5]), CFG)

    def test_van_hove_number(self):
        m = van_hove_unit_model()
        gs = solve_model(m, CFG)
        rep = moment_identity(m, gs, np.ones(1), CFG)
        assert rep.lhs == pytest.approx(1.0, abs=1e-9)
        assert rep.rhs == pytest.approx(1.0, abs=1e-9)


class TestAbsenceBound:
    def test_never_violated(self):
        # van Hove saturates the bound with equality, so its truncation must
        # be deep (n_max=24) for the 1e-9 tolerance; the spin-boson models
        # hold with O(1) margin at any truncation
        for build in (
            lambda: van_hove_unit_model(24),
            lambda: spin_boson(n_modes=2, n_max=8),
            lambda: spin_boson(n_modes=3, n_max=6, alpha=0.5, rho0=1.1),
        ):
            m = build()
            gs = solve_model(m, CFG)
            rep = absence_lower_bound(m, gs, np.ones(m.grid.n_modes))
            assert rep.passed
            assert rep.rhs <= rep.lhs + 1e-9 * max(rep.lhs, rep.rhs, 1.0)

    def test_saturated_bound_truncation_dent(self):
        # at shallow truncation the equality case dips below the bound by
        # an amount controlled by the lost occupation mass, not more
        m = van_hove_unit_model(12)
        gs = solve_model(m, CFG)
        rep = absence_lower_bound(m, gs, np.ones(1))
        dent = max(rep.rhs - rep.lhs, 0.0)
        assert dent > 0.0
        assert dent < 100.0 * m.n_max * gs.w_top

    def test_van_hove_equality(self):
        m = van_hove_unit_model()
        gs = solve_model(m, CFG)
        rep = absence_lower_bound(m, gs, np.ones(1))
        assert abs(rep.lhs - rep.rhs) / max(abs(rep.lhs), abs(rep.rhs), 1.0) < 1e-8

    def test_spin_boson_strict_inequality(self):
        m = spin_boson(n_modes=2, n_max=8)
        gs = solve_model(m, CFG)
        rep = absence_lower_bound(m, gs, np.ones(2))
        assert rep.lhs - rep.rhs > 1e-3

    def test_rhs_formula(self):
        m = spin_boson(n_modes=2, n_max=8)
        gs = solve_model(m, CFG)
        G = np.array([2.0, 0.5])
        rep = absence_lower_bound(m, gs, G)
        phi = gs.vector
        want = 0.0
        for i in range(2):
            t_phi = complex(np.vdot(phi, apply_matter(t_operator(m, i), phi)))
            want += G[i] * m.grid.weights[i] * abs(t_phi) ** 2 / m.grid.omega[i] ** 2
        want *= m.alpha**2
        assert rep.rhs == pytest.approx(float(want), rel=1e-12)


class TestHigherMoments:
    def test_n1_equals_moment_identity(self):
        m = spin_boson(n_modes=2, n_max=8)
        gs = solve_model(m, CFG)
        r_moment = moment_identity(m, gs, np.ones(2), CFG)
        r_higher = higher_moment_identity(m, gs, 1, CFG)
        assert r_higher.lhs == pytest.approx(r_moment.lhs, abs=1e-12)
        # one chain solver and one weighted sum serve both: the same float
        assert r_higher.rhs == r_moment.rhs

    def test_van_hove_factorial_moment(self):
        m = van_hove_unit_model()
        gs = solve_model(m, CFG)
        rep = higher_moment_identity(m, gs, 2, CFG)
        assert rep.lhs == pytest.approx(1.0, abs=1e-7)
        assert rep.rhs == pytest.approx(1.0, abs=1e-7)

    def test_lhs_is_falling_factorial(self):
        m = spin_boson(n_modes=2, n_max=8)
        gs = solve_model(m, CFG)
        rep = higher_moment_identity(m, gs, 2, CFG)
        states = oracle.dense_basis(2, 8)
        want = oracle.dense_falling_factorial(gs.vector, states, 2)
        assert rep.lhs == pytest.approx(want, rel=1e-12)

    def test_matches_dense_chain_sum(self):
        # rhs equals sum over ordered tuples of ||a-chain phi||^2 analogues:
        # cross-check the whole identity against dense falling factorials
        m = spin_boson(n_modes=2, n_max=10, alpha=0.2, rho0=0.6)
        gs = solve_model(m, CFG)
        rep = higher_moment_identity(m, gs, 2, CFG)
        assert rep.rel_err < 1e-8
        assert rep.passed

    def test_permutation_symmetry(self):
        # recompute the rhs from dense solves: every ordered tuple carries
        # the symmetrized chain (annihilators commute, so the summand only
        # depends on the multiset), making the tuple sum a multiset sum with
        # multinomial weights
        m = spin_boson(n_modes=3, n_max=6, alpha=0.25, rho0=0.7)
        gs = solve_model(m, CFG)
        rep = higher_moment_identity(m, gs, 2, CFG)
        H = m.H.mat.toarray()
        phi = gs.vector
        eye = np.eye(m.dim)

        def symmetrized_chain(multiset):
            # all n! orderings as sequences: a repeated mode contributes its
            # chain once per permutation, which is where the multiplicity
            # factor inside v(S) comes from
            acc = np.zeros_like(phi)
            for order in itertools.permutations(multiset):
                v = phi
                shift = 0.0
                for i in order:
                    shift += m.grid.omega[i]
                    v = np.linalg.solve(H - gs.energy * eye + shift * eye,
                                        apply_matter(t_operator(m, i), v))
                acc = acc + v
            return acc

        total = 0.0
        for tup in itertools.product(range(3), repeat=2):
            v = symmetrized_chain(tuple(sorted(tup)))
            total += np.prod([m.grid.weights[i] for i in tup]) * float(
                np.linalg.norm(v) ** 2
            )
        total *= m.alpha**4
        assert rep.rhs == pytest.approx(total, rel=1e-7)
        # the summand is invariant under relabeling of the tuple
        np.testing.assert_allclose(
            symmetrized_chain((0, 1)), symmetrized_chain((1, 0)), atol=1e-12
        )

    def test_solve_budget_and_memoization(self):
        m = spin_boson(n_modes=3, n_max=6)
        gs = solve_model(m, CFG)
        rep = higher_moment_identity(m, gs, 2, CFG)
        M = 3
        n_multisets = M * (M + 1) // 2
        assert rep.metadata["resolvent_solves"] <= M**2 * n_multisets
        assert rep.metadata["resolvent_solves"] == M + n_multisets

    def test_records_cg_work(self):
        # every solve starts cold, so the CG iterations are the H applications
        m = spin_boson(n_modes=3, n_max=6)
        gs = solve_model(m, CFG)
        calls = []
        apply = m.H.apply
        m.H.apply = lambda v: calls.append(1) or apply(v)
        rep = higher_moment_identity(m, gs, 2, CFG)
        assert rep.metadata["cg_iterations"] == len(calls)
        assert rep.metadata["cg_iterations"] >= rep.metadata["resolvent_solves"]
        assert 0.0 < rep.metadata["worst_cg_relres"] <= CFG.cg_tol
        m0 = spin_boson(n_modes=3, n_max=6, alpha=0.0)
        free = higher_moment_identity(m0, solve_model(m0, CFG), 2, CFG)
        assert free.metadata["cg_iterations"] == 0
        assert free.metadata["worst_cg_relres"] == 0.0

    def test_mode_cap_enforced(self):
        m = spin_boson(n_modes=5, n_max=4)
        gs = solve_model(m, CFG)
        with pytest.raises(ValueError):
            higher_moment_identity(m, gs, 3, CFG)

    def test_order_validation(self):
        m = spin_boson(n_modes=1, n_max=4)
        gs = solve_model(m, CFG)
        with pytest.raises(ValueError):
            higher_moment_identity(m, gs, 0, CFG)
        with pytest.raises(ValueError):
            higher_moment_identity(m, gs, 4, CFG)


class TestExactDecompositions:
    def test_number_decomposition_random_states(self):
        basis = enumerate_basis(3, 4)
        grid = build_radial_grid(3, 0.2, 1.1, 3)
        grid = grid.with_coupling(eval_coupling(hard_family(), grid), hard_family())
        rng = np.random.default_rng(12)
        for _ in range(10):
            v = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
            psi = v / np.linalg.norm(v)
            K = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            rep = number_decomposition(psi, K, basis, grid)
            assert rep.passed
            assert rep.rel_err < 1e-12
            # dense reference: <psi, dGamma(|K|^2) psi>
            states = oracle.dense_basis(3, 4)
            want = float(np.real(
                psi.conj()
                @ oracle.dense_dgamma(np.abs(K) ** 2, states)
                @ psi
            ))
            assert rep.lhs == pytest.approx(want, rel=1e-11, abs=1e-13)

    def test_factorial_decomposition_occupation_state(self):
        # (2,0) with n=2: lhs = ||a_1 a_1 psi||^2 = 2, rhs = N(N-1) = 2
        basis = enumerate_basis(2, 3)
        v = np.zeros(len(basis), dtype=complex)
        v[basis.rank([(2, 0)])[0]] = 1.0
        rep = factorial_moment_decomposition(v, 2, basis)
        assert rep.lhs == pytest.approx(2.0, abs=1e-13)
        assert rep.rhs == pytest.approx(2.0, abs=1e-13)

    def test_factorial_decomposition_vacuum(self):
        basis = enumerate_basis(2, 2)
        v = np.zeros(len(basis), dtype=complex)
        v[0] = 1.0
        for n in (1, 2):
            rep = factorial_moment_decomposition(v, n, basis)
            assert rep.lhs == 0.0
            assert rep.rhs == 0.0
            assert rep.passed

    def test_factorial_decomposition_random(self):
        basis = enumerate_basis(3, 4)
        states = oracle.dense_basis(3, 4)
        rng = np.random.default_rng(13)
        for n in (1, 2, 3):
            v = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
            v /= np.linalg.norm(v)
            rep = factorial_moment_decomposition(v, n, basis)
            assert rep.passed
            want = oracle.dense_falling_factorial(v, states, n)
            assert rep.rhs == pytest.approx(want, rel=1e-11, abs=1e-13)
            # chain side: sum over ordered tuples of ||a-chains||^2
            chain = sum(
                oracle.dense_chain_norm_sq(v, states, tup)
                for tup in itertools.product(range(3), repeat=n)
            )
            assert rep.lhs == pytest.approx(chain, rel=1e-11, abs=1e-13)

    def test_matter_blocks_supported(self):
        basis = enumerate_basis(2, 3)
        grid = build_radial_grid(3, 0.2, 0.8, 2)
        grid = grid.with_coupling(eval_coupling(hard_family(), grid), hard_family())
        rng = np.random.default_rng(14)
        v = rng.standard_normal(2 * len(basis)) + 1j * rng.standard_normal(2 * len(basis))
        v /= np.linalg.norm(v)
        K = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert number_decomposition(v, K, basis, grid).passed
        assert factorial_moment_decomposition(v, 2, basis).passed

    def test_factorial_chain_side_over_matter_blocks(self):
        # the chain side lowers every matter component: it equals the sum of
        # ||(1 (x) a_i)(1 (x) a_j) psi||^2 applied on the composite space
        basis = enumerate_basis(3, 3)
        rng = np.random.default_rng(15)
        v = rng.standard_normal(3 * len(basis)) + 1j * rng.standard_normal(3 * len(basis))
        psi = v / np.linalg.norm(v)
        a = [basis.lowering(i) for i in range(3)]
        want = sum(float(np.linalg.norm(apply_fock(a[i], apply_fock(a[j], psi))) ** 2)
                   for i in range(3) for j in range(3))
        rep = factorial_moment_decomposition(psi, 2, basis)
        assert rep.passed
        assert rep.lhs == pytest.approx(want, rel=1e-13)


def full_branch_sum(psi, n, basis):
    """sum over n-tuples of ||a_{i_1} ... a_{i_n} psi||^2 with the full-size a_i."""
    a = [basis.lowering(i) for i in range(basis.n_modes)]

    def branch(v, depth):
        if depth == n:
            return float(np.linalg.norm(v) ** 2)
        return sum(branch(apply_fock(x, v), depth + 1) for x in a)

    return branch(psi, 0)


class TestGradeBlockDecompositions:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_factorial_equals_full_matrix_branch_sum(self, n_modes, d, n):
        # n_max = 3, so order 3 lowers down to the vacuum
        basis = enumerate_basis(n_modes, 3)
        rng = np.random.default_rng(100 * n_modes + 10 * d + n)
        v = rng.standard_normal(d * len(basis)) + 1j * rng.standard_normal(d * len(basis))
        psi = v / np.linalg.norm(v)
        rep = factorial_moment_decomposition(psi, n, basis)
        want = full_branch_sum(psi, n, basis)
        assert abs(rep.lhs - want) <= 1e-15 * want
        assert rep.passed

    @pytest.mark.parametrize("d", [1, 2])
    def test_number_equals_smeared_annihilators(self, d):
        basis = enumerate_basis(3, 4)
        grid = build_radial_grid(3, 0.2, 1.1, 3)
        grid = grid.with_coupling(eval_coupling(hard_family(), grid), hard_family())
        rng = np.random.default_rng(16)
        v = rng.standard_normal(d * len(basis)) + 1j * rng.standard_normal(d * len(basis))
        psi = v / np.linalg.norm(v)
        K = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        want = 0.0
        for mo in range(3):
            f = np.zeros(3, dtype=complex)
            f[mo] = np.conj(K[mo]) / math.sqrt(grid.weights[mo])
            a = regularity.fock.smeared_annihilator(f, grid, basis)
            want += float(np.linalg.norm(apply_fock(a, psi)) ** 2)
        rep = number_decomposition(psi, K, basis, grid)
        assert rep.lhs == pytest.approx(want, rel=1e-14)
        dg = float(np.real(np.vdot(psi, apply_fock(dgamma(np.abs(K) ** 2, basis), psi))))
        assert rep.rhs == dg

    def test_order_three_on_a_wide_basis(self):
        # 12 modes, n_max 4: 1,728 ordered triples through the grade blocks
        basis = enumerate_basis(12, 4)
        rng = np.random.default_rng(17)
        v = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        psi = v / np.linalg.norm(v)
        rep = factorial_moment_decomposition(psi, 3, basis)
        assert rep.passed and rep.rel_err <= 1e-14
        assert abs(rep.lhs - full_branch_sum(psi, 3, basis)) <= 1e-14 * rep.lhs


class TestAppendixSuite:
    def test_reports_are_the_worst_of_the_draws(self):
        m = spin_boson(n_modes=2, n_max=4)
        reports = regularity.appendix_suite(m, draws=6, order=2, seed=3)
        # replay the seeded draws one by one
        rng = np.random.default_rng(3)
        singles = []
        for _ in range(6):
            v = rng.standard_normal(m.dim) + 1j * rng.standard_normal(m.dim)
            psi = v / np.linalg.norm(v)
            K = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            singles.append((number_decomposition(psi, K, m.basis, m.grid),
                            factorial_moment_decomposition(psi, 2, m.basis)))
        assert [r.check_name for r in reports] == ["number_decomposition",
                                                   "factorial_moment_decomposition"]
        for k, rep in enumerate(reports):
            worst = max((pair[k] for pair in singles), key=lambda r: r.rel_err)
            assert (rep.lhs, rep.rhs, rep.rel_err) == (worst.lhs, worst.rhs, worst.rel_err)
            assert rep.metadata == {}
            assert rep.passed

    def test_order_capped_at_n_max(self):
        m = spin_boson(n_modes=2, n_max=2)
        reports = regularity.appendix_suite(m, draws=2, order=3, seed=1)
        assert all(r.passed for r in reports)
        with pytest.raises(ValueError, match="order must lie"):
            regularity.appendix_suite(spin_boson(n_modes=2, n_max=0), 1, 2, seed=1)

    def test_zero_draws_are_refused(self):
        with pytest.raises(ValueError, match=r"^draws must be >= 1, got 0$"):
            regularity.appendix_suite(spin_boson(n_modes=2, n_max=2), 0, 2, seed=7)


def sweep_row(sigma, N, bound, lam=1.0):
    return {"sigma": sigma, "n_shells": 4, "E": -1.0, "expectation_N": N, "absence_bound": bound,
            "lam_over_w_norm": lam, "max_w_top": 1e-12}


class TestSweepVerdictReport:
    # rows whose <N> reads each verdict kind, each keeping <N> >= the bound
    ROWS = {
        "diverging": [sweep_row(0.1, 1.0, 0.9), sweep_row(0.01, 1.5, 1.4),
                      sweep_row(1e-3, 2.0, 1.9)],
        "converging": [sweep_row(0.1, 1.0, 0.9), sweep_row(0.01, 1.5, 1.4),
                       sweep_row(1e-3, 1.5001, 1.4)],
        "inconclusive": [sweep_row(0.1, 1.0, 0.9), sweep_row(0.01, 1.5, 1.4),
                         sweep_row(1e-3, 1.2, 1.1)],
    }
    B = [np.array([[1.0]])]

    def report(self, rows, ir_class, alpha=1.0, B=None):
        return regularity._sweep_report(rows, ir_class, alpha, B or self.B, 1e-3)

    @pytest.mark.parametrize("kind, ir_class", [
        ("converging", "singular"), ("diverging", "regular"), ("inconclusive", "singular"),
    ])
    def test_verdict_against_the_class_fails(self, kind, ir_class):
        rep = self.report(self.ROWS[kind], ir_class)
        assert rep.metadata["verdict"]["kind"] == kind
        assert rep.metadata["expected"] == {"singular": "diverging",
                                            "regular": "converging"}[ir_class]
        assert not rep.passed
        assert rep.metadata["worst_bound_violation"] == 0.0

    def test_row_below_the_bound_fails(self):
        # the verdict is the expected one, so the bound alone fails the sweep
        rows = [sweep_row(0.1, 1.0, 0.9), sweep_row(0.01, 1.2, 1.4), sweep_row(1e-3, 2.0, 1.0)]
        rep = self.report(rows, "singular")
        assert rep.metadata["verdict"]["kind"] == rep.metadata["expected"] == "diverging"
        assert not rep.passed
        assert rep.metadata["worst_bound_sigma"] == 0.01
        assert rep.metadata["worst_bound_violation"] == pytest.approx(0.2 / 1.4, rel=1e-14)
        # lhs and rhs come from the smallest sigma, not from the worst row
        assert (rep.lhs, rep.rhs) == (2.0, 1.0)

    @pytest.mark.parametrize("kind, ir_class", [
        ("diverging", "singular"), ("converging", "regular"), ("inconclusive", "unknown"),
    ])
    def test_agreement_with_the_bound_held_passes(self, kind, ir_class):
        rows = self.ROWS[kind]
        rep = self.report(rows, ir_class)
        assert rep.passed
        assert rep.check_name == "ir_sweep_verdict" and rep.tol_used == 1e-3
        assert (rep.lhs, rep.rhs, rep.w_top) == (rows[-1]["expectation_N"],
                                                 rows[-1]["absence_bound"], 1e-12)
        assert rep.metadata["verdict"]["kind"] == kind
        assert rep.metadata["verdict"]["analytic_ir_class"] == ir_class
        assert rep.metadata["rows"] == rows

    @pytest.mark.parametrize("kind", ["converging", "diverging", "inconclusive"])
    @pytest.mark.parametrize("alpha, bounds", [
        (0.05, [1.3e-38, 5.7e-36, 3.9e-32]),  # the unbiased spin boson's rungs
        (1.0, [0.0, 1.4, 0.9]),  # one rung at round-off is enough
    ])
    def test_singular_class_with_a_bound_at_round_off_expects_nothing(self, kind, alpha,
                                                                      bounds):
        rows = [{**r, "absence_bound": b} for r, b in zip(self.ROWS[kind], bounds)]
        rep = self.report(rows, "singular", alpha=alpha)
        assert rep.metadata["verdict"]["kind"] == kind
        assert rep.metadata["expected"] is None
        assert rep.passed

    # the second pair of rows rises by one increment below ctol
    @pytest.mark.parametrize("rows, ir_class, passed", [
        pytest.param(ROWS["diverging"][:2], "singular", False, id="singular-False"),
        pytest.param(ROWS["diverging"][:2], "unknown", True, id="unknown-True"),
        pytest.param([sweep_row(0.1, 1.0, 0.9), sweep_row(0.01, 1.0005, 0.9)], "regular",
                     False, id="small-step-regular-False"),
        pytest.param([sweep_row(0.1, 1.0, 0.9), sweep_row(0.01, 1.0005, 0.9)], "unknown",
                     True, id="small-step-unknown-True"),
    ])
    def test_two_rising_rows_read_inconclusive(self, rows, ir_class, passed):
        # a log fit through two points has r^2 = 1, and one increment shows
        # neither that the increments shrink nor that they do not, so no
        # verdict but inconclusive may read two rows
        rep = self.report(rows, ir_class)
        verdict = rep.metadata["verdict"]
        assert verdict["r_squared"] == pytest.approx(1.0) and verdict["slope_b"] > 0
        assert verdict["kind"] == "inconclusive" and verdict["divergence_kind"] == ""
        assert rep.passed is passed

    @pytest.mark.parametrize("ir_class, expected", [("singular", None),
                                                    ("regular", "converging")])
    def test_alpha_zero_sweep_passes_as_converging(self, ir_class, expected):
        # <N> = 0 on every rung: no increment rises above round-off
        rows = [sweep_row(s, 0.0, 0.0) for s in (0.1, 0.01, 1e-3)]
        rep = self.report(rows, ir_class, alpha=0.0)
        assert rep.metadata["verdict"]["kind"] == "converging"
        assert rep.metadata["expected"] == expected and rep.passed

    def test_increments_at_round_off_read_converging(self):
        # <N> of the van Hove sweep nu 3, p 1, alpha 0.5, n_max 12, grid.mass 0.5,
        # sigma 0.1 down to 1e-6: increments 2.4e-5, 2.5e-10, 2.6e-15, 2.8e-16,
        # 3.3e-16, the last two at the round-off of <N>
        values = [0.37675719225011317, 0.37678081581474326, 0.3767808160608359,
                  0.37678081606083846, 0.3767808160608382, 0.3767808160608385]
        rows = [sweep_row(10.0 ** -(k + 1), N, 0.0) for k, N in enumerate(values)]
        rep = self.report(rows, "regular", alpha=0.5)
        assert rep.metadata["verdict"]["kind"] == rep.metadata["expected"] == "converging"
        assert rep.passed

    def test_a_rising_increment_above_round_off_blocks_converging(self):
        # increments 0.5, 1e-4, 2e-4: the last is small against ctol but grows
        rows = [sweep_row(s, N, 0.0) for s, N in zip((0.1, 0.01, 1e-3, 1e-4),
                                                      (1.0, 1.5, 1.5001, 1.5003))]
        rep = self.report(rows, "regular")
        assert rep.metadata["verdict"]["kind"] != "converging"
        assert not rep.passed

    @pytest.mark.parametrize("factor, expected", [(0.9, None), (1.1, "diverging")])
    def test_round_off_floor_scales_with_the_largest_spectral_norm(self, factor, expected):
        # floor 1e-16 alpha^2 lam_over_w_norm max_j ||B_j||_2^2 = 1e-16 * 4 * 3 * 2;
        # B_0 has spectral norm sqrt(2), Frobenius norm 2 and largest entry 1
        B = [np.array([[1.0, 1.0], [1.0, -1.0]]), 0.5 * np.eye(2)]
        rows = [sweep_row(0.1, 1.0, factor * 2.4e-15, lam=3.0),
                sweep_row(0.01, 1.5, factor * 2.4e-15, lam=3.0),
                sweep_row(1e-3, 2.0, factor * 2.4e-15, lam=3.0)]
        rep = self.report(rows, "singular", alpha=2.0, B=B)
        assert rep.metadata["expected"] == expected
        assert rep.passed


class TestCcrSuite:
    def test_all_pass_and_names(self):
        basis = enumerate_basis(2, 4)
        grid = build_radial_grid(3, 0.3, 1.1, 2)
        grid = grid.with_coupling(eval_coupling(hard_family(), grid), hard_family())
        reports = ccr_and_bound_suite(basis, grid, seed=7, n_draws=200)
        names = [r.check_name for r in reports]
        assert names == [
            "ccr_interior",
            "ccr_aa_and_creation",
            "creator_adjoint_pairing",
            "dgamma_leibniz_commutators",
            "relative_bound_annihilator",
            "relative_bound_creator",
        ]
        for r in reports:
            assert r.passed, r.check_name
        exact = {r.check_name: r for r in reports[:4]}
        for name, r in exact.items():
            assert r.rel_err <= 1e-13, name

    def test_wrong_creator_entry_fails_adjoint_pairing(self, monkeypatch):
        # the creator is built apart from the annihilator, so the pairing can fail
        creator = regularity.fock.creator

        def one_wrong_entry(i, basis):
            c = creator(i, basis)
            if i == 1:
                c.data[-1] += 1e-9
            return c

        monkeypatch.setattr(regularity.fock, "creator", one_wrong_entry)
        basis = enumerate_basis(2, 4)
        grid = build_radial_grid(3, 0.3, 1.1, 2)
        grid = grid.with_coupling(eval_coupling(hard_family(), grid), hard_family())
        reports = {r.check_name: r for r in ccr_and_bound_suite(basis, grid, seed=7, n_draws=20)}
        pairing = reports["creator_adjoint_pairing"]
        assert not pairing.passed
        assert pairing.lhs == pytest.approx(1e-9, rel=1e-6)

    @pytest.mark.parametrize("scale", [1.0, 3.0])
    def test_batched_bounds_match_per_draw_operators(self, monkeypatch, scale):
        # scale 3 inflates every smearing coefficient, so both bounds break
        # and the reported violation is the largest per-draw margin
        smearing = regularity.fock.smearing_coefficients
        monkeypatch.setattr(regularity.fock, "smearing_coefficients",
                            lambda f, grid: scale * smearing(f, grid))
        basis = enumerate_basis(3, 4)
        grid = build_radial_grid(3, 0.3, 1.1, 3)
        grid = grid.with_coupling(eval_coupling(hard_family(), grid), hard_family())
        reports = {r.check_name: r for r in ccr_and_bound_suite(basis, grid, seed=7,
                                                                 n_draws=200)}
        # replay the suite's draws: the Leibniz g and f, then (psi, f) per draw
        rng = np.random.default_rng(7)
        rng.uniform(0.25, 2.0, size=3)
        rng.standard_normal(3), rng.standard_normal(3)
        dgw = dgamma(grid.omega, basis)
        viol_a = viol_c = top = 0.0
        for _ in range(200):
            psi = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
            psi /= np.linalg.norm(psi)
            f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            f_over = float(np.sum(np.abs(f) ** 2 * grid.weights / grid.omega))
            f_norm = float(np.sum(np.abs(f) ** 2 * grid.weights))
            energy = float(np.real(np.vdot(psi, dgw @ psi)))
            a = regularity.fock.smeared_annihilator(f, grid, basis)
            viol_a = max(viol_a, float(np.linalg.norm(a @ psi) ** 2) - f_over * energy)
            viol_c = max(viol_c, float(np.linalg.norm(a.conj().T @ psi) ** 2)
                         - (f_over * energy + f_norm))
            top = max(top, basis.w_top(psi))
        for name, want in (("relative_bound_annihilator", viol_a),
                           ("relative_bound_creator", viol_c)):
            rep = reports[name]
            assert (want > 0) == (scale > 1) and rep.passed == (want == 0)
            assert rep.lhs == pytest.approx(want, rel=1e-13, abs=0)
            assert rep.w_top == top and rep.metadata == {}

    def test_no_dense_copy(self, monkeypatch):
        # every commutator maximum is taken on the sparse matrix: a dense
        # copy would be len(basis) squared entries per commutator
        def refuse(self, *args, **kwargs):
            raise AssertionError("dense copy of a sparse operator")

        for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix, sp.dia_matrix):
            monkeypatch.setattr(cls, "toarray", refuse)
        basis = enumerate_basis(2, 4)
        grid = build_radial_grid(3, 0.3, 1.1, 2)
        grid = grid.with_coupling(eval_coupling(hard_family(), grid), hard_family())
        reports = ccr_and_bound_suite(basis, grid, seed=7, n_draws=20)
        assert len(reports) == 6 and all(r.passed for r in reports)

    def test_zero_draws_are_refused(self):
        basis = enumerate_basis(2, 4)
        grid = build_radial_grid(3, 0.3, 1.1, 2)
        with pytest.raises(ValueError, match=r"^n_draws must be >= 1, got 0$"):
            ccr_and_bound_suite(basis, grid, seed=7, n_draws=0)


def sweep_ladder(fams, sigmas, shells_per_decade, nu=3, Lambda=1.0):
    """(sigma, grid) rungs: log-midpoint on [sigma, Lambda], one channel per family."""
    ladder = []
    for s in sigmas:
        n_shells = max(1, math.ceil(shells_per_decade * math.log10(Lambda / s)))
        grid = build_radial_grid(nu, s, Lambda, n_shells, rule="log-midpoint")
        for fam in fams:
            grid = grid.with_coupling(eval_coupling(fam, grid), fam)
        ladder.append((s, grid))
    return ladder


def sweep(ladder, A, B, alpha, n_max, cfg=CFG):
    """The rows and verdict of ir_sweep's report, at the config's default ctol."""
    meta = ir_sweep(ladder, A, B, alpha, n_max, cfg, 1e-3).metadata
    return meta["rows"], meta["verdict"]


class TestIrSweep:
    @pytest.mark.parametrize(
        "nu,p,alpha,sigmas,expected_kind,expected_div",
        [
            (3, 0.0, 0.5, [1e-1, 1e-2, 1e-3], "diverging", "logarithmic"),
            (3, 1.0, 0.5, [1e-1, 1e-2, 1e-3], "converging", ""),
            (1, 0.0, 0.05, [0.3, 0.15, 0.075, 0.0375], "diverging",
             "super-logarithmic"),
            (1, 1.0, 0.5, [1e-1, 1e-2, 1e-3], "diverging", "logarithmic"),
        ],
    )
    def test_family_verdicts(self, nu, p, alpha, sigmas, expected_kind, expected_div):
        A, B = preset_van_hove()
        ladder = sweep_ladder([hard_family(p=p)], sigmas, 8, nu=nu)
        rows, verdict = sweep(ladder, A, B, alpha, 12)
        assert verdict["kind"] == expected_kind
        assert verdict["divergence_kind"] == expected_div
        expected_class = "singular" if 2 * p <= 3 - nu else "regular"
        assert verdict["analytic_ir_class"] == expected_class

    def test_rows_match_closed_form(self):
        A, B = preset_van_hove()
        fam = hard_family(p=1.0)
        sigmas = [1e-1, 1e-2]
        rows, _ = sweep(sweep_ladder([fam], sigmas, 8), A, B, 0.5, 12)
        for row, s in zip(rows, sigmas):
            grid = build_radial_grid(3, s, 1.0, row["n_shells"], rule="log-midpoint")
            grid = grid.with_coupling(eval_coupling(fam, grid), fam)
            vh = van_hove_oracle(grid, 0.5)
            assert row["E"] == pytest.approx(vh.E_exact, rel=1e-12)
            assert row["expectation_N"] == pytest.approx(vh.N_exact, rel=1e-12)
            # scalar matter makes the projection bound an equality
            assert row["absence_bound"] == pytest.approx(vh.N_exact, rel=1e-12)

    def test_separable_matches_full_solve(self):
        # scalar matter factorizes; the per-mode path must agree with the
        # composite Hamiltonian on a small instance
        A, B = preset_van_hove()
        fam = hard_family(p=1.0)
        rows, _ = sweep(sweep_ladder([fam], [0.4, 0.2], 2), A, B, 0.5, 10)
        for row, s in zip(rows, [0.4, 0.2]):
            grid = build_radial_grid(3, s, 1.0, row["n_shells"], rule="log-midpoint")
            grid = grid.with_coupling(eval_coupling(fam, grid), fam)
            m = assemble(np.asarray(A, dtype=float), [np.asarray(b) for b in B],
                         grid, 0.5, 10)
            gs = solve_model(m, CFG)
            assert row["E"] == pytest.approx(gs.energy, abs=1e-8)
            n_op = dgamma(np.ones(grid.n_modes), m.basis)
            n_val = float(np.real(np.vdot(gs.vector, n_op @ gs.vector)))
            assert row["expectation_N"] == pytest.approx(n_val, abs=1e-7)

    @pytest.mark.parametrize("nu,p", [(3, 0.0), (1, 0.0)])
    def test_stacked_matches_per_mode_solves(self, nu, p):
        # 48 modes at n_max = 12; nu = 1, p = 0 truncates (w_top up to 0.08),
        # so agreement does not rest on the closed form
        alpha, n_max = 0.5, 12
        fam = hard_family(p=p)
        grid = build_radial_grid(nu, 1e-3, 1.0, 48, rule="log-midpoint")
        grid = grid.with_coupling(eval_coupling(fam, grid), fam)
        ops = regularity._single_mode_operators(n_max)
        E, N, bound, w_top = regularity._single_mode_ground_states(grid, 1.0, alpha, ops, CFG)
        A, B = preset_van_hove()
        absence = 0.0
        for i in range(grid.n_modes):
            # the per-mode path the stacked solve replaced, kept as an oracle
            sub = grid.restrict(i)
            m = assemble(A, B, sub, alpha, n_max)
            gs = solve_model(m, CFG)
            phi = gs.vector
            n_val = float(np.real(np.vdot(phi, dgamma(np.ones(1), m.basis) @ phi)))
            t_phi = complex(np.vdot(phi, apply_matter(t_operator(m, 0), phi)))
            absence += alpha**2 * sub.weights[0] * abs(t_phi) ** 2 / sub.omega[0] ** 2
            for got, want in zip([E, N, w_top], [gs.energy, n_val, gs.w_top]):
                assert got[i] == pytest.approx(want, rel=1e-12, abs=0.0)
        # the rung's projection bound is the sum of the per-mode terms
        assert bound == pytest.approx(absence, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("A,B,n_max,c,rel", [
        # scalar matter: separable rungs, on which the shift is exact
        ([[0.0]], [[1.0]], 12, 2.5, 0.0),
        # the biased spin boson, whose bound is above round-off: composite rungs
        ([[1.0, 0.25], [0.25, 0.0]], [[0.0, 1.0], [1.0, 0.0]], 3, -1000.0, 1e-8),
        ([[1.0, 0.25], [0.25, 0.0]], [[0.0, 1.0], [1.0, 0.0]], 3, 1000.0, 1e-8),
    ], ids=["scalar", "biased-down", "biased-up"])
    def test_constant_matter_shifts_energy_only(self, A, B, n_max, c, rel):
        fam = hard_family(p=1.0)
        A, B = np.array(A), [np.array(B)]
        rows = []
        ladder = sweep_ladder([fam], [0.4, 0.2], 4)
        for a0 in (0.0, c):
            rows.append(sweep(ladder, A + a0 * np.eye(len(A)), B, 0.5, n_max)[0])
        for r0, r1 in zip(*rows):
            assert r0["absence_bound"] > 1e-3
            assert r1["E"] == pytest.approx(r0["E"] + c, rel=1e-14)
            for key in ("expectation_N", "absence_bound"):
                assert r1[key] == pytest.approx(r0[key], rel=rel, abs=0.0)

    def test_stacked_solve_respects_max_lanczos(self):
        A, B = preset_van_hove()
        ladder = sweep_ladder([hard_family()], [0.4, 0.2], 4)
        with pytest.raises(NonConverged, match="max_lanczos=5"):
            sweep(ladder, A, B, 0.5, 12, SolverConfig(max_lanczos=5))

    @pytest.mark.parametrize("A,B", [
        ([[0.0]], [[1j]]),
        ([[1j]], [[1.0]]),
    ])
    def test_non_hermitian_scalar_matter_rejected(self, A, B):
        ladder = sweep_ladder([hard_family()], [0.4, 0.2], 4)
        with pytest.raises(ValueError, match="not hermitian"):
            sweep(ladder, np.array(A), [np.array(B)], 0.5, 6)

    def test_spin_boson_sweep_uses_full_solver(self):
        A, B = preset_spin_boson(1.0)
        fam = hard_family(rho0=0.5, p=1.0)
        rows, verdict = sweep(sweep_ladder([fam], [0.4, 0.2], 2), A, B, 0.3, 6)
        assert len(rows) == 2
        assert all(r["expectation_N"] > 0 for r in rows)

    def test_input_validation(self):
        A, B = preset_van_hove()
        fam = hard_family()
        with pytest.raises(ValueError):
            sweep(sweep_ladder([fam], [0.1], 4), A, B, 0.5, 6)
        with pytest.raises(ValueError):
            sweep(sweep_ladder([fam], [0.1, 0.2], 4), A, B, 0.5, 6)

    @pytest.mark.parametrize("preset,n_fams", [("van_hove", 2), ("spin_boson", 2),
                                               ("spin_boson", 0)])
    def test_rung_channel_count_must_match_B(self, preset, n_fams):
        # one B_j but a rung grid with n_fams coupling columns: the separable
        # path must not read channel 0 alone, nor the composite path assemble it
        A, B = preset_van_hove() if preset == "van_hove" else preset_spin_boson(1.0)
        ladder = sweep_ladder([hard_family(p=1.0)] * n_fams, [0.4, 0.2], 2)
        with pytest.raises(ValueError, match=r"coupling column\(s\)"):
            sweep(ladder, A, B, 0.5, 6)

    def test_two_channel_sweep_assembles_every_channel(self):
        # a ladder whose rungs carry both channels solves each rung as the
        # composite model that assemble builds from the same grid
        A = np.diag([0.0, 1.0])
        B = [np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])]
        fams = [hard_family(rho0=0.5, p=1.0), hard_family(rho0=0.3, p=1.0)]
        ladder = sweep_ladder(fams, [0.1, 0.01], 2)
        rows, verdict = sweep(ladder, A, B, 0.3, 3)
        assert verdict["analytic_ir_class"] == "regular"
        for row, (_, grid) in zip(rows, ladder):
            m = assemble(A, B, grid, 0.3, 3)
            gs = solve_model(m, CFG)
            assert row["E"] == gs.energy
            assert row["expectation_N"] == absence_lower_bound(m, gs, np.ones(grid.n_modes)).lhs

    def test_two_channel_sweep_judges_every_channel(self):
        # channel 1 is infrared singular (nu 3, p 0) while channel 0 is
        # regular: the model is singular, and the norm sums both channels
        A = np.diag([0.0, 1.0])
        B = [np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])]
        fams = [hard_family(rho0=0.5, p=1.0), hard_family(rho0=0.3, p=0.0)]
        ladder = sweep_ladder(fams, [0.1, 0.01, 0.001, 1e-4], 2)
        rows, verdict = sweep(ladder, A, B, 0.3, 3)
        assert verdict["analytic_ir_class"] == "singular"
        norms = [r["lam_over_w_norm"] for r in rows]
        assert all(b > a + 0.1 for a, b in zip(norms, norms[1:])), norms


def test_resolvent_tol_capped_below_one():
    assert regularity.resolvent_tol(0.0, 1e-11) == regularity.RESOLVENT_TOL_FLOOR
    assert regularity.resolvent_tol(1e-4, 0.0) == pytest.approx(0.1)
    # 10 sqrt(w_top) would be 5 here
    assert regularity.resolvent_tol(0.25, 1e-11) == regularity.RESOLVENT_TOL_CAP < 1.0


class TestScaleInvariance:
    def test_residual_cap_scales_with_energy(self):
        from gsblab.model import GroundState
        from gsblab.regularity import _require_solved

        m = spin_boson(n_modes=1, n_max=4)
        vec = np.eye(m.dim)[0]
        _require_solved(GroundState(energy=1000.0, vector=vec, residual=5e-10, gap=1.0))
        with pytest.raises(ValueError):
            _require_solved(GroundState(energy=0.5, vector=vec, residual=5e-10, gap=1.0))

    @pytest.mark.parametrize("c", [-1000.0, 1000.0])
    def test_shift_of_matter_energy(self, c):
        # A -> A + c 1 moves E by c and leaves every identity row alone
        grid = build_radial_grid(3, 0.3, 1.5, 2)
        fam = hard_family(rho0=0.8, p=1.0)
        grid = grid.with_coupling(eval_coupling(fam, grid), fam)
        A, B = preset_spin_boson(1.0)
        base = assemble(A, B, grid, 0.3, 12)
        shifted = assemble(A + c * np.eye(2), B, grid, 0.3, 12)
        g0, g1 = solve_model(base, CFG), solve_model(shifted, CFG)
        assert g0.method == g1.method == "lanczos"
        assert g1.energy == pytest.approx(g0.energy + c, abs=1e-10 * abs(c))
        f = np.asarray(grid.channel(0))
        for check, arg in ((pullthrough_check, f), (moment_identity, np.ones(2))):
            r0, r1 = check(base, g0, arg, CFG), check(shifted, g1, arg, CFG)
            assert r0.passed and r1.passed
            assert r1.rhs == pytest.approx(r0.rhs, rel=1e-8)
            assert r1.w_top == pytest.approx(r0.w_top, rel=1e-6, abs=1e-15)


def three_level_two_channel_parts(seed=21):
    """Three-level matter with two real channels on a three-mode grid."""
    grid = build_radial_grid(3, 0.3, 1.5, 3)
    for rho0, p in ((0.8, 1.0), (0.5, 0.5)):
        fam = hard_family(rho0=rho0, p=p)
        grid = grid.with_coupling(eval_coupling(fam, grid), fam)
    rng = np.random.default_rng(seed)
    A = np.diag([0.0, 0.8, 1.7])
    B = [(raw + raw.T) / 2 for raw in rng.standard_normal((2, 3, 3))]
    f = grid.channel(0) + 0.5j * grid.channel(1)
    return A, B, grid, f


def identity_values(A, B, grid, f, n_max=6):
    """Pull-through norms, then the moment (G = 1, G = omega), n = 2 and projection
    bound (G = 1, G = omega) rows, all passing."""
    m = assemble(A, B, grid, 0.15, n_max)
    gs = solve_model(m, CFG)
    pull = pullthrough_check(m, gs, f, CFG)
    rows = [moment_identity(m, gs, np.ones(grid.n_modes), CFG),
            moment_identity(m, gs, grid.omega, CFG),
            higher_moment_identity(m, gs, 2, CFG),
            absence_lower_bound(m, gs, np.ones(grid.n_modes)),
            absence_lower_bound(m, gs, grid.omega)]
    assert pull.passed and all(r.passed for r in rows)
    values = [pull.metadata["lhs_norm"], pull.rhs] + [v for r in rows for v in (r.lhs, r.rhs)]
    return m.H.dtype, np.array(values)


class TestTransforms:
    """Reports stay put under changes of description that leave the physics alone."""

    def setup_method(self):
        self.A, self.B, self.grid, self.f = three_level_two_channel_parts()
        dtype, self.base = identity_values(self.A, self.B, self.grid, self.f)
        assert dtype == np.float64
        # the projection bound (G = 1) is far above round-off on this model
        assert self.base[-3] > 0.1

    def conjugated(self, U):
        A = U @ self.A @ U.conj().T
        B = [U @ b @ U.conj().T for b in self.B]
        return identity_values(A, B, self.grid, self.f)

    def test_real_orthogonal_conjugation_stays_real(self):
        O, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
        dtype, values = self.conjugated(O)
        assert dtype == np.float64
        np.testing.assert_allclose(values, self.base, rtol=1e-9)

    def test_complex_unitary_conjugation_runs_complex(self):
        rng = np.random.default_rng(4)
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        dtype, values = self.conjugated(U)
        assert dtype == np.complex128
        np.testing.assert_allclose(values, self.base, rtol=1e-9)

    def test_mode_permutation(self):
        # once the couplings are evaluated the radii only label the shells;
        # ModeSet keeps them increasing, so the permutation moves the rest
        perm = np.array([2, 0, 1])
        g = self.grid
        permuted = replace(g, weights=g.weights[perm], omega=g.omega[perm],
                           couplings=tuple(c[perm] for c in g.couplings))
        _, values = identity_values(self.A, self.B, permuted, self.f[perm])
        np.testing.assert_allclose(values, self.base, rtol=1e-9)

    def test_channel_split(self):
        # lambda_0 B_0 = (lambda_0 / 2) B_0 + (lambda_0 / 2) B_0
        g = self.grid
        split = replace(g, couplings=(g.channel(0) / 2, g.channel(0) / 2, g.channel(1)),
                        families=(None, None, None))
        B = [self.B[0], self.B[0], self.B[1]]
        _, values = identity_values(self.A, B, split, self.f)
        np.testing.assert_allclose(values, self.base, rtol=1e-9)


class TestModeSolves:
    """Pull-through and moment solve one level-1 chain per weighted mode, no more."""

    @pytest.mark.parametrize("kind", ["pullthrough", "moment"])
    @pytest.mark.parametrize("column, solved", [
        ([0.0, 0.7, 0.0, 1.3], [1, 3]),
        ([0.5, 0.0, 0.0, 0.0], [0]),
        ([0.0, 0.0, 0.0, 0.0], []),
    ])
    def test_zero_modes_are_not_solved(self, monkeypatch, kind, column, solved):
        m = spin_boson(n_modes=4, n_max=5)
        gs = solve_model(m, CFG)
        shifts = []
        solve = regularity.resolvent_apply

        def recording(H, E, s, v, cfg):
            shifts.append(s)
            return solve(H, E, s, v, cfg)

        monkeypatch.setattr(regularity, "resolvent_apply", recording)
        col = np.array(column)
        if kind == "pullthrough":
            rep = pullthrough_check(m, gs, 1j * col, CFG)
        else:
            rep = moment_identity(m, gs, col, CFG)
        assert rep.passed
        assert shifts == [float(m.grid.omega[i]) for i in solved]
        stats = rep.metadata
        assert stats["resolvent_solves"] == len(solved)
        assert stats["cg_iterations"] >= len(solved)
        assert stats["worst_cg_relres"] <= CFG.cg_tol

    @pytest.mark.parametrize("check", [moment_identity, absence_lower_bound])
    @pytest.mark.parametrize("n_weights", [2, 6])
    def test_g_length_must_match_modes(self, check, n_weights):
        # the rule smearing_coefficients applies to f, not numpy's matmul error
        m = spin_boson(n_modes=4, n_max=3)
        gs = solve_model(m, CFG)
        # the absence bound makes no solve, so it takes no solver config
        args = (CFG,) if check is moment_identity else ()
        with pytest.raises(ValueError, match="column length must match grid and basis mode count"):
            check(m, gs, np.ones(n_weights), *args)


class TestDtypeRule:
    """A state vector keeps the dtype of the operator and data that produced it."""

    def record_rhs_dtypes(self, monkeypatch, m):
        seen = []
        solve = regularity.resolvent_apply

        def recording(H, E, s, v, cfg):
            seen.append(np.asarray(v).dtype)
            return solve(H, E, s, v, cfg)

        monkeypatch.setattr(regularity, "resolvent_apply", recording)
        gs = solve_model(m, CFG)
        reports = [pullthrough_check(m, gs, np.asarray(m.grid.channel(0)), CFG),
                   moment_identity(m, gs, np.ones(m.grid.n_modes), CFG),
                   moment_identity(m, gs, m.grid.omega, CFG),
                   higher_moment_identity(m, gs, 2, CFG)]
        assert all(r.passed for r in reports)
        return gs, seen

    # (2, 8) is solved by dense eigh, (3, 6) by eigsh
    @pytest.mark.parametrize("n_modes, n_max", [(2, 8), (3, 6)])
    def test_real_model_stays_real(self, monkeypatch, n_modes, n_max):
        m = spin_boson(n_modes=n_modes, n_max=n_max)
        gs, seen = self.record_rhs_dtypes(monkeypatch, m)
        assert m.H.dtype == np.float64 and gs.vector.dtype == np.float64
        # pull-through and both moments solve one system per mode, higher n=2
        # one per multiset of size 1 and 2
        M = n_modes
        assert len(seen) == 3 * M + M + M * (M + 1) // 2
        assert set(seen) == {np.dtype(np.float64)}

    def test_complex_model_stays_complex(self, monkeypatch):
        real = spin_boson(n_modes=2, n_max=8)
        m = assemble(real.A.astype(complex), [b.astype(complex) for b in real.B],
                     real.grid, real.alpha, real.n_max)
        gs, seen = self.record_rhs_dtypes(monkeypatch, m)
        assert gs.vector.dtype == np.complex128
        assert seen and set(seen) == {np.dtype(np.complex128)}


class TestParallelLevels:
    """The solves of one chain level on several threads give the serial loop's results."""

    @pytest.fixture(scope="class")
    def solved(self):
        # M=8, n_max=7: 108,965 stored entries, above the size rule
        m = spin_boson(n_modes=8, n_max=7)
        return m, solve_model(m, CFG)

    @staticmethod
    def reports(m, gs):
        return [pullthrough_check(m, gs, m.grid.channel(0), CFG),
                moment_identity(m, gs, m.grid.omega, CFG),
                higher_moment_identity(m, gs, 2, CFG)]

    def test_reports_bitwise_equal_on_any_thread_count(self, solved, chain_cores, monkeypatch):
        m, gs = solved
        # one thread per multiset of a level, up to the core count
        monkeypatch.setattr(spectral, "MIN_THREAD_NNZ", 1)
        solve = regularity.resolvent_apply
        threads = set()

        def recording(*args):
            threads.add(threading.get_ident())
            return solve(*args)

        monkeypatch.setattr(regularity, "resolvent_apply", recording)
        runs = []
        for cores in (1, 2, 8):
            chain_cores(cores)
            threads.clear()
            runs.append(self.reports(m, gs))
            assert len(threads) == 1 if cores == 1 else len(threads) > 1
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs.append(self.reports(m, gs))
        finally:
            sys.setswitchinterval(interval)
        assert all(r.passed for r in runs[0])
        for run in runs[1:]:
            assert [vars(r) for r in run] == [vars(r) for r in runs[0]]

    @pytest.mark.parametrize("case", ["one_multiset_level", "small_h"])
    def test_serial_levels_never_touch_the_pool(self, solved, chain_cores, monkeypatch, case):
        def no_pool():
            raise AssertionError("a serial level must not touch the thread pool")

        chain_cores(8)
        monkeypatch.setattr(spectral, "_pool", no_pool)
        m, gs = solved
        if case == "one_multiset_level":
            # one weighted mode: a level of one multiset
            f = np.zeros(m.grid.n_modes)
            f[3] = 1.0
            assert pullthrough_check(m, gs, f, CFG).metadata["resolvent_solves"] == 1
        else:
            # M=4, n_max=12: 25,479 stored entries, under two threads' worth
            small = spin_boson(n_modes=4, n_max=12)
            assert small.H.mat.nnz < 2 * spectral.MIN_THREAD_NNZ
            assert all(r.passed for r in self.reports(small, solve_model(small, CFG)))

    @pytest.mark.parametrize("threads", [1, 4])
    def test_first_failure_in_order_raised_once_every_solve_stopped(self, chain_cores, threads):
        chain_cores(threads)
        level = [(i,) for i in range(12)]
        running, done = [], []

        def solve(S):
            running.append(S)
            # (3,) fails at once, (2,) only after 0.1 s: the later multiset fails first
            if S != (3,):
                time.sleep(0.1)
            running.remove(S)
            done.append(S)
            if S in [(2,), (3,)]:
                raise NonConverged(f"no convergence on {S}", 1.0)
            return S

        with pytest.raises(NonConverged, match=r"on \(2,\)"):
            spectral.parallel_map(solve, level, threads * spectral.MIN_THREAD_NNZ)
        assert not running
        # no multiset is started after a failure: only the failing prefix
        # and, on 4 threads, the solves in flight when (3,) failed ran
        assert sorted(done) == level[:max(3, threads)]
        time.sleep(0.15)
        assert len(done) == max(3, threads)

    def test_workers_start_nothing_after_a_failure(self, chain_cores, monkeypatch):
        chain_cores(4)
        pool, started = spectral._pool(), threading.Event()

        class LateWorkers:
            """Workers that start only once the caller waits for them."""

            @staticmethod
            def submit(fn):
                future = pool.submit(lambda: started.wait() and fn())

                def result():
                    started.set()
                    return future.result()

                return SimpleNamespace(result=result)

        monkeypatch.setattr(spectral, "_pool", LateWorkers)
        done = []

        def solve(S):
            done.append(S)
            raise NonConverged(f"no convergence on {S}", 1.0)

        with pytest.raises(NonConverged, match=r"on \(0,\)"):
            spectral.parallel_map(solve, [(i,) for i in range(12)], 4 * spectral.MIN_THREAD_NNZ)
        assert done == [(0,)]


class TestParitySectors:
    """A ground solve split into parity sectors gives the full-space reports, on any core count."""

    @pytest.fixture(scope="class")
    def split(self):
        # M=8, n_max=7: 108,965 stored entries, above the split size
        m = spin_boson(n_modes=8, n_max=7)
        c, s = math.cos(0.3), math.sin(0.3)
        R = np.array([[c, -s], [s, c]])
        # the same model with its matter turned: no sign pattern, one full-space run
        turned = assemble(R @ m.A @ R.T, [R @ b @ R.T for b in m.B], m.grid, m.alpha, m.n_max)
        return m, turned

    @staticmethod
    def reports(m, gs):
        return [pullthrough_check(m, gs, m.grid.channel(0), CFG),
                moment_identity(m, gs, np.ones(m.grid.n_modes), CFG),
                moment_identity(m, gs, m.grid.omega, CFG)]

    def test_reports_match_the_full_space_solve(self, split):
        m, turned = split
        gs, full = solve_model(m, CFG), solve_model(turned, CFG)
        assert (gs.method, full.method) == ("lanczos-sectors", "lanczos")
        assert gs.energy == pytest.approx(full.energy, abs=1e-12 * max(1.0, abs(full.energy)))
        assert gs.gap == pytest.approx(full.gap, rel=1e-9)
        for r, ref in zip(self.reports(m, gs), self.reports(turned, full)):
            assert r.passed and ref.passed
            assert r.lhs == pytest.approx(ref.lhs, rel=1e-9)
            assert r.rhs == pytest.approx(ref.rhs, rel=1e-9)

    def test_bitwise_equal_on_any_core_count(self, split, chain_cores, monkeypatch):
        m, _ = split
        solve = spectral._block_ground
        threads = set()

        def recording(*args):
            threads.add(threading.get_ident())
            return solve(*args)

        monkeypatch.setattr(spectral, "_block_ground", recording)
        runs = []
        for cores in (1, 2, 8):
            chain_cores(cores)
            threads.clear()
            gs = solve_model(m, CFG)
            # the two sectors: a second thread above one core
            assert len(threads) == (1 if cores == 1 else 2)
            runs.append((gs, self.reports(m, gs)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            gs = solve_model(m, CFG)
            runs.append((gs, self.reports(m, gs)))
        finally:
            sys.setswitchinterval(interval)
        first, first_reports = runs[0]
        for gs, reports in runs[1:]:
            np.testing.assert_array_equal(gs.vector, first.vector)
            assert ({k: v for k, v in vars(gs).items() if k != "vector"}
                    == {k: v for k, v in vars(first).items() if k != "vector"})
            assert [vars(r) for r in reports] == [vars(r) for r in first_reports]

    @staticmethod
    def chain_reports(m, gs):
        return [pullthrough_check(m, gs, m.grid.channel(0), CFG),
                moment_identity(m, gs, np.ones(m.grid.n_modes), CFG),
                higher_moment_identity(m, gs, 2, CFG)]

    @staticmethod
    def unsplit(m):
        """m with the same H but no sectors, so every chain solves on the whole space."""
        return GsbModel(m.A, m.B, m.grid, m.alpha, m.n_max, m.basis,
                        LinOp(m.H.mat))

    def assert_chains_solve_in_the_sectors(self, m):
        gs = solve_model(m, CFG)
        assert gs.method == "lanczos-sectors"
        for r, ref in zip(self.chain_reports(m, gs), self.chain_reports(self.unsplit(m), gs)):
            # systems of half the dimension, the same iterations, the values up to rounding
            assert (r.metadata["resolvent_dim"], ref.metadata["resolvent_dim"]) == (m.dim // 2,
                                                                                    m.dim)
            assert r.metadata["cg_iterations"] == ref.metadata["cg_iterations"]
            assert r.metadata["resolvent_solves"] == ref.metadata["resolvent_solves"]
            for key in ("lhs", "rhs", "w_top", "tol_used"):
                assert getattr(r, key) == pytest.approx(getattr(ref, key), rel=1e-12, abs=0)
            # rel_err is |lhs - rhs| on the scale: the sides' rounding moves it
            # absolutely (by 4e-16 where it is 9e-7), not relatively
            assert r.rel_err == pytest.approx(ref.rel_err, rel=0, abs=1e-12)
            assert r.passed == ref.passed

    def test_chain_solves_run_in_the_sectors(self, split):
        self.assert_chains_solve_in_the_sectors(split[0])

    def test_complex_model_solves_in_its_sectors(self, split):
        # a diagonal phase unitary keeps the sign pattern of the matter, hence
        # the sectors, and makes the coupling complex
        m = split[0]
        phase = np.diag(np.exp(1j * np.array([0.0, 0.7])))
        turned = assemble(phase @ m.A @ phase.conj().T, [phase @ b @ phase.conj().T for b in m.B],
                          m.grid, m.alpha, m.n_max)
        assert np.iscomplexobj(turned.H.mat.data) and turned.H.sectors is not None
        self.assert_chains_solve_in_the_sectors(turned)

    def test_ground_vector_off_its_sector_takes_the_full_path(self, split):
        m = split[0]
        gs = solve_model(m, CFG)
        even, odd = m.H.sectors
        vector = gs.vector.copy()
        vector[(odd if gs.vector[even].any() else even)[0]] = 1e-12
        gs = replace(gs, vector=vector)
        r = pullthrough_check(m, gs, m.grid.channel(0), CFG)
        assert r.metadata["resolvent_dim"] == m.dim
        assert vars(r) == vars(pullthrough_check(self.unsplit(m), gs, m.grid.channel(0), CFG))
