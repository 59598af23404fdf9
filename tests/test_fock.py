"""Basis enumeration, ladder operators, the truncation convention and the product of H."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gsblab import (
    BasisSizeError,
    CouplingFamily,
    LinOp,
    annihilator,
    apply_fock,
    apply_matter,
    build_radial_grid,
    creator,
    dgamma,
    enumerate_basis,
    eval_coupling,
    field_operator,
    smeared_annihilator,
)
from gsblab import fock, regularity

import oracle


def states(basis):
    """The basis as a list of occupation tuples, in basis order."""
    return list(map(tuple, basis.occupations.tolist()))


def index(basis, occupation):
    return int(basis.rank([occupation])[0])


def small_grid(n_modes):
    grid = build_radial_grid(3, 0.2, 0.2 + n_modes * 0.3, n_modes)
    fam = CouplingFamily(rho0=1.0, p=0.0, uv=10.0, profile="hard-cutoff")
    return grid.with_coupling(eval_coupling(fam, grid), fam)


class TestEnumeration:
    def test_pinned_ordering_two_modes(self):
        basis = enumerate_basis(2, 2)
        assert states(basis) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_dimension_formula(self):
        for m, n in [(1, 5), (2, 3), (3, 4), (4, 2), (6, 2)]:
            basis = enumerate_basis(m, n)
            assert len(basis) == math.comb(m + n, m)

    def test_matches_oracle_ordering(self):
        for m, n in [(1, 4), (2, 3), (3, 3), (4, 2)]:
            basis = enumerate_basis(m, n)
            assert states(basis) == oracle.dense_basis(m, n)

    def test_index_inverse(self):
        basis = enumerate_basis(3, 3)
        for k, t in enumerate(states(basis)):
            assert index(basis, t) == k

    def test_masks(self):
        basis = enumerate_basis(2, 3)
        totals = [sum(t) for t in states(basis)]
        for k, tot in enumerate(totals):
            assert basis.top_mask[k] == (tot == 3)

    def test_vacuum_first(self):
        basis = enumerate_basis(4, 3)
        assert states(basis)[0] == (0, 0, 0, 0)

    def test_size_guard(self, monkeypatch):
        # the default guard: C(32, 8) = 10,518,300 states exceed 200,000
        monkeypatch.delenv("GSB_MAX_DIM", raising=False)
        with pytest.raises(BasisSizeError):
            enumerate_basis(8, 24)

    def test_env_guard(self, monkeypatch):
        monkeypatch.setenv("GSB_MAX_DIM", "10")
        with pytest.raises(BasisSizeError):
            enumerate_basis(3, 3)
        monkeypatch.setenv("GSB_MAX_DIM", "100")
        assert len(enumerate_basis(3, 3)) == 20

    @given(m=st.integers(1, 5), n=st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_grading_property(self, m, n):
        occupations = states(enumerate_basis(m, n))
        totals = [sum(t) for t in occupations]
        assert totals == sorted(totals)
        # within a grade, descending lexicographic
        for g in range(n + 1):
            grade = [t for t in occupations if sum(t) == g]
            assert grade == sorted(grade, reverse=True)


class TestLadderOperators:
    def test_fock_operators_are_csr_matrices(self):
        grid = small_grid(2)
        basis = enumerate_basis(2, 3)
        f = np.asarray(grid.channel(0))
        ops = [annihilator(0, basis), creator(1, basis), basis.lowering(1),
               smeared_annihilator(f, grid, basis), dgamma(grid.omega, basis),
               field_operator(f, grid, basis)]
        for op in ops:
            assert isinstance(op, sp.csr_matrix) and op.shape == (len(basis), len(basis))

    def test_annihilator_matches_oracle(self):
        basis = enumerate_basis(2, 3)
        for i in range(2):
            got = annihilator(i, basis).toarray()
            np.testing.assert_allclose(got, oracle.dense_annihilator(i, states(basis)),
                                       atol=1e-15)

    def test_annihilator_on_vacuum(self):
        basis = enumerate_basis(2, 2)
        v = np.zeros(len(basis), dtype=complex)
        v[0] = 1.0
        assert np.linalg.norm(annihilator(0, basis) @ v) == 0.0

    def test_annihilator_on_two_quanta(self):
        basis = enumerate_basis(2, 2)
        v = np.zeros(len(basis), dtype=complex)
        v[index(basis, (2, 0))] = 1.0
        out = annihilator(0, basis) @ v
        expected = np.zeros(len(basis), dtype=complex)
        expected[index(basis, (1, 0))] = math.sqrt(2.0)
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_creator_is_adjoint(self):
        basis = enumerate_basis(3, 3)
        for i in range(3):
            a = annihilator(i, basis).toarray()
            c = creator(i, basis).toarray()
            np.testing.assert_allclose(c, a.conj().T, atol=1e-15)

    def test_creator_is_built_apart_from_the_annihilator(self, monkeypatch):
        # so the CCR suite's creator_adjoint_pairing compares two constructions
        def refuse(i, basis):
            raise AssertionError("creator built from the annihilator")

        basis = enumerate_basis(3, 3)
        with monkeypatch.context() as m:
            m.setattr(fock, "annihilator", refuse)
            built = [creator(i, basis) for i in range(3)]
            with pytest.raises(ValueError, match="out of range"):
                creator(3, basis)
        for i, c in enumerate(built):
            adjoint = annihilator(i, basis).conj().T.tocsr()
            for field in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(c, field), getattr(adjoint, field))

    def test_creator_kills_top_grade(self):
        basis = enumerate_basis(2, 2)
        v = np.zeros(len(basis), dtype=complex)
        v[index(basis, (2, 0))] = 1.0
        out = creator(0, basis) @ v
        assert np.linalg.norm(out) == 0.0

    def test_ccr_exact_on_interior(self):
        basis = enumerate_basis(2, 4)
        for i in range(2):
            for j in range(2):
                a = annihilator(i, basis).toarray()
                c = creator(j, basis).toarray()
                comm = a @ c - c @ a
                target = np.eye(len(basis)) if i == j else np.zeros((len(basis),) * 2)
                cols = np.flatnonzero(~basis.top_mask)
                np.testing.assert_allclose(comm[:, cols], target[:, cols],
                                           atol=1e-13)

    def test_ccr_defect_confined_to_top(self):
        basis = enumerate_basis(1, 3)
        a = annihilator(0, basis).toarray()
        c = creator(0, basis).toarray()
        comm = a @ c - c @ a - np.eye(len(basis))
        top = np.where(basis.top_mask)[0]
        assert np.abs(comm[:, top]).max() == pytest.approx(basis.n_max + 1)
        interior = np.flatnonzero(~basis.top_mask)
        assert np.abs(comm[:, interior]).max() < 1e-14


class TestSmearedOperators:
    def test_smeared_annihilator_matches_oracle(self):
        grid = small_grid(2)
        basis = enumerate_basis(2, 3)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        got = smeared_annihilator(f, grid, basis).toarray()
        want = oracle.dense_smeared_annihilator(f, grid.weights, states(basis))
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_smeared_annihilator_is_sum_of_lowerings(self):
        # bit-identical to adding the scaled a_i one by one, zero coefficients skipped
        grid = small_grid(4)
        basis = enumerate_basis(4, 3)
        rng = np.random.default_rng(4)
        for f in (rng.standard_normal(4) + 1j * rng.standard_normal(4),
                  np.array([0.0, 1.5 - 2.0j, 0.0, 0.25j]),
                  np.array([0.0, 0.0, 3.0, 0.0]),
                  np.zeros(4)):
            coeff = np.conj(f) * np.sqrt(grid.weights)
            want = sum((coeff[i] * basis.lowering(i)
                        for i in range(4) if coeff[i] != 0),
                       start=0 * basis.lowering(0).astype(complex)).tocsr()
            want.eliminate_zeros()
            got = smeared_annihilator(f, grid, basis)
            assert isinstance(got, sp.csr_matrix) and got.dtype == complex and got.nnz == want.nnz
            np.testing.assert_array_equal(got.indptr, want.indptr)
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_array_equal(got.data, want.data)

    def test_antilinearity_in_f(self):
        grid = small_grid(2)
        basis = enumerate_basis(2, 2)
        f = np.array([1.0 + 2.0j, -0.5j])
        z = 0.3 - 1.1j
        a1 = smeared_annihilator(z * f, grid, basis).toarray()
        a2 = smeared_annihilator(f, grid, basis).toarray()
        np.testing.assert_allclose(a1, np.conj(z) * a2, atol=1e-14)

    def test_dgamma_matches_oracle(self):
        grid = small_grid(3)
        basis = enumerate_basis(3, 3)
        g = np.array([0.5, 1.5, 2.5])
        got = dgamma(g, basis).toarray()
        np.testing.assert_allclose(got, oracle.dense_dgamma(g, states(basis)),
                                   atol=1e-15)

    def test_number_operator_totals(self):
        basis = enumerate_basis(3, 4)
        N = dgamma(np.ones(3), basis)
        np.testing.assert_allclose(N.diagonal(), basis.totals.astype(float),
                                   atol=0)

    def test_field_matches_oracle_and_hermitian(self):
        grid = small_grid(2)
        basis = enumerate_basis(2, 3)
        lam = np.asarray(grid.channel(0))
        got = field_operator(lam, grid, basis).toarray()
        want = oracle.dense_field(lam, grid.weights, states(basis))
        np.testing.assert_allclose(got, want.real, atol=1e-14)
        np.testing.assert_allclose(got, got.conj().T, atol=1e-15)

    @pytest.mark.parametrize("m, n", [(1, 6), (3, 4), (5, 3)])
    def test_field_is_bitwise_the_complex_construction(self, m, n):
        # phi is built in real arithmetic from the kept lowerings; the complex
        # a(lam) plus its conjugate transpose, real part taken, is the reference
        grid, basis = small_grid(m), enumerate_basis(m, n)
        lam = np.asarray(grid.channel(0))
        a = smeared_annihilator(lam, grid, basis)
        want = ((a + a.conj().T) / math.sqrt(2.0)).real
        got = field_operator(lam, grid, basis)
        assert got.format == "csr" and got.dtype == np.float64
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.data, want.data)

    def test_field_column_length_checked(self):
        grid, basis = small_grid(3), enumerate_basis(3, 2)
        with pytest.raises(ValueError, match="column length must match grid and basis mode count"):
            field_operator(np.ones(2), grid, basis)
        with pytest.raises(ValueError, match="column length must match grid and basis mode count"):
            field_operator(np.ones(3), grid, enumerate_basis(2, 2))
        # number_decomposition refuses the same misfits before any arithmetic: a basis
        # with more or fewer modes than the grid, and a K without one entry per mode
        # (numpy's IndexError, broadcast or matmul text otherwise)
        for K, g, b in [(np.ones(2), small_grid(2), basis),
                        (np.ones(3), grid, enumerate_basis(2, 2)), (np.ones(2), grid, basis),
                        (np.ones(1), grid, basis), (np.ones((3, 1)), grid, basis)]:
            psi = np.ones(len(b)) / math.sqrt(len(b))
            with pytest.raises(ValueError,
                               match="^column length must match grid and basis mode count$"):
                regularity.number_decomposition(psi, K, b, g)

    @given(
        seed=st.integers(0, 2**31 - 1),
        m=st.integers(1, 3),
        n=st.integers(1, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_smeared_adjoint_pairing_property(self, seed, m, n):
        # <a*(f) psi, chi> == <psi, a(f) chi> for random f, psi, chi
        grid = small_grid(m)
        basis = enumerate_basis(m, n)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        psi = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        chi = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        a = smeared_annihilator(f, grid, basis)
        lhs = np.vdot(a.conj().T @ psi, chi)
        rhs = np.vdot(psi, a @ chi)
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))


class TestLinOpAlgebra:
    def test_diagonal_roundtrip(self):
        d = np.array([1.0, -2.0, 3.0])
        op = LinOp(sp.diags(d))
        np.testing.assert_allclose(op.diagonal, d)
        assert op.diagonal is op.diagonal
        np.testing.assert_allclose(op.apply(np.ones(3, dtype=complex)), d)


def sparse_matrix(kind, dtype, n=60, per_row=5, seed=0):
    """A random CSR matrix with per_row entries in each row that is not empty.

    "gap" empties rows 20-39; "edges" empties the first and the last 7 rows.
    """
    rng = np.random.default_rng(seed)
    keep = np.ones(n, dtype=bool)
    if kind == "gap":
        keep[20:40] = False
    elif kind == "edges":
        keep[:7] = keep[-7:] = False
    rows = np.repeat(np.flatnonzero(keep), per_row)
    cols = np.concatenate([rng.choice(n, per_row, replace=False) for _ in range(keep.sum())])
    vals = rng.standard_normal(len(rows))
    if dtype is complex:
        vals = vals + 1j * rng.standard_normal(len(rows))
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


class TestLinOpApply:
    """LinOp.apply is the serial product mat @ v."""

    @pytest.mark.parametrize("kind", ["random", "gap", "edges"])
    @pytest.mark.parametrize("h_dtype", [float, complex])
    @pytest.mark.parametrize("v_dtype", [float, complex])
    def test_equal_to_mat_times_v(self, kind, h_dtype, v_dtype):
        mat = sparse_matrix(kind, h_dtype)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(mat.shape[0])
        if v_dtype is complex:
            v = v + 1j * rng.standard_normal(mat.shape[0])
        got, want = LinOp(mat).apply(v), mat @ v
        assert got.shape == want.shape == (mat.shape[0],)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        # a strided view of a vector, as a solver may pass
        w = np.repeat(v, 2)[::2]
        np.testing.assert_array_equal(LinOp(mat).apply(w), mat @ w)

    def test_each_call_returns_a_new_array(self):
        # the CG loop overwrites H.apply's result in place with axpy
        op = LinOp(sp.random(40, 40, density=0.2, format="csr", random_state=2))
        v = np.ones(op.dim)
        first, second = op.apply(v), op.apply(v)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, v)
        first[:] = np.nan
        np.testing.assert_array_equal(second, op.mat @ v)

    def test_wrong_length_refused(self):
        op = LinOp(sp.identity(5, format="csr"))
        with pytest.raises(ValueError, match="dimension mismatch"):
            op.apply(np.ones(6))

    def test_column_as_mat_times_column(self):
        mat = sparse_matrix("random", float)
        column = np.ones((mat.shape[0], 1))
        got = LinOp(mat).apply(column)
        assert got.shape == (mat.shape[0], 1)
        np.testing.assert_array_equal(got, mat @ column)


class TestTensorLayout:
    def test_matter_major_layout(self):
        # index = m * nF + t; kron(A, X) realizes A (x) X on that layout
        basis = enumerate_basis(1, 2)
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        X = dgamma(np.array([1.0]), basis)
        v = np.arange(2 * len(basis), dtype=complex)
        dense = np.kron(A, X.toarray())
        np.testing.assert_allclose(apply_matter(A, apply_fock(X, v)), dense @ v, atol=1e-13)
        np.testing.assert_allclose(apply_fock(X, apply_matter(A, v)), dense @ v, atol=1e-13)

    def test_matter_embed(self):
        A = np.array([[1.0, 2.0], [2.0, -1.0]])
        dense = np.kron(A, np.eye(3))
        v = np.arange(6, dtype=complex)
        np.testing.assert_allclose(apply_matter(A, v), dense @ v, atol=1e-13)

    def test_fock_embed(self):
        basis = enumerate_basis(2, 2)
        N = dgamma(np.ones(2), basis)
        dense = np.kron(np.eye(2), N.toarray())
        v = np.arange(2 * len(basis), dtype=complex)
        np.testing.assert_allclose(apply_fock(N, v), dense @ v, atol=1e-13)

    def test_sparse_fock_term_on_each_vector_dtype(self):
        # every dtype pair must agree with the dense Kronecker product
        basis = enumerate_basis(2, 3)
        rng = np.random.default_rng(6)
        X = annihilator(1, basis)
        Xc = (1.0 - 0.5j) * X
        n = 2 * len(basis)
        for fockop in (X, Xc):
            dense = np.kron(np.eye(2), fockop.toarray())
            for v in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
                got = apply_fock(fockop, v)
                assert got.dtype == np.result_type(fockop.dtype, v.dtype)
                np.testing.assert_allclose(got, dense @ v, rtol=1e-13, atol=1e-13)
        # a strided input is read by value
        v = (rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n))[::2]
        np.testing.assert_allclose(apply_fock(X, v), sp.kron(sp.identity(2), X) @ v,
                                   atol=1e-13)


class TestTopWeight:
    def test_w_top(self):
        basis = enumerate_basis(1, 2)  # states (0),(1),(2)
        amps = np.array([0.8, 0.0, 0.6], dtype=complex)
        assert basis.w_top(amps) == pytest.approx(0.36)
        assert basis.w_top(amps.real) == pytest.approx(0.36)

    def test_w_top_matter_blocks(self):
        basis = enumerate_basis(1, 1)  # states (0),(1)
        amps = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        assert basis.w_top(amps) == pytest.approx(0.5)

    def test_rejects_bad_length(self):
        basis = enumerate_basis(1, 1)
        with pytest.raises(ValueError):
            basis.w_top(np.ones(3, dtype=complex))


class TestDiagonalForm:
    basis = enumerate_basis(3, 3)

    def psi(self):
        rng = np.random.default_rng(5)
        n = 2 * len(self.basis)
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    @pytest.mark.parametrize("column", ["top_mask", "totals", "float"])
    def test_matches_dense_form(self, column):
        f = {"top_mask": self.basis.top_mask, "totals": self.basis.totals,
             "float": self.basis.occupations @ np.array([0.3, 1.7, 2.9])}[column]
        psi = self.psi()
        dense = np.kron(np.eye(2), np.diag(f.astype(float)))
        want = np.vdot(psi, dense @ psi).real
        assert self.basis.diagonal_form(psi, f) == pytest.approx(want, rel=1e-14)

    def test_w_top_is_the_top_mask_form(self):
        psi = self.psi()
        assert self.basis.w_top(psi) == self.basis.diagonal_form(psi, self.basis.top_mask) > 0


class TestLoweringBlocks:
    @pytest.mark.parametrize("m,n", [(1, 4), (2, 3), (3, 4), (5, 2)])
    def test_block_is_the_leading_slice(self, m, n):
        basis = enumerate_basis(m, n)
        for i in range(m):
            a = basis.lowering(i)
            for g in range(n + 1):
                rows, cols = math.comb(m + g - 1, m), math.comb(m + g, m)
                block = basis.lowering_block(i, g)
                assert isinstance(block, sp.csr_matrix) and block.shape == (rows, cols)
                np.testing.assert_array_equal(block.toarray(), a[:rows, :cols].toarray())
                # a_i sends grade g to g - 1: its rows of grade < g hold no
                # column of grade > g, and its columns of grade <= g no row of grade >= g
                assert a[:rows, cols:].nnz == 0 and a[rows:, :cols].nnz == 0
                assert basis.lowering_block(i, g) is block
                # the leading parts of the annihilator's own arrays, not copies
                assert np.shares_memory(block.indptr, a.indptr)
                if block.nnz:
                    assert np.shares_memory(block.data, a.data)
                    assert np.shares_memory(block.indices, a.indices)

    def test_grade_out_of_range(self):
        basis = enumerate_basis(2, 3)
        for g in (-1, 4):
            with pytest.raises(ValueError, match="grade must lie"):
                basis.lowering_block(0, g)


class TestClosedFormRank:
    # (80, 2): a mixed-radix key 3^80 would overflow int64, the rank stays below dim
    SIZES = [(1, 12), (4, 6), (12, 7), (80, 2)]

    @pytest.mark.parametrize("m,n", SIZES)
    def test_enumeration_matches_recursive_compositions(self, m, n):
        basis = enumerate_basis(m, n)
        assert states(basis) == oracle.graded_states(m, n)
        np.testing.assert_array_equal(basis.rank(basis.occupations), np.arange(len(basis)))

    @pytest.mark.parametrize("m,n", SIZES)
    def test_annihilator_equals_loop_reference(self, m, n):
        basis = enumerate_basis(m, n)
        occupations = states(basis)
        for i in range(m):
            got = annihilator(i, basis)
            want = oracle.loop_annihilator(i, occupations)
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got.indptr, want.indptr)
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_array_equal(got.data, want.data)

    def test_repeated_use_builds_each_mode_once(self, monkeypatch):
        built = []
        real = fock.annihilator

        def counting(i, basis):
            built.append(i)
            return real(i, basis)

        monkeypatch.setattr(fock, "annihilator", counting)
        grid = small_grid(3)
        basis = enumerate_basis(3, 3)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(len(basis))
        psi = v / np.linalg.norm(v)
        for _ in range(3):
            smeared_annihilator(rng.standard_normal(3), grid, basis)
            field_operator(grid.channel(0), grid, basis)
            for i in range(3):
                creator(i, basis)
            regularity.number_decomposition(psi, rng.standard_normal(3), basis, grid)
            regularity.factorial_moment_decomposition(psi, 2, basis)
            regularity.ccr_and_bound_suite(basis, grid, seed=7, n_draws=2)
        assert sorted(built) == [0, 1, 2]
        assert basis.lowering(1) is basis.lowering(1)
