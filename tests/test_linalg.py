import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from porosplit import fem2d, splitsolve
from porosplit.bdf import scheme
from porosplit.linalg import (DimensionMismatch, LinalgError, SingularMatrix,
                              as_array, factorize, weighted_norm_sq)

# The two operator types the package uses: dense arrays and CSR matrices.
KINDS = (np.asarray, scipy.sparse.csr_matrix)


def _toy_elasticity():
    return np.array([[2.0, -1.0, 0.0],
                     [-1.0, 2.0, -1.0],
                     [0.0, -1.0, 2.0]]) / (2.0 - math.sqrt(2.0))


def _laplacian(n):
    return (2.0 * np.eye(n) - np.diag(np.ones(n - 1), 1)
            - np.diag(np.ones(n - 1), -1))


class _FactorizeCases:
    """``factorize(...).solve`` cases; subclasses set ``kind``, the
    operator type."""

    def solve(self, a, rhs):
        return factorize(self.kind(np.asarray(a, dtype=float))).solve(rhs)

    def test_identity(self):
        x = self.solve(np.eye(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 2.0, 3.0], rtol=0, atol=0)

    def test_toy_elasticity_coupling_row(self):
        # Hand inversion: tridiag(2,-1) has inverse (1/4)[[3,2,1],[2,4,2],[1,2,3]],
        # so row A^{-1} row^T = (2 - sqrt(2)) * 13/9.
        row = np.array([2.0, 1.0, 2.0]) / 3.0
        inv = 0.25 * np.array([[3.0, 2.0, 1.0],
                               [2.0, 4.0, 2.0],
                               [1.0, 2.0, 3.0]]) * (2.0 - math.sqrt(2.0))
        expected = row @ inv @ row
        assert expected == pytest.approx((13.0 / 9.0) * (2.0 - math.sqrt(2.0)),
                                         rel=1e-15)
        x = self.solve(_toy_elasticity(), row)
        assert row @ x == pytest.approx(expected, rel=1e-12)

    def test_zero_matrix_is_singular(self):
        with pytest.raises(SingularMatrix):
            self.solve(np.zeros((2, 2)), np.array([1.0, 0.0]))

    def test_residual_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = rng.integers(2, 30)
            a = rng.normal(size=(n, n)) + n * np.eye(n)
            rhs = rng.normal(size=n)
            x = self.solve(a, rhs)
            resid = np.abs(a @ x - rhs).max()
            assert resid <= 1e-10 * (1.0 + np.abs(rhs).max())

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            self.solve(np.eye(3), np.ones(2))
        with pytest.raises(DimensionMismatch):
            factorize(self.kind(np.ones((2, 3))))

    def test_block_of_right_hand_sides(self):
        a = _laplacian(6)
        rhs = np.arange(18.0).reshape(6, 3)
        x = self.solve(a, rhs)
        assert x.shape == (6, 3)
        np.testing.assert_allclose(a @ x, rhs, atol=1e-12)

    def test_near_singular_pivot_rejected(self):
        # exact arithmetic leaves a pivot of 1e-14 against row magnitude 2
        with pytest.raises(SingularMatrix):
            self.solve(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]), np.ones(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, bad):
        # named as such, not as a singular matrix or a NaN solution
        a = _laplacian(4)
        a[1, 2] = bad
        with pytest.raises(LinalgError, match="non-finite entries") as info:
            factorize(self.kind(a))
        assert not isinstance(info.value, SingularMatrix)


class TestSolveDense(_FactorizeCases):
    kind = staticmethod(np.asarray)


class TestDenseSolvePath:
    """A dense factor solves by one LAPACK ``getrs`` call: exactly what
    ``scipy.linalg.lu_solve(..., check_finite=False)`` returns."""

    a = np.array([[4.0, 1.0, -2.0],
                  [1.0, 3.0, 1.0],
                  [0.5, 1.0, 2.0]])

    def expected(self, rhs):
        lu_piv = scipy.linalg.lu_factor(self.a, check_finite=False)
        return scipy.linalg.lu_solve(lu_piv, rhs, check_finite=False)

    @pytest.mark.parametrize("rhs", [
        np.array([1.0, -2.0, 0.25]),
        np.arange(6.0).reshape(3, 2) - 2.5,
        np.arange(12.0).reshape(3, 4)[:, ::2],      # strided view
        np.arange(9.0)[::3],                        # strided 1-D view
        np.array([3, -1, 7]),                       # integers
    ], ids=["1-D", "2-D", "strided-2-D", "strided-1-D", "int"])
    def test_bit_identical_to_lu_solve(self, rhs):
        x = factorize(self.a).solve(rhs)
        assert x.shape == rhs.shape
        assert np.array_equal(x, self.expected(rhs))

    def test_rhs_left_unmodified(self):
        rhs = np.array([1.0, 2.0, 3.0])
        block = np.arange(6.0).reshape(3, 2)
        factor = factorize(self.a)
        factor.solve(rhs)
        factor.solve(block)
        assert np.array_equal(rhs, [1.0, 2.0, 3.0])
        assert np.array_equal(block, np.arange(6.0).reshape(3, 2))

    def test_wrong_length_rhs_rejected(self):
        with pytest.raises(DimensionMismatch):
            factorize(self.a).solve(np.ones(4))

    def test_does_not_go_through_lu_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense solve called scipy.linalg.lu_solve")

        monkeypatch.setattr(scipy.linalg, "lu_solve", refuse)
        x = factorize(self.a).solve(np.array([1.0, -2.0, 0.25]))
        np.testing.assert_allclose(self.a @ x, [1.0, -2.0, 0.25], atol=1e-14)


class TestSolveSparse(_FactorizeCases):
    kind = staticmethod(scipy.sparse.csr_matrix)

    def test_exactly_singular_is_singular(self):
        m = scipy.sparse.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularMatrix):
            factorize(m)


class TestSolveSpd:
    """SPD systems through the sparse path agree with the dense path."""

    def test_diagonal(self):
        m = scipy.sparse.csr_matrix(np.diag([2.0, 4.0]))
        x = factorize(m).solve(np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-15)

    def test_laplacian_matches_direct(self):
        a = _laplacian(5)
        rhs = np.ones(5)
        x = factorize(scipy.sparse.csr_matrix(a)).solve(rhs)
        np.testing.assert_allclose(x, factorize(a).solve(rhs), rtol=1e-14)

    def test_zero_rhs(self):
        m = scipy.sparse.csr_matrix(_laplacian(4))
        np.testing.assert_array_equal(factorize(m).solve(np.zeros(4)),
                                      np.zeros(4))

    def test_agrees_with_dense_on_random_spd(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 51))
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            a = q @ np.diag(rng.uniform(0.5, 5.0, n)) @ q.T
            a = 0.5 * (a + a.T)
            rhs = rng.normal(size=n)
            x_sparse = factorize(scipy.sparse.csr_matrix(a)).solve(rhs)
            x_dense = factorize(a).solve(rhs)
            assert np.abs(x_sparse - x_dense).max() <= 1e-12 * max(
                1.0, np.abs(x_dense).max())


def _stepper_matrices(monkeypatch, n, k, tau):
    """The sparse matrices a Biot run at grid ``n``, BDF-``k`` and ``tau``
    solves with: A, which the system factors, and the split pressure block,
    the start-up preconditioner of BDF-``k`` and the monolithic block, as
    the stepper builds them."""
    built = []

    def keep(m):
        built.append(m)
        return factorize(m)

    monkeypatch.setattr(splitsolve, "factorize", keep)
    sch = scheme(k)
    sys = fem2d.manufactured_system(n)
    work = splitsolve.StepperWork(sys, splitsolve.SplitConfig(tol=1e-8), sch,
                                  tau, "split")
    work.pressure_factor()
    work.startup_factor(sch)
    work.block_factor()
    built.insert(0, sys.elasticity)
    assert all(scipy.sparse.issparse(m) for m in built)
    return dict(zip(("elasticity", "pressure", "startup", "monolithic"),
                    built, strict=True))


class TestSparseOrdering:
    """SuperLU orders on the pattern of A^T + A and pivots on the diagonal
    (see :class:`porosplit.linalg.Factor`)."""

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("tau", [2.0 ** -3, 2.0 ** -10, 2.0 ** -14],
                             ids=["tau=2^-3", "tau=2^-10", "tau=2^-14"])
    def test_biot_blocks_agree_with_dense_lapack(self, monkeypatch, n, k,
                                                 tau):
        rng = np.random.default_rng(n * 100 + k)
        for name, m in _stepper_matrices(monkeypatch, n, k, tau).items():
            rhs = rng.normal(size=m.shape[0])
            x_sparse = factorize(m).solve(rhs)
            x_dense = scipy.linalg.solve(m.toarray(), rhs)
            rel = np.linalg.norm(x_sparse - x_dense) / np.linalg.norm(x_dense)
            assert rel <= 1e-12, (name, rel)

    def test_monolithic_fill_at_most_colamd(self, monkeypatch):
        # n = 16, tau = 2^-10, BDF-3: the fine reference block of the
        # BDF-3 convergence study, where the minimum-degree ordering with
        # partial pivoting fills about four times what COLAMD does
        m = _stepper_matrices(monkeypatch, 16, 3, 2.0 ** -10)["monolithic"]
        colamd = scipy.sparse.linalg.splu(m.tocsc())
        assert factorize(m).fill <= colamd.nnz

    def test_fill_is_read_only(self):
        factor = factorize(scipy.sparse.csr_matrix(_laplacian(4)))
        assert factor.fill > 0
        with pytest.raises(AttributeError):
            factor.fill = 0
        assert factorize(_laplacian(4)).fill == 16

    def test_permutation_matrix_solves_exactly(self):
        m = scipy.sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        x = factorize(m).solve(np.array([2.0, -3.0]))
        np.testing.assert_array_equal(x, [-3.0, 2.0])

    @pytest.mark.parametrize("a", [
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        _laplacian(6) - np.diag([1.0, 0, 0, 0, 0, 1.0]),   # Neumann: 1 in kernel
    ], ids=["zero-row", "neumann-laplacian"])
    def test_singular_is_singular(self, a):
        with pytest.raises(SingularMatrix):
            factorize(scipy.sparse.csr_matrix(a))


def test_dense_runs_do_not_load_superlu():
    # SuperLU's module costs resident memory; the toys factor dense
    # matrices only and must not import it
    code = ("import sys\n"
            "from porosplit.bdf import scheme\n"
            "from porosplit.splitsolve import SplitConfig, integrate\n"
            "from porosplit.system import make_toy\n"
            "integrate(make_toy(2.0), SplitConfig(tol=1e-8), scheme(2), "
            "0.125, 1.0)\n"
            "assert 'scipy.sparse.linalg' not in sys.modules\n")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=root, timeout=60)
    assert proc.returncode == 0, proc.stderr


class TestWeightedNorm:
    def test_identity_is_euclidean(self):
        for kind in KINDS:
            assert weighted_norm_sq(kind(np.eye(2)), np.array([3.0, 4.0])) == 25.0

    def test_zero_vector(self):
        for kind in KINDS:
            assert weighted_norm_sq(kind(_laplacian(6)), np.zeros(6)) == 0.0

    def test_diagonal_weights(self):
        for kind in KINDS:
            m = kind(np.diag([2.0, 1.0]))
            assert weighted_norm_sq(m, np.array([1.0, 1.0])) == pytest.approx(3.0)

    def test_dimension_mismatch(self):
        for kind in KINDS:
            with pytest.raises(DimensionMismatch):
                weighted_norm_sq(kind(np.eye(3)), np.ones(2))

    def test_nonnegative_on_random_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 12))
            b = rng.normal(size=(n, n))
            x = rng.normal(size=n)
            for kind in KINDS:
                assert weighted_norm_sq(kind(b.T @ b), x) >= 0.0


def test_as_array_densifies_either_kind():
    a = np.array([[1.0, 0.0], [2.0, 3.0]])
    for kind in KINDS:
        out = as_array(kind(a))
        assert isinstance(out, np.ndarray)
        np.testing.assert_array_equal(out, a)
