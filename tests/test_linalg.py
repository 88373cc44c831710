import math

import numpy as np
import pytest
import scipy.sparse

from porosplit.linalg import (DimensionMismatch, SingularMatrix, as_array,
                              factorize, weighted_norm_sq)

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


class TestSolveDense(_FactorizeCases):
    kind = staticmethod(np.asarray)


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
