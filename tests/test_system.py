import math

import numpy as np
import pytest

from porosplit.linalg import DimensionMismatch, factorize
from porosplit.system import (CoupledSystem, InvalidParameter, make_network_toy,
                              make_toy, residual_coupled,
                              exact_discrete_constants)

ROW = np.array([2.0, 1.0, 2.0]) / 3.0
SCHUR_BASE = (13.0 / 9.0) * (2.0 - math.sqrt(2.0))  # row A^{-1} row^T


class TestMakeToy:
    def test_coupling_row_scaling(self):
        toy = make_toy(2.0)
        np.testing.assert_allclose(toy.coupling,
                                   math.sqrt(2.0) * ROW[None, :], rtol=1e-15)

    def test_elastic_eigenvalues(self):
        # tridiag(2,-1) eigenvalues are 2 -/+ sqrt(2) and 2; the 1/(2-sqrt 2)
        # scaling normalizes the smallest one to 1
        toy = make_toy(1.0)
        assert toy.elastic_coercivity == pytest.approx(1.0, abs=1e-12)
        assert toy.elastic_continuity == pytest.approx(3.0 + 2.0 * math.sqrt(2.0),
                                                       rel=1e-12)

    def test_schur_complement_value(self):
        toy = make_toy(2.0)
        x = factorize(toy.elasticity).solve(toy.coupling.T @ np.ones(1))
        assert (toy.coupling @ x)[0] == pytest.approx(2.0 * SCHUR_BASE,
                                                      rel=1e-12)

    def test_forcing_starts_at_zero(self):
        for omega in (0.5, 2.0, 9.0):
            assert make_toy(omega).load_p(0.0)[0] == 0.0

    def test_coupling_strength_invariant(self):
        for omega in (0.25, 2.0, 4.0):
            assert make_toy(omega).coupling_strength().omega == pytest.approx(
                omega, rel=1e-12)

    def test_consistent_initial_data(self):
        toy = make_toy(3.0)
        r_u, r_p = toy.residual(toy.u0, toy.p0, np.zeros(3), np.zeros(1), 0.0)
        assert np.abs(r_u).max() <= 1e-10
        assert np.abs(r_p).max() <= 1e-10

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(InvalidParameter):
            make_toy(0.0)

    def test_exact_solution_satisfies_ode(self):
        toy = make_toy(2.0)
        h = 1e-6
        for t in (0.2, 0.8, 1.7):
            du = (toy.exact_u(t + h) - toy.exact_u(t - h)) / (2 * h)
            dp = (toy.exact_p(t + h) - toy.exact_p(t - h)) / (2 * h)
            r_u, r_p = toy.residual(toy.exact_u(t), toy.exact_p(t), du, dp, t)
            assert np.abs(r_u).max() <= 1e-8
            assert np.abs(r_p).max() <= 1e-7

    def test_exact_solution_scalar_formula(self):
        # independent closed form: (1 + s) p' + p = 100 sin t, p(0) = 0
        omega = 2.0
        toy = make_toy(omega)
        s = omega * SCHUR_BASE
        a = 1.0 / (1.0 + s)
        b = 100.0 * a
        for t in (0.0, 0.4, 1.0, 2.5):
            expected = (b / (1 + a * a)) * (a * math.sin(t) - math.cos(t)
                                            + math.exp(-a * t))
            assert toy.exact_p(t)[0] == pytest.approx(expected, abs=1e-10)


class TestResidual:
    def test_toy_at_rest(self):
        toy = make_toy(2.0)
        r_u, r_p = residual_coupled(toy, np.zeros(3), np.zeros(1),
                                    np.zeros(3), np.zeros(1), 0.0)
        np.testing.assert_allclose(r_u, -np.ones(3))
        np.testing.assert_allclose(r_p, np.zeros(1))

    def test_linearity_in_state(self):
        toy = make_toy(1.5)
        rng = np.random.default_rng(2)
        u, du = rng.normal(size=3), rng.normal(size=3)
        p, dp = rng.normal(size=1), rng.normal(size=1)
        r_u1, r_p1 = residual_coupled(toy, u, p, du, dp, 0.3)
        r_u2, r_p2 = residual_coupled(toy, 2 * u, 2 * p, 2 * du, 2 * dp, 0.3)
        f, g = toy.load_u(0.3), toy.load_p(0.3)
        np.testing.assert_allclose(r_u2 + f, 2 * (r_u1 + f), rtol=1e-12)
        np.testing.assert_allclose(r_p2 + g, 2 * (r_p1 + g), rtol=1e-12)

    def test_dimension_guard(self):
        toy = make_toy(1.0)
        with pytest.raises(DimensionMismatch):
            residual_coupled(toy, np.zeros(2), np.zeros(1), np.zeros(3),
                             np.zeros(1), 0.0)


class TestNetworkToy:
    def test_zero_exchange_decouples(self):
        sys = make_network_toy(2, [0.4, 0.2], [1.0, 2.0], [1.0, 0.5], {})
        flow = sys.flow_stiffness
        assert flow[0, 1] == 0.0 and flow[1, 0] == 0.0

    def test_exchange_annihilates_constants(self):
        sys = make_network_toy(2, [0.4, 0.2], [1.0, 1.0], [1.0, 1.0],
                               {(0, 1): 1.0})
        flow = sys.flow_stiffness
        exchange = flow - np.diag([1.0, 1.0])
        np.testing.assert_allclose(exchange @ np.ones(2), np.zeros(2),
                                   atol=1e-15)

    def test_three_network_exchange_entries(self):
        sys = make_network_toy(3, [0.4, 0.2, 0.4], [1.0, 1.0, 1.0],
                               [1.0, 1.0, 1.0],
                               {(0, 1): 1e-3, (0, 2): 1e-4})
        flow = sys.flow_stiffness
        assert flow[0, 1] == pytest.approx(-1e-3)
        assert flow[0, 2] == pytest.approx(-1e-4)
        assert flow[1, 2] == 0.0

    def test_exchange_block_weakly_diagonally_dominant(self):
        sys = make_network_toy(3, [0.4, 0.2, 0.4], [1.0, 2.0, 3.0],
                               [1.0, 1.0, 1.0],
                               {(0, 1): 2e-3, (1, 2): 5e-4})
        exchange = sys.flow_stiffness - np.eye(3)
        for i in range(3):
            off = sum(abs(exchange[i, j]) for j in range(3) if j != i)
            assert exchange[i, i] >= off - 1e-15
        np.testing.assert_allclose(exchange.sum(axis=1), np.zeros(3),
                                   atol=1e-15)

    def test_storage_coercivity_is_min_inverse_modulus(self):
        sys = make_network_toy(2, [0.4, 0.2], [2.0, 4.0], [1.0, 1.0], {})
        assert sys.storage_coercivity == pytest.approx(0.25)
        assert sys.storage_continuity == pytest.approx(0.5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameter):
            make_network_toy(1, [0.1], [1.0], [1.0], {})
        with pytest.raises(InvalidParameter):
            make_network_toy(2, [0.1, -0.1], [1.0, 1.0], [1.0, 1.0], {})
        with pytest.raises(InvalidParameter):
            make_network_toy(2, [0.1, 0.1], [1.0, 1.0], [1.0, 1.0],
                             {(0, 0): 1.0})

    def test_exact_solution_satisfies_ode(self):
        sys = make_network_toy(2, [0.4, 0.2], [1.0, 2.0], [1.0, 0.5],
                               {(0, 1): 1e-2})
        h = 1e-6
        for t in (0.3, 1.1):
            du = (sys.exact_u(t + h) - sys.exact_u(t - h)) / (2 * h)
            dp = (sys.exact_p(t + h) - sys.exact_p(t - h)) / (2 * h)
            r_u, r_p = sys.residual(sys.exact_u(t), sys.exact_p(t), du, dp, t)
            assert np.abs(r_u).max() <= 1e-8
            assert np.abs(r_p).max() <= 1e-7

    def test_consistent_initial_data(self):
        sys = make_network_toy(3, [0.4, 0.2, 0.4], [1.0, 2.0, 3.0],
                               [1.0, 1.0, 1.0], {(0, 1): 1e-3})
        r_u, _ = sys.residual(sys.u0, sys.p0, np.zeros(sys.dim_u),
                              np.zeros(sys.dim_p), 0.0)
        assert np.abs(r_u).max() <= 1e-10


class TestExactConstants:
    def test_toy_constants_match_construction(self):
        toy = make_toy(2.0)
        consts = exact_discrete_constants(toy)
        assert consts["elastic_coercivity"] == pytest.approx(
            toy.elastic_coercivity, rel=1e-10)
        assert consts["coupling_bound"] == pytest.approx(
            toy.coupling_bound, rel=1e-10)
        assert consts["storage_coercivity"] == pytest.approx(1.0, rel=1e-12)
