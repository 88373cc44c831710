import math
from dataclasses import fields, replace

import numpy as np
import pytest

from porosplit import fem2d, system
from porosplit.linalg import DimensionMismatch, factorize
from porosplit.system import (CoupledSystem, InvalidParameter, make_network_toy,
                              make_toy, semidiscrete_solution, time_shifted)
from verification import (coupling_strength, exact_discrete_constants,
                          residual_coupled)

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
        assert np.linalg.eigvalsh(toy.elasticity)[-1] == pytest.approx(
            3.0 + 2.0 * math.sqrt(2.0), rel=1e-12)

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
            assert coupling_strength(make_toy(omega)) == pytest.approx(
                omega, rel=1e-12)

    def test_consistent_initial_data(self):
        toy = make_toy(3.0)
        r_u, r_p = residual_coupled(toy, toy.u0, toy.p0, np.zeros(3),
                                    np.zeros(1), 0.0)
        assert np.abs(r_u).max() <= 1e-10
        assert np.abs(r_p).max() <= 1e-10

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(InvalidParameter):
            make_toy(0.0)

    @pytest.mark.parametrize("omega", [math.nan, math.inf])
    def test_rejects_non_finite_omega(self, omega):
        with pytest.raises(InvalidParameter, match="omega"):
            make_toy(omega)

    @pytest.mark.parametrize("omega", [1.0, 1.5, 2.0, 4.0])
    def test_is_network_zero_of_a_decoupled_network_toy(self, omega):
        toy = make_toy(omega)
        net = make_network_toy(2, [math.sqrt(omega), 0.7], [1.0, 3.0],
                               [1.0, 0.5], {})
        u, p = slice(0, 3), slice(0, 1)
        blocks = {"elasticity": (u, u), "norm_u": (u, u), "coupling": (p, u),
                  "flow_stiffness": (p, p), "storage": (p, p),
                  "norm_p_grad": (p, p), "norm_p": (p, p)}
        for name, (rows, cols) in blocks.items():
            assert np.array_equal(getattr(net, name)[rows, cols],
                                  getattr(toy, name)), name
        assert not net.elasticity[u, 3:].any() and not net.coupling[p, 3:].any()
        assert np.array_equal(net.u0[u], toy.u0)
        assert np.array_equal(net.p0[p], toy.p0)
        for t in (0.0, 0.37, 1.0, 2.5):
            assert np.array_equal(net.load_u(t)[u], toy.load_u(t))
            assert np.array_equal(net.load_p(t)[p], toy.load_p(t))
            np.testing.assert_allclose(net.exact_p(t)[p], toy.exact_p(t),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(net.exact_u(t)[u], toy.exact_u(t),
                                       rtol=1e-12, atol=1e-12)

    def test_exact_solution_satisfies_ode(self):
        toy = make_toy(2.0)
        h = 1e-6
        for t in (0.2, 0.8, 1.7):
            du = (toy.exact_u(t + h) - toy.exact_u(t - h)) / (2 * h)
            dp = (toy.exact_p(t + h) - toy.exact_p(t - h)) / (2 * h)
            r_u, r_p = residual_coupled(toy, toy.exact_u(t), toy.exact_p(t),
                                        du, dp, t)
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


class TestElasticityFactor:
    """The system owns the one factorization of A."""

    def test_derived_systems_share_the_factor(self):
        toy = make_toy(2.0)
        assert time_shifted(toy, 1.0).elasticity_factor \
            is toy.elasticity_factor
        assert replace(toy, label="copy").elasticity_factor \
            is toy.elasticity_factor

    def test_hand_built_system_factors_A(self):
        toy = make_toy(2.0)
        given = {f.name: getattr(toy, f.name) for f in fields(CoupledSystem)
                 if f.name != "elasticity_factor"}
        built = CoupledSystem(**given)
        assert built.elasticity_factor is not toy.elasticity_factor
        rhs = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(
            toy.elasticity @ built.elasticity_factor.solve(rhs), rhs,
            rtol=0.0, atol=1e-13)

    def test_factor_of_the_wrong_shape_is_rejected(self):
        toy = make_toy(2.0)
        with pytest.raises(DimensionMismatch,
                           match=r"factor of shape \(2, 2\).*\(3, 3\)"):
            replace(toy, elasticity_factor=factorize(np.eye(2)))


class TestOracleValidation:
    """Bad input to the modal oracle fails at construction, before any
    factorization."""

    @staticmethod
    def _built(sys, monkeypatch):
        """``sys``, with factorizations forbidden from here on."""
        monkeypatch.setattr(system, "factorize", None)
        return sys

    def test_rejects_nonsymmetric_flow_operator(self, monkeypatch):
        sys = self._built(make_network_toy(2, [0.4, 0.2], [1.0, 1.0],
                                           [1.0, 1.0], {}), monkeypatch)
        bad = replace(sys, flow_stiffness=np.array([[1.0, 0.1], [0.0, 1.0]]))
        with pytest.raises(InvalidParameter, match="symmetric flow"):
            semidiscrete_solution(bad, ("sin", 1.0))

    def test_rejects_non_finite_flow_operator(self, monkeypatch):
        toy = self._built(make_toy(2.0), monkeypatch)
        bad = replace(toy, flow_stiffness=np.array([[math.nan]]))
        with pytest.raises(InvalidParameter, match="symmetric flow"):
            semidiscrete_solution(bad, ("sin", 1.0))


class TestDeclaredSourceLaw:
    """Each builder's loads follow the law it states to the oracle; the
    oracle trusts that law and reads only the loads it needs."""

    BUILDERS = {
        "toy": lambda: make_toy(2.0),
        "network": lambda: make_network_toy(2, [0.4, 0.2], [1.0, 2.0],
                                            [1.0, 0.5], {(0, 1): 0.05}),
        "biot4": lambda: fem2d.manufactured_system(4),
    }
    # the decay rate manufactured_system states to the oracle
    RATE = 1.0 / fem2d.manufactured(fem2d.BiotParameters()).decay_time

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_loads_follow_the_stated_law(self, builder):
        # f constant and g = sin(t) g(pi/2) for the toys, both sources
        # exp(-rate t) times their t = 0 values for Biot: each load within
        # rel * (max |ref| + 1) of scale(t) * ref
        sys = self.BUILDERS[builder]()

        def decay(t):
            return math.exp(-self.RATE * t)

        if builder == "biot4":
            laws = [(sys.load_u, decay, sys.load_u(0.0), 1e-10),
                    (sys.load_p, decay, sys.load_p(0.0), 1e-10)]
        else:
            laws = [(sys.load_u, lambda t: 1.0, sys.load_u(0.0), 1e-12),
                    (sys.load_p, math.sin, sys.load_p(0.5 * math.pi), 1e-10)]
        for t in (0.37, 0.7, 1.13):
            for load, scale, ref, rel in laws:
                assert np.abs(load(t) - scale(t) * ref).max() \
                    <= rel * (np.abs(ref).max() + 1.0)

    @pytest.mark.parametrize("builder, shape, calls", [
        ("toy", ("sin", 1.0), (0, 1)),
        ("biot4", ("exp", RATE), (1, 1)),
    ])
    def test_construction_reads_only_the_loads_it_needs(self, builder, shape,
                                                        calls):
        counts = {"load_u": 0, "load_p": 0}

        def counted(name, load):
            def call(t):
                counts[name] += 1
                return load(t)
            return call

        sys = self.BUILDERS[builder]()
        sys = replace(sys, load_u=counted("load_u", sys.load_u),
                      load_p=counted("load_p", sys.load_p))
        semidiscrete_solution(sys, shape)
        assert (counts["load_u"], counts["load_p"]) == calls


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

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameter):
            make_network_toy(1, [0.1], [1.0], [1.0], {})
        with pytest.raises(InvalidParameter):
            make_network_toy(2, [0.1, -0.1], [1.0, 1.0], [1.0, 1.0], {})
        with pytest.raises(InvalidParameter):
            make_network_toy(2, [0.1, 0.1], [1.0, 1.0], [1.0, 1.0],
                             {(0, 0): 1.0})

    @pytest.mark.parametrize("exchange", [
        [((0, 1), 1e-3), ((1, 0), 5.0)],
        [((0, 1), 5.0), ((0, 1), 5.0)],
        {(0, 1): 1e-3, (1, 0): 5.0},
    ])
    def test_rejects_a_pair_given_twice(self, exchange):
        with pytest.raises(InvalidParameter, match="given twice"):
            make_network_toy(2, [0.4, 0.2], [1.0, 1.0], [1.0, 1.0], exchange)

    def test_exchange_items_and_mapping_agree(self):
        args = (3, [0.4, 0.2, 0.4], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        items = make_network_toy(*args, [((0, 1), 0.3), ((2, 1), 0.7)])
        mapping = make_network_toy(*args, {(0, 1): 0.3, (2, 1): 0.7})
        np.testing.assert_array_equal(items.flow_stiffness,
                                      mapping.flow_stiffness)

    @pytest.mark.parametrize("alphas, moduli, mobilities, exchange, name", [
        ([math.nan, 0.2], [1.0, 1.0], [1.0, 1.0], {}, "alphas"),
        ([0.4, 0.2], [math.inf, 1.0], [1.0, 1.0], {}, "storage moduli"),
        ([0.4, 0.2], [1.0, 1.0], [1.0, -math.inf], {}, "mobilities"),
        ([0.4, 0.2], [1.0, 1.0], [1.0, 1.0], {(0, 1): math.nan},
         "exchange rate"),
    ])
    def test_rejects_non_finite_parameters(self, alphas, moduli, mobilities,
                                           exchange, name):
        with pytest.raises(InvalidParameter, match=name):
            make_network_toy(2, alphas, moduli, mobilities, exchange)

    def test_exact_solution_satisfies_ode(self):
        sys = make_network_toy(2, [0.4, 0.2], [1.0, 2.0], [1.0, 0.5],
                               {(0, 1): 1e-2})
        h = 1e-6
        for t in (0.3, 1.1):
            du = (sys.exact_u(t + h) - sys.exact_u(t - h)) / (2 * h)
            dp = (sys.exact_p(t + h) - sys.exact_p(t - h)) / (2 * h)
            r_u, r_p = residual_coupled(sys, sys.exact_u(t), sys.exact_p(t),
                                        du, dp, t)
            assert np.abs(r_u).max() <= 1e-8
            assert np.abs(r_p).max() <= 1e-7

    def test_consistent_initial_data(self):
        sys = make_network_toy(3, [0.4, 0.2, 0.4], [1.0, 2.0, 3.0],
                               [1.0, 1.0, 1.0], {(0, 1): 1e-3})
        r_u, _ = residual_coupled(sys, sys.u0, sys.p0, np.zeros(sys.dim_u),
                                  np.zeros(sys.dim_p), 0.0)
        assert np.abs(r_u).max() <= 1e-10


class TestExactConstants:
    def test_toy_constants_match_construction(self):
        toy = make_toy(2.0)
        consts = exact_discrete_constants(toy)
        assert consts["elastic_coercivity"] == pytest.approx(
            toy.elastic_coercivity, rel=1e-10)
        assert consts["coupling_constant"] == pytest.approx(
            toy.coupling_constant, rel=1e-10)
        assert consts["storage_coercivity"] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("sys", [
        make_toy(2.0), make_toy(0.25),
        make_network_toy(2, [0.4, 0.2], [1.0, 2.0], [1.0, 0.5],
                         {(0, 1): 0.05}),
        make_network_toy(3, [0.4, 0.2, 0.4], [1.0, 2.0, 3.0],
                         [1.0, 1.0, 1.0], {(0, 1): 1e-3}),
    ], ids=["toy-2", "toy-0.25", "network-2", "network-3"])
    def test_coupling_constant_is_the_sharp_value(self, sys):
        sharp = exact_discrete_constants(sys)["coupling_constant"]
        assert sys.coupling_constant == pytest.approx(sharp, rel=1e-12)
