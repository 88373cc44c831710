import dataclasses
import math

import numpy as np
import pytest

from porosplit import fem2d, splitsolve as ss
from porosplit.bdf import History, scheme
from porosplit.splitsolve import (MaxInnerExceeded, NotScalarPressure,
                                  SolverFailure, SplitConfig, contraction_factor,
                                  default_stabilization, integrate,
                                  predict_iterations, step_implicit,
                                  step_split, stabilization_for_contraction,
                                  termination_functional)
from porosplit.system import CoupledSystem, make_toy


@pytest.fixture(scope="module")
def toy():
    return make_toy(2.0)


@pytest.fixture(scope="module")
def biot8():
    return fem2d.manufactured_system(8)


class TestStabilization:
    def test_default_with_unit_constants(self, toy):
        # override constants to the unit case
        sys = dataclasses.replace(make_toy(1.0), elastic_coercivity=1.0,
                                  elastic_continuity=1.0, coupling_bound=1.0)
        assert default_stabilization(sys) == 1.0

    def test_default_clears_threshold_with_margin(self, toy):
        ell = default_stabilization(toy)
        threshold = (toy.elastic_continuity ** 2 * toy.coupling_bound ** 2
                     / (2.0 * toy.elastic_coercivity ** 3))
        assert ell == pytest.approx(2.0 * threshold, rel=1e-12)

    def test_biot_surrogate_value(self, biot8):
        # C_a^2 C_d^2 / c_a^3 with surrogates 2mu+lambda, alpha, mu
        prm = fem2d.BiotParameters()
        expected = (2 * prm.mu + prm.lam) ** 2 * prm.alpha ** 2 / prm.mu ** 3
        assert expected == pytest.approx(162.0, rel=1e-12)
        assert default_stabilization(biot8) == pytest.approx(expected,
                                                             rel=1e-12)

    def test_prescribed_contraction_round_trip(self, toy):
        # substituting the derived L back into the scalar contraction factor
        # must reproduce gamma exactly
        s = 2.0 * (13.0 / 9.0) * (2.0 - math.sqrt(2.0))
        for gamma in (0.5, 0.1, 0.9):
            for tau, xi0 in ((0.125, 1.0), (0.25, 1.5)):
                ell = stabilization_for_contraction(toy, gamma, tau, xi0)
                implied = (ell - s) / (ell + 1.0 + tau / xi0)
                assert implied == pytest.approx(gamma, abs=1e-14)

    def test_gamma_zero_limit(self, toy):
        s = 2.0 * (13.0 / 9.0) * (2.0 - math.sqrt(2.0))
        ell = stabilization_for_contraction(toy, 1e-12, 0.125, 1.0)
        assert ell == pytest.approx(s, rel=1e-9)

    def test_scalar_pressure_required(self, biot8):
        with pytest.raises(NotScalarPressure):
            stabilization_for_contraction(biot8, 0.5, 0.1, 1.0)

    def test_contraction_factor_values(self):
        assert contraction_factor(2.0, 1.0) == pytest.approx(1 / math.sqrt(2))
        assert contraction_factor(6.0, 1.0) == pytest.approx(math.sqrt(3) / 2)
        assert contraction_factor(1e-12, 1.0) < 1e-5


class TestTermination:
    def test_zero_increment(self, toy):
        cfg = SplitConfig(tol=1e-6, stabilization=2.0)
        val = termination_functional(cfg, toy, np.zeros(3), np.zeros(1),
                                     0.1, 1.0)
        assert val == 0.0

    def test_hand_value(self):
        sys = make_toy(1.0)
        cfg = SplitConfig(tol=1.0, stabilization=2.0,
                          weights=(2.0, 1.0, 1.0))
        val = termination_functional(cfg, sys, np.array([1.0, 0.0, 0.0]),
                                     np.array([1.0]), tau=1.0, xi0=1.0,
                                     stabilization=2.0)
        # (2/2)*1 + (1 + 2/2)*1 + (1/1)*1*1 = 4
        assert val == pytest.approx(4.0, rel=1e-15)

    def test_quadratic_scaling(self, toy):
        cfg = SplitConfig(tol=1.0, stabilization=3.0)
        rng = np.random.default_rng(0)
        du, dp = rng.normal(size=3), rng.normal(size=1)
        v1 = termination_functional(cfg, toy, du, dp, 0.2, 1.5, 3.0)
        v2 = termination_functional(cfg, toy, 2 * du, 2 * dp, 0.2, 1.5, 3.0)
        assert v2 == pytest.approx(4.0 * v1, rel=1e-12)


class TestPredictIterations:
    def test_equal_tolerance(self):
        assert predict_iterations(1.0, 1.0, 0.5) == 1

    def test_hand_value(self):
        assert predict_iterations(1e-3, 1.0, 0.5) == 11

    def test_clamped_when_tolerance_loose(self):
        assert predict_iterations(10.0, 1.0, 0.5) == 1

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            predict_iterations(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            predict_iterations(1.0, 1.0, 1.5)


class TestStepSplit:
    def test_decoupled_system_takes_one_sweep(self):
        prm = fem2d.BiotParameters(alpha=1e-13)
        sys = fem2d.manufactured_system(6)
        sch = scheme(1)
        tau = 0.125
        cfg = SplitConfig(tol=1e-10, stabilization=1.0)
        hu = History(1, [sys.u0])
        hp = History(1, [sys.p0])
        u_s, p_s, rep = step_split(sys, cfg, sch, tau, hu, hp, tau)
        u_i, p_i = step_implicit(sys, sch, tau, hu, hp, tau)
        # weak residual coupling (alpha ~ 0): one sweep reaches the fixed point
        np.testing.assert_allclose(p_s, p_i, atol=1e-8)

    def test_huge_tolerance_single_sweep(self, toy):
        sch = scheme(1)
        cfg = SplitConfig(tol=1e6, stabilization=4.0)
        hu, hp = History(1, [toy.u0]), History(1, [toy.p0])
        _, _, rep = step_split(toy, cfg, sch, 0.125, hu, hp, 0.125)
        assert rep.inner_iterations == 1

    def test_exact_toy_contraction_ratio(self, toy):
        sch = scheme(1)
        tau = 0.125
        gamma = 0.5
        cfg = SplitConfig(tol=1e-3, gamma_target=gamma)
        traj = integrate(toy, cfg, sch, tau, 1.0, mode="split")
        for rep in traj.reports:
            for ratio in rep.pressure_ratios:
                assert ratio == pytest.approx(gamma, abs=1e-10)

    def test_max_inner_exceeded(self, toy):
        sch = scheme(1)
        cfg = SplitConfig(tol=1e-12, stabilization=500.0, max_inner=3)
        hu, hp = History(1, [toy.u0]), History(1, [toy.p0])
        with pytest.raises(MaxInnerExceeded):
            step_split(toy, cfg, sch, 0.125, hu, hp, 0.125)

    def test_non_finite_iterate_fails_at_once(self, toy):
        bad = dataclasses.replace(toy, load_p=lambda t: np.array([math.nan]))
        cfg = SplitConfig(tol=1e-6, stabilization=4.0)
        hu, hp = History(1, [toy.u0]), History(1, [toy.p0])
        with pytest.raises(SolverFailure, match="inner iteration 1;"):
            step_split(bad, cfg, scheme(1), 0.125, hu, hp, 0.125)

    @pytest.mark.parametrize("kwargs", [
        {"tol": math.nan}, {"tol": math.inf}, {"tol": 0.0},
        {"tol": 1e-6, "stabilization": math.nan},
        {"tol": 1e-6, "stabilization": math.inf},
        {"tol": 1e-6, "gamma_target": math.nan},
    ])
    def test_config_rejects_non_finite_values(self, kwargs):
        with pytest.raises(ValueError):
            SplitConfig(**kwargs)


class TestStepImplicit:
    def test_matches_hand_assembled_block_solve(self, toy):
        sch = scheme(1)
        tau = 0.125
        hu, hp = History(1, [toy.u0]), History(1, [toy.p0])
        u, p = step_implicit(toy, sch, tau, hu, hp, tau)
        a = toy.elasticity
        d = toy.coupling
        block = np.zeros((4, 4))
        block[:3, :3] = a
        block[:3, 3:] = -d.T
        block[3:, :3] = d / tau
        block[3, 3] = 1.0 / tau + 1.0
        rhs = np.concatenate([
            toy.load_u(tau),
            toy.load_p(tau) + (d @ toy.u0 + toy.p0) / tau,
        ])
        z = np.linalg.solve(block, rhs)
        np.testing.assert_allclose(np.concatenate([u, p]), z, rtol=1e-12)

    def test_block_residual(self, biot8):
        sch = scheme(2)
        tau = 0.0625
        seeds = ([biot8.semidiscrete_u(0.0), biot8.semidiscrete_u(tau)],
                 [biot8.semidiscrete_p(0.0), biot8.semidiscrete_p(tau)])
        hu = History(2, seeds[0])
        hp = History(2, seeds[1])
        u, p = step_implicit(biot8, sch, tau, hu, hp, 2 * tau)
        xi = sch.coeffs
        su = xi[1] * seeds[0][1] + xi[2] * seeds[0][0]
        sp = xi[1] * seeds[1][1] + xi[2] * seeds[1][0]
        r_u = (biot8.elasticity @ u - biot8.coupling.T @ p
               - biot8.load_u(2 * tau))
        r_p = (biot8.coupling @ ((xi[0] * u + su) / tau)
               + biot8.storage @ ((xi[0] * p + sp) / tau)
               + biot8.flow_stiffness @ p - biot8.load_p(2 * tau))
        scale = max(np.abs(biot8.load_u(2 * tau)).max(),
                    np.abs(biot8.load_p(2 * tau)).max())
        assert np.abs(r_u).max() <= 1e-10 * scale
        assert np.abs(r_p).max() <= 1e-10 * scale

    def test_stationary_state_preserved(self):
        # constant-in-time manufactured state with matching constant sources
        toy = make_toy(2.0)
        u_star = np.array([0.3, -0.2, 0.5])
        p_star = np.array([0.7])
        f_star = toy.elasticity @ u_star - toy.coupling.T @ p_star
        g_star = toy.flow_stiffness @ p_star
        stat = CoupledSystem(
            elasticity=toy.elasticity, flow_stiffness=toy.flow_stiffness,
            storage=toy.storage, coupling=toy.coupling, norm_u=toy.norm_u,
            norm_p_grad=toy.norm_p_grad, norm_p=toy.norm_p,
            elastic_coercivity=toy.elastic_coercivity,
            elastic_continuity=toy.elastic_continuity,
            flow_coercivity=toy.flow_coercivity,
            flow_continuity=toy.flow_continuity,
            storage_coercivity=toy.storage_coercivity,
            storage_continuity=toy.storage_continuity,
            coupling_bound=toy.coupling_bound,
            load_u=lambda t: f_star, load_p=lambda t: g_star,
            u0=u_star, p0=p_star,
        )
        for k in (1, 2, 3):
            sch = scheme(k)
            hu = History(k, [u_star] * k)
            hp = History(k, [p_star] * k)
            u, p = step_implicit(stat, sch, 0.25, hu, hp, 0.25)
            np.testing.assert_allclose(u, u_star, atol=1e-10)
            np.testing.assert_allclose(p, p_star, atol=1e-10)


class TestIntegrate:
    def test_single_step_equals_step_function(self, toy):
        sch = scheme(1)
        cfg = SplitConfig(tol=1e-9, gamma_target=0.5, startup="bootstrap")
        traj = integrate(toy, cfg, sch, 1.0, 1.0, mode="split")
        hu, hp = History(1, [toy.u0]), History(1, [toy.p0])
        u, p, _ = step_split(toy, cfg, sch, 1.0, hu, hp, 1.0)
        np.testing.assert_allclose(traj.us[-1], u, rtol=1e-14)
        np.testing.assert_allclose(traj.ps[-1], p, rtol=1e-14)

    def test_split_at_tight_tolerance_matches_implicit(self, toy):
        sch = scheme(1)
        cfg = SplitConfig(tol=1e-13, gamma_target=0.5)
        t_split = integrate(toy, cfg, sch, 0.125, 1.0, mode="split")
        t_impl = integrate(toy, cfg, sch, 0.125, 1.0, mode="implicit")
        for us, ui, ps, pi in zip(t_split.us, t_impl.us, t_split.ps,
                                  t_impl.ps):
            assert np.abs(us - ui).max() <= 1e-10
            assert np.abs(ps - pi).max() <= 1e-10

    def test_non_integral_step_count_rejected(self, toy):
        cfg = SplitConfig(tol=1e-6)
        with pytest.raises(ValueError):
            integrate(toy, cfg, scheme(1), 0.3, 1.0)

    def test_exact_startup_seeds(self, toy):
        sch = scheme(3)
        cfg = SplitConfig(tol=1e-8, gamma_target=0.5, startup="exact")
        tau = 0.0625
        traj = integrate(toy, cfg, sch, tau, 1.0, mode="split")
        # pressure seeds are the exact-evaluator values
        for ell in range(3):
            np.testing.assert_allclose(traj.ps[ell],
                                       toy.exact_p(ell * tau), atol=1e-12)
        # reports exist only for the multistep main phase
        assert [r.index for r in traj.reports][0] == 3

    def test_bootstrap_startup_uses_increasing_orders(self, toy):
        sch = scheme(2)
        cfg = SplitConfig(tol=1e-9, gamma_target=0.5, startup="bootstrap")
        tau = 0.125
        traj = integrate(toy, cfg, sch, tau, 1.0, mode="split")
        # first step must be the implicit BDF-1 step from the initial data
        hu, hp = History(1, [toy.u0]), History(1, [toy.p0])
        u1, p1 = step_implicit(toy, scheme(1), tau, hu, hp, tau)
        np.testing.assert_allclose(traj.us[1], u1, rtol=1e-13)
        np.testing.assert_allclose(traj.ps[1], p1, rtol=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_convergence_order_on_toy(self, toy, k):
        sch = scheme(k)
        errs = []
        taus = [2.0 ** -e for e in (4, 5, 6)]
        for tau in taus:
            cfg = SplitConfig(tol=1e-12, gamma_target=0.3, startup="exact")
            traj = integrate(toy, cfg, sch, tau, 1.0, mode="split")
            errs.append(max(abs(float(toy.exact_p(t)[0] - p[0]))
                            for t, p in zip(traj.times, traj.ps)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= k - 0.25


class TestContractionGuarantee:
    def test_ratios_bounded_by_lemma_factor_constant_forcing(self):
        # constant-f systems: the guaranteed factor applies from iteration 2.
        # The lemma-default stabilization contracts slowly (factor ~0.96 on
        # the toy), so the tolerance is chosen to terminate within the cap
        # while still exercising hundreds of inner iterations.
        for omega in (2.0, 4.0):
            sys = make_toy(omega)
            ell = default_stabilization(sys)
            gamma = contraction_factor(ell, sys.storage_coercivity)
            cfg = SplitConfig(tol=0.05, stabilization=ell, max_inner=2000)
            traj = integrate(sys, cfg, scheme(2), 0.125, 0.5, mode="split")
            checked = 0
            for rep in traj.reports:
                for ratio in rep.ratios:
                    assert ratio <= gamma + 1e-9
                    checked += 1
            assert checked > 100

    def test_ratios_bounded_on_biot_past_first_pair(self, biot8):
        # time-dependent f pollutes the first ratio; the guarantee holds for
        # later iterate pairs
        ell = default_stabilization(biot8)
        gamma = contraction_factor(ell, biot8.storage_coercivity)
        cfg = SplitConfig(tol=0.02, stabilization=ell, startup="exact",
                          max_inner=2000)
        traj = integrate(biot8, cfg, scheme(1), 0.125, 0.5, mode="split")
        assert traj.mean_inner() > 2
        for rep in traj.reports:
            for ratio in rep.ratios[1:]:
                assert ratio <= gamma + 1e-9

    def test_prediction_upper_bounds_observed(self, toy):
        for gamma in (0.5, 0.1):
            cfg = SplitConfig(tol=1e-6, gamma_target=gamma)
            traj = integrate(toy, cfg, scheme(1), 0.0625, 1.0, mode="split")
            for rep in traj.reports:
                assert rep.predicted >= rep.inner_iterations


class TestSplittingErrorControl:
    def test_zero_coupling_trajectories_coincide(self):
        prm = fem2d.BiotParameters(alpha=1e-13)
        grid = fem2d.Grid2D(6)
        sys = fem2d.assemble_biot(grid, prm, fem2d.manufactured(prm))
        cfg = SplitConfig(tol=1e-12, stabilization=1.0, startup="bootstrap")
        t_split = integrate(sys, cfg, scheme(2), 0.125, 1.0, mode="split")
        t_impl = integrate(sys, cfg, scheme(2), 0.125, 1.0, mode="implicit")
        for us, ui, ps, pi in zip(t_split.us, t_impl.us, t_split.ps,
                                  t_impl.ps):
            assert np.abs(us - ui).max() <= 1e-9
            assert np.abs(ps - pi).max() <= 1e-9

    def test_tolerance_halving_never_increases_final_error(self, toy):
        # distance to the implicit same-tau trajectory is non-increasing
        # under tol halving (equal when the iteration counts do not change)
        tau = 0.0625
        sch = scheme(1)
        cfg0 = SplitConfig(tol=1.0, gamma_target=0.4)
        ref = integrate(toy, cfg0, sch, tau, 1.0, mode="implicit")
        dists = []
        for halvings in range(12):
            cfg = SplitConfig(tol=1e-1 * 0.5 ** halvings, gamma_target=0.4)
            traj = integrate(toy, cfg, sch, tau, 1.0, mode="split")
            dists.append(np.abs(traj.ps[-1] - ref.ps[-1]).max()
                         + np.abs(traj.us[-1] - ref.us[-1]).max())
        for a, b in zip(dists, dists[1:]):
            assert b <= a * (1.0 + 1e-12)
