import dataclasses
import functools
import gc
import math
import re
import tracemalloc

import numpy as np
import pytest

from porosplit import fem2d, splitsolve as ss
from porosplit.bdf import History, scheme
from porosplit.linalg import DimensionMismatch, weighted_norm_sq
from porosplit.splitsolve import (MaxInnerExceeded, SolverFailure,
                                  SplitConfig, StepperWork,
                                  contraction_factor, default_stabilization,
                                  integrate, predict_iterations, step_implicit,
                                  step_split, termination_functional)
from porosplit.system import CoupledSystem, make_network_toy, make_toy
from verification import reference_step_split, termination_weights


def split_step(sys, cfg, sch, tau, hist, n):
    """``step_split`` with a fresh run object for step n."""
    return step_split(StepperWork(sys, cfg, sch, tau, "split"), hist, n)


def implicit_step(sys, sch, tau, hist, n):
    """``step_implicit`` with a fresh run object for step n."""
    work = StepperWork(sys, SplitConfig(tol=1.0), sch, tau, "implicit")
    return step_implicit(work, sch, hist, n)


def stacked(k, us, ps):
    """A history of capacity k of the stacked states (u, p), oldest given
    first."""
    return History(k, [np.concatenate((u, p)) for u, p in zip(us, ps)])


def resolved_stabilization(sys, gamma, tau, k):
    """The L a split run with target ``gamma`` resolves."""
    cfg = SplitConfig(tol=1.0, gamma_target=gamma)
    return StepperWork(sys, cfg, scheme(k), tau, "split").stabilization


def exact_seeds(sys, k, tau):
    """``initial_history`` of k states per field on the semidiscrete flow."""
    return ([sys.semidiscrete_u(ell * tau) for ell in range(k)],
            [sys.semidiscrete_p(ell * tau) for ell in range(k)])


@pytest.fixture(scope="module")
def toy():
    return make_toy(2.0)


@pytest.fixture(scope="module")
def biot8():
    return fem2d.manufactured_system(8)


@pytest.fixture
def factor_calls(monkeypatch):
    """Shapes of the matrices ``splitsolve`` factors while the test runs."""
    calls = []

    def counting(m):
        calls.append(m.shape)
        return factorize(m)

    factorize = ss.factorize
    monkeypatch.setattr(ss, "factorize", counting)
    return calls


class TestStabilization:
    def test_default_is_the_coupling_constant(self, toy):
        assert default_stabilization(toy) == toy.coupling_constant
        sys = dataclasses.replace(toy, coupling_constant=1.0)
        assert default_stabilization(sys) == 1.0

    def test_biot_default_value(self, biot8):
        # alpha^2 / (mu + lambda): a(u, u) >= (mu + lambda) |div u|^2 and
        # d(u, q) <= alpha |div u| |q|
        prm = fem2d.BiotParameters()
        assert prm.alpha ** 2 / (prm.mu + prm.lam) == 0.9
        assert default_stabilization(biot8) == 0.9

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -1.0])
    def test_default_rejects_a_missing_coupling_constant(self, toy, beta):
        sys = dataclasses.replace(toy, coupling_constant=beta)
        with pytest.raises(ss.MissingConstants, match="beta"):
            default_stabilization(sys)

    def test_prescribed_contraction_round_trip(self, toy):
        # substituting the derived L back into the scalar contraction factor
        # must reproduce gamma exactly
        s = 2.0 * (13.0 / 9.0) * (2.0 - math.sqrt(2.0))
        for gamma in (0.5, 0.1, 0.9):
            for tau, k in ((0.125, 1), (0.25, 2)):
                ell = resolved_stabilization(toy, gamma, tau, k)
                xi0 = scheme(k).leading
                implied = (ell - s) / (ell + 1.0 + tau / xi0)
                assert implied == pytest.approx(gamma, abs=1e-14)

    def test_gamma_zero_limit(self, toy):
        s = 2.0 * (13.0 / 9.0) * (2.0 - math.sqrt(2.0))
        ell = resolved_stabilization(toy, 1e-12, 0.125, 1)
        assert ell == pytest.approx(s, rel=1e-9)

    def test_gamma_target_on_a_pressure_field_inverts_the_factor(self, biot8):
        # no closed form off a scalar pressure: L is the inverse of the
        # guaranteed factor sqrt(L / (2 c_c + L))
        ell = resolved_stabilization(biot8, 0.5, 0.125, 2)
        assert contraction_factor(ell, biot8.storage_coercivity) \
            == pytest.approx(0.5, rel=1e-14)

    def test_contraction_factor_values(self):
        assert contraction_factor(2.0, 1.0) == pytest.approx(1 / math.sqrt(2))
        assert contraction_factor(6.0, 1.0) == pytest.approx(math.sqrt(3) / 2)
        assert contraction_factor(1e-12, 1.0) < 1e-5


class TestTermination:
    def test_zero_increment(self, toy):
        cfg = SplitConfig(tol=1e-6, stabilization=2.0)
        work = StepperWork(toy, cfg, scheme(1), 0.1, "split")
        val = termination_functional(work, np.concatenate([np.zeros(3),
                                                     np.zeros(1)]))
        assert val == 0.0

    def test_hand_value(self):
        # weights (c_a, c_c, c_b) = (2, 1, 1)
        sys = dataclasses.replace(make_toy(1.0), elastic_coercivity=2.0)
        cfg = SplitConfig(tol=1.0, stabilization=2.0)
        work = StepperWork(sys, cfg, scheme(1), 1.0, "split")
        val = termination_functional(
            work, np.concatenate([np.array([1.0, 0.0, 0.0]), np.array([1.0])]))
        # (2/2)*1 + (1 + 2/2)*1 + (1/1)*1*1 = 4
        assert val == pytest.approx(4.0, rel=1e-15)

    def test_quadratic_scaling(self, toy):
        cfg = SplitConfig(tol=1.0, stabilization=3.0)
        rng = np.random.default_rng(0)
        du, dp = rng.normal(size=3), rng.normal(size=1)
        work = StepperWork(toy, cfg, scheme(2), 0.2, "split")  # xi0 = 1.5
        v1 = termination_functional(work, np.concatenate([du, dp]))
        v2 = termination_functional(work,
                                    np.concatenate([2 * du, 2 * dp]))
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
        hist = stacked(1, [sys.u0], [sys.p0])
        u_s, p_s, rep = split_step(sys, cfg, sch, tau, hist, 1)
        u_i, p_i = implicit_step(sys, sch, tau, hist, 1)
        # weak residual coupling (alpha ~ 0): one sweep reaches the fixed point
        np.testing.assert_allclose(p_s, p_i, atol=1e-8)

    def test_huge_tolerance_single_sweep(self, toy):
        sch = scheme(1)
        cfg = SplitConfig(tol=1e6, stabilization=4.0)
        hist = stacked(1, [toy.u0], [toy.p0])
        _, _, rep = split_step(toy, cfg, sch, 0.125, hist, 1)
        assert rep.inner_iterations == 1

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("gamma", [0.5, 0.1])
    @pytest.mark.parametrize("k", [1, 2])
    def test_exact_toy_contraction_ratio(self, toy, m, gamma, k):
        # dp_i = (L m - s) / (L m + c + (tau/xi0) b) dp_{i-1} on a scalar
        # pressure with M_H = [[m]]: the inverted L carries the 1/m
        sys = dataclasses.replace(toy, norm_p=np.array([[m]]))
        cfg = SplitConfig(tol=1e-3, gamma_target=gamma)
        traj = integrate(sys, cfg, scheme(k), 0.125, 1.0, mode="split")
        ratios = [r for rep in traj.reports for r in rep.pressure_ratios]
        assert ratios
        assert max(abs(r - gamma) for r in ratios) <= 1e-11

    def test_report_carries_its_step_index_and_time(self, toy):
        tau = 0.125
        seeds = exact_seeds(toy, 2, tau)
        hist = stacked(2, *seeds)
        cfg = SplitConfig(tol=1e-8, gamma_target=0.5)
        _, _, rep = split_step(toy, cfg, scheme(2), tau, hist, 2)
        assert (rep.index, rep.time) == (2, 2 * tau)
        _, _, rep = split_step(toy, cfg, scheme(2), tau, hist, 5)
        assert (rep.index, rep.time) == (5, 5 * tau)

    def test_max_inner_exceeded(self, toy):
        sch = scheme(1)
        cfg = SplitConfig(tol=1e-12, stabilization=500.0, max_inner=3)
        hist = stacked(1, [toy.u0], [toy.p0])
        with pytest.raises(MaxInnerExceeded,
                           match="L = 500 with beta = 1.69227 guarantees "
                                 "a contraction by 0.998"):
            split_step(toy, cfg, sch, 0.125, hist, 1)

    def test_max_inner_exceeded_below_beta_claims_no_guarantee(self, biot8):
        cfg = SplitConfig(tol=1e-12, stabilization=0.1, max_inner=2)
        hist = stacked(1, [biot8.u0], [biot8.p0])
        with pytest.raises(MaxInnerExceeded,
                           match="L = 0.1 with beta = 0.9 guarantees no "
                                 "contraction"):
            split_step(biot8, cfg, scheme(1), 0.125, hist, 1)

    def test_max_inner_exceeded_on_round_off_names_the_floor(self, toy):
        # eps falls to ~1e-16 within a few sweeps, then wanders there until
        # the cap; L = beta is not the cause
        cfg = SplitConfig(tol=1e-300)
        hist = stacked(1, [toy.u0], [toy.p0])
        with pytest.raises(MaxInnerExceeded) as err:
            split_step(toy, cfg, scheme(1), 0.125, hist, 1)
        message = str(err.value)
        assert re.search(r"within 200 inner iterations at t=0.125; eps "
                         r"stopped falling at \S+e-16 \(sweep \d+\), so tol "
                         r"= 1e-300 is below this step's round-off floor$",
                         message), message

    def test_max_inner_exceeded_on_growth_claims_no_guarantee(self, toy):
        # L = 0: eps grows from about 1.9 to about 4e35 over 200 sweeps
        cfg = SplitConfig(tol=1e-9, stabilization=0.0)
        hist = stacked(1, [toy.u0], [toy.p0])
        with pytest.raises(MaxInnerExceeded,
                           match="within 200 inner iterations at t=0.125; "
                                 "L = 0 with beta = 1.69227 guarantees no "
                                 "contraction"):
            split_step(toy, cfg, scheme(1), 0.125, hist, 1)

    def test_non_finite_iterate_fails_at_once(self, toy):
        bad = dataclasses.replace(toy, load_p=lambda t: np.array([math.nan]))
        cfg = SplitConfig(tol=1e-6, stabilization=4.0)
        hist = stacked(1, [toy.u0], [toy.p0])
        with pytest.raises(SolverFailure, match="inner iteration 1;"):
            split_step(bad, cfg, scheme(1), 0.125, hist, 1)

    def test_config_accepts_a_numpy_integer_max_inner(self, toy):
        cfg = SplitConfig(tol=1e-12, stabilization=500.0,
                          max_inner=np.int64(3))
        hist = stacked(1, [toy.u0], [toy.p0])
        with pytest.raises(MaxInnerExceeded, match="within 3 inner"):
            split_step(toy, cfg, scheme(1), 0.125, hist, 1)


class TestStepRecord:
    """A step's report keeps its sweeps in float64 arrays and derives the
    ratios from them."""

    # the first and last step of the toy (omega = 2) at BDF-1, gamma = 0.5,
    # tau = 2^-3, tol = 1e-2, from the per-sweep division of the list record
    PINNED = {
        0: (["0x1.ffffffffffffep-2", "0x1.0000000000004p-1",
             "0x1.0000000000009p-1", "0x1.fffffffffffb9p-2",
             "0x1.ffffffffffff5p-2", "0x1.000000000003dp-1"],
            ["0x1.0000000000000p-1", "0x1.0000000000004p-1",
             "0x1.0000000000000p-1", "0x1.fffffffffffc6p-2",
             "0x1.0000000000000p-1", "0x1.0000000000074p-1"]),
        -1: (["0x1.fffffffffffffp-2", "0x1.fffffffffffecp-2",
              "0x1.ffffffffffff9p-2", "0x1.ffffffffffee9p-2",
              "0x1.0000000000158p-1", "0x1.ffffffffffe35p-2",
              "0x1.000000000020bp-1", "0x1.ffffffffff57cp-2",
              "0x1.00000000003adp-1"],
             ["0x1.0000000000000p-1", "0x1.fffffffffffecp-2",
              "0x1.0000000000000p-1", "0x1.fffffffffff0cp-2",
              "0x1.0000000000145p-1", "0x1.ffffffffffd76p-2",
              "0x1.000000000028ap-1", "0x1.ffffffffff5d7p-2",
              "0x1.0000000000000p-1"]),
    }

    @staticmethod
    def _run(sys, k=1, tau=0.125, tol=1e-2):
        cfg = SplitConfig(tol=tol, gamma_target=0.5)
        return integrate(sys, cfg, scheme(k), tau, 1.0, mode="split")

    def test_fields_are_float64_arrays_with_one_entry_per_sweep(self, toy):
        for rep in self._run(toy).reports:
            for values in (rep.eps_values, rep.pressure_increments):
                assert isinstance(values, np.ndarray)
                assert values.dtype == np.float64
                assert values.shape == (rep.inner_iterations,)

    def test_a_vector_pressure_keeps_no_increments(self):
        sys = make_network_toy(2, [0.4, 0.2], [1.0, 1.0], [1.0, 1.0], {})
        for rep in self._run(sys).reports:
            assert rep.eps_values.shape == (rep.inner_iterations,)
            assert rep.pressure_increments is None
            assert rep.pressure_ratios is None

    def test_ratios_match_the_list_record_bit_for_bit(self, toy):
        reports = self._run(toy).reports
        for index, (ratios, pressure_ratios) in self.PINNED.items():
            rep = reports[index]
            assert [r.hex() for r in rep.ratios] == ratios
            assert [r.hex() for r in rep.pressure_ratios] == pressure_ratios

    def test_reports_keep_at_most_40_bytes_per_sweep(self, toy):
        # 255 split steps at BDF-2 and tau = 2^-8; a record of two Python
        # float lists kept 78 bytes per sweep, two float64 arrays keep 31
        tau = 2.0 ** -8
        run = functools.partial(self._run, toy, 2, tau, tau ** 3.5)
        run()  # first-use caches stay out of the count
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            reports = run().reports
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        sweeps = sum(rep.inner_iterations for rep in reports)
        assert (len(reports), sweeps) == (255, 6399)
        assert kept / sweeps <= 40, f"{kept / sweeps:.1f} bytes per sweep"


class TestStepImplicit:
    def test_matches_hand_assembled_block_solve(self, toy):
        sch = scheme(1)
        tau = 0.125
        hist = stacked(1, [toy.u0], [toy.p0])
        u, p = implicit_step(toy, sch, tau, hist, 1)
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
        u, p = implicit_step(biot8, sch, tau, stacked(2, *seeds), 2)
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
            flow_coercivity=toy.flow_coercivity,
            storage_coercivity=toy.storage_coercivity,
            coupling_constant=toy.coupling_constant,
            load_u=lambda t: f_star, load_p=lambda t: g_star,
            u0=u_star, p0=p_star,
        )
        for k in (1, 2, 3):
            sch = scheme(k)
            hist = stacked(k, [u_star] * k, [p_star] * k)
            u, p = implicit_step(stat, sch, 0.25, hist, 1)
            np.testing.assert_allclose(u, u_star, atol=1e-10)
            np.testing.assert_allclose(p, p_star, atol=1e-10)


class TestIntegrate:
    def test_single_step_equals_step_function(self, toy):
        sch = scheme(1)
        cfg = SplitConfig(tol=1e-9, gamma_target=0.5)
        traj = integrate(toy, cfg, sch, 1.0, 1.0, mode="split")
        hist = stacked(1, [toy.u0], [toy.p0])
        u, p, _ = split_step(toy, cfg, sch, 1.0, hist, 1)
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

    @pytest.mark.parametrize("mode", ["split", "implicit"])
    @pytest.mark.parametrize("seeded", [False, True])
    def test_one_history_push_per_start_state_and_step(self, monkeypatch,
                                                       toy, mode, seeded):
        pushes = []
        push = History.push

        def counting_push(self, value):
            pushes.append((id(self), np.shape(value)))
            push(self, value)

        monkeypatch.setattr(History, "push", counting_push)
        k, tau = 3, 0.125
        seeds = exact_seeds(toy, k, tau) if seeded else None
        traj = integrate(toy, SplitConfig(tol=1e-8), scheme(k), tau, 1.0,
                         mode=mode, initial_history=seeds)
        # unseeded: the initial state and steps 1..8; seeded: the three
        # seeds and steps 3..8
        starts, steps = (k, 6) if seeded else (1, 8)
        assert len(traj.times) == 9
        assert len(pushes) == starts + steps
        assert len({hist for hist, _ in pushes}) == 1
        assert {shape for _, shape in pushes} == {(toy.dim_u + toy.dim_p,)}

    def test_non_integral_step_count_rejected(self, toy):
        cfg = SplitConfig(tol=1e-6)
        with pytest.raises(ValueError):
            integrate(toy, cfg, scheme(1), 0.3, 1.0)

    @pytest.mark.parametrize("tau, t_end, message", [
        (math.nan, 1.0, "tau must be finite and positive, got nan"),
        (math.inf, 1.0, "tau must be finite and positive, got inf"),
        (0.125, math.inf, "T must be finite and positive, got inf"),
        (0.125, math.nan, "T must be finite and positive, got nan"),
    ])
    def test_non_finite_step_grid_is_named(self, toy, tau, t_end, message):
        with pytest.raises(ValueError, match=message):
            integrate(toy, SplitConfig(tol=1e-6), scheme(1), tau, t_end)


class TestStepCount:
    def test_counts_the_steps(self):
        assert ss.step_count(0.125, 1.0, 3) == 8
        assert ss.step_count(0.1, 0.3, 3) == 3

    @pytest.mark.parametrize("tau, t_end, k, message", [
        (0.3, 1.0, 1, "tau=0.3 does not divide T=1"),
        (0.25, 0.5, 3, "tau=0.25 gives T/tau = 2 on T=0.5; BDF-3 needs at "
                       "least 3 steps"),
        (0.0, 1.0, 1, "tau must be finite and positive, got 0.0"),
        (0.125, -1.0, 1, "T must be finite and positive, got -1.0"),
        (5e-324, 1.0, 1, "T/tau = inf"),
    ])
    def test_rejects_with_the_cause(self, tau, t_end, k, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ss.step_count(tau, t_end, k)

    def test_exact_startup_seeds(self, toy):
        sch = scheme(3)
        cfg = SplitConfig(tol=1e-8, gamma_target=0.5)
        tau = 0.0625
        traj = integrate(toy, cfg, sch, tau, 1.0, mode="split",
                         initial_history=exact_seeds(toy, 3, tau))
        # the first states are the given exact-evaluator seeds, verbatim
        for ell in range(3):
            np.testing.assert_array_equal(traj.us[ell], toy.exact_u(ell * tau))
            np.testing.assert_array_equal(traj.ps[ell], toy.exact_p(ell * tau))
        # reports exist only for the multistep main phase
        assert [r.index for r in traj.reports][0] == 3

    @pytest.mark.parametrize("mode", ["split", "implicit"])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_bootstrap_startup_uses_increasing_orders(self, toy, k, mode):
        cfg = SplitConfig(tol=1e-9, gamma_target=0.5)
        tau = 0.125
        traj = integrate(toy, cfg, scheme(k), tau, 1.0, mode=mode)
        # step n < k is the implicit BDF-n step from the n stacked states
        # before it, on one history of capacity k as the run keeps it
        work = StepperWork(toy, cfg, scheme(k), tau, mode)
        hist = stacked(k, [toy.u0], [toy.p0])
        for n in range(1, k):
            u, p = step_implicit(work, scheme(n), hist, n)
            np.testing.assert_array_equal(traj.us[n], u)
            np.testing.assert_array_equal(traj.ps[n], p)
            hist.push(np.concatenate((u, p)))

    def test_wrong_length_seed_is_named(self, toy):
        seeds = ([toy.u0, toy.u0[:2]], [toy.p0, toy.p0])
        with pytest.raises(DimensionMismatch, match="displacement seed 1"):
            integrate(toy, SplitConfig(tol=1e-6), scheme(2), 0.125, 1.0,
                      initial_history=seeds)

    def test_non_finite_seed_is_named(self, toy):
        seeds = ([toy.u0, toy.u0], [toy.p0, np.array([math.nan])])
        with pytest.raises(ValueError, match="pressure seed 1"):
            integrate(toy, SplitConfig(tol=1e-6), scheme(2), 0.125, 1.0,
                      initial_history=seeds)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_convergence_order_on_toy(self, toy, k):
        sch = scheme(k)
        errs = []
        taus = [2.0 ** -e for e in (4, 5, 6)]
        for tau in taus:
            cfg = SplitConfig(tol=1e-12, gamma_target=0.3)
            traj = integrate(toy, cfg, sch, tau, 1.0, mode="split",
                             initial_history=exact_seeds(toy, k, tau))
            errs.append(max(abs(float(toy.exact_p(t)[0] - p[0]))
                            for t, p in zip(traj.times, traj.ps)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= k - 0.25


class TestStepperWork:
    # A is the system's: a run factors only its pressure and BDF blocks
    @pytest.mark.parametrize("mode, k, start, factors", [
        ("split", 2, "bootstrap", 2),      # pressure block, BDF-1 block
        ("implicit", 2, "bootstrap", 2),   # BDF-1 and BDF-2 blocks
        ("split", 3, "seeded", 1),         # pressure block
        ("implicit", 3, "seeded", 1),      # BDF-3 block
    ])
    def test_factorizations_per_run(self, biot8, factor_calls, mode, k,
                                    start, factors):
        cfg = SplitConfig(tol=1e-6, gamma_target=0.4)
        seeds = exact_seeds(biot8, k, 0.125) if start == "seeded" else None
        integrate(biot8, cfg, scheme(k), 0.125, 1.0, mode=mode,
                  initial_history=seeds)
        assert len(factor_calls) == factors, factor_calls

    def test_exact_stabilization_solves_with_the_runs_factor(self, toy,
                                                              factor_calls):
        # the gamma-target L on a scalar pressure needs A^{-1}, which the
        # system's factor gives: the pressure block is the run's only
        # factorization
        cfg = SplitConfig(tol=1e-6, gamma_target=0.5)
        integrate(toy, cfg, scheme(1), 0.125, 1.0, mode="split")
        assert factor_calls == [(1, 1)]

    def test_coupling_transposed_once_per_run(self):
        sys = fem2d.manufactured_system(4)
        builds = []

        class CountingTranspose(type(sys.coupling)):
            def transpose(self, *args, **kwargs):
                builds.append(self.shape)
                return super().transpose(*args, **kwargs)

        counted = dataclasses.replace(sys,
                                      coupling=CountingTranspose(sys.coupling))
        cfg = SplitConfig(tol=1e-6, gamma_target=0.4)
        traj = integrate(counted, cfg, scheme(2), 0.125, 1.0, mode="split")
        assert sum(r.inner_iterations for r in traj.reports) > 1
        assert builds == [sys.coupling.shape]

    def test_cached_transpose_is_the_same_arithmetic(self, monkeypatch):
        sys = fem2d.manufactured_system(4)
        cfg = SplitConfig(tol=1e-8, gamma_target=0.4)
        cached = integrate(sys, cfg, scheme(2), 0.125, 1.0, mode="split")

        class FreshTranspose:
            """D^T built anew for every product."""

            def __init__(self, d):
                self.d = d

            def __matmul__(self, x):
                return self.d.T @ x

            def __neg__(self):
                return -self.d.T

        init = StepperWork.__init__

        def fresh(self, sys, *args):
            init(self, sys, *args)
            self.coupling_t = FreshTranspose(sys.coupling)

        monkeypatch.setattr(StepperWork, "__init__", fresh)
        rebuilt = integrate(sys, cfg, scheme(2), 0.125, 1.0, mode="split")
        for a, b in zip(cached.us + cached.ps, rebuilt.us + rebuilt.ps,
                        strict=True):
            assert np.array_equal(a, b)

    def test_trajectory_records_the_resolved_stabilization(self, toy):
        tau, gamma = 0.125, 0.5
        cfg = SplitConfig(tol=1e-6, gamma_target=gamma)
        traj = integrate(toy, cfg, scheme(2), tau, 1.0, mode="split")
        assert traj.stabilization == resolved_stabilization(toy, gamma, tau,
                                                            2)
        cfg = SplitConfig(tol=1e-6, stabilization=3.0)
        assert integrate(toy, cfg, scheme(1), tau, 1.0).stabilization == 3.0
        cfg = SplitConfig(tol=1e-6)
        assert integrate(toy, cfg, scheme(1), tau, 1.0).stabilization \
            == toy.coupling_constant

    @pytest.mark.parametrize("name", ["elastic_coercivity",
                                      "flow_coercivity", "storage_coercivity",
                                      "coupling_constant"])
    def test_implicit_run_resolves_no_stabilization(self, toy, name):
        # constants a split run rejects do not matter to an implicit run
        bare = dataclasses.replace(toy, **{name: math.nan})
        cfg = SplitConfig(tol=1.0)
        with pytest.raises(ss.MissingConstants, match=name):
            integrate(bare, cfg, scheme(2), 0.125, 1.0, mode="split")
        traj = integrate(bare, cfg, scheme(2), 0.125, 1.0, mode="implicit")
        assert traj.stabilization is None

    @pytest.mark.parametrize("name, value, gamma", [
        # the first four used to run: the first two stopped every step
        # after one sweep (max |p_N| 8.346 against 7.906), the third ran
        # at L < 0 and the fourth at c_a = 1
        ("elastic_coercivity", -1.0, None),
        ("flow_coercivity", -1e6, None),
        ("storage_coercivity", -1.0, 0.4),
        ("elastic_coercivity", True, None),
        ("coupling_constant", "0.9", None),   # used to raise TypeError
    ])
    def test_split_run_rejects_a_constant_out_of_the_number_rule(
            self, name, value, gamma):
        sys = dataclasses.replace(fem2d.manufactured_system(4),
                                  **{name: value})
        cfg = SplitConfig(tol=1e-8, gamma_target=gamma)
        with pytest.raises(ss.MissingConstants,
                           match=f"^{re.escape(name)} .*must"):
            integrate(sys, cfg, scheme(2), 2.0 ** -4, 1.0, mode="split")

    def test_zero_stabilization_predicts_nothing(self):
        sys = fem2d.manufactured_system(4)
        cfg = SplitConfig(tol=0.125 ** 2.5, stabilization=0.0)
        traj = integrate(sys, cfg, scheme(1), 0.125, 1.0, mode="split")
        assert traj.reports
        assert all(rep.predicted is None for rep in traj.reports)


GUARANTEE_SYSTEMS = {
    **{f"biot{n}": functools.partial(fem2d.manufactured_system, n)
       for n in (4, 8, 16, 32)},
    "toy2": functools.partial(make_toy, 2.0),
    "toy4": functools.partial(make_toy, 4.0),
    "network": functools.partial(make_network_toy, 2, [0.4, 0.2], [1.0, 2.0],
                                 [1.0, 0.5], {(0, 1): 0.05}),
}


class TestContractionGuarantee:
    @pytest.mark.parametrize("name", GUARANTEE_SYSTEMS)
    def test_ratios_within_the_guaranteed_factor(self, name):
        # L >= beta guarantees eps_i <= sqrt(L / (2 c_c + L)) eps_{i-1}
        # (default_stabilization). The Biot load f varies in time, which
        # the first ratio of a step sees; the toy and network f is constant.
        sys = GUARANTEE_SYSTEMS[name]()
        first = 1 if name.startswith("biot") else 0
        beta = sys.coupling_constant
        checked = 0
        for ell in (beta, 2.0 * beta, 4.0 * beta):
            bound = contraction_factor(ell, sys.storage_coercivity)
            for k in (1, 2, 3):
                cfg = SplitConfig(tol=1e-8, stabilization=ell)
                traj = integrate(sys, cfg, scheme(k), 0.125, 1.0)
                for rep in traj.reports:
                    for ratio in rep.ratios[first:]:
                        assert ratio <= bound + 1e-9, (ell, k, rep.index)
                        checked += 1
        assert checked > 500

    def test_default_stabilization_predictor_on_biot(self):
        # criterion 08's rule on default-L Biot runs: at most 1 % of steps
        # under-predicted, each by at most one sweep
        total = under = 0
        for n in (4, 8, 16, 32):
            sys = fem2d.manufactured_system(n)
            for k in (1, 2, 3):
                for tau in (2.0 ** -3, 2.0 ** -4, 2.0 ** -5):
                    cfg = SplitConfig(tol=tau ** (k + 1.5))
                    traj = integrate(sys, cfg, scheme(k), tau, 1.0)
                    for rep in traj.reports:
                        total += 1
                        if rep.predicted < rep.inner_iterations:
                            under += 1
                            assert rep.predicted >= rep.inner_iterations - 1
        assert total == 636
        assert under <= 0.01 * total

    def test_default_stabilization_finishes_a_bdf2_biot_run(self):
        # L = beta contracts by 0.318 per sweep here; L = 162 contracts by
        # about 0.975 and needs more than the default max_inner of 200
        sys = fem2d.manufactured_system(4)
        tau = 2.0 ** -4
        traj = integrate(sys, SplitConfig(tol=tau ** 3.5), scheme(2), tau,
                         1.0)
        assert traj.stabilization == 0.9
        assert max(rep.inner_iterations for rep in traj.reports) <= 6

    def test_prediction_upper_bounds_observed(self, toy):
        for gamma in (0.5, 0.1):
            cfg = SplitConfig(tol=1e-6, gamma_target=gamma)
            traj = integrate(toy, cfg, scheme(1), 0.0625, 1.0, mode="split")
            for rep in traj.reports:
                assert rep.predicted >= rep.inner_iterations


STACKED_SYSTEMS = {name: GUARANTEE_SYSTEMS[name]
                   for name in ("toy2", "toy4", "network", "biot4", "biot8")}


class TestStackedSweep:
    @pytest.mark.parametrize("gamma", [None, 0.4])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("name", STACKED_SYSTEMS)
    def test_matches_the_field_by_field_sweep(self, monkeypatch, name, k,
                                              gamma):
        # G z and |dz|_W^2 regroup the products and forms of the field-by-
        # field sweep, which moves round-off only. The terminal increment
        # is a difference of iterates of the state's size, so its eps is
        # compared against the state's W-norm: its own relative round-off
        # is about 1e-16 |z| / |dz| (up to 1e-9 on these grids), and on
        # the toy at L = beta the second sweep is exact up to round-off.
        sys = STACKED_SYSTEMS[name]()
        tau = 0.125
        cfg = SplitConfig(tol=tau ** (k + 1.5), gamma_target=gamma)
        stacked = integrate(sys, cfg, scheme(k), tau, 1.0)
        monkeypatch.setattr(ss, "step_split", reference_step_split)
        fields = integrate(sys, cfg, scheme(k), tau, 1.0)
        assert ([r.inner_iterations for r in stacked.reports]
                == [r.inner_iterations for r in fields.reports])
        for a, b in zip(stacked.us + stacked.ps, fields.us + fields.ps,
                        strict=True):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        weight = StepperWork(sys, cfg, scheme(k), tau, "split").weight
        for a, b in zip(stacked.reports, fields.reports, strict=True):
            z = np.concatenate([fields.us[b.index], fields.ps[b.index]])
            scale = math.sqrt(weighted_norm_sq(weight, z))
            assert abs(math.sqrt(a.terminal_value)
                       - math.sqrt(b.terminal_value)) <= 1e-12 * scale

    @pytest.mark.parametrize("name", ["toy2", "biot4"])
    def test_a_sweep_makes_one_form_and_two_solves(self, monkeypatch, name):
        forms, solves = [], []
        norm, factorize = ss.weighted_norm_sq, ss.factorize

        def counting_norm(m, x):
            forms.append(m.shape)
            return norm(m, x)

        class CountingFactor:
            def __init__(self, inner):
                self.inner, self.shape = inner, inner.shape

            def solve(self, rhs):
                solves.append(rhs.shape)
                return self.inner.solve(rhs)

        # the pressure block is the run's factor, A the system's
        sys = STACKED_SYSTEMS[name]()
        sys = dataclasses.replace(
            sys, elasticity_factor=CountingFactor(sys.elasticity_factor))
        monkeypatch.setattr(ss, "weighted_norm_sq", counting_norm)
        monkeypatch.setattr(ss, "factorize",
                            lambda m: CountingFactor(factorize(m)))
        cfg = SplitConfig(tol=1e-10, stabilization=4.0)
        hist = stacked(1, [sys.u0], [sys.p0])
        _, _, rep = split_step(sys, cfg, scheme(1), 0.125, hist, 1)
        dim = sys.dim_u + sys.dim_p
        assert rep.inner_iterations > 1
        assert forms == [(dim, dim)] * rep.inner_iterations
        assert solves == ([(sys.dim_p,), (sys.dim_u,)]
                          * rep.inner_iterations)

    @pytest.mark.parametrize("name", ["toy2", "biot4"])
    def test_operators_match_the_three_term_formulas(self, name):
        sys = STACKED_SYSTEMS[name]()
        rng = np.random.default_rng(1)
        tau = 0.125
        for k, gamma in ((1, None), (3, 0.4)):
            cfg = SplitConfig(tol=1.0, gamma_target=gamma)
            work = StepperWork(sys, cfg, scheme(k), tau, "split")
            xi_tau, ell = scheme(k).leading / tau, work.stabilization
            w_u, w_p, w_q = termination_weights(work)
            for _ in range(5):
                u, p = rng.normal(size=sys.dim_u), rng.normal(size=sys.dim_p)
                lag_u = -xi_tau * (sys.coupling @ u)
                lag_p = xi_tau * ell * (sys.norm_p @ p)
                scale = np.abs(lag_u).max() + np.abs(lag_p).max()
                lagged = work.lag @ np.concatenate([u, p])
                assert np.abs(lagged - (lag_u + lag_p)).max() <= 1e-13 * scale
                du, dp = rng.normal(size=sys.dim_u), rng.normal(size=sys.dim_p)
                form = (w_u * weighted_norm_sq(sys.norm_u, du)
                        + w_p * weighted_norm_sq(sys.norm_p, dp)
                        + w_q * weighted_norm_sq(sys.norm_p_grad, dp))
                value = termination_functional(work, np.concatenate([du, dp]))
                assert value == pytest.approx(form, rel=1e-13)


class TestSplittingErrorControl:
    def test_zero_coupling_trajectories_coincide(self):
        prm = fem2d.BiotParameters(alpha=1e-13)
        grid = fem2d.Grid2D(6)
        sys = fem2d.assemble_biot(grid, fem2d.manufactured(prm))
        cfg = SplitConfig(tol=1e-12, stabilization=1.0)
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
