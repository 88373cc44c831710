import dataclasses
import math

import numpy as np
import pytest

from porosplit import fem2d, splitsolve, system
from porosplit.bdf import scheme
from porosplit.linalg import factorize
from porosplit.splitsolve import SplitConfig, integrate
from porosplit.studies import (EocTable, StudyReport, balancing_study,
                               convergence_study, iteration_study)
from porosplit.system import InvalidParameter, make_toy


@pytest.fixture(scope="module")
def toy():
    return make_toy(2.0)


@pytest.fixture(scope="module")
def biot12():
    return fem2d.manufactured_system(12)


@pytest.fixture(scope="module")
def biot16():
    return fem2d.manufactured_system(16)


class TestEocTable:
    def test_orders_and_fit(self):
        table = EocTable(taus=[0.4, 0.2, 0.1], errors=[0.8, 0.2, 0.05])
        assert table.pairwise_orders == pytest.approx([2.0, 2.0])
        assert table.fitted_order == pytest.approx(2.0, abs=1e-12)

    def test_requires_halving(self):
        with pytest.raises(ValueError):
            EocTable(taus=[0.4, 0.3], errors=[1.0, 0.5])

    @pytest.mark.parametrize("taus, errors", [([0.4], [1.0]),
                                              ([0.4, 0.2], [1.0])])
    def test_requires_two_points_and_one_error_each(self, taus, errors):
        with pytest.raises(ValueError):
            EocTable(taus=taus, errors=errors)


class TestConvergenceStudy:
    def test_toy_first_order(self, toy):
        res = convergence_study(toy, 1, [2 ** -e for e in (3, 4, 5)],
                                tol_exponent=2.5, reference="fine-implicit")
        assert 0.85 <= res.eoc.fitted_order <= 1.15

    def test_toy_second_order(self, toy):
        res = convergence_study(toy, 2, [2 ** -e for e in (3, 4, 5)],
                                tol_exponent=3.5, reference="fine-implicit")
        assert 1.8 <= res.eoc.fitted_order <= 2.2

    def test_huge_tolerance_degrades_order(self, toy):
        # tol = tau^-20 >= 2^60: one sweep per step
        res = convergence_study(toy, 2, [2 ** -e for e in (3, 4, 5)],
                                tol_exponent=-20, reference="fine-implicit")
        assert res.eoc.fitted_order < 1.5

    def test_analytic_reference_close_to_fine_implicit(self, toy):
        # agreement is limited by the reference run's own first-order error
        # at tau_min/8, about 1/8 of the measured errors
        taus = [2 ** -e for e in (3, 4)]
        res_a = convergence_study(toy, 1, taus, tol_exponent=2.5,
                                  reference="analytic")
        res_f = convergence_study(toy, 1, taus, tol_exponent=2.5,
                                  reference="fine-implicit")
        for ra, rf in zip(res_a.records, res_f.records):
            assert ra.combined == pytest.approx(rf.combined, rel=0.2)

    def test_csv_schema(self, toy):
        res = convergence_study(toy, 1, [0.25, 0.125], tol_exponent=2.5)
        lines = res.report.to_csv().strip().splitlines()
        assert lines[0] == "k,tau,tol,err_u_V,err_p_H,mode"
        assert len(lines) == 1 + 4  # split + implicit per tau

    def test_records_keep_the_mean_inner_count(self, toy):
        res = convergence_study(toy, 1, [0.25, 0.125], tol_exponent=2.5)
        for rec in res.records:
            if rec.mode == "implicit":
                assert math.isnan(rec.mean_inner)
            else:
                assert rec.mean_inner >= 1.0

    @pytest.mark.parametrize("order, taus, t_start, message", [
        (1, [0.125], 0.0, "taus"),
        (1, [0.125, 0.125], 0.0, "taus"),
        (1, [0.25, 0.0625], 0.0, "taus"),
        # named by its own step, not by the reference step 0.3 / 16
        (2, [0.3, 0.15], 1.0, "tau=0.3 does not divide T=1"),
    ])
    def test_tau_grid_checked_before_any_run(self, toy, study_runs, order,
                                             taus, t_start, message):
        with pytest.raises(ValueError, match=message):
            convergence_study(toy, order, taus, tol_exponent=order + 1.5,
                              t_start=t_start)
        assert study_runs == []


class TestStudyClock:
    @pytest.mark.parametrize("t_start", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("study", ["convergence", "balancing"])
    def test_t_start_checked_before_any_run(self, toy, study_runs, study,
                                            t_start):
        taus = [0.25, 0.125]
        with pytest.raises(ValueError, match="t_start"):
            if study == "convergence":
                convergence_study(toy, 1, taus, tol_exponent=2.5,
                                  t_start=t_start)
            else:
                balancing_study(toy, 1, taus, [1.0, 2.5], t_start=t_start)
        assert study_runs == []

    @pytest.mark.parametrize("factor", [-1.0, 0.0, math.nan, math.inf])
    def test_balancing_factor_checked_before_any_run(self, toy, study_runs,
                                                     factor):
        with pytest.raises(ValueError, match="factor"):
            balancing_study(toy, 1, [0.25, 0.125], [1.0, 2.5], factor=factor)
        assert study_runs == []


class TestHigherOrderPins:
    """Fitted orders of split studies for k = 3..5 at tol = tau^(k+3/2),
    tau = 2^-3..2^-7, pinned at the values this code gives. They are not
    acceptance bounds: they record where the orders stand, so that a
    change that moves them shows."""

    TAUS = [2.0 ** -e for e in range(3, 8)]

    @pytest.mark.parametrize("k, fitted", [(3, 2.915), (4, 3.837),
                                           (5, 4.781)])
    def test_toy_omega2_gamma04(self, toy, k, fitted):
        res = convergence_study(toy, k, self.TAUS, tol_exponent=k + 1.5,
                                gamma_target=0.4)
        assert res.eoc.fitted_order == pytest.approx(fitted, abs=0.02)

    # the Biot pairwise orders alternate (k = 4: 2.6, 5.9, 2.8, 6.0) as the
    # mean inner count steps by whole sweeps, so the fit gets a wider band
    @pytest.mark.parametrize("k, fitted", [(4, 4.341), (5, 4.195)])
    def test_biot_n16_t_start1_gamma015(self, biot16, k, fitted):
        res = convergence_study(biot16, k, self.TAUS, tol_exponent=k + 1.5,
                                t_start=1.0, gamma_target=0.15)
        assert res.eoc.fitted_order == pytest.approx(fitted, abs=0.05)


class TestBalancingStudy:
    def test_monotone_in_exponent_and_flags(self, toy):
        k = 1
        taus = [2 ** -e for e in (3, 4, 5)]
        res = balancing_study(toy, k, taus, [k, k + 0.5, k + 1, k + 1.5,
                                             k + 2])
        for tau in taus:
            # in the converged regime (s >= k+1) tighter tolerances do not
            # increase the error; below it the splitting has not converged
            # and the ordering is noisy
            errs = [res.records[(tau, s)].combined
                    for s in (k + 1, k + 1.5, k + 2)]
            for a, b in zip(errs, errs[1:]):
                assert b <= a * 1.05 + 1e-14
        assert all(res.balanced_ok.values())

    # the records are keyed by the exponents given, so 2.5 + 1e-13 would
    # leave no record at k + 3/2 = 2.5 to flag
    @pytest.mark.parametrize("exponents", [[1.0, 2.0], [1.0, 2.5 + 1e-13]])
    def test_requires_key_exponents(self, toy, study_runs, exponents):
        with pytest.raises(ValueError, match="k \\+ 3/2 = 2.5 exactly"):
            balancing_study(toy, 1, [0.25, 0.125], exponents)
        assert study_runs == []

    def test_reference_step_checked_before_any_run(self, toy, study_runs):
        # tau_ref = 0.25 / 8 does not divide 0.3
        with pytest.raises(ValueError, match="reference step must divide"):
            balancing_study(toy, 1, [0.3, 0.25], [1.0, 2.5], t_end=1.5)
        assert study_runs == []

    @pytest.mark.parametrize("taus, exponents, message", [
        ([0.25, 0.125, 0.25], [1.0, 2.5], "taus repeat 0.25"),
        ([0.25, 0.125], [1.0, 2.5, 1.0], "exponents repeat 1"),
        ([0.3, 0.15], [1.0, 2.5], "tau=0.3 does not divide T=1"),
        ([], [1.0, 2.5], "taus must not be empty"),
        ([0.25, 0.125], [], "exponents must not be empty"),
    ])
    def test_repeats_rejected_before_any_run(self, toy, study_runs, taus,
                                             exponents, message):
        with pytest.raises(ValueError, match=message):
            balancing_study(toy, 1, taus, exponents)
        assert study_runs == []

    def test_csv_schema(self, toy):
        res = balancing_study(toy, 1, [0.25, 0.125], [1.0, 2.5])
        lines = res.report.to_csv().strip().splitlines()
        assert lines[0] == "k,tau,s,error,implicit_error"


class TestIterationStudy:
    def test_trends_and_cells(self):
        taus = [2 ** -e for e in (3, 4, 5)]
        res = iteration_study(1, omegas=[2.0], gammas=[0.5, 0.1], taus=taus)
        # fewer iterations at the stronger contraction, for every tau
        for tau in taus:
            assert (res.cells[(2.0, 0.1, tau)]["rounded"]
                    < res.cells[(2.0, 0.5, tau)]["rounded"])
        # more iterations as tau decreases
        for gamma in (0.5, 0.1):
            counts = [res.cells[(2.0, gamma, tau)]["rounded"] for tau in taus]
            assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_mean_iterations_nonincreasing_in_stabilization(self):
        # larger L <=> larger gamma here means more iterations; equivalently
        # mean J is non-increasing as gamma (and hence L) decreases
        taus = [0.125]
        res = iteration_study(1, omegas=[2.0], gammas=[0.5, 0.25, 0.1],
                              taus=taus)
        counts = [res.cells[(2.0, g, 0.125)]["mean"] for g in (0.5, 0.25, 0.1)]
        assert counts[0] >= counts[1] >= counts[2]

    @pytest.mark.parametrize("omegas, gammas, taus, message", [
        ([2.0, 2.0], [0.5], [0.125, 0.0625], "omegas repeat 2"),
        ([2.0, 4.0], [0.5, 0.1, 0.5], [0.125], "gammas repeat 0.5"),
        ([2.0], [0.5], [0.125, 0.0625, 0.125], "taus repeat 0.125"),
        ([2.0], [0.5], [2 ** -3, 0.3], "tau=0.3 does not divide T=1"),
        ([2.0], [0.5, 1.5], [0.125], "gamma_target must lie in"),
        ([2.0, -1.0], [0.5], [0.125],
         "omega must be finite and positive, got -1.0"),
        ([], [0.5], [0.125], "omegas must not be empty"),
        ([2.0], [], [0.125], "gammas must not be empty"),
        ([2.0], [0.5], [], "taus must not be empty"),
    ])
    def test_repeats_rejected_before_any_run(self, study_runs, omegas,
                                             gammas, taus, message):
        with pytest.raises(ValueError, match=message):
            iteration_study(1, omegas, gammas, taus)
        assert study_runs == []

    def test_csv_schema(self):
        res = iteration_study(1, omegas=[2.0], gammas=[0.5], taus=[0.125])
        lines = res.report.to_csv().strip().splitlines()
        assert lines[0] == "k,omega,gamma,tau,L,mean_Jn"
        assert len(lines) == 2


class TestAverageIterationTable:
    """The iteration averages come from the balancing study's split runs."""

    def test_monotone_trends(self, biot12):
        k = 1
        taus = [2 ** -4, 2 ** -5, 2 ** -6]
        res = balancing_study(biot12, k, taus, [k, k + 1, k + 1.5, k + 2])
        mean = {key: rec.mean_inner for key, rec in res.records.items()}
        exponents = (k + 1, k + 1.5, k + 2)
        # no fewer sweeps at a tighter tolerance or a smaller step
        for tau in taus:
            for s, s_next in zip(exponents, exponents[1:]):
                assert mean[(tau, s)] <= mean[(tau, s_next)] + 1e-9
        for s in exponents:
            for tau, tau_next in zip(taus, taus[1:]):
                assert mean[(tau, s)] <= mean[(tau_next, s)] + 1e-9

    def test_csv_schema(self, biot12):
        res = balancing_study(biot12, 1, [0.0625], [1.0, 2.5])
        lines = res.iteration_averages.to_csv().strip().splitlines()
        assert lines[0] == "k,tau,s,mean_Jn"
        assert [float(line.split(",")[3]) for line in lines[1:]] == [
            res.records[(0.0625, s)].mean_inner for s in (1.0, 2.5)]


class TestOneFactorOfA:
    """A does not depend on tau, L or k: the system's builder factors it
    once, and the study's runs, its reference run and the oracle that
    seeds them all solve with that factor."""

    @pytest.mark.parametrize("build, k", [
        (lambda: make_toy(2.0), 1),
        (lambda: fem2d.manufactured_system(4), 2),
    ], ids=["toy", "biot2d-n4"])
    def test_a_study_factors_A_only_when_the_system_is_built(
            self, monkeypatch, build, k):
        shapes = []

        def counting(m):
            shapes.append(m.shape)
            return factorize(m)

        for module in (system, fem2d, splitsolve):
            monkeypatch.setattr(module, "factorize", counting)
        sys = build()
        a_shape = sys.elasticity.shape
        assert shapes == [a_shape]
        # t_start > 0 evaluates the modal oracle for the shifted start
        convergence_study(sys, k, [0.25, 0.125], tol_exponent=k + 1.5,
                          t_start=1.0)
        assert shapes.count(a_shape) == 1
        assert len(shapes) > 1      # the runs' pressure and BDF blocks


class TestSplitImplicitConsistency:
    def test_split_records_reach_implicit_records_at_tiny_tolerance(self, toy):
        # tol = tau^17: 5.8e-11 at tau = 1/4, 2.2e-16 at tau = 1/8
        res = convergence_study(toy, 1, [0.25, 0.125], tol_exponent=17,
                                reference="fine-implicit")
        by_mode = {}
        for rec in res.records:
            by_mode.setdefault(rec.tau, {})[rec.mode] = rec.combined
        for tau, pair in by_mode.items():
            assert abs(pair["split"] - pair["implicit"]) <= 1e-9

    def test_balancing_baseline_matches_convergence_implicit_rows(self, toy):
        taus = [0.25, 0.125]
        conv = convergence_study(toy, 1, taus, tol_exponent=2.5,
                                 reference="fine-implicit")
        bal = balancing_study(toy, 1, taus, [1.0, 2.5])
        conv_impl = {r.tau: r.combined for r in conv.records
                     if r.mode == "implicit"}
        for tau in taus:
            assert bal.implicit_errors[tau] == conv_impl[tau]


class TestIterationMagnitudes:
    def test_balanced_tolerance_iteration_scale(self):
        # reference-table scale: about 5 inner iterations at tau = 2^-4
        # growing toward about 8 at 2^-9 for first order
        sys12 = fem2d.manufactured_system(12)
        seeds = ([sys12.semidiscrete_u(0.0)], [sys12.semidiscrete_p(0.0)])
        coarse, fine = (
            integrate(sys12, SplitConfig(tol=tau ** 2.5, gamma_target=0.4),
                      scheme(1), tau, 1.0, initial_history=seeds).mean_inner()
            for tau in (2.0 ** -4, 2.0 ** -9))
        assert 3.0 <= coarse <= 7.0
        assert 6.0 <= fine <= 10.0
        assert fine >= coarse


class TestSeeding:
    def test_study_without_evaluators_fails_before_any_run(self, toy,
                                                           study_runs):
        bare = dataclasses.replace(toy, exact_u=None, exact_p=None,
                                   semidiscrete_u=None, semidiscrete_p=None)
        taus = [0.25, 0.125]
        for study in (
                lambda: convergence_study(bare, 1, taus, tol_exponent=2.5),
                lambda: convergence_study(bare, 1, taus, tol_exponent=2.5,
                                          t_start=1.0),
                lambda: balancing_study(bare, 1, taus, [1.0, 2.5])):
            with pytest.raises(InvalidParameter,
                               match="semidiscrete_u/semidiscrete_p"):
                study()
        assert study_runs == []


class TestBitPins:
    """Every ErrorRecord of three studies, bit for bit: (tol, err_u, err_p,
    mean_inner) in ``float.hex`` per (tau, mode) or (tau, s). The values
    come from the studies' earlier per-helper implementation, so a change
    in how a study shifts its clock, seeds its runs or reads its reference
    states shows here. They hold for IEEE doubles and this BLAS/LAPACK;
    another library may move the last bits."""

    TAUS = [2.0 ** -3, 2.0 ** -4, 2.0 ** -5]
    TOY_FINE_IMPLICIT = {
        (2 ** -3, "split"): ("0x1.6a09e667f3bcdp-11", "0x1.0997bcf7ae833p-3",
                             "0x1.9eda48839f500p-4", "0x1.4924924924925p+3"),
        (2 ** -3, "implicit"): ("0x1.6a09e667f3bcdp-11", "0x1.05e8da5b0c86ap-3",
                                "0x1.9919820113e80p-4", "nan"),
        (2 ** -4, "split"): ("0x1.0000000000000p-14", "0x1.20b264c042c0fp-5",
                             "0x1.c2f0e785da800p-6", "0x1.8444444444444p+3"),
        (2 ** -4, "implicit"): ("0x1.0000000000000p-14", "0x1.1e051a1b863b9p-5",
                                "0x1.bec27cb445c00p-6", "nan"),
        (2 ** -5, "split"): ("0x1.6a09e667f3bcdp-18", "0x1.287bb2e7b97a6p-7",
                             "0x1.cf1a6c6749800p-8", "0x1.bdef7bdef7bdfp+3"),
        (2 ** -5, "implicit"): ("0x1.6a09e667f3bcdp-18", "0x1.267e49ce23619p-7",
                                "0x1.cbfebaf23f000p-8", "nan"),
    }
    TOY_ANALYTIC = {
        (2 ** -3, "split"): ("0x1.6a09e667f3bcdp-11", "0x1.09e526bf590bcp-3",
                             "0x1.9f5333a65ae00p-4", "0x1.4924924924925p+3"),
        (2 ** -3, "implicit"): ("0x1.6a09e667f3bcdp-11", "0x1.06364422b70f4p-3",
                                "0x1.99926d23cf780p-4", "nan"),
        (2 ** -4, "split"): ("0x1.0000000000000p-14", "0x1.21e80bdeece37p-5",
                             "0x1.c4d49410c8c00p-6", "0x1.8444444444444p+3"),
        (2 ** -4, "implicit"): ("0x1.0000000000000p-14", "0x1.1f3ac13a305e1p-5",
                                "0x1.c0a6293f34000p-6", "nan"),
        (2 ** -5, "split"): ("0x1.6a09e667f3bcdp-18", "0x1.2d524f6262046p-7",
                             "0x1.d6a91e9302800p-8", "0x1.bdef7bdef7bdfp+3"),
        (2 ** -5, "implicit"): ("0x1.6a09e667f3bcdp-18", "0x1.2b54e648cbeb9p-7",
                                "0x1.d38d6d1df8000p-8", "nan"),
    }
    BIOT_BALANCING = {
        (2 ** -5, 1.0): ("0x1.0000000000000p-5", "0x1.725f89ff6629dp-5",
                         "0x1.f1bc3269cb2cep-5", "0x1.0000000000000p+1"),
        (2 ** -5, 2.0): ("0x1.0000000000000p-10", "0x1.08d6e1fd0dcd1p-9",
                         "0x1.1ff8332f5fce5p-8", "0x1.0c00000000000p+2"),
        (2 ** -5, 2.5): ("0x1.6a09e667f3bcdp-13", "0x1.6096b8b111e0bp-10",
                         "0x1.340254562d231p-9", "0x1.8000000000000p+2"),
        (2 ** -4, 1.0): ("0x1.0000000000000p-4", "0x1.683eed47d48e8p-5",
                         "0x1.f2dadcfc7e052p-5", "0x1.0000000000000p+1"),
        (2 ** -4, 2.0): ("0x1.0000000000000p-8", "0x1.aba756b0f467ap-9",
                         "0x1.c8a0c15dda247p-8", "0x1.0000000000000p+2"),
        (2 ** -4, 2.5): ("0x1.0000000000000p-10", "0x1.78cfa296e4ffdp-9",
                         "0x1.56bf4d7442d71p-8", "0x1.4000000000000p+2"),
        (2 ** -3, 1.0): ("0x1.0000000000000p-3", "0x1.56be44b1a977dp-5",
                         "0x1.f85f1a978f8c8p-5", "0x1.0000000000000p+1"),
        (2 ** -3, 2.0): ("0x1.0000000000000p-6", "0x1.d449385d571bap-8",
                         "0x1.f432005b82ecep-7", "0x1.c000000000000p+1"),
        (2 ** -3, 2.5): ("0x1.6a09e667f3bcdp-8", "0x1.8729684031ad1p-8",
                         "0x1.7cab7d9e1fd9ep-7", "0x1.0000000000000p+2"),
    }
    BIOT_IMPLICIT = {
        2 ** -5: "0x1.d02d3f41a2b97p-9",
        2 ** -4: "0x1.ee476be478eb0p-8",
        2 ** -3: "0x1.f89be76a760cep-7",
    }

    @staticmethod
    def _hex(rec):
        return (rec.tol.hex(), rec.err_u.hex(), rec.err_p.hex(),
                float(rec.mean_inner).hex())

    @pytest.mark.parametrize("reference, pins", [
        ("fine-implicit", TOY_FINE_IMPLICIT), ("analytic", TOY_ANALYTIC)])
    def test_toy_convergence_k2(self, toy, reference, pins):
        res = convergence_study(toy, 2, self.TAUS, tol_exponent=3.5,
                                reference=reference)
        assert {(r.tau, r.mode): self._hex(r) for r in res.records} == pins
        assert {r.order for r in res.records} == {2}

    def test_biot_n4_balancing_k1_t_start1(self):
        res = balancing_study(fem2d.manufactured_system(4), 1, self.TAUS,
                              [1.0, 2.0, 2.5], t_start=1.0)
        assert {key: self._hex(r) for key, r in res.records.items()} \
            == self.BIOT_BALANCING
        assert {r.order for r in res.records.values()} == {1}
        assert {tau: e.hex() for tau, e in res.implicit_errors.items()} \
            == self.BIOT_IMPLICIT


class TestDeterminism:
    def test_repeat_runs_identical(self, toy):
        res1 = convergence_study(toy, 1, [0.25, 0.125], tol_exponent=2.5)
        res2 = convergence_study(toy, 1, [0.25, 0.125], tol_exponent=2.5)
        assert res1.report.to_csv() == res2.report.to_csv()


class TestStudyReport:
    def test_csv_fields(self):
        report = StudyReport(columns=("k", "x", "y", "mode"),
                             rows=[(1, 0.1, None, "split"),
                                   (np.int64(2), np.float64(1e-16), math.nan,
                                    "implicit")])
        # a numpy float is written as the plain float it holds, None as ""
        assert report.to_csv() == ("k,x,y,mode\n1,0.1,,split\n"
                                   "2,1e-16,nan,implicit\n")
