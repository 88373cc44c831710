"""Acceptance suite: one test per criterion, each printing a PASS line.

The split runs of criteria 4 and 5 come from module-scoped fixtures, which
also feed the iteration predictor soundness check (criterion 8): it audits
every step report of those runs, whichever test runs first. The studies of
criteria 6 and 7 keep no step reports.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from porosplit import fem2d, splitsolve as ss, stability, studies, system
from porosplit.bdf import coefficients, exact_coefficients, scheme
from porosplit.linalg import factorize, weighted_norm_sq
from porosplit.splitsolve import (SplitConfig, contraction_factor,
                                  default_stabilization, integrate,
                                  predict_iterations)
from porosplit.system import CoupledSystem, make_network_toy, make_toy

TABLE4 = {
    (1, 2.0): {0.5: [9, 13, 13, 16, 19, 22], 0.1: [5, 6, 7, 7, 8, 9]},
    (1, 4.0): {0.5: [9, 12, 15, 17, 20, 23], 0.1: [5, 6, 7, 7, 8, 9]},
    (2, 2.0): {0.5: [13, 15, 18, 22, 26, 30], 0.1: [6, 7, 8, 9, 11, 12]},
    (2, 4.0): {0.5: [12, 16, 20, 24, 28, 32], 0.1: [6, 7, 8, 9, 10, 12]},
}
TABLE4_TAUS = [2.0 ** -e for e in range(3, 9)]


def _ok(name, detail=""):
    print(f"\nACCEPTANCE {name}: PASS {detail}")


@pytest.fixture(scope="module")
def biot16():
    return fem2d.manufactured_system(16)


@pytest.fixture(scope="module")
def biot8():
    return fem2d.manufactured_system(8)


@pytest.fixture(scope="module")
def contraction_runs():
    """Criterion 4's toy split runs and the seconds they took.

    Entries are (context, tol, gamma, reports), the form criterion 8 audits.
    """
    start = time.time()
    toy = make_toy(2.0)
    runs = []
    for k in (1, 2):
        sch = scheme(k)
        for gamma in (0.5, 0.1):
            for tau in (2.0 ** -3, 2.0 ** -5):
                cfg = SplitConfig(tol=1e-3, gamma_target=gamma)
                traj = integrate(toy, cfg, sch, tau, 1.0, mode="split")
                runs.append((f"toy k={k} gamma={gamma} tau={tau:g}", cfg.tol,
                             gamma, traj.reports))
    return runs, time.time() - start


@pytest.fixture(scope="module")
def table4_studies():
    """Criterion 5's iteration studies, keyed by order, and their seconds."""
    start = time.time()
    results = {k: studies.iteration_study(k, omegas=[2.0, 4.0],
                                          gammas=[0.5, 0.1], taus=TABLE4_TAUS)
               for k in (1, 2)}
    return results, time.time() - start


def test_criterion_01_bdf_coefficient_table():
    start = time.time()
    table = {
        1: (Fraction(1), Fraction(-1)),
        2: (Fraction(3, 2), Fraction(-2), Fraction(1, 2)),
        3: (Fraction(11, 6), Fraction(-3), Fraction(3, 2), Fraction(-1, 3)),
        4: (Fraction(25, 12), Fraction(-4), Fraction(3), Fraction(-4, 3),
            Fraction(1, 4)),
        5: (Fraction(137, 60), Fraction(-5), Fraction(5), Fraction(-10, 3),
            Fraction(5, 4), Fraction(-1, 5)),
    }
    for k in range(1, 6):
        assert exact_coefficients(k) == table[k]          # rational equality
        floats = coefficients(k)
        for got, want in zip(floats, table[k]):
            assert abs(got - float(want)) <= 1e-14        # polynomial expansion
    elapsed = time.time() - start
    assert elapsed < 1.0
    _ok("01 bdf-coefficients", f"(k=1..5 exact, {elapsed:.2f}s)")


def test_criterion_02_tested_form_identity():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = {1: 0.0, 2: 0.0}
    for k in (1, 2):
        data = stability.g_stability_data(k)
        for trial in range(1000):
            dim = int(rng.integers(1, 21))
            sub = np.random.default_rng((k, trial))
            q, _ = np.linalg.qr(sub.normal(size=(dim, dim)))
            m = q.T @ (sub.uniform(0.1, 10.0, dim)[:, None] * q)
            ys = [sub.normal(size=dim) for _ in range(k + 1)]
            resid, scale = stability.identity_residual(data, m, ys, tau=1.0)
            worst[k] = max(worst[k], resid / scale)
        assert worst[k] <= 1e-10
    elapsed = time.time() - start
    assert elapsed < 10.0
    _ok("02 tested-form-identity",
        f"(worst rel residual k=1: {worst[1]:.2e}, k=2: {worst[2]:.2e}, "
        f"{elapsed:.1f}s)")


def test_criterion_03_multiplier_certificates():
    start = time.time()
    details = []
    for k in (3, 4, 5):
        assert stability.criterion_min(k, 0.0, samples=100_000) < 0.0
        cert = stability.find_multiplier(k)
        assert cert.multiplier < 1.0
        assert cert.min_real_part >= -1e-12
        assert cert.sample_count == 100_000
        details.append(f"k={k}: eta={cert.multiplier:.4f}")
    elapsed = time.time() - start
    assert elapsed < 30.0
    _ok("03 multiplier-certificates",
        f"({'; '.join(details)}, {elapsed:.1f}s)")


def test_criterion_04_exact_toy_contraction(contraction_runs):
    runs, elapsed = contraction_runs
    worst = 0.0
    steps_checked = 0
    for _, _, gamma, reports in runs:
        for rep in reports:
            assert rep.pressure_ratios, "need iterations past the first"
            for ratio in rep.pressure_ratios:
                worst = max(worst, abs(ratio - gamma))
            steps_checked += 1
    assert worst <= 1e-10
    assert elapsed < 5.0
    _ok("04 exact-toy-contraction",
        f"({steps_checked} steps, worst |ratio-gamma| = {worst:.2e}, "
        f"{elapsed:.1f}s)")


def test_criterion_05_iteration_table_reproduction(table4_studies):
    results, elapsed = table4_studies
    deviations = {}
    trend_gamma_ok = True
    trend_tau_ok = True
    for k, res in results.items():
        for omega in (2.0, 4.0):
            for gamma in (0.5, 0.1):
                got = [res.cells[(omega, gamma, tau)]["rounded"]
                       for tau in TABLE4_TAUS]
                want = TABLE4[(k, omega)][gamma]
                for tau, g, w in zip(TABLE4_TAUS, got, want):
                    deviations[(k, omega, gamma, tau)] = g - w
                trend_tau_ok &= all(a <= b for a, b in zip(got, got[1:]))
            for tau in TABLE4_TAUS:
                trend_gamma_ok &= (res.cells[(omega, 0.1, tau)]["rounded"]
                                   < res.cells[(omega, 0.5, tau)]["rounded"])
    assert elapsed < 120.0
    assert trend_gamma_ok, "gamma down must reduce iteration counts"
    assert trend_tau_ok, "tau down must not reduce iteration counts"
    off = {cell: dev for cell, dev in deviations.items() if abs(dev) > 2}
    worst = max(abs(d) for d in deviations.values())
    detail = (f"(48 cells, worst deviation {worst}, trends ok, "
              f"{elapsed:.0f}s)")
    assert not off, (
        "cells beyond +-2 of the reference iteration table: "
        f"{off}. The tolerance rule of the source experiment is "
        "under-specified; see the docstring of "
        "studies.iteration_study for the rule and its calibration. "
        f"All other {48 - len(off)} cells match within +-2. " + detail)
    _ok("05 iteration-table", detail)


def test_criterion_06_temporal_orders(biot16):
    start = time.time()
    taus = [2.0 ** -e for e in range(3, 8)]
    fitted = {}
    for k in (1, 2, 3):
        res = studies.convergence_study(
            biot16, k, taus, tol_exponent=k + 1.5,
            reference="fine-implicit", t_start=1.0, gamma_target=0.15)
        fitted[k] = res.eoc.fitted_order
        assert abs(fitted[k] - k) <= 0.2, (k, fitted[k])
    elapsed = time.time() - start
    assert elapsed < 300.0
    _ok("06 temporal-orders",
        "(fitted EOC: " + ", ".join(f"k={k}: {v:.3f}"
                                    for k, v in fitted.items())
        + f", {elapsed:.0f}s)")


def test_criterion_07_balancing_rule(biot16):
    start = time.time()
    taus = [2.0 ** -e for e in range(3, 8)]
    details = []
    for k in (1, 2):
        exps = [k, k + 0.5, k + 1.0, k + 1.5, k + 2.0]
        res = studies.balancing_study(biot16, k, taus, exps, t_start=1.0,
                                      gamma_target=0.15, factor=2.0)
        blowup = 0.0
        for tau in taus:
            imp = res.implicit_errors[tau]
            for s in exps:
                if s >= k + 1.5 - 1e-12:
                    assert res.records[(tau, s)].combined <= 2.0 * imp, \
                        (k, tau, s)
            blowup = max(blowup, res.records[(tau, k)].combined / imp)
        assert blowup > 5.0, f"k={k}: worst s=k blowup only {blowup:.1f}"
        details.append(f"k={k}: s=k blowup x{blowup:.0f}")
    elapsed = time.time() - start
    assert elapsed < 300.0
    _ok("07 balancing-rule", f"({'; '.join(details)}, {elapsed:.0f}s)")


def test_criterion_08_predictor_soundness(contraction_runs, table4_studies):
    start = time.time()
    total = 0
    violations = 0
    audit = contraction_runs[0] + [
        (f"table4 k={k} om={omega:g} gam={gamma} tau={tau:g}", cell["tol"],
         gamma, cell["reports"])
        for k, res in table4_studies[0].items()
        for (omega, gamma, tau), cell in res.cells.items()]
    for context, tol, gamma, reports in audit:
        for rep in reports:
            total += 1
            predicted = predict_iterations(tol, rep.first_eps, gamma)
            if predicted < rep.inner_iterations:
                violations += 1
                assert predicted >= rep.inner_iterations - 1, (
                    context, predicted, rep.inner_iterations)
    assert total > 1000, "criteria 4 and 5 must contribute their step reports"
    share = violations / total
    assert share <= 0.01, f"{violations}/{total} steps under-predicted"
    elapsed = time.time() - start
    _ok("08 predictor-soundness",
        f"({total} steps audited, {violations} under-predictions, "
        f"{elapsed:.1f}s)")


def test_criterion_09_fixed_point_consistency(biot8):
    start = time.time()
    worst = 0.0
    for sys_obj, tau in ((make_toy(2.0), 2.0 ** -3), (biot8, 2.0 ** -3)):
        for k in (1, 2):
            cfg = SplitConfig(tol=1e-13, gamma_target=0.4, max_inner=500)
            t_split = integrate(sys_obj, cfg, scheme(k), tau, 1.0,
                                mode="split")
            t_impl = integrate(sys_obj, cfg, scheme(k), tau, 1.0,
                               mode="implicit")
            for us, ui, ps, pi in zip(t_split.us, t_impl.us, t_split.ps,
                                      t_impl.ps):
                dev = (math.sqrt(weighted_norm_sq(sys_obj.norm_u, us - ui))
                       + math.sqrt(weighted_norm_sq(sys_obj.norm_p,
                                                    ps - pi)))
                worst = max(worst, dev)
    assert worst <= 1e-9
    elapsed = time.time() - start
    assert elapsed < 60.0
    _ok("09 fixed-point-consistency",
        f"(worst combined deviation {worst:.2e}, {elapsed:.1f}s)")


def _single_network(alpha, modulus, mobility):
    base = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0],
                     [0.0, -1.0, 2.0]]) / (2.0 - math.sqrt(2.0))
    coup = alpha * np.array([[2.0, 1.0, 2.0]]) / 3.0
    eig = np.linalg.eigvalsh(base)
    return CoupledSystem(
        elasticity=base, flow_stiffness=np.array([[mobility]]),
        storage=np.array([[1.0 / modulus]]), coupling=coup,
        norm_u=np.eye(3), norm_p_grad=np.eye(1), norm_p=np.eye(1),
        elastic_coercivity=float(eig[0]),
        flow_coercivity=mobility, storage_coercivity=1.0 / modulus,
        coupling_constant=float((coup @ np.linalg.solve(base, coup.T))[0, 0]),
        load_u=lambda t: np.ones(3),
        load_p=lambda t: np.array([100.0 * math.sin(t)]),
        u0=factorize(base).solve(np.ones(3)), p0=np.zeros(1),
    )


def test_criterion_10_network_sanity():
    start = time.time()
    params = [(0.4, 1.0, 1.0), (0.2, 2.0, 0.5)]
    net0 = make_network_toy(2, [p[0] for p in params],
                            [p[1] for p in params],
                            [p[2] for p in params], {})
    tau, k = 2.0 ** -3, 1
    ell = default_stabilization(net0)
    cfg = SplitConfig(tol=1e-11, stabilization=ell, max_inner=500)
    t_net = integrate(net0, cfg, scheme(k), tau, 1.0, mode="split")
    worst_dev = 0.0
    for i, (alpha, modulus, mobility) in enumerate(params):
        twin = _single_network(alpha, modulus, mobility)
        t_one = integrate(twin, SplitConfig(tol=1e-11, stabilization=ell,
                                            max_inner=500),
                          scheme(k), tau, 1.0, mode="split")
        for pn, p1, un, u1 in zip(t_net.ps, t_one.ps, t_net.us, t_one.us):
            worst_dev = max(worst_dev, abs(pn[i] - p1[0]),
                            np.abs(un[3 * i:3 * i + 3] - u1).max())
    assert worst_dev <= 1e-9

    net1 = make_network_toy(2, [p[0] for p in params],
                            [p[1] for p in params],
                            [p[2] for p in params], {(0, 1): 0.05})
    ell1 = default_stabilization(net1)
    bound = contraction_factor(ell1, net1.storage_coercivity)
    cfg1 = SplitConfig(tol=1e-10, stabilization=ell1, max_inner=2000)
    t_ex = integrate(net1, cfg1, scheme(k), tau, 1.0, mode="split")
    worst_ratio = max(max(rep.ratios) for rep in t_ex.reports if rep.ratios)
    assert worst_ratio <= bound + 1e-6
    elapsed = time.time() - start
    _ok("10 network-sanity",
        f"(decoupled twin deviation {worst_dev:.2e}; exchange ratio "
        f"{worst_ratio:.4f} <= bound {bound:.4f}, {elapsed:.1f}s)")
