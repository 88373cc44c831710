"""Test-only verification helpers.

Residual and defect functions that check the library's outputs against
the equations they are meant to solve: the coupled system's residuals,
the BDF difference quotient and its defect, the sharp discrete constants
of a system and the coupling strength they give, a finite-difference check
that the manufactured Biot sources match their prescribed fields, a
plain evaluation of the stability boundary criterion that samples the
circle afresh, the two-level grid scan for the smallest multiplier that
the closed-form search replaced, and a split step that sweeps field by
field. Nothing in ``porosplit`` needs them.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg

from porosplit.bdf import BdfScheme, History, coefficients, history_sum
from porosplit.fem2d import ManufacturedSolution
from porosplit.linalg import (DimensionMismatch, as_array, as_vector,
                              weighted_norm_sq)
from porosplit.splitsolve import StepperWork, StepReport
from porosplit.stability import MultiplierCertificate
from porosplit.system import CoupledSystem


def residual_coupled(sys: CoupledSystem, u, p, du, dp,
                     t: float) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the two coupled equations at state (u, p, du, dp).

    r_u = A u - D^T p - f(t);  r_p = D du + C dp + B p - g(t).
    """
    u, p, du, dp = as_vector(u), as_vector(p), as_vector(du), as_vector(dp)
    if u.size != sys.dim_u or du.size != sys.dim_u:
        raise DimensionMismatch("displacement vector size mismatch")
    if p.size != sys.dim_p or dp.size != sys.dim_p:
        raise DimensionMismatch("pressure vector size mismatch")
    r_u = sys.elasticity @ u - sys.coupling.T @ p - sys.load_u(t)
    r_p = (sys.coupling @ du + sys.storage @ dp
           + sys.flow_stiffness @ p - sys.load_p(t))
    return r_u, r_p


def coupling_strength(sys: CoupledSystem) -> float:
    """Dimensionless elliptic-parabolic interaction strength C_d^2 / (c_a c_c),
    from the sharp constants of :func:`exact_discrete_constants`."""
    sharp = exact_discrete_constants(sys)
    return sharp["coupling_bound"] ** 2 / (sharp["elastic_coercivity"]
                                           * sharp["storage_coercivity"])


def exact_discrete_constants(sys: CoupledSystem) -> dict[str, float]:
    """Sharp constants of the forms against their norms, computed densely.

    Intended for small systems; returns the sharp values of the four
    constants a :class:`CoupledSystem` carries (the coercivities of the
    elastic, flow and storage forms and the coupling constant
    beta = lambda_max(D A^{-1} D^T, M_H)) and the coupling bound
    C_d = sup d(u, p) / (|u|_V |p|_H).
    """
    def lowest(op, norm):
        return float(scipy.linalg.eigh(as_array(op), as_array(norm),
                                       eigvals_only=True)[0])

    a = as_array(sys.elasticity)
    d = as_array(sys.coupling)
    schur = d @ np.linalg.solve(a, d.T)
    beta = float(scipy.linalg.eigh(schur, as_array(sys.norm_p),
                                   eigvals_only=True)[-1])
    # C_d through a generalized SVD
    nu = scipy.linalg.cholesky(as_array(sys.norm_u), lower=False)
    nh = scipy.linalg.cholesky(as_array(sys.norm_p), lower=False)
    core = np.linalg.solve(nh.T, d) @ np.linalg.inv(nu)
    c_d = float(np.linalg.svd(core, compute_uv=False)[0])
    return {
        "elastic_coercivity": lowest(a, sys.norm_u),
        "flow_coercivity": lowest(sys.flow_stiffness, sys.norm_p_grad),
        "storage_coercivity": lowest(sys.storage, sys.norm_p),
        "coupling_constant": beta, "coupling_bound": c_d,
    }


def boundary_criterion(k: int, samples: int = 100_000):
    """``eta -> min Re(xi(zeta)/(1 - eta*zeta))`` on one fresh sampling of
    ``samples`` equispaced points of the unit circle."""
    theta = 2.0 * np.pi * np.arange(samples) / samples
    zeta = np.exp(1j * theta)
    xi = np.zeros_like(zeta)
    power = np.ones_like(zeta)
    for c in coefficients(k):
        xi += c * power
        power = power * zeta
    return lambda eta: float(np.min((xi / (1.0 - eta * zeta)).real))


def boundary_criterion_min(k: int, eta: float, samples: int = 100_000
                           ) -> float:
    """The boundary criterion's minimum, sampling the circle on this call."""
    return boundary_criterion(k, samples)(eta)


@functools.cache
def scanned_multiplier(k: int) -> MultiplierCertificate:
    """Smallest feasible multiplier on the 1e-4 grid by a two-level scan.

    A 1e-2 sweep from 0 finds the first feasible coarse point, then a 1e-4
    sweep from one coarse step below it returns the first feasible fine
    point. It evaluates the criterion 47, 110 and 144 times for k = 3, 4
    and 5, on one sampling of the circle.
    """
    criterion = boundary_criterion(k)
    coarse = next(i * 1e-2 for i in range(100) if criterion(i * 1e-2) >= -1e-12)
    base = round(max(0.0, coarse - 1e-2) / 1e-4)
    for i in range(base, base + 101):
        eta = i * 1e-4
        m = criterion(eta)
        if m >= -1e-12:
            return MultiplierCertificate(order=k, multiplier=eta,
                                         min_real_part=m, sample_count=100_000)
    raise AssertionError(f"the fine sweep found no multiplier for k={k}")


def discrete_derivative(sch: BdfScheme, tau: float, newest: np.ndarray,
                        hist: History) -> np.ndarray:
    """Evaluate ``(1/tau) (xi_0 y^n + sum_l xi_l y^{n-l})``.

    ``newest`` is y^n; ``hist`` holds y^{n-1}..y^{n-k} newest-first.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    past = history_sum(sch, hist)
    newest = np.asarray(newest, dtype=float)
    if hist.newest().shape != newest.shape:
        raise DimensionMismatch("history entry shape differs from newest")
    return (sch.coeffs[0] * newest + past) / tau


def derivative_defect(sch: BdfScheme, tau: float, f, df, t: float) -> float:
    """Defect ``|(1/tau) sum_l xi_l f(t - l tau) - df(t)|``.

    Zero (to round-off) for polynomials of degree <= k; decays like
    ``tau^k`` for smooth f.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    acc = 0.0
    for ell, c in enumerate(sch.coeffs):
        acc += c * float(f(t - ell * tau))
    return abs(acc / tau - float(df(t)))


# ---------------------------------------------------------------------------
# Finite-difference verification of the manufactured sources

def _second_diff(fn, h):
    """Richardson-extrapolated central second difference."""
    def d2(t, x, y, axis):
        def shift(delta):
            if axis == 0:
                return fn(t, x + delta, y)
            return fn(t, x, y + delta)
        coarse = (shift(2 * h) - 2 * fn(t, x, y) + shift(-2 * h)) / (4 * h * h)
        fine = (shift(h) - 2 * fn(t, x, y) + shift(-h)) / (h * h)
        return (4.0 * fine - coarse) / 3.0
    return d2


def _first_diff(fn, h):
    def d1(t, x, y, axis):
        def shift(delta):
            if axis == 0:
                return fn(t, x + delta, y)
            return fn(t, x, y + delta)
        coarse = (shift(2 * h) - shift(-2 * h)) / (4 * h)
        fine = (shift(h) - shift(-h)) / (2 * h)
        return (4.0 * fine - coarse) / 3.0
    return d1


def _mixed_diff(fn, h):
    def dxy(t, x, y):
        def corner(sx_, sy_):
            return fn(t, x + sx_ * h, y + sy_ * h)
        fine = (corner(1, 1) - corner(1, -1) - corner(-1, 1)
                + corner(-1, -1)) / (4 * h * h)
        coarse = (fn(t, x + 2 * h, y + 2 * h) - fn(t, x + 2 * h, y - 2 * h)
                  - fn(t, x - 2 * h, y + 2 * h)
                  + fn(t, x - 2 * h, y - 2 * h)) / (16 * h * h)
        return (4.0 * fine - coarse) / 3.0
    return dxy


def pde_residual_fd(ms: ManufacturedSolution, t: float, x: float, y: float,
                    step: float = 1.2e-3) -> float:
    """Max-abs residual of the two Biot equations at one point, by finite
    differences in space of the prescribed fields against the analytic
    sources. Each field and source is exp(-t / decay_time) times its value
    at t = 0, so the time derivative of a field is -field / decay_time."""
    prm = ms.params
    decay = lambda t_: math.exp(-t_ / ms.decay_time)
    ux = lambda t_, x_, y_: decay(t_) * ms.u(x_, y_)[..., 0]
    uy = lambda t_, x_, y_: decay(t_) * ms.u(x_, y_)[..., 1]
    p = lambda t_, x_, y_: decay(t_) * ms.p(x_, y_)

    d2_ux = _second_diff(ux, step)
    d2_uy = _second_diff(uy, step)
    d1_ux = _first_diff(ux, step)
    d1_uy = _first_diff(uy, step)
    d1_p = _first_diff(p, step)
    dxy_ux = _mixed_diff(ux, step)
    dxy_uy = _mixed_diff(uy, step)

    lap_ux = d2_ux(t, x, y, 0) + d2_ux(t, x, y, 1)
    lap_uy = d2_uy(t, x, y, 0) + d2_uy(t, x, y, 1)
    # grad(div u)
    gdiv_x = d2_ux(t, x, y, 0) + dxy_uy(t, x, y)
    gdiv_y = dxy_ux(t, x, y) + d2_uy(t, x, y, 1)

    mu, lam, alpha = prm.mu, prm.lam, prm.alpha
    f_ref = decay(t) * ms.f(x, y)
    res_u = np.hypot(
        -mu * (lap_ux + gdiv_x) - lam * gdiv_x + alpha * d1_p(t, x, y, 0)
        - f_ref[..., 0],
        -mu * (lap_uy + gdiv_y) - lam * gdiv_y + alpha * d1_p(t, x, y, 1)
        - f_ref[..., 1],
    )

    lap_p = _second_diff(p, step)(t, x, y, 0) + _second_diff(p, step)(t, x, y, 1)
    div_u_dot = -(d1_ux(t, x, y, 0) + d1_uy(t, x, y, 1)) / ms.decay_time
    dp_dt = -p(t, x, y) / ms.decay_time
    res_p = abs(alpha * div_u_dot + prm.inv_m * dp_dt
                - prm.kappa_over_nu * lap_p - decay(t) * ms.g(x, y))
    return float(max(res_u, res_p))


# ---------------------------------------------------------------------------
# Field-by-field split step

def termination_weights(work: StepperWork) -> tuple[float, float, float]:
    """The three termination weights (c_a/2, c_c + L/2, (tau/xi0) c_b) of
    a split run."""
    sys = work.sys
    return (0.5 * sys.elastic_coercivity,
            sys.storage_coercivity + 0.5 * work.stabilization,
            work.tau / work.scheme.leading * sys.flow_coercivity)


def reference_step_split(work: StepperWork, hist: History, n: int
                         ) -> tuple[np.ndarray, np.ndarray, StepReport]:
    """``splitsolve.step_split`` swept field by field: the lagged terms as
    two products, -(xi0/tau) D u + (xi0/tau) L M_H p, and the termination
    functional as three quadratic forms. u and p are read as slices of the
    stacked history ``hist`` and its sum, and each sweep keeps them apart.
    The same solves, update order and stopping rule; the reports carry no
    prediction and the step raises ``RuntimeError`` at the iteration cap.
    """
    sys, cfg, sch, tau = work.sys, work.cfg, work.scheme, work.tau
    xi0, ell = sch.leading, work.stabilization
    w_u, w_p, w_q = termination_weights(work)
    p_factor, a_factor = work.pressure_factor(), sys.elasticity_factor
    t, dim_u = n * tau, sys.dim_u
    past = history_sum(sch, hist)
    su, sp = past[:dim_u], past[dim_u:]
    rhs_fixed = sys.load_p(t) - (sys.coupling @ su + sys.storage @ sp) / tau
    f_now = sys.load_u(t)
    u_prev, p_prev = hist.newest()[:dim_u], hist.newest()[dim_u:]
    eps_values: list[float] = []
    for i in range(1, cfg.max_inner + 1):
        rhs_p = (rhs_fixed - (xi0 / tau) * (sys.coupling @ u_prev)
                 + (xi0 / tau) * ell * (sys.norm_p @ p_prev))
        p_new = p_factor.solve(rhs_p)
        u_new = a_factor.solve(sys.coupling.T @ p_new + f_now)
        du, dp = u_new - u_prev, p_new - p_prev
        value = (w_u * weighted_norm_sq(sys.norm_u, du)
                 + w_p * weighted_norm_sq(sys.norm_p, dp)
                 + w_q * weighted_norm_sq(sys.norm_p_grad, dp))
        eps_values.append(math.sqrt(value))
        u_prev, p_prev = u_new, p_new
        if value <= cfg.tol ** 2:
            return u_new, p_new, StepReport(
                index=n, time=t, inner_iterations=i, terminal_value=value,
                eps_values=eps_values, predicted=None)
    raise RuntimeError(f"no termination within {cfg.max_inner} inner "
                       f"iterations at t={t:g}")
