"""Fixed-stress iterative BDF-k stepper and the monolithic implicit reference.

At each time step the split stepper alternates a pressure solve with the
lagged displacement rate and an L-weighted pressure-rate stabilization,

    [(xi0/tau)(C + L M_H) + B] p_i = g(t_n) - (1/tau) D (xi0 u_{i-1} + S_u)
                                     - (1/tau) C S_p + (xi0/tau) L M_H p_{i-1},

and the displacement solve ``A u_i = D^T p_i + f(t_n)``, where S_u, S_p
collect the BDF history terms. The inner loop terminates when the weighted
increment functional

    (c_a/2) |du|_V^2 + (c_c + L/2) |dp|_H^2 + (tau/xi0) c_b |dp|_Q^2

drops below tol^2. The monolithic reference solves the coupled block
system in one shot. With stabilization at or above the coercivity-based
default, successive functional values contract at least by
``sqrt(L / (2 c_c + L))`` per inner iteration.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse

from . import linalg
from .bdf import BdfScheme, History, history_sum, scheme as make_scheme
from .linalg import factorize, weighted_norm_sq
from .system import CoupledSystem

__all__ = [
    "MissingConstants",
    "NotScalarPressure",
    "MaxInnerExceeded",
    "SolverFailure",
    "SplitConfig",
    "StepReport",
    "Trajectory",
    "default_stabilization",
    "stabilization_for_contraction",
    "contraction_factor",
    "termination_functional",
    "predict_iterations",
    "StepperWork",
    "step_split",
    "step_implicit",
    "integrate",
]


class MissingConstants(RuntimeError):
    """The system lacks the constants needed to derive a stabilization."""


class NotScalarPressure(ValueError):
    """The closed-form stabilization rule applies to scalar pressures only."""


class MaxInnerExceeded(RuntimeError):
    """Inner iteration cap hit: stabilization likely below its threshold."""


class SolverFailure(RuntimeError):
    """A linear solve inside the stepper failed."""


@dataclass
class SplitConfig:
    """Knobs of the split stepper.

    Exactly one of ``stabilization`` (explicit L) and ``gamma_target``
    should be given; with neither, the coercivity-based default L is used.
    ``weights`` optionally overrides the (c_a, c_c, c_b) surrogates in the
    termination functional.
    """

    tol: float
    stabilization: Optional[float] = None
    gamma_target: Optional[float] = None
    max_inner: int = 200
    startup: str = "bootstrap"       # or "exact"
    weights: Optional[tuple[float, float, float]] = None

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.max_inner < 1:
            raise ValueError("max_inner must be >= 1")
        if self.stabilization is not None and not (
                math.isfinite(self.stabilization) and self.stabilization >= 0.0):
            raise ValueError("stabilization must be finite and >= 0, got "
                             f"{self.stabilization}")
        if self.gamma_target is not None and not 0.0 < self.gamma_target < 1.0:
            raise ValueError("gamma_target must lie in (0, 1)")
        if self.stabilization is not None and self.gamma_target is not None:
            raise ValueError("give either stabilization or gamma_target, not both")
        if self.startup not in ("bootstrap", "exact"):
            raise ValueError(f"unknown startup {self.startup!r}")

    def functional_weights(self, sys: CoupledSystem) -> tuple[float, float, float]:
        if self.weights is not None:
            return self.weights
        return (sys.elastic_coercivity, sys.storage_coercivity,
                sys.flow_coercivity)

    def resolve_stabilization(self, sys: CoupledSystem, tau: float,
                              xi0: float) -> float:
        if self.stabilization is not None:
            return self.stabilization
        if self.gamma_target is not None:
            if sys.dim_p == 1:
                return stabilization_for_contraction(
                    sys, self.gamma_target, tau, xi0)
            # invert gamma^2 = (L/2)/(c_c + L/2) for multi-pressure systems
            g2 = self.gamma_target ** 2
            return 2.0 * sys.storage_coercivity * g2 / (1.0 - g2)
        return default_stabilization(sys)

    def prediction_gamma(self, sys: CoupledSystem, stabilization: float) -> float:
        if self.gamma_target is not None:
            return self.gamma_target
        return contraction_factor(stabilization, sys.storage_coercivity)


@dataclass
class StepReport:
    """Per-step record of the inner fixed-stress iteration."""

    index: int
    time: float
    inner_iterations: int
    terminal_value: float
    eps_values: list[float]
    ratios: list[float]
    predicted: int
    pressure_ratios: Optional[list[float]] = None

    @property
    def first_eps(self) -> float:
        return self.eps_values[0]

    @property
    def ratio_median(self) -> float:
        return statistics.median(self.ratios) if self.ratios else math.nan


@dataclass
class Trajectory:
    """Uniformly spaced accepted states plus per-step iteration records."""

    tau: float
    times: np.ndarray
    us: list[np.ndarray]
    ps: list[np.ndarray]
    reports: list[StepReport]
    mode: str

    def __len__(self) -> int:
        return len(self.times)

    def mean_inner(self) -> float:
        if not self.reports:
            return math.nan
        return statistics.fmean(r.inner_iterations for r in self.reports)


def default_stabilization(sys: CoupledSystem) -> float:
    """Coercivity-based stabilization ``C_a^2 C_d^2 / c_a^3``.

    Twice the contraction threshold, so the guaranteed-rate regime holds
    with a factor-2 margin.
    """
    try:
        ca, big_a, cd = (sys.elastic_coercivity, sys.elastic_continuity,
                         sys.coupling_bound)
    except AttributeError as exc:
        raise MissingConstants(str(exc)) from exc
    if not all(np.isfinite([ca, big_a, cd])) or ca <= 0.0:
        raise MissingConstants("system constants are missing or degenerate")
    return big_a ** 2 * cd ** 2 / ca ** 3


def stabilization_for_contraction(sys: CoupledSystem, gamma: float,
                                  tau: float, xi0: float) -> float:
    """Stabilization that prescribes the contraction factor exactly.

    For a scalar pressure the inner iteration reduces to
    ``dp_i = gamma dp_{i-1}`` with
    ``gamma = (L - s) / (L + C + (tau/xi0) B)`` where ``s = D A^{-1} D^T``;
    solving for L gives
    ``L = s/(1-gamma) + gamma/(1-gamma) (C + (tau/xi0) B)``.
    """
    if sys.dim_p != 1:
        raise NotScalarPressure(f"pressure dimension is {sys.dim_p}")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if tau <= 0.0 or xi0 <= 0.0:
        raise ValueError("tau and xi0 must be positive")
    s = float((sys.coupling @ factorize(sys.elasticity).solve(
        sys.coupling.T @ np.ones(1)))[0])
    c_val = float(sys.storage[0, 0])
    b_val = float(sys.flow_stiffness[0, 0])
    return s / (1.0 - gamma) + gamma / (1.0 - gamma) * (c_val + tau / xi0 * b_val)


def contraction_factor(stabilization: float, storage_coercivity: float) -> float:
    """Guaranteed inner contraction ``sqrt(L / (2 c_c + L))``."""
    if stabilization <= 0.0 or storage_coercivity <= 0.0:
        raise ValueError("stabilization and storage coercivity must be positive")
    return math.sqrt(stabilization / (2.0 * storage_coercivity + stabilization))


def termination_functional(cfg: SplitConfig, sys: CoupledSystem,
                           du: np.ndarray, dp: np.ndarray, tau: float,
                           xi0: float, stabilization: Optional[float] = None
                           ) -> float:
    """Weighted squared increment compared against tol^2 for termination."""
    ca, cc, cb = cfg.functional_weights(sys)
    ell = cfg.resolve_stabilization(sys, tau, xi0) \
        if stabilization is None else stabilization
    return (0.5 * ca * weighted_norm_sq(sys.norm_u, du)
            + (cc + 0.5 * ell) * weighted_norm_sq(sys.norm_p, dp)
            + (tau / xi0) * cb * weighted_norm_sq(sys.norm_p_grad, dp))


def predict_iterations(tol: float, eps1: float, gamma: float) -> int:
    """A-priori inner iteration count ``ceil((ln tol - ln eps1)/ln gamma) + 1``.

    Clamped to 1 when the first increment already meets the tolerance.
    """
    if tol <= 0.0 or eps1 <= 0.0:
        raise ValueError("tol and eps1 must be positive")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if tol >= eps1:
        return 1
    return max(1, math.ceil((math.log(tol) - math.log(eps1)) / math.log(gamma)) + 1)


class StepperWork:
    """Factorizations reused across the steps of one integration run.

    The operators are used as the system stores them: dense blocks give
    dense LU factors, sparse blocks give SuperLU factors.
    """

    def __init__(self, sys: CoupledSystem, sch: BdfScheme, tau: float,
                 stabilization: float):
        self.sys = sys
        self.scheme = sch
        self.tau = tau
        self.stabilization = stabilization
        xi0 = sch.leading
        try:
            self.a_solve = factorize(sys.elasticity)
            self.p_solve = factorize(
                (xi0 / tau) * (sys.storage + stabilization * sys.norm_p)
                + sys.flow_stiffness)
        except linalg.LinalgError as exc:
            raise SolverFailure(f"factorization failed: {exc}") from exc
        self._block = None

    def block_solve(self):
        if self._block is None:
            sys, tau = self.sys, self.tau
            xi0 = self.scheme.leading
            d = sys.coupling
            blocks = [[sys.elasticity, -d.T],
                      [(xi0 / tau) * d,
                       (xi0 / tau) * sys.storage + sys.flow_stiffness]]
            if scipy.sparse.issparse(sys.elasticity):
                block = scipy.sparse.bmat(blocks, format="csc")
            else:
                block = np.block(blocks)
            try:
                self._block = factorize(block)
            except linalg.LinalgError as exc:
                raise SolverFailure(f"block factorization failed: {exc}") from exc
        return self._block


def _history_sums(sch: BdfScheme, hist_u: History, hist_p: History):
    return history_sum(sch, hist_u), history_sum(sch, hist_p)


def step_split(sys: CoupledSystem, cfg: SplitConfig, sch: BdfScheme,
               tau: float, hist_u: History, hist_p: History, t: float,
               work: Optional[StepperWork] = None
               ) -> tuple[np.ndarray, np.ndarray, StepReport]:
    """One split time step: iterate pressure/displacement solves to tolerance.

    The initial iterate is the previous accepted state (newest history
    entry). Raises :class:`MaxInnerExceeded` if the termination functional
    does not pass tol^2 within ``cfg.max_inner`` iterations.
    """
    ell = cfg.resolve_stabilization(sys, tau, sch.leading) if work is None \
        else work.stabilization
    if work is None:
        work = StepperWork(sys, sch, tau, ell)
    xi0 = sch.leading
    su, sp = _history_sums(sch, hist_u, hist_p)
    scalar_p = sys.dim_p == 1

    rhs_fixed = sys.load_p(t) - (sys.coupling @ su + sys.storage @ sp) / tau
    f_now = sys.load_u(t)
    u_prev = hist_u.newest()
    p_prev = hist_p.newest()

    eps_values: list[float] = []
    ratios: list[float] = []
    p_ratios: list[float] = [] if scalar_p else None
    dp_prev = None
    tol_sq = cfg.tol ** 2

    for i in range(1, cfg.max_inner + 1):
        rhs_p = (rhs_fixed - (xi0 / tau) * (sys.coupling @ u_prev)
                 + (xi0 / tau) * ell * (sys.norm_p @ p_prev))
        try:
            p_new = work.p_solve.solve(rhs_p)
            u_new = work.a_solve.solve(sys.coupling.T @ p_new + f_now)
        except linalg.LinalgError as exc:
            raise SolverFailure(f"inner solve failed: {exc}") from exc
        du = u_new - u_prev
        dp = p_new - p_prev
        value = termination_functional(cfg, sys, du, dp, tau, xi0, ell)
        if not math.isfinite(value):
            raise SolverFailure(
                f"termination functional is {value} at t={t:g}, inner "
                f"iteration {i}; the iterates are no longer finite")
        eps = math.sqrt(value)
        if eps_values:
            prev = eps_values[-1]
            ratios.append(eps / prev if prev > 0.0 else 0.0)
        if scalar_p and dp_prev is not None:
            p_ratios.append(float(dp[0] / dp_prev[0]) if dp_prev[0] != 0.0
                            else 0.0)
        eps_values.append(eps)
        dp_prev = dp
        u_prev, p_prev = u_new, p_new
        if value <= tol_sq:
            gamma = cfg.prediction_gamma(sys, ell)
            predicted = predict_iterations(cfg.tol, max(eps_values[0], 1e-300),
                                           gamma)
            report = StepReport(
                index=-1, time=t, inner_iterations=i, terminal_value=value,
                eps_values=eps_values, ratios=ratios, predicted=predicted,
                pressure_ratios=p_ratios,
            )
            return u_new, p_new, report
    raise MaxInnerExceeded(
        f"no termination within {cfg.max_inner} inner iterations at t={t:g}; "
        f"stabilization {ell:g} may be below its threshold")


def step_implicit(sys: CoupledSystem, sch: BdfScheme, tau: float,
                  hist_u: History, hist_p: History, t: float,
                  work: Optional[StepperWork] = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """One monolithic implicit BDF step of the coupled block system."""
    if work is None:
        work = StepperWork(sys, sch, tau, 0.0)
    su, sp = _history_sums(sch, hist_u, hist_p)
    rhs = np.concatenate([
        sys.load_u(t),
        sys.load_p(t) - (sys.coupling @ su + sys.storage @ sp) / tau,
    ])
    try:
        z = work.block_solve().solve(rhs)
    except linalg.LinalgError as exc:
        raise SolverFailure(f"monolithic solve failed: {exc}") from exc
    return z[:sys.dim_u], z[sys.dim_u:]


def _startup_states(sys: CoupledSystem, cfg: SplitConfig, k: int, tau: float,
                    initial_history=None) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """States at t = 0..(k-1) tau seeding the multistep history."""
    if initial_history is not None:
        us, ps = initial_history
        if len(us) != k or len(ps) != k:
            raise ValueError(f"initial history must provide {k} states")
        return [np.asarray(u, dtype=float) for u in us], \
               [np.asarray(p, dtype=float) for p in ps]
    if cfg.startup == "exact":
        if sys.exact_u is None or sys.exact_p is None:
            raise MissingConstants("exact startup requires exact evaluators")
        # Seed pressures verbatim; re-solve the elliptic equation per seed so
        # the displacement history sits on the algebraic constraint manifold
        # (interpolants of the analytic fields violate it by the spatial
        # consistency error, which the first step would amplify by 1/tau).
        a_solve = factorize(sys.elasticity)
        ps = [sys.exact_p(ell * tau) for ell in range(k)]
        us = [a_solve.solve(sys.coupling.T @ p + sys.load_u(ell * tau))
              for ell, p in enumerate(ps)]
        return us, ps
    # bootstrap: implicit steps of increasing order fill the history
    us, ps = [sys.u0.copy()], [sys.p0.copy()]
    for n in range(1, k):
        sch_n = make_scheme(n)
        hu = History(n, us[-n:])
        hp = History(n, ps[-n:])
        u, p = step_implicit(sys, sch_n, tau, hu, hp, n * tau)
        us.append(u)
        ps.append(p)
    return us, ps


def integrate(sys: CoupledSystem, cfg: SplitConfig, sch: BdfScheme,
              tau: float, t_end: float, mode: str = "split",
              initial_history=None) -> Trajectory:
    """Run the stepper over [0, t_end] with constant step tau.

    ``mode`` selects the split or the monolithic implicit stepper for the
    main loop; startup states for a k-step scheme come from
    ``initial_history`` when given, otherwise from the configured startup
    strategy (implicit lower-order bootstrap or exact data).
    """
    if mode not in ("split", "implicit"):
        raise ValueError(f"unknown mode {mode!r}")
    if tau <= 0.0 or t_end <= 0.0:
        raise ValueError("tau and t_end must be positive")
    steps = t_end / tau
    n_steps = round(steps)
    if abs(steps - n_steps) > 1e-9 or n_steps < 1:
        raise ValueError(f"t_end={t_end} is not an integral multiple of tau={tau}")
    k = sch.order
    if n_steps < k:
        raise ValueError(f"need at least {k} steps for BDF-{k}, got {n_steps}")

    ell = cfg.resolve_stabilization(sys, tau, sch.leading)
    work = StepperWork(sys, sch, tau, ell)
    us, ps = _startup_states(sys, cfg, k, tau, initial_history)
    hist_u = History(k, us)
    hist_p = History(k, ps)
    reports: list[StepReport] = []

    for n in range(k, n_steps + 1):
        t = n * tau
        if mode == "split":
            u, p, report = step_split(sys, cfg, sch, tau, hist_u, hist_p, t,
                                      work)
            report.index = n
            reports.append(report)
        else:
            u, p = step_implicit(sys, sch, tau, hist_u, hist_p, t, work)
        us.append(u)
        ps.append(p)
        hist_u.push(u)
        hist_p.push(p)

    times = tau * np.arange(n_steps + 1)
    return Trajectory(tau=tau, times=times, us=us, ps=ps, reports=reports,
                      mode=mode)
