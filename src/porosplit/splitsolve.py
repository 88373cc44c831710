"""Fixed-stress iterative BDF-k stepper and the monolithic implicit reference.

At each time step the split stepper alternates a pressure solve with the
lagged displacement rate and an L-weighted pressure-rate stabilization,

    [(xi0/tau)(C + L M_H) + B] p_i = g(t_n) - (1/tau) D (xi0 u_{i-1} + S_u)
                                     - (1/tau) C S_p + (xi0/tau) L M_H p_{i-1},

and the displacement solve ``A u_i = D^T p_i + f(t_n)``, where S_u, S_p
collect the BDF history terms. A sweep carries its iterate as one stacked
vector z = (u, p). The lagged terms of the pressure right-hand side are
G z_{i-1}, with the lag operator G = (xi0/tau) [-D, L M_H], and the inner
loop terminates when the weighted increment functional

    |dz|_W^2 = (c_a/2) |du|_V^2 + (c_c + L/2) |dp|_H^2 + (tau/xi0) c_b |dp|_Q^2,
    W = blockdiag((c_a/2) N_u, (c_c + L/2) M_H + (tau/xi0) c_b N_Q),

drops below tol^2. A sweep is two solves, three operator products
(G z, D^T p, W dz) and one quadratic form; it appends its eps = |dz|_W
and, on a scalar pressure, its dp to the step's record, which keeps them
as float64 arrays and derives the ratios. The monolithic reference
solves the coupled block system in one shot. With L at or above the
system's coupling constant beta, the default (see
:func:`default_stabilization`), successive functional values contract at
least by ``sqrt(L / (2 c_c + L))`` per inner iteration.

:func:`integrate` takes every step in one loop over one BDF history of
stacked states z = (u, p), from which each step takes one history sum; a
run without seeds starts from the initial data, and its first k - 1
steps are the start-up, step n < k an implicit BDF-n step.
One :class:`StepperWork` per :func:`integrate` call decides L, G, W and
the predicted contraction once, and factors each block on its first
solve, so a run factors only what its steps use. A is not among them:
the displacement solves use the system's ``elasticity_factor``.
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
from .linalg import _integer, _real, factorize, weighted_norm_sq
from .system import CoupledSystem

__all__ = [
    "MissingConstants",
    "MaxInnerExceeded",
    "SolverFailure",
    "SplitConfig",
    "StepReport",
    "Trajectory",
    "default_stabilization",
    "contraction_factor",
    "termination_functional",
    "predict_iterations",
    "StepperWork",
    "step_split",
    "step_implicit",
    "step_count",
    "integrate",
]


class MissingConstants(RuntimeError):
    """A constant the split run reads is not finite or out of range."""


class MaxInnerExceeded(RuntimeError):
    """Inner iteration cap hit; the message names a stall on round-off,
    else sets L against beta."""


class SolverFailure(RuntimeError):
    """A linear solve inside the stepper failed."""


@dataclass
class SplitConfig:
    """Knobs of the split stepper.

    At most one of ``stabilization`` (explicit L) and ``gamma_target`` may
    be given; with neither, L is the system's coupling constant beta. The
    config only records the request: :class:`StepperWork` turns it into L
    once per run. Start-up is not a knob: :func:`integrate` starts from
    the seeds it is given, else its first k - 1 steps are implicit steps
    of orders 1..k-1. Each knob must pass the number rules (no bool or
    string), else ``ValueError`` naming it: ``tol`` a finite real > 0,
    ``stabilization`` one >= 0, ``gamma_target`` one in (0, 1), ``max_inner``
    an int >= 1.
    """

    tol: float
    stabilization: Optional[float] = None
    gamma_target: Optional[float] = None
    max_inner: int = 200

    def __post_init__(self):
        _real("tol", self.tol)
        _integer("max_inner", self.max_inner, 1)
        if self.stabilization is not None:
            _real("stabilization", self.stabilization, zero_ok=True)
        if self.gamma_target is not None \
                and _real("gamma_target", self.gamma_target) >= 1.0:
            raise ValueError("gamma_target must lie in (0, 1), got "
                             f"{self.gamma_target!r}")
        if self.stabilization is not None and self.gamma_target is not None:
            raise ValueError("give either stabilization or gamma_target, not both")


@dataclass(slots=True, eq=False)
class StepReport:
    """Per-step record of the inner fixed-stress iteration of split step
    ``index`` at ``time`` = index * tau, built whole by :func:`step_split`;
    ``predicted`` is None when no contraction factor is known (L = 0, no
    gamma target).

    ``eps_values`` holds each sweep's eps = |dz|_W, and
    ``pressure_increments`` each sweep's dp on a scalar pressure (None on
    any other). Both are 1-D float64 arrays, whatever sequence is passed
    in: a run keeps one record per step, and an array costs 8 bytes per
    sweep where a list of floats costs 32. The ratios are derived from
    them, and they are Python-float lists. Reports compare by identity
    (``eq=False``): ``==`` on array fields has no single truth value.
    """

    index: int
    time: float
    inner_iterations: int
    terminal_value: float
    eps_values: np.ndarray
    predicted: Optional[int]
    pressure_increments: Optional[np.ndarray] = None

    def __post_init__(self):
        self.eps_values = linalg.as_vector(self.eps_values)
        if self.pressure_increments is not None:
            self.pressure_increments = linalg.as_vector(
                self.pressure_increments)

    @property
    def first_eps(self) -> float:
        return float(self.eps_values[0])

    @property
    def ratios(self) -> list[float]:
        """eps_i / eps_{i-1} per sweep after the first; 0 after eps = 0."""
        eps = self.eps_values.tolist()
        return [b / a if a > 0.0 else 0.0 for a, b in zip(eps, eps[1:])]

    @property
    def pressure_ratios(self) -> Optional[list[float]]:
        """dp_i / dp_{i-1} per sweep after the first on a scalar pressure,
        0 after dp = 0; None on any other."""
        if self.pressure_increments is None:
            return None
        dp = self.pressure_increments.tolist()
        return [b / a if a != 0.0 else 0.0 for a, b in zip(dp, dp[1:])]

    @property
    def ratio_median(self) -> float:
        return statistics.median(self.ratios or [math.nan])


@dataclass
class Trajectory:
    """Uniformly spaced accepted states plus per-step iteration records,
    and the L a split run used (``stabilization``; None if implicit)."""

    tau: float
    times: np.ndarray
    us: list[np.ndarray]
    ps: list[np.ndarray]
    reports: list[StepReport]
    stabilization: Optional[float]

    def mean_inner(self) -> float:
        if not self.reports:
            return math.nan
        return statistics.fmean(r.inner_iterations for r in self.reports)


def default_stabilization(sys: CoupledSystem) -> float:
    """The coupling constant beta = lambda_max(D A^{-1} D^T, M_H).

    The energy argument for L >= beta: in one step let dp_i, du_i be the
    increments of sweep i (sweep 0 is the previous step's state), S =
    D A^{-1} D^T and e = dp_i - dp_{i-1}. Subtract pressure sweeps i and
    i-1 and test with dp_i. Where A du = D^T dp holds for du_i and
    du_{i-1}, polarizing both products gives

        |dp_i|_C^2 + (L/2)|dp_i|_H^2 + |du_i|_A^2/2 + (tau/xi0)|dp_i|_B^2
            + (L |e|_H^2 - |e|_S^2)/2 = (L/2)|dp_{i-1}|_H^2 - |du_{i-1}|_A^2/2.

    |e|_S^2 <= beta |e|_H^2 makes the last left term >= 0, the left side
    is >= eps_i^2 and the right <= L/(2 c_c + L) eps_{i-1}^2, so
    eps_i <= sqrt(L/(2 c_c + L)) eps_{i-1}. A du_i = D^T dp_i holds for
    i >= 2, so the bound holds from the second ratio of each step on, and
    from the first when f is constant in time (A du_1 = D^T dp_1 +
    f(t_n) - f(t_{n-1})). Raises :class:`MissingConstants` for a beta
    that is not finite or out of range (a real >= 0, by the number rule).
    """
    return _real("coupling_constant (beta)", sys.coupling_constant,
                 zero_ok=True, error=MissingConstants)


def contraction_factor(stabilization: float, storage_coercivity: float) -> float:
    """Guaranteed inner contraction ``sqrt(L / (2 c_c + L))``."""
    ell = _real("stabilization", stabilization)
    c_c = _real("storage coercivity", storage_coercivity)
    return math.sqrt(ell / (2.0 * c_c + ell))


def predict_iterations(tol: float, eps1: float, gamma: float) -> int:
    """A-priori inner iteration count ``ceil((ln tol - ln eps1)/ln gamma) + 1``.

    Clamped to 1 when the first increment already meets the tolerance.
    ``ValueError`` naming the parameter unless tol and eps1 are finite
    reals > 0 and gamma one in (0, 1), by the library's number rule.
    """
    tol, eps1 = _real("tol", tol), _real("eps1", eps1)
    if _real("gamma", gamma) >= 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma!r}")
    if tol >= eps1:
        return 1
    return max(1, math.ceil((math.log(tol) - math.log(eps1)) / math.log(gamma)) + 1)


def _block_matrix(blocks, fmt: str):
    """The matrix of a grid of blocks, None standing for a zero block:
    ``scipy.sparse.bmat`` in format ``fmt`` when the blocks are sparse,
    else ``np.block`` with explicit zeros."""
    if any(scipy.sparse.issparse(b) for row in blocks for b in row):
        return scipy.sparse.bmat(blocks, format=fmt)
    heights = [next(b.shape[0] for b in row if b is not None)
               for row in blocks]
    widths = [next(row[j].shape[1] for row in blocks if row[j] is not None)
              for j in range(len(blocks[0]))]
    return np.block([[np.zeros((h, w)) if b is None else b
                      for b, w in zip(row, widths)]
                     for row, h in zip(blocks, heights)])


class StepperWork:
    """The decisions, sweep operators and factorizations of one
    :func:`integrate` call.

    A split run first checks the coercivities by the number rule (c_a and
    c_c real and > 0, c_b real and >= 0), else :class:`MissingConstants`
    naming the constant: a negative one makes the termination weight W
    indefinite, and the functional, clipped at 0, can stop a step after
    one sweep. It then resolves L as ``stabilization``:
    ``cfg.stabilization``; or for ``cfg.gamma_target`` the exact L on a
    scalar pressure (for any scalar M_H), else the inverse of
    gamma^2 = (L/2)/(c_c + L/2); or
    :func:`default_stabilization`, beta. An inverted L carries the
    guarantee only when it is >= beta: on Biot, gamma = 0.15 gives
    L = 0.184 < beta = 0.9 (ratios after the first stay below 0.125 in
    runs at n <= 32). ``gamma`` is the factor J_n is predicted from: the
    target, else sqrt(L/(2 c_c + L)), and None for L = 0.

    It then builds the two operators a sweep applies to the stacked
    iterate z = (u, p). ``lag`` is G = (xi0/tau) [-D, L M_H], which maps
    the previous iterate to the lagged part of the pressure right-hand
    side. ``weight`` is W = blockdiag((c_a/2) N_u, (c_c + L/2) M_H +
    (tau/xi0) c_b N_Q), the termination weight. Both are built once per
    split run, CSR for a sparse system and dense for a dense one. G stores
    the nonzeros of D and M_H, W those of N_u and M_H + N_Q, which share
    the pressure pattern: 45 k entries each, about 1.1 MB together, on
    P1 Biot at n = 48. An implicit run leaves L, G, W and gamma None and
    reads no constant.

    ``coupling_t`` is D^T, transposed once here: for a sparse D each
    ``.T`` builds a new matrix object, and the sweeps would build one per
    displacement solve. Each factor is built on first use and kept: the
    split pressure block, and one monolithic block per BDF scheme stepped.
    A is factored by the system, not here: the split sweeps and the exact
    L for a gamma target solve with ``sys.elasticity_factor``.
    """

    def __init__(self, sys: CoupledSystem, cfg: SplitConfig, sch: BdfScheme,
                 tau: float, mode: str):
        if mode not in ("split", "implicit"):
            raise ValueError(f"unknown mode {mode!r}")
        self.sys = sys
        self.cfg = cfg
        self.scheme = sch
        self.tau = tau
        self.coupling_t = sys.coupling.T
        self.stabilization = self.lag = self.weight = self.gamma = None
        self._factors: dict = {}
        if mode == "implicit":
            return
        _real("elastic_coercivity", sys.elastic_coercivity,
              error=MissingConstants)
        _real("flow_coercivity", sys.flow_coercivity, zero_ok=True,
              error=MissingConstants)
        _real("storage_coercivity", sys.storage_coercivity,
              error=MissingConstants)
        xi0 = sch.leading
        if cfg.stabilization is not None:
            ell = cfg.stabilization
        elif cfg.gamma_target is None:
            ell = default_stabilization(sys)
        elif sys.dim_p == 1:
            # the sweeps reduce to dp_i = gamma dp_{i-1} with gamma =
            # (L m - s) / (L m + C + (tau/xi0) B), s = D A^{-1} D^T, m = M_H
            gamma = cfg.gamma_target
            s = float((sys.coupling @ sys.elasticity_factor.solve(
                self.coupling_t @ np.ones(1)))[0])
            c_val = float(sys.storage[0, 0])
            b_val = float(sys.flow_stiffness[0, 0])
            ell = (s / (1.0 - gamma)
                   + gamma / (1.0 - gamma) * (c_val + tau / xi0 * b_val)
                   ) / float(sys.norm_p[0, 0])
        else:
            g2 = cfg.gamma_target ** 2
            ell = 2.0 * sys.storage_coercivity * g2 / (1.0 - g2)
        self.stabilization = ell
        xi_tau = xi0 / tau
        self.lag = _block_matrix(
            [[-xi_tau * sys.coupling, xi_tau * ell * sys.norm_p]], "csr")
        self.weight = _block_matrix(
            [[0.5 * sys.elastic_coercivity * sys.norm_u, None],
             [None, (sys.storage_coercivity + 0.5 * ell) * sys.norm_p
              + tau / xi0 * sys.flow_coercivity * sys.norm_p_grad]], "csr")
        if cfg.gamma_target is not None:
            self.gamma = cfg.gamma_target
        elif ell > 0.0:
            self.gamma = contraction_factor(ell, sys.storage_coercivity)

    def _factor(self, key, build):
        factor = self._factors.get(key)
        if factor is None:
            try:
                factor = self._factors[key] = factorize(build())
            except linalg.LinalgError as exc:
                raise SolverFailure(f"factorization failed: {exc}") from exc
        return factor

    def pressure_factor(self) -> linalg.Factor:
        """Factor of the split pressure block (xi0/tau)(C + L M_H) + B."""
        sys = self.sys
        return self._factor("pressure", lambda: (
            (self.scheme.leading / self.tau)
            * (sys.storage + self.stabilization * sys.norm_p)
            + sys.flow_stiffness))

    def block_factor(self, sch: BdfScheme) -> linalg.Factor:
        """Factor of the monolithic BDF block of ``sch``."""
        sys = self.sys
        xi_tau = sch.leading / self.tau
        return self._factor(sch, lambda: _block_matrix(
            [[sys.elasticity, -self.coupling_t],
             [xi_tau * sys.coupling, xi_tau * sys.storage + sys.flow_stiffness]],
            "csc"))


def termination_functional(work: StepperWork, dz: np.ndarray) -> float:
    """The weighted squared increment |dz|_W^2 of a sweep, compared against
    tol^2 for termination.

    ``dz`` is the stacked increment (du, dp) and W is ``work.weight``, so
    the value is (c_a/2) |du|_V^2 + (c_c + L/2) |dp|_H^2 +
    (tau/xi0) c_b |dp|_Q^2 with the L the split run's ``work`` resolved,
    computed as one quadratic form.
    """
    return weighted_norm_sq(work.weight, dz)


def step_split(work: StepperWork, hist: History, n: int
               ) -> tuple[np.ndarray, np.ndarray, StepReport]:
    """Split step n of ``work``'s scheme, at t = n tau: iterate pressure
    and displacement solves to tolerance.

    ``hist`` holds the stacked states z = (u, p) of the steps before n,
    newest first; one history sum over it gives the u and p terms as
    slices.
    The initial iterate is the previous accepted state, ``hist.newest()``.
    Returns the new u, p and the step's report, indexed n. Raises
    :class:`MaxInnerExceeded` if the termination functional does not pass
    tol^2 within ``cfg.max_inner`` iterations.
    """
    sys, cfg, sch, tau = work.sys, work.cfg, work.scheme, work.tau
    d_t, lag = work.coupling_t, work.lag
    p_factor, a_factor = work.pressure_factor(), sys.elasticity_factor
    t = n * tau
    dim_u = sys.dim_u
    past = history_sum(sch, hist)
    scalar_p = sys.dim_p == 1

    rhs_fixed = sys.load_p(t) - (sys.coupling @ past[:dim_u]
                                 + sys.storage @ past[dim_u:]) / tau
    f_now = sys.load_u(t)
    z_prev = hist.newest()

    eps_values: list[float] = []
    increments: list[float] = [] if scalar_p else None
    tol_sq = cfg.tol ** 2

    for i in range(1, cfg.max_inner + 1):
        try:
            p_new = p_factor.solve(rhs_fixed + lag @ z_prev)
            u_new = a_factor.solve(d_t @ p_new + f_now)
        except linalg.LinalgError as exc:
            raise SolverFailure(f"inner solve failed: {exc}") from exc
        z_new = np.concatenate((u_new, p_new))
        dz = z_new - z_prev
        value = termination_functional(work, dz)
        if not math.isfinite(value):
            raise SolverFailure(
                f"termination functional is {value} at t={t:g}, inner "
                f"iteration {i}; the iterates are no longer finite")
        eps_values.append(math.sqrt(value))
        if scalar_p:
            increments.append(float(dz[dim_u]))
        z_prev = z_new
        if value <= tol_sq:
            predicted = None if work.gamma is None else predict_iterations(
                cfg.tol, max(eps_values[0], 1e-300), work.gamma)
            report = StepReport(
                index=n, time=t, inner_iterations=i, terminal_value=value,
                eps_values=eps_values, predicted=predicted,
                pressure_increments=increments,
            )
            return u_new, p_new, report
    # eps stopped falling (its smallest value came before the last sweep)
    # without growing past the first: the sweeps sit on round-off
    least = min(eps_values)
    stalled = least != eps_values[-1] and eps_values[-1] <= eps_values[0]
    ell = work.stabilization
    beta = sys.coupling_constant
    claim = ("guarantees a contraction by "
             f"{contraction_factor(ell, sys.storage_coercivity):.4g} per "
             "sweep after a step's first ratio" if ell > 0.0 and ell >= beta
             else "guarantees no contraction (that needs L >= beta, L > 0)")
    cause = (f"eps stopped falling at {least:.3g} (sweep "
             f"{eps_values.index(least) + 1}), so tol = {cfg.tol:g} is below "
             "this step's round-off floor" if stalled
             else f"L = {ell:g} with beta = {beta:g} {claim}")
    raise MaxInnerExceeded(
        f"no termination within {cfg.max_inner} inner iterations at t={t:g}; "
        f"{cause}")


def step_implicit(work: StepperWork, sch: BdfScheme, hist: History, n: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Monolithic implicit step n, at t = n tau, of scheme ``sch``:
    ``work.scheme`` from step k on, BDF-n at a start-up step n < k. A
    BDF-n step reads the n newest stacked states z = (u, p) of ``hist``.
    Returns u and p as views of the solved z."""
    sys, tau = work.sys, work.tau
    t = n * tau
    dim_u = sys.dim_u
    past = history_sum(sch, hist)
    rhs = np.concatenate([
        sys.load_u(t),
        sys.load_p(t) - (sys.coupling @ past[:dim_u]
                         + sys.storage @ past[dim_u:]) / tau,
    ])
    try:
        z = work.block_factor(sch).solve(rhs)
    except linalg.LinalgError as exc:
        raise SolverFailure(f"monolithic solve failed: {exc}") from exc
    return z[:dim_u], z[dim_u:]


def _seeds(states, field: str, dim: int) -> list[np.ndarray]:
    """One field's ``initial_history`` seeds as float vectors, checked."""
    seeds = [np.asarray(x, dtype=float) for x in states]
    for index, x in enumerate(seeds):
        if x.shape != (dim,):
            raise linalg.DimensionMismatch(
                f"initial history {field} seed {index} has shape {x.shape}, "
                f"expected ({dim},)")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"initial history {field} seed {index} has "
                             "non-finite entries")
    return seeds


def step_count(tau: float, t_end: float, k: int) -> int:
    """The number of steps tau takes over [0, t_end] with BDF-k.

    ``ValueError`` unless tau and t_end are finite positive real numbers
    (by the library's number rule: no bool, no string), tau divides
    t_end (to 1e-9 in T/tau) and T/tau >= k.
    """
    _real("tau", tau)
    _real("T", t_end)
    steps = t_end / tau
    if not math.isfinite(steps):
        raise ValueError(f"tau={tau:g} gives T/tau = {steps} on T={t_end:g}")
    n_steps = round(steps)
    if abs(steps - n_steps) > 1e-9:
        raise ValueError(f"tau={tau:g} does not divide T={t_end:g}")
    if n_steps < k:
        raise ValueError(f"tau={tau:g} gives T/tau = {n_steps} on T={t_end:g}; "
                         f"BDF-{k} needs at least {k} steps")
    return n_steps


def integrate(sys: CoupledSystem, cfg: SplitConfig, sch: BdfScheme,
              tau: float, t_end: float, mode: str = "split",
              initial_history=None) -> Trajectory:
    """Run the stepper over [0, t_end] with constant step tau.

    One loop takes every step over one history of capacity k, whose
    entries are the stacked states z = (u, p); each accepted step pushes
    its z once. A run given ``initial_history`` (k displacement and k
    pressure seeds, each of its field's length and finite, checked before
    the first step) starts at step k. A run without one starts from the
    initial data at step 1, and its steps n < k are the start-up: implicit
    BDF-n steps. ``mode`` selects the split or the monolithic implicit
    stepper for the steps n >= k. The run's one :class:`StepperWork`
    resolves L, the termination weights and the prediction factor before
    the first step, and factors each block on its first solve; the
    trajectory records the L used. The step grid is checked first, by
    :func:`step_count`.
    """
    k = sch.order
    n_steps = step_count(tau, t_end, k)
    work = StepperWork(sys, cfg, sch, tau, mode)
    if initial_history is None:
        us, ps = [sys.u0.copy()], [sys.p0.copy()]
    else:
        us, ps = initial_history
        if len(us) != k or len(ps) != k:
            raise ValueError(f"initial history must provide {k} states")
        us = _seeds(us, "displacement", sys.dim_u)
        ps = _seeds(ps, "pressure", sys.dim_p)
    hist = History(k, [np.concatenate((u, p)) for u, p in zip(us, ps)])
    reports: list[StepReport] = []

    for n in range(len(us), n_steps + 1):
        if n < k:
            # start-up: the n states so far fill BDF-n's history
            u, p = step_implicit(work, make_scheme(n), hist, n)
        elif mode == "split":
            u, p, report = step_split(work, hist, n)
            reports.append(report)
        else:
            u, p = step_implicit(work, sch, hist, n)
        us.append(u)
        ps.append(p)
        hist.push(np.concatenate((u, p)))

    times = tau * np.arange(n_steps + 1)
    return Trajectory(tau=tau, times=times, us=us, ps=ps, reports=reports,
                      stabilization=work.stabilization)
