"""Coupled elliptic-parabolic systems as assembled linear-algebra objects.

A :class:`CoupledSystem` bundles the four operator blocks (elasticity,
flow stiffness, storage, coupling), the three norm matrices used by error
measures and the termination functional, the coercivity/continuity
constants of the underlying bilinear forms, time-dependent sources, and
consistent initial data.

Two concrete families are built here: the 3+1 scalar toy problem
(tridiagonal elasticity, scalar pressure, sinusoidal forcing) and its
multiple-network extension with inter-network exchange. Both are linear
with constant coefficients, so exact solutions are available through a
modal decomposition and get attached as evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .linalg import DimensionMismatch, as_array, as_vector, factorize

__all__ = [
    "InvalidParameter",
    "CouplingStrength",
    "CoupledSystem",
    "make_toy",
    "make_network_toy",
    "residual_coupled",
    "semidiscrete_solution",
    "time_shifted",
    "exact_discrete_constants",
]


class InvalidParameter(ValueError):
    """A physical or algorithmic parameter is out of range."""


@dataclass(frozen=True)
class CouplingStrength:
    """Dimensionless elliptic-parabolic interaction strength."""

    omega: float

    def __post_init__(self):
        if self.omega <= 0.0:
            raise InvalidParameter("coupling strength must be positive")


@dataclass(frozen=True)
class CoupledSystem:
    """Assembled operators, norms, constants, sources and initial data.

    Frozen: derived systems are built with :func:`dataclasses.replace`.
    Sources must be pure functions of time.
    """

    # Operators and norm matrices: numpy.ndarray or scipy.sparse matrices.
    elasticity: object          # SPD operator on the displacement space
    flow_stiffness: object      # positive semidefinite operator on pressures
    storage: object             # SPD storage operator on pressures
    coupling: object            # rectangular block mapping u-space to p-space
    norm_u: object              # matrix of the displacement energy norm
    norm_p_grad: object         # matrix of the pressure gradient norm
    norm_p: object              # matrix of the pressure L2-like norm
    elastic_coercivity: float
    elastic_continuity: float
    flow_coercivity: float
    flow_continuity: float
    storage_coercivity: float
    storage_continuity: float
    coupling_bound: float
    load_u: Callable[[float], np.ndarray]
    load_p: Callable[[float], np.ndarray]
    u0: np.ndarray
    p0: np.ndarray
    exact_u: Optional[Callable[[float], np.ndarray]] = None
    exact_p: Optional[Callable[[float], np.ndarray]] = None
    semidiscrete_u: Optional[Callable[[float], np.ndarray]] = None
    semidiscrete_p: Optional[Callable[[float], np.ndarray]] = None
    label: str = ""

    @property
    def dim_u(self) -> int:
        return self.elasticity.shape[0]

    @property
    def dim_p(self) -> int:
        return self.storage.shape[0]

    def coupling_strength(self) -> CouplingStrength:
        return CouplingStrength(
            self.coupling_bound ** 2
            / (self.elastic_coercivity * self.storage_coercivity)
        )

    def residual(self, u, p, du, dp, t: float) -> tuple[np.ndarray, np.ndarray]:
        return residual_coupled(self, u, p, du, dp, t)


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


# ---------------------------------------------------------------------------
# Exact solutions for linear constant-coefficient instances

def _expdiff(lam: np.ndarray, rate: float, t: float) -> np.ndarray:
    """(exp(-rate t) - exp(-lam t)) / (lam - rate), stable near lam = rate."""
    gap = lam - rate
    out = np.empty_like(lam)
    near = np.abs(gap) * max(abs(t), 1.0) < 1e-8
    far = ~near
    out[far] = (np.exp(-rate * t) - np.exp(-lam[far] * t)) / gap[far]
    x = gap[near] * t
    # t e^{-rate t} (1 - x/2 + x^2/6) from the series of (1 - e^{-x})/x
    out[near] = t * np.exp(-rate * t) * (1.0 - x / 2.0 + x * x / 6.0)
    return out


def semidiscrete_solution(sys: CoupledSystem, shape: tuple[str, float]):
    """Closed-form solution of the coupled system via modal decomposition.

    Eliminating the elliptic equation leaves ``(C + D A^{-1} D^T) p' + B p =
    g(t) - D A^{-1} f'(t)``, a linear constant-coefficient ODE solved
    exactly mode by mode. ``shape`` declares the time structure of the
    sources: ``("sin", freq)`` for g ~ sin(freq t) with constant f, or
    ``("exp", rate)`` for both sources proportional to exp(-rate t). The
    declared structure is validated numerically against the stored loads.
    """
    kind, par = shape
    a_lu = factorize(sys.elasticity)
    d = sys.coupling
    c = as_array(sys.storage)
    b = as_array(sys.flow_stiffness)
    if not np.allclose(b, b.T, rtol=0, atol=1e-12 * max(np.abs(b).max(), 1e-300)):
        raise InvalidParameter("modal solution needs a symmetric flow operator")
    m_hat = c + d @ a_lu.solve(as_array(d).T)
    lam, modes = scipy.linalg.eigh(b, m_hat)
    z0 = modes.T @ (m_hat @ sys.p0)

    def _check(claim: bool, what: str):
        if not claim:
            raise InvalidParameter(f"sources do not match the declared {kind} shape: {what}")

    if kind == "sin":
        freq = float(par)
        f0 = sys.load_u(0.0)
        for t_probe in (0.37, 1.13):
            _check(np.allclose(sys.load_u(t_probe), f0, rtol=0,
                               atol=1e-12 * (np.abs(f0).max() + 1.0)),
                   "f must be constant in time")
        g_hat = sys.load_p(0.5 * math.pi / freq)
        probe = 0.7 / freq
        _check(np.allclose(sys.load_p(probe), math.sin(freq * probe) * g_hat,
                           rtol=0, atol=1e-10 * (np.abs(g_hat).max() + 1.0)),
               "g must be sinusoidal")
        c_mod = modes.T @ g_hat
        denom = lam ** 2 + freq ** 2

        def p_of_t(t: float) -> np.ndarray:
            decay = np.exp(-lam * t)
            z = (z0 + c_mod * freq / denom) * decay
            z += c_mod * (lam * math.sin(freq * t)
                          - freq * math.cos(freq * t)) / denom
            return modes @ z

    elif kind == "exp":
        rate = float(par)
        f0 = sys.load_u(0.0)
        g0 = sys.load_p(0.0)
        for t_probe in (0.37, 1.13):
            _check(np.allclose(sys.load_u(t_probe), math.exp(-rate * t_probe) * f0,
                               rtol=0, atol=1e-10 * (np.abs(f0).max() + 1.0)),
                   "f must decay exponentially")
            _check(np.allclose(sys.load_p(t_probe), math.exp(-rate * t_probe) * g0,
                               rtol=0, atol=1e-10 * (np.abs(g0).max() + 1.0)),
                   "g must decay exponentially")
        # g(t) - D A^{-1} f'(t) = (g0 + rate * D A^{-1} f0) e^{-rate t}
        g_hat = g0 + rate * (d @ a_lu.solve(f0))
        c_mod = modes.T @ g_hat

        def p_of_t(t: float) -> np.ndarray:
            z = z0 * np.exp(-lam * t) + c_mod * _expdiff(lam, rate, t)
            return modes @ z

    else:
        raise InvalidParameter(f"unknown source shape {kind!r}")

    def u_of_t(t: float) -> np.ndarray:
        return a_lu.solve(sys.coupling.T @ p_of_t(t) + sys.load_u(t))

    return u_of_t, p_of_t


def time_shifted(sys: CoupledSystem, t0: float) -> CoupledSystem:
    """View of the system with the clock started at ``t0``.

    Loads and solution evaluators are shifted and the initial data taken
    from the (semi-)exact solution at ``t0``. Used by temporal studies to
    measure orders past the initial layer that rough initial data excites
    in the stiff modes of the discretized system.
    """
    u_eval = sys.semidiscrete_u or sys.exact_u
    p_eval = sys.semidiscrete_p or sys.exact_p
    if u_eval is None or p_eval is None:
        raise InvalidParameter("time shift needs solution evaluators")

    def shift(fn):
        return None if fn is None else (lambda t: fn(t + t0))

    return replace(
        sys, load_u=shift(sys.load_u), load_p=shift(sys.load_p),
        u0=u_eval(t0), p0=p_eval(t0),
        exact_u=shift(sys.exact_u), exact_p=shift(sys.exact_p),
        semidiscrete_u=shift(sys.semidiscrete_u),
        semidiscrete_p=shift(sys.semidiscrete_p),
        label=f"{sys.label}@t0={t0:g}")


def exact_discrete_constants(sys: CoupledSystem) -> dict[str, float]:
    """Extreme generalized eigenvalues of the forms against their norms.

    Intended for small systems; returns coercivity/continuity pairs for
    the elastic, flow and storage forms plus the sharp coupling bound.
    """
    def extremes(op, norm):
        vals = scipy.linalg.eigh(as_array(op), as_array(norm),
                                 eigvals_only=True)
        return float(vals[0]), float(vals[-1])

    c_a, big_a = extremes(sys.elasticity, sys.norm_u)
    c_b, big_b = extremes(sys.flow_stiffness, sys.norm_p_grad)
    c_c, big_c = extremes(sys.storage, sys.norm_p)
    # sharp coupling bound: sup d(u,p) / (|u|_V |p|_H) via a generalized SVD
    nu = scipy.linalg.cholesky(as_array(sys.norm_u), lower=False)
    nh = scipy.linalg.cholesky(as_array(sys.norm_p), lower=False)
    core = np.linalg.solve(nh.T, as_array(sys.coupling)) @ np.linalg.inv(nu)
    c_d = float(np.linalg.svd(core, compute_uv=False)[0])
    return {
        "elastic_coercivity": c_a, "elastic_continuity": big_a,
        "flow_coercivity": c_b, "flow_continuity": big_b,
        "storage_coercivity": c_c, "storage_continuity": big_c,
        "coupling_bound": c_d,
    }


# ---------------------------------------------------------------------------
# Concrete instances

_TOY_BASE = np.array([[2.0, -1.0, 0.0],
                      [-1.0, 2.0, -1.0],
                      [0.0, -1.0, 2.0]])
_TOY_ROW = np.array([2.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0])
_TOY_FORCING = 100.0


def make_toy(omega: float) -> CoupledSystem:
    """Scalar toy problem: 3-dim elasticity, one pressure unknown.

    Elasticity is ``tridiag(-1, 2, -1) / (2 - sqrt(2))`` (scaled so its
    smallest eigenvalue is 1), storage and flow stiffness are 1, and the
    coupling row is ``sqrt(omega) [2/3, 1/3, 2/3]`` whose norm is 1 -- so
    the constructed coupling strength equals ``omega`` exactly. Sources:
    f constant one-vector, g(t) = 100 sin(t), zero initial pressure with
    consistent initial displacement.
    """
    if omega <= 0.0:
        raise InvalidParameter(f"omega must be positive, got {omega}")
    base = _TOY_BASE / (2.0 - math.sqrt(2.0))
    coupling = math.sqrt(omega) * _TOY_ROW[None, :]
    eig = np.linalg.eigvalsh(base)

    f_const = np.ones(3)
    p0 = np.zeros(1)
    u0 = factorize(base).solve(coupling.T @ p0 + f_const)

    sys = CoupledSystem(
        elasticity=base,
        flow_stiffness=np.array([[1.0]]),
        storage=np.array([[1.0]]),
        coupling=coupling,
        norm_u=np.eye(3),
        norm_p_grad=np.eye(1),
        norm_p=np.eye(1),
        elastic_coercivity=float(eig[0]),
        elastic_continuity=float(eig[-1]),
        flow_coercivity=1.0,
        flow_continuity=1.0,
        storage_coercivity=1.0,
        storage_continuity=1.0,
        coupling_bound=float(np.linalg.norm(coupling)),
        load_u=lambda t: f_const,
        load_p=lambda t: np.array([_TOY_FORCING * math.sin(t)]),
        u0=u0,
        p0=p0,
        label=f"toy(omega={omega:g})",
    )
    u, p = semidiscrete_solution(sys, ("sin", 1.0))
    return replace(sys, exact_u=u, exact_p=p, semidiscrete_u=u,
                   semidiscrete_p=p)


def make_network_toy(count: int, alphas, storage_moduli, mobilities,
                     exchange) -> CoupledSystem:
    """Multiple-network extension of the toy problem.

    Each of the ``count`` pressure networks is scalar and owns a copy of
    the toy elastic block; network i couples to its block through
    ``alphas[i]`` times the toy coupling row, stores with compliance
    ``1/storage_moduli[i]`` and flows with ``mobilities[i]``. The networks
    interact only through ``exchange``, mapping pairs (i, j) to the rate
    beta_ij >= 0 used symmetrically in both network equations; the
    assembled exchange block has zero row sums, so constant pressures see
    no exchange and beta = 0 decouples the networks completely. All
    networks are forced with g_i(t) = 100 sin(t).
    """
    if count < 2:
        raise InvalidParameter("network toy needs at least two networks")
    alphas = np.asarray(alphas, dtype=float)
    moduli = np.asarray(storage_moduli, dtype=float)
    mob = np.asarray(mobilities, dtype=float)
    if not (alphas.shape == moduli.shape == mob.shape == (count,)):
        raise InvalidParameter("need one alpha/modulus/mobility per network")
    for name, values in (("alphas", alphas), ("storage moduli", moduli),
                         ("mobilities", mob)):
        if not np.all(np.isfinite(values) & (values > 0)):
            raise InvalidParameter(
                f"{name} must be finite and positive, got {values.tolist()}")

    beta = np.zeros((count, count))
    for (i, j), rate in dict(exchange).items():
        if i == j or not (0 <= i < count and 0 <= j < count):
            raise InvalidParameter(f"bad exchange pair {(i, j)}")
        if not (math.isfinite(rate) and rate >= 0):
            raise InvalidParameter(f"exchange rate of pair {(i, j)} must "
                                   f"be finite and nonnegative, got {rate}")
        beta[i, j] = rate
        beta[j, i] = rate
    ex = np.diag(beta.sum(axis=1)) - beta

    base = _TOY_BASE / (2.0 - math.sqrt(2.0))
    elasticity = np.kron(np.eye(count), base)
    coupling = np.zeros((count, 3 * count))
    for i in range(count):
        coupling[i, 3 * i:3 * i + 3] = alphas[i] * _TOY_ROW
    storage = np.diag(1.0 / moduli)
    flow = np.diag(mob) + ex
    eig_a = np.linalg.eigvalsh(base)
    eig_b = np.linalg.eigvalsh(flow)

    f_const = np.ones(3 * count)
    amp = _TOY_FORCING * np.ones(count)
    p0 = np.zeros(count)
    u0 = factorize(elasticity).solve(coupling.T @ p0 + f_const)

    sys = CoupledSystem(
        elasticity=elasticity,
        flow_stiffness=flow,
        storage=storage,
        coupling=coupling,
        norm_u=np.eye(3 * count),
        norm_p_grad=np.eye(count),
        norm_p=np.eye(count),
        elastic_coercivity=float(eig_a[0]),
        elastic_continuity=float(eig_a[-1]),
        flow_coercivity=float(eig_b[0]),
        flow_continuity=float(eig_b[-1]),
        storage_coercivity=float((1.0 / moduli).min()),
        storage_continuity=float((1.0 / moduli).max()),
        coupling_bound=float(np.linalg.svd(coupling, compute_uv=False)[0]),
        load_u=lambda t: f_const,
        load_p=lambda t: amp * math.sin(t),
        u0=u0,
        p0=p0,
        label=f"network-toy(J={count})",
    )
    u, p = semidiscrete_solution(sys, ("sin", 1.0))
    return replace(sys, exact_u=u, exact_p=p, semidiscrete_u=u,
                   semidiscrete_p=p)
