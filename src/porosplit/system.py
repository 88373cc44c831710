"""Coupled elliptic-parabolic systems as assembled linear-algebra objects.

A :class:`CoupledSystem` bundles the four operator blocks (elasticity,
flow stiffness, storage, coupling), the three norm matrices used by error
measures and the termination functional, the three coercivity constants
and the coupling constant of the underlying bilinear forms,
time-dependent sources, and consistent initial data. It also owns the one
factorization of the elasticity operator A: A does not depend on the
time step, the stabilization or the BDF order, so the builder that
factors A for the initial data hands its factor to the system, and every
run, the modal oracle and the gamma inversion solve with it.

One concrete family is built here, by one constructor: the
multiple-network toy (one tridiagonal elastic block and one scalar
pressure per network, inter-network exchange, sinusoidal forcing), whose
one-network case without exchange is the 3+1 scalar toy. It is linear
with constant coefficients, so exact solutions are available through a
modal decomposition and get attached as evaluators.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .linalg import (DimensionMismatch, Factor, _integer, _real, as_array,
                     factorize)

__all__ = [
    "InvalidParameter",
    "CoupledSystem",
    "make_toy",
    "make_network_toy",
    "semidiscrete_solution",
    "solution_evaluators",
    "time_shifted",
]


class InvalidParameter(ValueError):
    """A physical or algorithmic parameter is out of range."""


@dataclass(frozen=True)
class CoupledSystem:
    """Assembled operators, norms, constants, sources and initial data.

    The constants bound the forms against the norms: the coercivities
    from below, and beta = lambda_max(D A^{-1} D^T, M_H) (M_H: ``norm_p``)
    from above, so that ||D^T q||^2_{A^{-1}} <= beta ||q||_H^2. Declared
    facts (beta, the coercivities, the source law a builder states to
    :func:`semidiscrete_solution`) are trusted at run time and tested for
    each builder; a split run checks their form by the number rule.

    ``elasticity_factor`` is the one factorization of A. A builder that
    has factored A passes its factor in; a system built without one
    factors A here. A factor passed in must have A's shape, else
    :class:`~porosplit.linalg.DimensionMismatch`.

    Frozen: derived systems are built with :func:`dataclasses.replace`,
    which hands them the same factor object; one that replaces A must
    also pass ``elasticity_factor=None``. Sources must be pure functions
    of time.
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
    flow_coercivity: float
    storage_coercivity: float
    coupling_constant: float    # beta
    load_u: Callable[[float], np.ndarray]
    load_p: Callable[[float], np.ndarray]
    u0: np.ndarray
    p0: np.ndarray
    exact_u: Optional[Callable[[float], np.ndarray]] = None
    exact_p: Optional[Callable[[float], np.ndarray]] = None
    semidiscrete_u: Optional[Callable[[float], np.ndarray]] = None
    semidiscrete_p: Optional[Callable[[float], np.ndarray]] = None
    label: str = ""
    elasticity_factor: Optional[Factor] = field(default=None, repr=False,
                                                compare=False)

    def __post_init__(self):
        factor = self.elasticity_factor
        if factor is None:
            object.__setattr__(self, "elasticity_factor",
                               factorize(self.elasticity))
        elif factor.shape != self.elasticity.shape:
            raise DimensionMismatch(
                f"elasticity factor of shape {factor.shape} for an "
                f"elasticity operator of shape {self.elasticity.shape}")

    @property
    def dim_u(self) -> int:
        return self.elasticity.shape[0]

    @property
    def dim_p(self) -> int:
        return self.storage.shape[0]


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
    ``("exp", rate)`` for both sources proportional to exp(-rate t).

    The caller states the law, which is trusted. Construction checks only
    the shape tag (its kind, and freq or rate by the number rule) and the
    symmetry of B, else :class:`InvalidParameter`, and reads the loads
    the law needs: g(pi / (2 freq)) for ``"sin"``, f(0) and g(0) for
    ``"exp"``. The modal data (the dense Schur complement, its
    generalized eigenpairs and the modal loads) cost O(n_p^3) and are
    built on the first evaluation of either returned evaluator, then
    shared by both. A is solved with the system's ``elasticity_factor``.
    """
    kind, par = shape
    b = sys.flow_stiffness
    if not abs(b - b.T).max() <= 1e-12 * max(abs(b).max(), 1e-300):
        raise InvalidParameter("modal solution needs a symmetric flow operator")

    if kind == "sin":
        freq = _real("sin frequency", par, error=InvalidParameter)
        g_hat = sys.load_p(0.5 * math.pi / freq)
    elif kind == "exp":
        rate = _real("exp rate", par, zero_ok=True, error=InvalidParameter)
        f0 = sys.load_u(0.0)
        g0 = sys.load_p(0.0)
    else:
        raise InvalidParameter(f"unknown source shape {kind!r}")

    a_lu = sys.elasticity_factor

    @functools.cache
    def modal():
        """(modes, modal coefficients as a function of t)."""
        d = sys.coupling
        m_hat = as_array(sys.storage) + d @ a_lu.solve(as_array(d).T)
        lam, modes = scipy.linalg.eigh(as_array(b), m_hat)
        z0 = modes.T @ (m_hat @ sys.p0)

        if kind == "sin":
            c_mod = modes.T @ g_hat
            denom = lam ** 2 + freq ** 2

            def z_of_t(t: float) -> np.ndarray:
                decay = np.exp(-lam * t)
                z = (z0 + c_mod * freq / denom) * decay
                z += c_mod * (lam * math.sin(freq * t)
                              - freq * math.cos(freq * t)) / denom
                return z

        else:
            # g(t) - D A^{-1} f'(t) = (g0 + rate * D A^{-1} f0) e^{-rate t}
            c_mod = modes.T @ (g0 + rate * (d @ a_lu.solve(f0)))

            def z_of_t(t: float) -> np.ndarray:
                return z0 * np.exp(-lam * t) + c_mod * _expdiff(lam, rate, t)

        return modes, z_of_t

    def p_of_t(t: float) -> np.ndarray:
        modes, z_of_t = modal()
        return modes @ z_of_t(t)

    def u_of_t(t: float) -> np.ndarray:
        return a_lu.solve(sys.coupling.T @ p_of_t(t) + sys.load_u(t))

    return u_of_t, p_of_t


def solution_evaluators(sys: CoupledSystem, use: str):
    """The (u, p) evaluators of the discretized system's own flow, else of
    the analytic solution; :class:`InvalidParameter` naming ``use`` and
    the missing evaluators when the system has neither pair."""
    u_eval = sys.semidiscrete_u or sys.exact_u
    p_eval = sys.semidiscrete_p or sys.exact_p
    if u_eval is None or p_eval is None:
        raise InvalidParameter(
            f"{use} needs solution evaluators: the system has neither "
            "semidiscrete_u/semidiscrete_p nor exact_u/exact_p")
    return u_eval, p_eval


def time_shifted(sys: CoupledSystem, t0: float) -> CoupledSystem:
    """View of the system with the clock started at ``t0``.

    Loads and solution evaluators are shifted and the initial data taken
    from the (semi-)exact solution at ``t0`` (finite, >= 0). Used by
    temporal studies to measure orders past the initial layer that rough
    initial data excites in the stiff modes of the discretized system.
    """
    _real("t0", t0, zero_ok=True, error=InvalidParameter)
    u_eval, p_eval = solution_evaluators(sys, "time shift")

    def shift(fn):
        return None if fn is None else (lambda t: fn(t + t0))

    return replace(
        sys, load_u=shift(sys.load_u), load_p=shift(sys.load_p),
        u0=u_eval(t0), p0=p_eval(t0),
        exact_u=shift(sys.exact_u), exact_p=shift(sys.exact_p),
        semidiscrete_u=shift(sys.semidiscrete_u),
        semidiscrete_p=shift(sys.semidiscrete_p),
        label=f"{sys.label}@t0={t0:g}")


# ---------------------------------------------------------------------------
# Concrete instances

# The toy elastic block, scaled so its smallest eigenvalue is 1.
_TOY_BLOCK = np.array([[2.0, -1.0, 0.0],
                       [-1.0, 2.0, -1.0],
                       [0.0, -1.0, 2.0]]) / (2.0 - math.sqrt(2.0))
_TOY_ROW = np.array([2.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0])
_TOY_FORCING = 100.0


def make_toy(omega: float) -> CoupledSystem:
    """Scalar toy problem: 3-dim elasticity, one pressure unknown.

    The one-network case of the network toy (:func:`make_network_toy`
    itself needs two): alpha = sqrt(omega), modulus 1, mobility 1, no
    exchange. The toy row [2/3, 1/3, 2/3] has norm 1, so the constructed
    coupling strength equals ``omega`` exactly.
    """
    _real("omega", omega, error=InvalidParameter)
    one = np.ones(1)
    return _toy_family(math.sqrt(omega) * one, one, one, np.zeros((1, 1)),
                       f"toy(omega={omega:g})")


def make_network_toy(count: int, alphas, storage_moduli, mobilities,
                     exchange) -> CoupledSystem:
    """Multiple-network extension of the toy problem.

    Each of the ``count`` pressure networks is scalar and owns a copy of
    the toy elastic block ``tridiag(-1, 2, -1) / (2 - sqrt(2))`` (scaled
    so its smallest eigenvalue is 1); network i couples to its block
    through ``alphas[i]`` times the toy coupling row [2/3, 1/3, 2/3],
    stores with compliance ``1/storage_moduli[i]`` and flows with
    ``mobilities[i]``. The networks interact only through ``exchange``,
    a mapping or a sequence of ((i, j), rate) items giving the rate
    beta_ij >= 0 used symmetrically in both network equations (a pair
    given twice, in either orientation, is rejected). The assembled
    exchange block has zero row sums, so constant pressures see no
    exchange and beta = 0 decouples the networks completely. Sources: f
    the constant one-vector, g_i(t) = 100 sin(t); zero initial pressure
    with consistent initial displacement. Bad numbers raise InvalidParameter.
    """
    count = _integer("network count", count, 2, error=InvalidParameter)
    params = []
    for name, values in (("alphas", alphas), ("storage moduli", storage_moduli),
                         ("mobilities", mobilities)):
        # each entry is checked as given: a float array would hold True as 1.0
        if np.shape(values) != (count,):
            raise InvalidParameter("need one alpha/modulus/mobility per network")
        params.append(np.array([_real(f"{name}[{i}]", v, error=InvalidParameter)
                                for i, v in enumerate(values)]))
    alphas, moduli, mob = params

    rates = np.zeros((count, count))
    given = set()
    for pair, rate in (exchange.items() if isinstance(exchange, Mapping)
                       else exchange):
        i, j = (_integer(f"index of exchange pair {pair}", index, 0, count - 1,
                         InvalidParameter) for index in pair)
        if i == j:
            raise InvalidParameter(f"bad exchange pair {pair}")
        key = frozenset((i, j))
        if key in given:
            raise InvalidParameter(f"exchange pair {pair} given twice")
        given.add(key)
        rates[i, j] = rates[j, i] = _real(f"exchange rate of pair {pair}", rate,
                                          zero_ok=True, error=InvalidParameter)
    return _toy_family(alphas, moduli, mob, np.diag(rates.sum(axis=1)) - rates,
                       f"network-toy(J={count})")


def _toy_family(alphas: np.ndarray, moduli: np.ndarray, mob: np.ndarray,
                ex: np.ndarray, label: str) -> CoupledSystem:
    """The network toy of checked parameter arrays and exchange block
    ``ex``, for any number of networks."""
    count = len(alphas)
    elasticity = np.zeros((3 * count, 3 * count))
    coupling = np.zeros((count, 3 * count))
    for i in range(count):
        block = slice(3 * i, 3 * i + 3)
        elasticity[block, block] = _TOY_BLOCK
        coupling[i, block] = alphas[i] * _TOY_ROW
    flow = np.diag(mob) + ex
    a_factor = factorize(elasticity)

    f_const = np.ones(3 * count)
    amp = _TOY_FORCING * np.ones(count)
    p0 = np.zeros(count)
    u0 = a_factor.solve(coupling.T @ p0 + f_const)

    sys = CoupledSystem(
        elasticity=elasticity,
        flow_stiffness=flow,
        storage=np.diag(1.0 / moduli),
        coupling=coupling,
        norm_u=np.eye(3 * count),
        norm_p_grad=np.eye(count),
        norm_p=np.eye(count),
        elastic_coercivity=float(np.linalg.eigvalsh(_TOY_BLOCK)[0]),
        flow_coercivity=float(np.linalg.eigvalsh(flow)[0]),
        storage_coercivity=float((1.0 / moduli).min()),
        # norm_p is the identity and D A^{-1} D^T is diagonal (network i
        # couples only to block i): beta is its largest diagonal entry
        coupling_constant=float(np.diag(
            coupling @ a_factor.solve(coupling.T)).max()),
        load_u=lambda t: f_const,
        load_p=lambda t: amp * math.sin(t),
        u0=u0,
        p0=p0,
        label=label,
        elasticity_factor=a_factor,
    )
    u, p = semidiscrete_solution(sys, ("sin", 1.0))
    return replace(sys, exact_u=u, exact_p=p, semidiscrete_u=u,
                   semidiscrete_p=p)
