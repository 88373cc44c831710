"""A-stability multipliers and the G-stability quadratic-form identity.

For BDF-k with generating polynomial ``xi``, the boundary criterion
``Re(xi(zeta) / (1 - eta*zeta)) >= 0`` on ``|zeta| = 1`` certifies the
multiplier ``eta``. Sampling the boundary suffices: the real part is
harmonic outside the unit disk and the criterion is an exterior condition.

The smallest multiplier has a closed form on the samples. With
``a = Re xi(zeta)`` and ``b = Re(xi(zeta) conj(zeta))`` the criterion at
zeta is ``(a - eta*b) / |1 - eta*zeta|^2``, linear in eta up to a positive
factor: a sample with b < 0 asks for eta >= a/b, one with b > 0 for
eta <= a/b. The feasible multipliers therefore form one interval, whose
lower end is ``max(0, max over b < 0 of a/b)``. The certificate allows
the minimum down to a floor -eps rather than 0; the floor adds the
convex term ``eps |1 - eta*zeta|^2`` to ``a - eta*b``, which moves an
endpoint by O(eps/|b|) and adds a second root inside [0, 1) only where
``|b| <~ eps``. Such samples (zeta = 1, where xi vanishes and a = b are
round-off) bound nothing and are skipped; the floor covers them. So the
search costs one sampling of the circle and two evaluations of the
criterion, which certify the grid point found: feasible there,
infeasible one grid step below. It certifies every order: for the
A-stable k = 1, 2 the lower end is 0, and one evaluation certifies
eta = 0.

For k = 1, 2 the tested-form identity

    <tau M d_tau y^n, y^n - eta y^{n-1}>  -  ||M^{1/2} sum_l g_{l+1} y^{n-l}||^2
        = |[y^n..y^{n+1-k}]|_{G,M}^2 - |[y^{n-1}..y^{n-k}]|_{G,M}^2

holds with explicit (eta, G, g); it is verified here against randomized
self-adjoint monotone operators. Note the k = 2 combination vector is the
second difference [1/2, -1, 1/2]: the identity pins the alternating signs
(verified by expansion; a same-sign middle entry breaks it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bdf import coefficients, _check_order
from .linalg import _integer, _real

__all__ = [
    "NotFound",
    "MultiplierCertificate",
    "GStabilityData",
    "g_stability_data",
    "criterion_min",
    "find_multiplier",
    "identity_residual",
    "verify_identity",
]

_GRID_STEP = 1e-4
_GRID_POINTS = 10_000          # the grid points i * 1e-4 below 1
_FEASIBLE_FLOOR = -1e-12
_ROUND_OFF = 1e-12             # a sample with |b| below this bounds no eta
_SEARCH_SAMPLES = 100_000


class NotFound(RuntimeError):
    """No multiplier below 1 was certified (must not occur for k <= 5)."""


@dataclass(frozen=True)
class MultiplierCertificate:
    """Result of a boundary-sampled multiplier check."""

    order: int
    multiplier: float
    min_real_part: float
    sample_count: int

    @property
    def valid(self) -> bool:
        return self.min_real_part >= _FEASIBLE_FLOOR


@dataclass(frozen=True)
class GStabilityData:
    """Explicit (G, combination vector, multiplier) for k = 1, 2."""

    order: int
    g_matrix: np.ndarray
    gamma_vec: np.ndarray
    multiplier: float

    def __post_init__(self):
        _integer("order of explicit G data", self.order, 1, 2)
        g = np.asarray(self.g_matrix, dtype=float)
        if g.shape != (self.order, self.order):
            raise ValueError(f"G must be {self.order}x{self.order}")
        if not np.allclose(g, g.T, rtol=0, atol=1e-14):
            raise ValueError("G must be symmetric")
        if np.any(np.linalg.eigvalsh(g) <= 0.0):
            raise ValueError("G must be positive definite")


def g_stability_data(k: int) -> GStabilityData:
    """The explicit G data of BDF-1 or BDF-2, whose multiplier is 0."""
    k = _integer("order of explicit G data", k, 1, 2)
    if k == 1:
        g, gamma = [[0.5]], np.array([1.0, -1.0]) / np.sqrt(2.0)
    else:
        g, gamma = [[1.25, -0.5], [-0.5, 0.25]], [0.5, -1.0, 0.5]
    return GStabilityData(order=k, g_matrix=np.array(g),
                          gamma_vec=np.array(gamma), multiplier=0.0)


# (k, samples) -> (zeta, xi(zeta)), held only while find_multiplier runs;
# a held entry equals what _sampled_circle would compute, so a caller that
# finds none (or another search's) gets the same minimum
_held_circle: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _sampled_circle(k: int, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """``samples`` equispaced points zeta of the unit circle and xi(zeta)."""
    held = _held_circle.get((k, samples))
    if held is not None:
        return held
    theta = 2.0 * np.pi * np.arange(samples) / samples
    zeta = np.exp(1j * theta)
    xi = np.zeros_like(zeta)
    power = np.ones_like(zeta)
    for c in coefficients(k):
        xi += c * power
        power = power * zeta
    return zeta, xi


def criterion_min(k: int, eta: float, samples: int = _SEARCH_SAMPLES) -> float:
    """Minimum of ``Re(xi(zeta)/(1 - eta*zeta))`` over the sampled unit circle."""
    _check_order(k)
    if _real("eta", eta, zero_ok=True) >= 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta!r}")
    samples = _integer("samples", samples, 1000)
    zeta, xi = _sampled_circle(k, samples)
    # one temporary (1.6 MB at 100 000 samples), divided into in place
    q = zeta * -eta
    q += 1.0
    np.divide(xi, q, out=q)
    return float(q.real.min())


def _lower_end(zeta: np.ndarray, xi: np.ndarray) -> float:
    """Lower end of the feasible multipliers on the sampled circle.

    ``max(0, max over b < 0 of a/b)`` with ``a = Re xi`` and
    ``b = Re(xi conj(zeta))``; samples with ``|b| <= _ROUND_OFF`` are
    skipped, since they move ``a - eta*b`` by less than the floor.
    """
    a = xi.real
    b = xi.real * zeta.real
    b += xi.imag * zeta.imag
    bounds = np.divide(a, b, out=np.zeros_like(b), where=b < -_ROUND_OFF)
    return max(0.0, float(bounds.max()))


# typed: 3.0 == np.int64(3) hash alike, and 3.0 must reach _check_order
@lru_cache(maxsize=None, typed=True)
def find_multiplier(k: int) -> MultiplierCertificate:
    """Smallest feasible multiplier on a 1e-4 grid, for every order 1..5.

    On a sample zeta the criterion reads ``(a - eta*b) / |1 - eta*zeta|^2``
    with ``a = Re xi(zeta)`` and ``b = Re(xi(zeta) conj(zeta))``, so a
    sample with b < 0 asks for eta >= a/b and one with b > 0 for
    eta <= a/b. One vectorized pass over the sampled circle gives the
    closed form ``eta_lo = max(0, max over b < 0 of a/b)``; the first grid
    point ``i * 1e-4`` at or above it is certified with two evaluations
    of :func:`criterion_min`: feasible at ``i * 1e-4`` and infeasible at
    ``(i - 1) * 1e-4``. If it does not certify, the search steps at most
    once up or down the grid before it raises :class:`NotFound`; it never
    scans. The certificate is the one a scan of the grid from 0 would
    return, because the feasible set is one interval: every sample bounds
    eta from one side, and the floor term ``eps |1 - eta*zeta|^2`` moves
    an endpoint by O(eps/|b|) and adds a second root in [0, 1) only where
    ``|b| <~ eps``, on the samples skipped as round-off. For the A-stable
    k = 1, 2 the lower end is 0, so one evaluation certifies eta = 0.

    Cost: one sampling of the circle, which the search holds and
    releases when it ends, and two (at most three) criterion evaluations;
    one for k = 1, 2.
    """
    k = _check_order(k)
    key = (k, _SEARCH_SAMPLES)
    _held_circle[key] = _sampled_circle(*key)
    try:
        i = math.ceil(_lower_end(*_held_circle[key]) / _GRID_STEP)
        minimum = {}   # grid index -> criterion minimum there

        def feasible_at(j: int) -> bool:
            if j not in minimum:
                if j >= _GRID_POINTS:
                    raise NotFound(f"no multiplier below 1 for k={k}")
                minimum[j] = criterion_min(k, j * _GRID_STEP)
            return minimum[j] >= _FEASIBLE_FLOOR

        if not feasible_at(i):
            i += 1
        elif i > 0 and feasible_at(i - 1):
            i -= 1
        if not feasible_at(i) or (i > 0 and feasible_at(i - 1)):
            raise NotFound(f"the closed-form boundary does not certify "
                           f"for k={k}")
        return MultiplierCertificate(
            order=k, multiplier=i * _GRID_STEP, min_real_part=minimum[i],
            sample_count=_SEARCH_SAMPLES,
        )
    finally:
        _held_circle.pop(key, None)


def _gm_norm_sq(g: np.ndarray, m: np.ndarray, block: list[np.ndarray]) -> float:
    """Quadratic form <(G (x) M) E, E> for E = [y_1..y_k]."""
    total = 0.0
    my = [m @ y for y in block]
    for i in range(len(block)):
        for j in range(len(block)):
            total += g[i, j] * float(block[i] @ my[j])
    return total


def identity_residual(data: GStabilityData, m: np.ndarray,
                      ys: list[np.ndarray], tau: float = 1.0) -> tuple[float, float]:
    """(absolute residual, term scale) of the tested-form identity.

    ``ys`` holds y^n..y^{n-k} newest-first (k+1 vectors); ``m`` is a
    symmetric monotone operator given densely.
    """
    k = data.order
    if len(ys) != k + 1:
        raise ValueError(f"need {k + 1} sequence entries, got {len(ys)}")
    xi = coefficients(k)
    deriv = sum(c * y for c, y in zip(xi, ys)) / tau
    tested = float((m @ (tau * deriv)) @ (ys[0] - data.multiplier * ys[1]))
    combo = sum(g * y for g, y in zip(data.gamma_vec, ys))
    combo_sq = float(combo @ (m @ combo))
    lhs = tested - combo_sq
    rhs_new = _gm_norm_sq(data.g_matrix, m, ys[:k])
    rhs_old = _gm_norm_sq(data.g_matrix, m, ys[1:])
    rhs = rhs_new - rhs_old
    scale = max(abs(tested), combo_sq, abs(rhs_new), abs(rhs_old), 1e-300)
    return abs(lhs - rhs), scale


def _random_spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Q^T diag(lam) Q with lam uniform in [0.1, 10]: bounded conditioning."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    lam = rng.uniform(0.1, 10.0, size=dim)
    return q.T @ (lam[:, None] * q)


def verify_identity(data: GStabilityData, trials: int, dim: int,
                    tau: float = 1.0, seed: int = 0) -> float:
    """Maximum relative residual of the identity over randomized trials."""
    trials = _integer("trials", trials, 100)
    dim = _integer("dim", dim, 1)
    worst = 0.0
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        m = _random_spd(rng, dim)
        ys = [rng.normal(size=dim) for _ in range(data.order + 1)]
        resid, scale = identity_residual(data, m, ys, tau)
        worst = max(worst, resid / scale)
    return worst
