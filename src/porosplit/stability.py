"""A-stability multipliers and the G-stability quadratic-form identity.

For BDF-k with generating polynomial ``xi``, the boundary criterion
``Re(xi(zeta) / (1 - eta*zeta)) >= 0`` on ``|zeta| = 1`` certifies the
multiplier ``eta``. Sampling the boundary suffices: the real part is
harmonic outside the unit disk and the criterion is an exterior condition.

For k = 1, 2 the tested-form identity

    <tau M d_tau y^n, y^n - eta y^{n-1}>  -  ||M^{1/2} sum_l g_{l+1} y^{n-l}||^2
        = |[y^n..y^{n+1-k}]|_{G,M}^2 - |[y^{n-1}..y^{n-k}]|_{G,M}^2

holds with explicit (eta, G, g); it is verified here against randomized
self-adjoint monotone operators. Note the k = 2 combination vector is the
second difference [1/2, -1, 1/2]: the identity pins the alternating signs
(verified by expansion; a same-sign middle entry breaks it).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bdf import coefficients, _check_order

__all__ = [
    "NotFound",
    "MultiplierCertificate",
    "GStabilityData",
    "g_stability_data",
    "criterion_min",
    "find_multiplier",
    "certificate",
    "identity_residual",
    "verify_identity",
]

_COARSE_STEP = 1e-2
_FINE_STEP = 1e-4
_FEASIBLE_FLOOR = -1e-12
_SEARCH_SAMPLES = 100_000


class NotFound(RuntimeError):
    """No multiplier below 1 satisfied the criterion (must not occur for k <= 5)."""


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
        if self.order not in (1, 2):
            raise ValueError("explicit G data is only available for k = 1, 2")
        g = np.asarray(self.g_matrix, dtype=float)
        if g.shape != (self.order, self.order):
            raise ValueError(f"G must be {self.order}x{self.order}")
        if not np.allclose(g, g.T, rtol=0, atol=1e-14):
            raise ValueError("G must be symmetric")
        if np.any(np.linalg.eigvalsh(g) <= 0.0):
            raise ValueError("G must be positive definite")


def g_stability_data(k: int) -> GStabilityData:
    if k == 1:
        return GStabilityData(
            order=1,
            g_matrix=np.array([[0.5]]),
            gamma_vec=np.array([1.0, -1.0]) / np.sqrt(2.0),
            multiplier=0.0,
        )
    if k == 2:
        return GStabilityData(
            order=2,
            g_matrix=np.array([[1.25, -0.5], [-0.5, 0.25]]),
            gamma_vec=np.array([0.5, -1.0, 0.5]),
            multiplier=0.0,
        )
    raise ValueError("explicit G data is only available for k = 1, 2")


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
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta}")
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    zeta, xi = _sampled_circle(k, samples)
    # one temporary, divided into in place: the search calls this a few
    # hundred times on 1.6 MB arrays, and fresh temporaries per call make
    # its speed depend on what the process freed before
    q = zeta * -eta
    q += 1.0
    np.divide(xi, q, out=q)
    return float(q.real.min())


@lru_cache(maxsize=None)
def find_multiplier(k: int) -> MultiplierCertificate:
    """Smallest feasible multiplier on a 1e-4 grid for k = 3, 4, 5.

    A coarse 1e-2 sweep brackets the feasibility boundary, then a 1e-4
    sweep inside the bracket picks the smallest feasible grid point. The
    criterion minimum is not smooth in eta, so grid search is used instead
    of root finding. The sampled circle and xi on it do not depend on
    eta: the search computes them once and releases them when it ends.
    """
    if k not in (3, 4, 5):
        raise ValueError(f"multiplier search is for k in 3..5, got {k}")
    key = (k, _SEARCH_SAMPLES)
    _held_circle[key] = _sampled_circle(*key)
    try:
        coarse = None
        steps = round(1.0 / _COARSE_STEP)
        for i in range(steps):
            eta = i * _COARSE_STEP
            if criterion_min(k, eta) >= _FEASIBLE_FLOOR:
                coarse = eta
                break
        if coarse is None:
            raise NotFound(f"no multiplier below 1 for k={k}")
        start = max(0.0, coarse - _COARSE_STEP)
        base = round(start / _FINE_STEP)
        for i in range(base, base + round(_COARSE_STEP / _FINE_STEP) + 1):
            eta = i * _FINE_STEP
            m = criterion_min(k, eta)
            if m >= _FEASIBLE_FLOOR:
                return MultiplierCertificate(
                    order=k, multiplier=eta, min_real_part=m,
                    sample_count=_SEARCH_SAMPLES,
                )
        raise NotFound(f"fine sweep found no multiplier for k={k}")
    finally:
        _held_circle.pop(key, None)


def certificate(k: int) -> MultiplierCertificate:
    """Boundary certificate for any order: trivial multiplier for k <= 2."""
    if k <= 2:
        return MultiplierCertificate(
            order=k, multiplier=0.0,
            min_real_part=criterion_min(k, 0.0),
            sample_count=_SEARCH_SAMPLES,
        )
    return find_multiplier(k)


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
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    worst = 0.0
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        m = _random_spd(rng, dim)
        ys = [rng.normal(size=dim) for _ in range(data.order + 1)]
        resid, scale = identity_residual(data, m, ys, tau)
        worst = max(worst, resid / scale)
    return worst
