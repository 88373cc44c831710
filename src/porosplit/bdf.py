"""Backward differentiation formulae: coefficients, history, discrete derivative.

The BDF-k coefficients are generated from the generating polynomial
``sum_{l=1..k} (1-s)^l / l`` in exact rational arithmetic and cross-checked
against a hard-coded table, so a transcription error in either source
trips an assertion at import time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .linalg import DimensionMismatch

__all__ = [
    "UnsupportedOrder",
    "IncompleteHistory",
    "MAX_ORDER",
    "exact_coefficients",
    "coefficients",
    "BdfScheme",
    "scheme",
    "History",
    "history_sum",
    "discrete_derivative",
    "derivative_defect",
]

MAX_ORDER = 5


class UnsupportedOrder(ValueError):
    """Requested BDF order outside 1..5."""


class IncompleteHistory(RuntimeError):
    """A multistep operation was invoked before the history filled up."""


# Reference table of BDF-k coefficients (order k -> xi_0..xi_k).
_TABLE = {
    1: (Fraction(1), Fraction(-1)),
    2: (Fraction(3, 2), Fraction(-2), Fraction(1, 2)),
    3: (Fraction(11, 6), Fraction(-3), Fraction(3, 2), Fraction(-1, 3)),
    4: (Fraction(25, 12), Fraction(-4), Fraction(3), Fraction(-4, 3), Fraction(1, 4)),
    5: (Fraction(137, 60), Fraction(-5), Fraction(5), Fraction(-10, 3),
        Fraction(5, 4), Fraction(-1, 5)),
}


def _check_order(k: int) -> int:
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= MAX_ORDER:
        raise UnsupportedOrder(f"BDF order must be an integer in 1..{MAX_ORDER}, got {k!r}")
    return int(k)


@lru_cache(maxsize=None)
def exact_coefficients(k: int) -> tuple[Fraction, ...]:
    """Expand ``sum_{l=1..k} (1-s)^l / l`` into coefficients of s^0..s^k."""
    k = _check_order(k)
    poly = [Fraction(0)] * (k + 1)
    for ell in range(1, k + 1):
        for j in range(ell + 1):
            poly[j] += Fraction((-1) ** j * math.comb(ell, j), ell)
    out = tuple(poly)
    assert out == _TABLE[k], f"coefficient table mismatch for k={k}"
    return out


def coefficients(k: int) -> tuple[float, ...]:
    """BDF-k coefficients xi_0..xi_k as floats."""
    return tuple(float(c) for c in exact_coefficients(k))


# Cross-assert both sources once at import.
for _k in range(1, MAX_ORDER + 1):
    exact_coefficients(_k)
del _k


@dataclass(frozen=True)
class BdfScheme:
    """A BDF method of a given order with its A-stability multiplier."""

    order: int
    coeffs: tuple[float, ...]
    multiplier: float

    def __post_init__(self):
        _check_order(self.order)
        if len(self.coeffs) != self.order + 1:
            raise UnsupportedOrder("coefficient count does not match the order")
        if not 0.0 <= self.multiplier < 1.0:
            raise ValueError(f"multiplier must lie in [0, 1), got {self.multiplier}")

    @property
    def leading(self) -> float:
        return self.coeffs[0]


@lru_cache(maxsize=None)
def scheme(k: int) -> BdfScheme:
    """Build the BDF-k scheme.

    The multiplier is 0 for k <= 2; for k >= 3 it is produced by the
    numeric search in :mod:`porosplit.stability` and cached.
    """
    k = _check_order(k)
    if k <= 2:
        eta = 0.0
    else:
        from . import stability

        eta = stability.find_multiplier(k).multiplier
    return BdfScheme(order=k, coeffs=coefficients(k), multiplier=eta)


class History:
    """Ring of the most recent accepted state vectors, newest first."""

    def __init__(self, capacity: int, values=None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._items: list[np.ndarray] = []
        self.steps_accepted = 0
        if values is not None:
            for v in values:
                self.push(v)

    def push(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=float)
        if self._items and value.shape != self._items[0].shape:
            raise DimensionMismatch("history entries must share one shape")
        self._items.insert(0, value)
        del self._items[self.capacity:]
        self.steps_accepted += 1

    @property
    def complete(self) -> bool:
        return len(self._items) == self.capacity

    def items(self) -> tuple[np.ndarray, ...]:
        """Entries newest-first."""
        return tuple(self._items)

    def newest(self) -> np.ndarray:
        if not self._items:
            raise IncompleteHistory("history is empty")
        return self._items[0]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)


def history_sum(sch: BdfScheme, hist: History) -> np.ndarray:
    """History part ``sum_{l=1..k} xi_l y^{n-l}`` of the BDF-k difference.

    ``hist`` holds y^{n-1}..y^{n-k} newest-first; the terms are added in
    that order.
    """
    if len(hist) < sch.order:
        raise IncompleteHistory(
            f"need {sch.order} history entries, have {len(hist)}"
        )
    return sum(c * y for c, y in zip(sch.coeffs[1:], hist.items()))


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
