"""Backward differentiation formulae: coefficients, schemes, history.

The BDF-k coefficients are generated from the generating polynomial
``sum_{l=1..k} (1-s)^l / l`` in exact rational arithmetic; the tests check
them against the published table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .linalg import DimensionMismatch, _integer

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
]

MAX_ORDER = 5


class UnsupportedOrder(ValueError):
    """Requested BDF order outside 1..5."""


class IncompleteHistory(RuntimeError):
    """A multistep operation was invoked before the history filled up."""


def _check_order(k: int) -> int:
    return _integer("BDF order", k, 1, MAX_ORDER, UnsupportedOrder)


# typed caches: True == 1 == np.int64(1) hash alike, and a bool order
# must reach _check_order instead of an int's cached result
@lru_cache(maxsize=None, typed=True)
def exact_coefficients(k: int) -> tuple[Fraction, ...]:
    """Expand ``sum_{l=1..k} (1-s)^l / l`` into coefficients of s^0..s^k."""
    k = _check_order(k)
    poly = [Fraction(0)] * (k + 1)
    for ell in range(1, k + 1):
        for j in range(ell + 1):
            poly[j] += Fraction((-1) ** j * math.comb(ell, j), ell)
    return tuple(poly)


def coefficients(k: int) -> tuple[float, ...]:
    """BDF-k coefficients xi_0..xi_k as floats."""
    return tuple(float(c) for c in exact_coefficients(k))


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


@lru_cache(maxsize=None, typed=True)
def scheme(k: int) -> BdfScheme:
    """Build the BDF-k scheme.

    The multiplier is 0 for k <= 2, the value the search gives, without
    the sampling; for k >= 3 it is produced by the closed-form search in
    :mod:`porosplit.stability` and cached. The first scheme of an order
    k >= 3 pays for that search: one sampling of the unit circle at
    100 000 points and two evaluations of the criterion on it, about
    0.01-0.02 s.
    """
    k = _check_order(k)
    if k <= 2:
        eta = 0.0
    else:
        from . import stability

        eta = stability.find_multiplier(k).multiplier
    return BdfScheme(order=k, coeffs=coefficients(k), multiplier=eta)


class History:
    """Ring of the most recent accepted state vectors, newest first.

    A run of :func:`porosplit.splitsolve.integrate` keeps one, and each
    entry is a stacked state z = (u, p), so one :func:`history_sum` gives
    the history terms of both fields."""

    def __init__(self, capacity: int, values=None):
        self.capacity = _integer("capacity", capacity, 1)
        self._items: list[np.ndarray] = []
        if values is not None:
            for v in values:
                self.push(v)

    def push(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=float)
        if self._items and value.shape != self._items[0].shape:
            raise DimensionMismatch("history entries must share one shape")
        self._items.insert(0, value)
        del self._items[self.capacity:]

    def items(self) -> tuple[np.ndarray, ...]:
        """Entries newest-first."""
        return tuple(self._items)

    def newest(self) -> np.ndarray:
        if not self._items:
            raise IncompleteHistory("history is empty")
        return self._items[0]

    def __len__(self) -> int:
        return len(self._items)


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

