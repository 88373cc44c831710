"""Factorization and norm helpers over plain numpy / scipy.sparse operators.

Vectors are 1-D float arrays. Operators are either dense ``numpy.ndarray``
matrices (the toy and network systems) or ``scipy.sparse`` matrices (the
P1 Biot blocks); both multiply with ``@`` and transpose with ``.T``.
:func:`factorize` is the one factorization entry point: it picks LAPACK
LU (``scipy.linalg.lu_factor``/``lu_solve``) for an ndarray and SuperLU
(``scipy.sparse.linalg.splu``) for a sparse matrix, and applies the same
relative-pivot singularity check to both.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np
import scipy.linalg
import scipy.sparse

# scipy.sparse.linalg is not imported here: scipy loads it on first use,
# so runs on dense operators alone do not load SuperLU.

__all__ = [
    "LinalgError",
    "SingularMatrix",
    "DimensionMismatch",
    "as_vector",
    "as_array",
    "factorize",
    "weighted_norm_sq",
]

_PIVOT_REL_TOL = 1e-12


class LinalgError(Exception):
    """Base class for linear-algebra failures."""


class SingularMatrix(LinalgError):
    """A pivot underflowed the singularity threshold during factorization."""


class DimensionMismatch(LinalgError):
    """Operand shapes are incompatible."""


def as_vector(x) -> np.ndarray:
    """Coerce to a 1-D float64 array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {v.shape}")
    return v


def as_array(op) -> np.ndarray:
    """Dense 2-D float array of an ndarray or scipy.sparse operator."""
    if scipy.sparse.issparse(op):
        return op.toarray()
    return np.asarray(op, dtype=float)


class Factor:
    """Reusable LU factorization of a square matrix; built by :func:`factorize`."""

    def __init__(self, m):
        if len(m.shape) != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got {m.shape}")
        self.shape = m.shape
        row_mag = float(abs(m).sum(axis=1).max()) if m.size else 0.0
        if row_mag == 0.0:
            raise SingularMatrix("zero matrix")
        if scipy.sparse.issparse(m):
            try:
                lu = scipy.sparse.linalg.splu(m.tocsc())
            except RuntimeError as exc:      # SuperLU: exactly singular
                raise SingularMatrix(str(exc)) from exc
            pivots = lu.U.diagonal()
            self._solve = lu.solve
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                lu_piv = scipy.linalg.lu_factor(np.asarray(m, dtype=float),
                                                check_finite=False)
            pivots = np.diag(lu_piv[0])
            self._solve = functools.partial(scipy.linalg.lu_solve, lu_piv,
                                            check_finite=False)
        if np.any(np.abs(pivots) <= _PIVOT_REL_TOL * row_mag):
            raise SingularMatrix(
                f"pivot below {_PIVOT_REL_TOL:g} x max row magnitude")

    def solve(self, rhs) -> np.ndarray:
        """Solve for one right-hand side (1-D) or a block of columns (2-D)."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim not in (1, 2) or rhs.shape[0] != self.shape[0]:
            raise DimensionMismatch(f"solve: {self.shape} vs rhs {rhs.shape}")
        return self._solve(rhs)


def factorize(m) -> Factor:
    """Factor a square ndarray (LAPACK) or sparse matrix (SuperLU) once
    for repeated solves.

    Raises :class:`SingularMatrix` when a pivot falls below
    ``1e-12 x max row magnitude``.
    """
    return Factor(m)


def weighted_norm_sq(m, x) -> float:
    """Quadratic form ``x^T m x`` for a symmetric positive semidefinite m.

    Tiny negative round-off is clipped to zero.
    """
    x = as_vector(x)
    if m.shape[0] != m.shape[1] or x.size != m.shape[1]:
        raise DimensionMismatch(f"weighted_norm_sq: {m.shape} vs {x.shape}")
    return max(float(x @ (m @ x)), 0.0)
