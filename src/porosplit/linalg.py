"""Factorization and norm helpers over plain numpy / scipy.sparse operators.

Vectors are 1-D float arrays. Operators are either dense ``numpy.ndarray``
matrices (the toy and network systems) or ``scipy.sparse`` matrices (the
P1 Biot blocks); both multiply with ``@`` and transpose with ``.T``.
:func:`factorize` is the one factorization entry point: it picks LAPACK
LU (``scipy.linalg.lu_factor``) for an ndarray and SuperLU
(``scipy.sparse.linalg.splu``) for a sparse matrix, and applies the same
checks to both: finite entries, then a relative-pivot singularity check.
Dense solves call LAPACK ``getrs`` on the ``lu_factor`` output directly:
the same routine ``scipy.linalg.lu_solve`` ends in, without its per-call
Python layers, which dominate a solve on the toy's 3x3 blocks.

SuperLU orders for symmetric structure and pivots on the diagonal: a
minimum-degree ordering of the pattern of A^T + A (``MMD_AT_PLUS_A``),
``SymmetricMode`` and a diagonal pivot threshold of 0.01. Every sparse
matrix the stepper factors has a symmetric pattern: A, the split pressure
block and the monolithic block. SuperLU's default COLAMD ordering ignores
that, and full partial pivoting lets row exchanges undo a symmetric
ordering: on the monolithic BDF-3 block at n = 16, tau = 2^-10, the
ordering alone with partial pivoting fills 218 k entries against COLAMD's
58 k, and with diagonal pivoting 40 k. See :class:`Factor` for why
pivoting on the diagonal is stable here.
"""

from __future__ import annotations

import math
import numbers
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
    "Factor",
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


def _integer(name: str, value, least: int, most: int | None = None,
             error=ValueError) -> int:
    """``value`` as an int if it is an integer (numpy's too) in
    ``least..most``, else ``error`` naming ``name`` and the value. The one
    integer rule of the library: a bool, a float or a string is no count,
    order or size, even when it holds one."""
    if isinstance(value, (bool, np.bool_)) \
            or not isinstance(value, numbers.Integral) or value < least \
            or (most is not None and value > most):
        bounds = f">= {least}" if most is None else f"in {least}..{most}"
        raise error(f"{name} must be an integer {bounds}, got {value!r}")
    return int(value)


def _real(name: str, value, zero_ok: bool = False, error=ValueError) -> float:
    """``value`` as a float if it is a finite real number (numpy's too)
    > 0, or >= 0 with ``zero_ok``, else ``error`` naming ``name`` and the
    value. The one real rule of the library: a bool or a string is no real
    number, and NaN fails the range test it would pass as ``not x <= 0``."""
    requirement = "finite and >= 0" if zero_ok else "finite and positive"
    number = _signed_real(name, value, error, requirement)
    if number < 0 or (number == 0 and not zero_ok):
        raise error(f"{name} must be {requirement}, got {value!r}")
    return number


def _signed_real(name: str, value, error=ValueError,
                 requirement: str = "finite") -> float:
    """``value`` as a float if it is a finite real number (numpy's too) of
    either sign, else ``error`` naming ``name`` and the value: the real
    rule without its range, for an exponent. A non-finite value's message
    says the value must be ``requirement``."""
    # a plain float is a real and no bool: it skips the numbers.Real ABC
    # test, the slow part of the rule (three calls per split step)
    if type(value) is not float and (isinstance(value, (bool, np.bool_))
                                     or not isinstance(value, numbers.Real)):
        raise error(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise error(f"{name} must be {requirement}, got {value!r}")
    return float(value)


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
    """Reusable LU factorization of a square matrix; built by :func:`factorize`.

    A sparse matrix solves through SuperLU, ordered by minimum degree on
    the pattern of A^T + A with diagonal pivoting (threshold 0.01). That
    is safe for the matrices the stepper factors. A and the split pressure
    block (xi0/tau)(C + L M_H) + B are SPD. The monolithic block
    [[A, -D^T], [(xi0/tau) D, (xi0/tau) C + B]] with its second block row
    scaled by tau/xi0 has the symmetric part diag(A, C + (tau/xi0) B),
    which is SPD; a matrix with an SPD symmetric part keeps one under
    any symmetric permutation, so all its leading minors are nonzero and
    LU without row exchanges exists, and a positive row scaling does not
    change that. The 0.01 threshold keeps a pivoting fallback for a zero
    or tiny diagonal entry, as in a permutation matrix. Against COLAMD
    with partial pivoting, at n = 48 (best of several runs, 2 vCPUs):
    A fills 504 k -> 359 k entries, factors in 30 -> 18 ms and solves in
    1.1 -> 0.75 ms; the monolithic BDF-1 block at tau = 2^-5 fills
    1.15 M -> 0.81 M entries, factors in 85 -> 47 ms and solves in
    3.6 -> 1.7 ms.

    The relative-pivot check reads the diagonal of ``lu.U``. Reading
    ``lu.U`` makes scipy build CSC copies of both L and U, and the
    ``SuperLU`` object keeps both for as long as the factor lives
    (``lu.U is lu.U``): at n = 48, 4.2 MiB for A's factor (tracemalloc)
    and 7.6 MB of resident memory for the monolithic BDF-1 block at
    tau = 2^-5. ``SuperLU`` offers no other source of the pivots, so this
    is the memory cost of the check.

    A dense matrix keeps the ``lu_factor`` output and the LAPACK ``getrs``
    routine for its dtype, looked up once here, and each solve is one
    ``getrs`` call: bit for bit what ``scipy.linalg.lu_solve(...,
    check_finite=False)`` returns.

    ``fill`` is the number of entries stored for L and U: SuperLU's count
    for a sparse matrix, n^2 for a dense one.
    """

    def __init__(self, m):
        if len(m.shape) != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got {m.shape}")
        self.shape = m.shape
        row_mag = float(abs(m).sum(axis=1).max()) if m.size else 0.0
        if not np.isfinite(row_mag):
            raise LinalgError("non-finite entries")
        if row_mag == 0.0:
            raise SingularMatrix("zero matrix")
        if scipy.sparse.issparse(m):
            try:
                lu = scipy.sparse.linalg.splu(
                    m.tocsc(), permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.01, options={"SymmetricMode": True})
            except RuntimeError as exc:      # SuperLU: exactly singular
                raise SingularMatrix(str(exc)) from exc
            pivots = lu.U.diagonal()
            self._fill = lu.nnz
            self._solve = lu.solve
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                lu, piv = scipy.linalg.lu_factor(np.asarray(m, dtype=float),
                                                 check_finite=False)
            pivots = np.diag(lu)
            self._fill = lu.size
            getrs, = scipy.linalg.get_lapack_funcs(("getrs",), (lu,))

            def solve_dense(rhs):
                x, info = getrs(lu, piv, rhs, overwrite_b=False)
                if info != 0:
                    raise LinalgError(f"getrs: illegal value in argument "
                                      f"{-info}")
                return x

            self._solve = solve_dense
        if np.any(np.abs(pivots) <= _PIVOT_REL_TOL * row_mag):
            raise SingularMatrix(
                f"pivot below {_PIVOT_REL_TOL:g} x max row magnitude")

    @property
    def fill(self) -> int:
        """Entries stored for the L and U factors."""
        return self._fill

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
