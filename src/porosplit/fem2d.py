"""P1 finite elements for the 2D Biot problem on the unit square.

The grid is the uniform n x n square mesh split into right triangles
(diagonal from each cell's lower-left to upper-right corner). Both fields
use continuous P1 elements with homogeneous Dirichlet conditions on all
of the boundary, so the unknowns are the interior nodes' values and
every assembled block is symmetric positive (semi)definite.

One scatter builds everything: each operator is the sum of per-triangle
element blocks placed straight onto interior dofs, with entries in a
boundary row or column dropped. Matrix products of P1 functions are
integrated exactly with the mid-edge rule; smooth source fields use the
same three-point rule, whose consistency error sits far below the
temporal errors probed at this scale. The rule's weights form one sparse
matrix from the mesh's unique edge midpoints to interior nodes. A
manufactured solution stores its fields and sources at t = 0, and at
time t each is exp(-t / t_d) times that. So each load vector costs one
evaluation of the source per edge and one sparse product at assembly,
and a load or exact field at time t is its t = 0 vector times
exp(-t / t_d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.sparse

from .linalg import _integer, _real, factorize
from .system import CoupledSystem, InvalidParameter, semidiscrete_solution

__all__ = [
    "Grid2D",
    "BiotParameters",
    "ManufacturedSolution",
    "assemble_biot",
    "manufactured",
    "interpolate",
    "manufactured_system",
]


@dataclass(frozen=True)
class Grid2D:
    """Uniform right-triangle mesh of the unit square with n cells per side."""

    n: int

    def __post_init__(self):
        _integer("n", self.n, 2)

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def node_count(self) -> int:
        return (self.n + 1) ** 2

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates of all nodes, lexicographic in (j, i) with x fastest."""
        idx = np.arange(self.n + 1)
        xg, yg = np.meshgrid(idx, idx, indexing="xy")
        return xg.ravel() * self.h, yg.ravel() * self.h

    def triangles(self) -> np.ndarray:
        """Node index triples; cell (i, j) splits along its a-d diagonal."""
        n = self.n
        i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
        a = (j * (n + 1) + i).ravel()
        b = a + 1
        c = a + (n + 1)
        d = c + 1
        lower = np.stack([a, b, d], axis=1)
        upper = np.stack([a, d, c], axis=1)
        return np.vstack([lower, upper])

    def interior_mask(self) -> np.ndarray:
        x, y = self.nodes()
        eps = 0.5 * self.h
        return (x > eps) & (x < 1.0 - eps) & (y > eps) & (y < 1.0 - eps)

    def interior_map(self) -> np.ndarray:
        """Full-node index -> interior dof index (-1 on the boundary)."""
        mask = self.interior_mask()
        out = np.full(self.node_count, -1, dtype=np.int64)
        out[mask] = np.arange(mask.sum())
        return out

    @property
    def interior_count(self) -> int:
        return (self.n - 1) ** 2


@dataclass(frozen=True)
class BiotParameters:
    """Finite positive material constants of the Biot model."""

    lam: float = 0.5
    mu: float = 0.125
    kappa_over_nu: float = 0.05
    inv_m: float = 4.0
    alpha: float = 0.75

    def __post_init__(self):
        for name in ("lam", "mu", "kappa_over_nu", "inv_m", "alpha"):
            _real(name, getattr(self, name))


@dataclass(frozen=True)
class ManufacturedSolution:
    """Prescribed fields and the sources that make them solve the PDE.

    Every field and source is exp(-t / decay_time) times its value at
    t = 0, so the solution holds the t = 0 values: ``u``, ``p``, ``f`` and
    ``g`` take (x, y) as broadcastable arrays, and the vector fields ``u``
    and ``f`` return a trailing component axis of size 2. ``params`` are
    the material constants the sources were made for.
    """

    params: BiotParameters
    decay_time: float
    u: Callable
    p: Callable
    f: Callable
    g: Callable


def manufactured(params: BiotParameters) -> ManufacturedSolution:
    """Separable decaying fields on the unit square.

    u = -10 e^{-t/5} sin(pi x) sin(pi y) (1, 1) and p = +10 e^{-t/5}
    sin(pi x) sin(pi y), so the decay time is 5 and the amplitude at t = 0
    is 10; the sources follow by substituting into the momentum and
    mass-balance equations, where each time derivative is -1/5 times its
    field. Both fields vanish on the boundary.
    """
    lam, mu = params.lam, params.mu
    kon, inv_m, alpha = params.kappa_over_nu, params.inv_m, params.alpha
    pi = math.pi
    decay_time = 5.0
    w = 10.0

    def s(x, y):
        return np.sin(pi * x) * np.sin(pi * y)

    def sx(x, y):
        return pi * np.cos(pi * x) * np.sin(pi * y)

    def sy(x, y):
        return pi * np.sin(pi * x) * np.cos(pi * y)

    def cc(x, y):
        return np.cos(pi * x) * np.cos(pi * y)

    def u(x, y):
        comp = -w * s(x, y)
        return np.stack([comp, comp], axis=-1)

    def p(x, y):
        return w * s(x, y)

    def f(x, y):
        # -div sigma(u) + alpha grad p, identical structure per component
        common = w * pi * pi * ((lam + mu) * cc(x, y)
                                - (3.0 * mu + lam) * s(x, y))
        return np.stack([common + alpha * w * sx(x, y),
                         common + alpha * w * sy(x, y)], axis=-1)

    def g(x, y):
        content_rate = w / decay_time * (alpha * (sx(x, y) + sy(x, y))
                                         - inv_m * s(x, y))
        return content_rate + 2.0 * pi * pi * kon * w * s(x, y)

    return ManufacturedSolution(params=params, decay_time=decay_time, u=u,
                                p=p, f=f, g=g)


def interpolate(grid: Grid2D, field) -> np.ndarray:
    """Nodal interpolation of an (x, y) evaluator onto interior dofs.

    Scalar fields yield one value per interior node; vector fields are
    stacked component-blocked (all x-values, then all y-values).
    """
    x, y = grid.nodes()
    mask = grid.interior_mask()
    values = np.asarray(field(x[mask], y[mask]), dtype=float)
    if values.ndim == 1:
        return values
    return np.concatenate([values[:, 0], values[:, 1]])


# ---------------------------------------------------------------------------
# Assembly

def _element_geometry(grid: Grid2D):
    """Common triangle area and the P1 gradients of both orientations.

    ``grads[o, a]`` is the gradient of local node a on the lower (o = 0)
    or upper (o = 1) triangles.
    """
    h = grid.h
    # lower triangle (a, b, d): local coords (0,0), (h,0), (h,h)
    # upper triangle (a, d, c): local coords (0,0), (h,h), (0,h)
    grads = np.array([[[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]],
                      [[0.0, -1.0], [1.0, 0.0], [-1.0, 1.0]]]) / h
    return 0.5 * h * h, grads


_MASS_REF = (np.full((3, 3), 1.0) + np.eye(3)) / 12.0
# local node a lies on the local edges a (to node a+1) and a-1 (mod 3)
_EDGE_REF = np.array([[1.0, 0.0, 1.0],
                      [1.0, 1.0, 0.0],
                      [0.0, 1.0, 1.0]])


def _elasticity_blocks(area, grads, lam, mu):
    """6x6 blocks over dofs (component, node): 2 mu eps:eps + lam div div."""
    # axes (orientation, component i, node a, component j, node b)
    gram = (grads @ grads.swapaxes(1, 2))[:, None, :, None, :]
    same = np.eye(2)[None, :, None, :, None]
    cross = np.einsum("obi,oaj->oiajb", grads, grads)
    div = np.einsum("oai,obj->oiajb", lam * grads, grads)
    return (area * (mu * (same * gram + cross) + div)).reshape(2, 6, 6)


def _edges(grid: Grid2D):
    """Each triangle's local edges as indices into the mesh's unique edges,
    with the midpoints of those edges; local edge m joins local nodes m
    and m+1 (mod 3)."""
    tris = grid.triangles()
    ends = np.sort(np.stack([tris, np.roll(tris, -1, axis=1)]), axis=0)
    unique, index = np.unique(ends[0] * grid.node_count + ends[1],
                              return_inverse=True)
    a, b = np.divmod(unique, grid.node_count)
    x, y = grid.nodes()
    return index.reshape(tris.shape), 0.5 * (x[a] + x[b]), 0.5 * (y[a] + y[b])


def _scatter(rows, cols, blocks, shape):
    """Sum per-triangle element blocks into a CSR matrix of ``shape``.

    ``rows`` and ``cols`` hold each triangle's dofs in the block's row and
    column order, -1 for a dof on the boundary. ``blocks`` broadcasts to
    (2, rows, cols); ``blocks[o]`` is the block of the lower (o = 0) or
    upper (o = 1) triangles, which fill the first and second half of
    :meth:`Grid2D.triangles`. Entries in a boundary row or column are
    dropped, which imposes the Dirichlet conditions.
    """
    blocks = np.broadcast_to(blocks, (2, rows.shape[1], cols.shape[1]))
    vals = np.repeat(blocks, rows.shape[0] // 2, axis=0)
    r = np.broadcast_to(rows[:, :, None], vals.shape)
    c = np.broadcast_to(cols[:, None, :], vals.shape)
    keep = (r >= 0) & (c >= 0)
    return scipy.sparse.csr_matrix((vals[keep], (r[keep], c[keep])),
                                   shape=shape)


def assemble_biot(grid: Grid2D, solution: ManufacturedSolution
                  ) -> CoupledSystem:
    """Assemble the Biot problem that ``solution`` states.

    The material constants are ``solution.params``. Norm matrices: vector
    and scalar gradient (stiffness) matrices for the displacement and
    pressure-gradient norms, the scalar mass matrix for the pressure norm.
    The sources ``solution.f`` and ``solution.g`` are integrated once by
    the mid-edge rule and ``solution.u`` and ``solution.p`` interpolated
    once; each load and exact-field call scales its t = 0 vector by
    exp(-t / decay_time). The initial displacement is recomputed from the
    momentum balance so the initial data are consistent, and the factor of
    A that solves it is kept as the system's ``elasticity_factor``.

    The constants are bounds valid on every grid. On H^1_0,
    ||eps(u)||^2 = (||grad u||^2 + ||div u||^2) / 2, so a(u, u) =
    mu ||grad u||^2 + (mu + lam) ||div u||^2 >= mu ||grad u||^2, and with
    d(u, q) = alpha (div u, q) <= alpha ||div u|| ||q|| the coupling
    constant beta = sup_q sup_u d(u, q)^2 / (a(u, u) ||q||^2) is at most
    alpha^2 / (mu + lam): 0.9 for the default parameters, where the sharp
    beta is 0.51, 0.68, 0.73 and 0.745 at n = 4, 8, 16 and 32. The flow
    and storage forms are multiples of their norms. The test suite checks
    the bounds against the sharp discrete values on small grids.
    """
    params = solution.params
    decay_time = _real("decay_time", solution.decay_time,
                       error=InvalidParameter)
    ni = grid.interior_count
    p_dofs = grid.interior_map()[grid.triangles()]
    u_dofs = np.hstack([p_dofs, np.where(p_dofs < 0, -1, p_dofs + ni)])
    area, grads = _element_geometry(grid)
    stiff = _scatter(p_dofs, p_dofs, area * (grads @ grads.swapaxes(1, 2)),
                     (ni, ni))
    mass = _scatter(p_dofs, p_dofs, area * _MASS_REF, (ni, ni))
    elasticity = _scatter(
        u_dofs, u_dofs, _elasticity_blocks(area, grads, params.lam, params.mu),
        (2 * ni, 2 * ni))
    # d(u, q) = alpha int (div u) q, where int_T q_a = area / 3
    coupling = _scatter(
        p_dofs, u_dofs,
        params.alpha * area / 3.0 * grads.swapaxes(1, 2).reshape(2, 1, 6),
        (ni, 2 * ni))
    # mid-edge rule: weight area / 3 per midpoint, where the P1 functions of
    # the edge's two ends are 1/2
    edges, xm, ym = _edges(grid)
    loads = _scatter(p_dofs, edges, area / 3.0 * 0.5 * _EDGE_REF,
                     (ni, xm.size))
    f0 = (loads @ solution.f(xm, ym)).T.ravel()
    g0 = loads @ solution.g(xm, ym)
    u_exact = interpolate(grid, solution.u)
    p0 = interpolate(grid, solution.p)
    decay = lambda t: math.exp(-t / decay_time)
    a_factor = factorize(elasticity)
    u0 = a_factor.solve(coupling.T @ p0 + f0)

    return CoupledSystem(
        elasticity=elasticity,
        flow_stiffness=params.kappa_over_nu * stiff,
        storage=params.inv_m * mass,
        coupling=coupling,
        norm_u=scipy.sparse.block_diag([stiff, stiff], format="csr"),
        norm_p_grad=stiff,
        norm_p=mass,
        elastic_coercivity=params.mu,
        flow_coercivity=params.kappa_over_nu,
        storage_coercivity=params.inv_m,
        coupling_constant=params.alpha ** 2 / (params.mu + params.lam),
        load_u=lambda t: decay(t) * f0,
        load_p=lambda t: decay(t) * g0,
        u0=u0,
        p0=p0,
        exact_u=lambda t: decay(t) * u_exact,
        exact_p=lambda t: decay(t) * p0,
        label=f"biot2d(n={grid.n})",
        elasticity_factor=a_factor,
    )


def manufactured_system(n: int) -> CoupledSystem:
    """Biot system on an n x n grid driven by the manufactured solution.

    Attaches both the interpolated analytic evaluators (``exact_*``) and
    the matching exact solution of the spatially discretized system
    (``semidiscrete_*``), the latter serving as a drift-free reference for
    temporal studies. The oracle's source shape is exp(-rate t) with rate
    1 / decay_time, the decay the loads are scaled by. It is built on its
    first evaluation (see :func:`porosplit.system.semidiscrete_solution`),
    so a run that never reads it never pays for its dense eigenproblem.
    """
    solution = manufactured(BiotParameters())
    sys = assemble_biot(Grid2D(n), solution)
    u, p = semidiscrete_solution(sys, ("exp", 1.0 / solution.decay_time))
    return replace(sys, semidiscrete_u=u, semidiscrete_p=p)
