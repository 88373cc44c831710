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
matrix from the mesh's unique edge midpoints to interior nodes, so a
load is one evaluation of the source per edge and one sparse product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
import scipy.sparse

from .linalg import factorize
from .system import CoupledSystem, semidiscrete_solution

__all__ = [
    "Grid2D",
    "BiotParameters",
    "ManufacturedSolution",
    "assemble_biot",
    "manufactured",
    "interpolate",
    "manufactured_system",
    "pde_residual_fd",
]


@dataclass(frozen=True)
class Grid2D:
    """Uniform right-triangle mesh of the unit square with n cells per side."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 cells per side")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def node_count(self) -> int:
        return (self.n + 1) ** 2

    @property
    def triangle_count(self) -> int:
        return 2 * self.n ** 2

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
    """Positive material constants of the Biot model."""

    lam: float = 0.5
    mu: float = 0.125
    kappa_over_nu: float = 0.05
    inv_m: float = 4.0
    alpha: float = 0.75

    def __post_init__(self):
        for name in ("lam", "mu", "kappa_over_nu", "inv_m", "alpha"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class ManufacturedSolution:
    """Prescribed fields and the sources that make them solve the PDE.

    All evaluators take (t, x, y) with x, y broadcastable arrays; vector
    fields return a trailing component axis of size 2.
    """

    params: BiotParameters
    u: Callable
    p: Callable
    du_dt: Callable
    dp_dt: Callable
    f: Callable
    g: Callable


def manufactured(params: BiotParameters) -> ManufacturedSolution:
    """Separable decaying fields on the unit square.

    u = -10 e^{-t/5} sin(pi x) sin(pi y) (1, 1) and p = +10 e^{-t/5}
    sin(pi x) sin(pi y); the sources follow by substituting into the
    momentum and mass-balance equations. Both fields vanish on the
    boundary for all t.
    """
    lam, mu = params.lam, params.mu
    kon, inv_m, alpha = params.kappa_over_nu, params.inv_m, params.alpha
    pi = math.pi

    def w(t):
        return 10.0 * np.exp(-t / 5.0)

    def s(x, y):
        return np.sin(pi * x) * np.sin(pi * y)

    def sx(x, y):
        return pi * np.cos(pi * x) * np.sin(pi * y)

    def sy(x, y):
        return pi * np.sin(pi * x) * np.cos(pi * y)

    def cc(x, y):
        return np.cos(pi * x) * np.cos(pi * y)

    def u(t, x, y):
        comp = -w(t) * s(x, y)
        return np.stack([comp, comp], axis=-1)

    def p(t, x, y):
        return w(t) * s(x, y)

    def du_dt(t, x, y):
        comp = w(t) / 5.0 * s(x, y)
        return np.stack([comp, comp], axis=-1)

    def dp_dt(t, x, y):
        return -w(t) / 5.0 * s(x, y)

    def f(t, x, y):
        # -div sigma(u) + alpha grad p, identical structure per component
        common = w(t) * pi * pi * ((lam + mu) * cc(x, y)
                                   - (3.0 * mu + lam) * s(x, y))
        return np.stack([common + alpha * w(t) * sx(x, y),
                         common + alpha * w(t) * sy(x, y)], axis=-1)

    def g(t, x, y):
        rate = w(t) / 5.0 * (alpha * (sx(x, y) + sy(x, y))
                             - inv_m * s(x, y))
        return rate + 2.0 * pi * pi * kon * w(t) * s(x, y)

    return ManufacturedSolution(params=params, u=u, p=p, du_dt=du_dt,
                                dp_dt=dp_dt, f=f, g=g)


def interpolate(grid: Grid2D, field, t: float) -> np.ndarray:
    """Nodal interpolation of a (t, x, y) evaluator onto interior dofs.

    Scalar fields yield one value per interior node; vector fields are
    stacked component-blocked (all x-values, then all y-values).
    """
    x, y = grid.nodes()
    mask = grid.interior_mask()
    values = np.asarray(field(t, x[mask], y[mask]), dtype=float)
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


def assemble_biot(grid: Grid2D, params: BiotParameters,
                  solution: Optional[ManufacturedSolution] = None
                  ) -> CoupledSystem:
    """Assemble the Biot operators over interior degrees of freedom.

    Norm matrices: vector and scalar gradient (stiffness) matrices for the
    displacement and pressure-gradient norms, the scalar mass matrix for
    the pressure norm. Sources and initial data come from ``solution``
    when given (zero otherwise); the initial displacement is recomputed
    from the momentum balance so the initial data are consistent.

    The constants are bounds valid on every grid. On H^1_0,
    ||eps(u)||^2 = (||grad u||^2 + ||div u||^2) / 2 and ||div u|| <=
    ||grad u||, so a(u, u) = mu ||grad u||^2 + (mu + lam) ||div u||^2 lies
    between mu ||grad u||^2 and (2 mu + lam) ||grad u||^2, and
    d(u, q) = alpha (div u, q) <= alpha ||grad u|| ||q||. The flow and
    storage forms are multiples of their norms. Sharp discrete values are
    available through :func:`porosplit.system.exact_discrete_constants`.
    """
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

    if solution is None:
        load_u = lambda t: np.zeros(2 * ni)
        load_p = lambda t: np.zeros(ni)
        p0 = np.zeros(ni)
        exact_u = exact_p = None
    else:
        load_u = lambda t: (loads @ solution.f(t, xm, ym)).T.ravel()
        load_p = lambda t: loads @ solution.g(t, xm, ym)
        p0 = interpolate(grid, solution.p, 0.0)
        exact_u = lambda t: interpolate(grid, solution.u, t)
        exact_p = lambda t: interpolate(grid, solution.p, t)
    u0 = factorize(elasticity).solve(coupling.T @ p0 + load_u(0.0))

    return CoupledSystem(
        elasticity=elasticity,
        flow_stiffness=params.kappa_over_nu * stiff,
        storage=params.inv_m * mass,
        coupling=coupling,
        norm_u=scipy.sparse.block_diag([stiff, stiff], format="csr"),
        norm_p_grad=stiff,
        norm_p=mass,
        elastic_coercivity=params.mu,
        elastic_continuity=2.0 * params.mu + params.lam,
        flow_coercivity=params.kappa_over_nu,
        flow_continuity=params.kappa_over_nu,
        storage_coercivity=params.inv_m,
        storage_continuity=params.inv_m,
        coupling_bound=params.alpha,
        load_u=load_u,
        load_p=load_p,
        u0=u0,
        p0=p0,
        exact_u=exact_u,
        exact_p=exact_p,
        label=f"biot2d(n={grid.n})",
    )


def manufactured_system(n: int, params: Optional[BiotParameters] = None
                        ) -> CoupledSystem:
    """Biot system on an n x n grid driven by the manufactured solution.

    Attaches both the interpolated analytic evaluators (``exact_*``) and
    the matching exact solution of the spatially discretized system
    (``semidiscrete_*``), the latter serving as a drift-free reference for
    temporal studies.
    """
    params = params or BiotParameters()
    sys = assemble_biot(Grid2D(n), params, manufactured(params))
    u, p = semidiscrete_solution(sys, ("exp", 0.2))
    return replace(sys, semidiscrete_u=u, semidiscrete_p=p)


# ---------------------------------------------------------------------------
# Finite-difference verification of the manufactured sources

def _second_diff(fn, h):
    """Richardson-extrapolated central second difference."""
    def d2(t, x, y, axis):
        def shift(delta):
            if axis == 0:
                return fn(t, x + delta, y)
            return fn(t, x, y + delta)
        coarse = (shift(2 * h) - 2 * fn(t, x, y) + shift(-2 * h)) / (4 * h * h)
        fine = (shift(h) - 2 * fn(t, x, y) + shift(-h)) / (h * h)
        return (4.0 * fine - coarse) / 3.0
    return d2


def _first_diff(fn, h):
    def d1(t, x, y, axis):
        def shift(delta):
            if axis == 0:
                return fn(t, x + delta, y)
            if axis == 1:
                return fn(t, x, y + delta)
            return fn(t + delta, x, y)
        coarse = (shift(2 * h) - shift(-2 * h)) / (4 * h)
        fine = (shift(h) - shift(-h)) / (2 * h)
        return (4.0 * fine - coarse) / 3.0
    return d1


def _mixed_diff(fn, h):
    def dxy(t, x, y):
        def corner(sx_, sy_):
            return fn(t, x + sx_ * h, y + sy_ * h)
        fine = (corner(1, 1) - corner(1, -1) - corner(-1, 1)
                + corner(-1, -1)) / (4 * h * h)
        coarse = (fn(t, x + 2 * h, y + 2 * h) - fn(t, x + 2 * h, y - 2 * h)
                  - fn(t, x - 2 * h, y + 2 * h)
                  + fn(t, x - 2 * h, y - 2 * h)) / (16 * h * h)
        return (4.0 * fine - coarse) / 3.0
    return dxy


def pde_residual_fd(ms: ManufacturedSolution, t: float, x: float, y: float,
                    step: float = 1.2e-3) -> float:
    """Max-abs residual of the two Biot equations at one point, by finite
    differences of the prescribed fields against the analytic sources."""
    prm = ms.params
    ux = lambda t_, x_, y_: ms.u(t_, x_, y_)[..., 0]
    uy = lambda t_, x_, y_: ms.u(t_, x_, y_)[..., 1]
    p = ms.p

    d2_ux = _second_diff(ux, step)
    d2_uy = _second_diff(uy, step)
    d1_ux = _first_diff(ux, step)
    d1_uy = _first_diff(uy, step)
    d1_p = _first_diff(p, step)
    dxy_ux = _mixed_diff(ux, step)
    dxy_uy = _mixed_diff(uy, step)

    lap_ux = d2_ux(t, x, y, 0) + d2_ux(t, x, y, 1)
    lap_uy = d2_uy(t, x, y, 0) + d2_uy(t, x, y, 1)
    # grad(div u)
    gdiv_x = d2_ux(t, x, y, 0) + dxy_uy(t, x, y)
    gdiv_y = dxy_ux(t, x, y) + d2_uy(t, x, y, 1)

    mu, lam, alpha = prm.mu, prm.lam, prm.alpha
    f_ref = ms.f(t, x, y)
    res_u = np.hypot(
        -mu * (lap_ux + gdiv_x) - lam * gdiv_x + alpha * d1_p(t, x, y, 0)
        - f_ref[..., 0],
        -mu * (lap_uy + gdiv_y) - lam * gdiv_y + alpha * d1_p(t, x, y, 1)
        - f_ref[..., 1],
    )

    lap_p = _second_diff(p, step)(t, x, y, 0) + _second_diff(p, step)(t, x, y, 1)
    div_u_dot = (_first_diff(lambda *a: ms.du_dt(*a)[..., 0], step)(t, x, y, 0)
                 + _first_diff(lambda *a: ms.du_dt(*a)[..., 1], step)(t, x, y, 1))
    dp_dt = _first_diff(p, step)(t, x, y, 2)
    res_p = abs(alpha * div_u_dot + prm.inv_m * dp_dt
                - prm.kappa_over_nu * lap_p - ms.g(t, x, y))
    return float(max(res_u, res_p))
