"""P1 finite elements for the 2D Biot problem on the unit square.

The grid is the uniform n x n square mesh split into right triangles
(diagonal from each cell's lower-left to upper-right corner). Both fields
use continuous P1 elements with homogeneous Dirichlet conditions enforced
by restriction to interior nodes, which keeps every assembled block
symmetric positive (semi)definite.

Matrix products of P1 functions are integrated exactly with the mid-edge
rule; smooth source fields use the same three-point rule, whose
consistency error sits far below the temporal errors probed at this scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """Per-orientation P1 gradients and the (common) triangle area."""
    h = grid.h
    area = 0.5 * h * h
    # lower triangle (a, b, d): local coords (0,0), (h,0), (h,h)
    grads_lower = np.array([[-1.0 / h, 0.0],
                            [1.0 / h, -1.0 / h],
                            [0.0, 1.0 / h]])
    # upper triangle (a, d, c): local coords (0,0), (h,h), (0,h)
    grads_upper = np.array([[0.0, -1.0 / h],
                            [1.0 / h, 0.0],
                            [-1.0 / h, 1.0 / h]])
    return area, (grads_lower, grads_upper)


_MASS_REF = (np.full((3, 3), 1.0) + np.eye(3)) / 12.0


def _scatter(tri_rows, tri_cols, tri_vals, shape):
    m = scipy.sparse.coo_matrix(
        (tri_vals.ravel(), (tri_rows.ravel(), tri_cols.ravel())), shape=shape
    ).tocsr()
    m.sum_duplicates()
    return m


def _assemble_scalar(grid: Grid2D, element_fn):
    """Assemble a scalar-field matrix from a per-orientation 3x3 element."""
    tris = grid.triangles()
    half = grid.n ** 2
    area, grads = _element_geometry(grid)
    rows, cols, vals = [], [], []
    for part, g in zip((tris[:half], tris[half:]), grads):
        elem = element_fn(area, g)
        r = np.repeat(part, 3, axis=1)
        c = np.tile(part, (1, 3))
        v = np.broadcast_to(elem.ravel(), (part.shape[0], 9))
        rows.append(r)
        cols.append(c)
        vals.append(v)
    n_nodes = grid.node_count
    return _scatter(np.vstack(rows), np.vstack(cols), np.vstack(vals),
                    (n_nodes, n_nodes))


def _elasticity_element(area, grads, lam, mu):
    """6x6 element over dofs (component, node): 2 mu eps:eps + lam div div."""
    elem = np.zeros((6, 6))
    for comp_a in range(2):
        for node_a in range(3):
            ia = comp_a * 3 + node_a
            for comp_b in range(2):
                for node_b in range(3):
                    ib = comp_b * 3 + node_b
                    ga, gb = grads[node_a], grads[node_b]
                    val = mu * ((comp_a == comp_b) * float(ga @ gb)
                                + gb[comp_a] * ga[comp_b])
                    val += lam * ga[comp_a] * gb[comp_b]
                    elem[ia, ib] = area * val
    return elem


def _assemble_elasticity(grid: Grid2D, lam, mu):
    tris = grid.triangles()
    half = grid.n ** 2
    area, grads = _element_geometry(grid)
    n_nodes = grid.node_count
    rows, cols, vals = [], [], []
    for part, g in zip((tris[:half], tris[half:]), grads):
        elem = _elasticity_element(area, g, lam, mu)
        # dof index of (comp, node) = comp * n_nodes + node
        dofs = np.concatenate([part, part + n_nodes], axis=1)  # (ntri, 6)
        r = np.repeat(dofs, 6, axis=1)
        c = np.tile(dofs, (1, 6))
        v = np.broadcast_to(elem.ravel(), (part.shape[0], 36))
        rows.append(r)
        cols.append(c)
        vals.append(v)
    return _scatter(np.vstack(rows), np.vstack(cols), np.vstack(vals),
                    (2 * n_nodes, 2 * n_nodes))


def _assemble_coupling(grid: Grid2D, alpha):
    """d(u, q) = alpha int (div u) q: rows over p-nodes, cols over u-dofs."""
    tris = grid.triangles()
    half = grid.n ** 2
    area, grads = _element_geometry(grid)
    n_nodes = grid.node_count
    rows, cols, vals = [], [], []
    for part, g in zip((tris[:half], tris[half:]), grads):
        # int_T q_a * d(phi_b)/dx_comp = (area/3) * grad_b[comp]
        elem = np.zeros((3, 6))
        for node_a in range(3):
            for comp_b in range(2):
                for node_b in range(3):
                    elem[node_a, comp_b * 3 + node_b] = \
                        alpha * area / 3.0 * g[node_b, comp_b]
        udofs = np.concatenate([part, part + n_nodes], axis=1)
        r = np.repeat(part, 6, axis=1)
        c = np.tile(udofs, (1, 3))
        v = np.broadcast_to(elem.ravel(), (part.shape[0], 18))
        rows.append(r)
        cols.append(c)
        vals.append(v)
    return _scatter(np.vstack(rows), np.vstack(cols), np.vstack(vals),
                    (n_nodes, 2 * n_nodes))


class _LoadAssembler:
    """Mid-edge quadrature of source fields into interior load vectors."""

    def __init__(self, grid: Grid2D):
        x, y = grid.nodes()
        tris = grid.triangles()
        area, _ = _element_geometry(grid)
        self.weight = area / 3.0 * 0.5  # rule weight times phi at a midpoint
        # midpoints of the three edges; each carries phi = 1/2 for the two
        # adjacent nodes and 0 for the opposite one
        corners = np.stack([x[tris], y[tris]], axis=-1)      # (ntri, 3, 2)
        mids = 0.5 * (corners + np.roll(corners, -1, axis=1))  # edges (0,1),(1,2),(2,0)
        self.qx = mids[..., 0]
        self.qy = mids[..., 1]
        # nodes adjacent to edge m are tris[:, m] and tris[:, (m+1)%3]
        self.scatter_a = tris
        self.scatter_b = np.roll(tris, -1, axis=1)
        self.n_nodes = grid.node_count
        self.interior = grid.interior_mask()

    def scalar(self, field, t: float) -> np.ndarray:
        vals = np.asarray(field(t, self.qx, self.qy), dtype=float) * self.weight
        out = np.zeros(self.n_nodes)
        np.add.at(out, self.scatter_a, vals)
        np.add.at(out, self.scatter_b, vals)
        return out[self.interior]

    def vector(self, field, t: float) -> np.ndarray:
        vals = np.asarray(field(t, self.qx, self.qy), dtype=float) * self.weight
        out = np.zeros((self.n_nodes, 2))
        np.add.at(out, self.scatter_a, vals)
        np.add.at(out, self.scatter_b, vals)
        inner = out[self.interior]
        return np.concatenate([inner[:, 0], inner[:, 1]])


def assemble_biot(grid: Grid2D, params: BiotParameters,
                  solution: Optional[ManufacturedSolution] = None
                  ) -> CoupledSystem:
    """Assemble the Biot operators over interior degrees of freedom.

    Norm matrices: vector and scalar gradient (stiffness) matrices for the
    displacement and pressure-gradient norms, the scalar mass matrix for
    the pressure norm. Sources and initial data come from ``solution``
    when given (zero otherwise); the initial displacement is recomputed
    from the momentum balance so the initial data are consistent.

    Coercivity/continuity constants are closed-form surrogates from the
    material parameters; sharp discrete values are available through
    :func:`porosplit.system.exact_discrete_constants`.
    """
    stiff = _assemble_scalar(
        grid, lambda area, g: area * (g @ g.T))
    mass = _assemble_scalar(
        grid, lambda area, g: area * _MASS_REF)
    elast = _assemble_elasticity(grid, params.lam, params.mu)
    coup = _assemble_coupling(grid, params.alpha)

    mask = grid.interior_mask()
    umask = np.concatenate([mask, mask])
    stiff_i = stiff[mask][:, mask]
    mass_i = mass[mask][:, mask]
    elasticity = elast[umask][:, umask]
    coupling = coup[mask][:, umask]
    vec_stiff = scipy.sparse.block_diag([stiff_i, stiff_i], format="csr")

    loads = _LoadAssembler(grid)
    if solution is not None:
        load_u = lambda t: loads.vector(solution.f, t)
        load_p = lambda t: loads.scalar(solution.g, t)
        p0 = interpolate(grid, solution.p, 0.0)
    else:
        nu = 2 * grid.interior_count
        np_ = grid.interior_count
        load_u = lambda t: np.zeros(nu)
        load_p = lambda t: np.zeros(np_)
        p0 = np.zeros(np_)
    u0 = factorize(elasticity).solve(coupling.T @ p0 + load_u(0.0))

    sys = CoupledSystem(
        elasticity=elasticity,
        flow_stiffness=params.kappa_over_nu * stiff_i,
        storage=params.inv_m * mass_i,
        coupling=coupling,
        norm_u=vec_stiff,
        norm_p_grad=stiff_i,
        norm_p=mass_i,
        elastic_coercivity=2.0 * params.mu,
        elastic_continuity=2.0 * params.mu + 2.0 * params.lam,
        flow_coercivity=params.kappa_over_nu,
        flow_continuity=params.kappa_over_nu,
        storage_coercivity=params.inv_m,
        storage_continuity=params.inv_m,
        coupling_bound=params.alpha * math.sqrt(2.0),
        load_u=load_u,
        load_p=load_p,
        u0=u0,
        p0=p0,
        label=f"biot2d(n={grid.n})",
    )
    if solution is not None:
        sys.exact_u = lambda t: interpolate(grid, solution.u, t)
        sys.exact_p = lambda t: interpolate(grid, solution.p, t)
    return sys


def manufactured_system(n: int, params: Optional[BiotParameters] = None
                        ) -> CoupledSystem:
    """Biot system on an n x n grid driven by the manufactured solution.

    Attaches both the interpolated analytic evaluators (``exact_*``) and
    the matching exact solution of the spatially discretized system
    (``semidiscrete_*``), the latter serving as a drift-free reference for
    temporal studies.
    """
    params = params or BiotParameters()
    grid = Grid2D(n)
    sys = assemble_biot(grid, params, manufactured(params))
    sys.semidiscrete_u, sys.semidiscrete_p = \
        semidiscrete_solution(sys, ("exp", 0.2))
    return sys


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
