import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from porosplit import fem2d, system
from porosplit.bdf import scheme
from porosplit.fem2d import (BiotParameters, Grid2D, assemble_biot,
                             interpolate, manufactured, manufactured_system)
from porosplit.linalg import factorize, weighted_norm_sq
from porosplit.splitsolve import SplitConfig, integrate
from porosplit.system import InvalidParameter, semidiscrete_solution
from verification import (exact_discrete_constants, pde_residual_fd,
                          residual_coupled)


@pytest.fixture(scope="module")
def params():
    return BiotParameters()


@pytest.fixture(scope="module")
def solution(params):
    return manufactured(params)


class TestGrid:
    def test_counts(self):
        g = Grid2D(4)
        assert g.node_count == 25
        assert g.interior_count == 9

    @pytest.mark.parametrize("n", [2.5, 4.0, True, "4", 1, np.int64(1)])
    def test_n_must_be_an_integer_of_at_least_two(self, n):
        # Grid2D(2.5) would report 2.25 interior nodes
        with pytest.raises(ValueError, match="n must be an integer >= 2"):
            Grid2D(n)

    def test_numpy_integer_accepted(self):
        assert Grid2D(np.int64(4)).interior_count == 9


class TestParameters:
    @pytest.mark.parametrize("name", ["lam", "mu", "kappa_over_nu", "inv_m",
                                      "alpha"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0,
                                       -1.0])
    def test_finite_and_positive_required(self, name, value):
        # nan <= 0 is False, so a sign check alone lets NaN through to a
        # singular factor whose message names no field
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            BiotParameters(**{name: value})

    def test_interior_map_excludes_boundary(self):
        g = Grid2D(3)
        x, y = g.nodes()
        mapping = g.interior_map()
        on_boundary = (x == 0) | (x == 1) | (y == 0) | (y == 1)
        assert np.all(mapping[on_boundary] == -1)
        assert np.all(mapping[~on_boundary] >= 0)

    def test_triangles_cover_unit_area(self):
        g = Grid2D(5)
        x, y = g.nodes()
        tris = g.triangles()
        x0, y0 = x[tris[:, 0]], y[tris[:, 0]]
        x1, y1 = x[tris[:, 1]], y[tris[:, 1]]
        x2, y2 = x[tris[:, 2]], y[tris[:, 2]]
        areas = 0.5 * np.abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
        assert areas.sum() == pytest.approx(1.0, rel=1e-12)


class TestManufactured:
    def test_pressure_peak(self, solution):
        assert solution.p(0.5, 0.5) == pytest.approx(10.0, rel=1e-15)

    def test_boundary_values_vanish(self, solution):
        for x, y in ((0.0, 0.3), (1.0, 0.7), (0.4, 0.0), (0.9, 1.0)):
            assert np.abs(solution.u(x, y)).max() <= 1e-14
            assert abs(solution.p(x, y)) <= 1e-14

    def test_fd_residual_at_spec_point(self, solution):
        assert pde_residual_fd(solution, 0.3, 0.37, 0.61, step=1e-4) <= 1e-6

    def test_fd_residual_small_at_random_points(self, solution):
        rng = np.random.default_rng(8)
        for _ in range(10):
            t = float(rng.uniform(0.1, 2.0))
            x, y = rng.uniform(0.1, 0.9, size=2)
            assert pde_residual_fd(solution, t, float(x), float(y)) <= 1e-8


class TestInterpolate:
    def test_zero_field(self):
        g = Grid2D(4)
        out = interpolate(g, lambda x, y: np.zeros_like(x))
        assert out.shape == (9,)
        assert np.all(out == 0.0)

    def test_center_node_on_coarsest_grid(self, solution):
        g = Grid2D(2)
        out = interpolate(g, solution.p)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(10.0, rel=1e-15)

    def test_linearity(self):
        g = Grid2D(5)
        rng = np.random.default_rng(1)
        c1, c2 = rng.normal(size=2)
        f1 = lambda x, y: np.sin(x) * y
        f2 = lambda x, y: np.cos(3 * y) + x
        combo = lambda x, y: c1 * f1(x, y) + c2 * f2(x, y)
        np.testing.assert_allclose(
            interpolate(g, combo),
            c1 * interpolate(g, f1) + c2 * interpolate(g, f2),
            rtol=1e-13)

    def test_vector_field_block_layout(self, solution):
        g = Grid2D(4)
        out = interpolate(g, solution.u)
        assert out.shape == (18,)
        np.testing.assert_allclose(out[:9], out[9:], rtol=1e-14)


def _loop_mass_matrix(grid):
    """Plain-loop P1 mass assembly used as an oracle."""
    x, y = grid.nodes()
    ref = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    out = np.zeros((grid.node_count, grid.node_count))
    for tri in grid.triangles():
        x0, y0 = x[tri[0]], y[tri[0]]
        x1, y1 = x[tri[1]], y[tri[1]]
        x2, y2 = x[tri[2]], y[tri[2]]
        area = 0.5 * abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
        for a in range(3):
            for b in range(3):
                out[tri[a], tri[b]] += area * ref[a, b]
    return out


def _loop_triangles(grid):
    """Per triangle: node indices, area, P1 coefficients and corners.

    Column a of the coefficient matrix holds (c0, cx, cy) with
    phi_a(x, y) = c0 + cx x + cy y, from inverting the vertex table.
    """
    x, y = grid.nodes()
    for tri in grid.triangles():
        corners = np.stack([x[tri], y[tri]], axis=1)
        table = np.column_stack([np.ones(3), corners])
        area = 0.5 * abs(np.linalg.det(table))
        yield tri, area, np.linalg.inv(table), corners


def _loop_elasticity(grid, lam, mu):
    """Plain-loop 2 mu eps(u):eps(v) + lam div u div v over (comp, node)."""
    nn = grid.node_count
    out = np.zeros((2 * nn, 2 * nn))
    for tri, area, coef, _ in _loop_triangles(grid):
        strains, divs = [], []
        for comp in range(2):
            for a in range(3):
                grad_u = np.zeros((2, 2))      # d u_i / d x_j of phi_a e_comp
                grad_u[comp] = coef[1:, a]
                strains.append(0.5 * (grad_u + grad_u.T))
                divs.append(np.trace(grad_u))
        dofs = [comp * nn + node for comp in range(2) for node in tri]
        for i in range(6):
            for j in range(6):
                out[dofs[i], dofs[j]] += area * (
                    2.0 * mu * np.sum(strains[i] * strains[j])
                    + lam * divs[i] * divs[j])
    return out


def _loop_coupling(grid, alpha):
    """Plain-loop alpha int (div u) q: rows over p-nodes, cols (comp, node)."""
    nn = grid.node_count
    out = np.zeros((nn, 2 * nn))
    for tri, area, coef, _ in _loop_triangles(grid):
        for a in range(3):
            for comp in range(2):
                for b in range(3):
                    # int_T phi_a = area / 3 and d phi_b / dx_comp is constant
                    out[tri[a], comp * nn + tri[b]] += \
                        alpha * area / 3.0 * coef[1 + comp, b]
    return out


def _loop_load(grid, field):
    """Plain-loop mid-edge rule int field phi_a, one row per node."""
    out = None
    for tri, area, coef, corners in _loop_triangles(grid):
        for m in range(3):
            mid = 0.5 * (corners[m] + corners[(m + 1) % 3])
            value = np.asarray(field(mid[0], mid[1]), dtype=float)
            if out is None:
                out = np.zeros((grid.node_count,) + value.shape)
            for a in range(3):
                phi = coef[0, a] + coef[1:, a] @ mid
                out[tri[a]] += area / 3.0 * phi * value
    return out


def _assert_close(actual, expected, rel=1e-13):
    scale = np.abs(expected).max()
    assert scale > 0.0
    assert np.abs(actual - expected).max() <= rel * scale


def _sources_at(solution, t):
    """The sources f and g of ``solution`` at time t, as (x, y) evaluators:
    each is exp(-t / decay_time) times its value at t = 0."""
    decay = math.exp(-t / solution.decay_time)
    return (lambda x, y: decay * solution.f(x, y),
            lambda x, y: decay * solution.g(x, y))


class TestAssembly:
    def test_elasticity_matches_loop_assembly(self, params, solution):
        grid = Grid2D(4)
        sys = assemble_biot(grid, solution)
        mask = grid.interior_mask()
        umask = np.concatenate([mask, mask])
        expected = _loop_elasticity(grid, params.lam, params.mu)
        _assert_close(sys.elasticity.toarray(), expected[umask][:, umask])

    def test_coupling_matches_loop_assembly(self, params, solution):
        grid = Grid2D(4)
        sys = assemble_biot(grid, solution)
        mask = grid.interior_mask()
        umask = np.concatenate([mask, mask])
        expected = _loop_coupling(grid, params.alpha)
        _assert_close(sys.coupling.toarray(), expected[mask][:, umask])

    @pytest.mark.parametrize("t", [0.0, 0.37, 1.3, 2.0, 5.0])
    def test_loads_match_loop_mid_edge_rule(self, params, solution, t):
        grid = Grid2D(4)
        sys = assemble_biot(grid, solution)
        mask = grid.interior_mask()
        f_t, g_t = _sources_at(solution, t)
        _assert_close(sys.load_p(t), _loop_load(grid, g_t)[mask])
        f = _loop_load(grid, f_t)[mask]
        _assert_close(sys.load_u(t), np.concatenate([f[:, 0], f[:, 1]]))

    @pytest.mark.parametrize("t0, t", [(1.0, 0.37), (1.0, 4.0), (2.5, 2.0)])
    def test_time_shifted_loads_match_loop_mid_edge_rule(self, params,
                                                         solution, t0, t):
        grid = Grid2D(4)
        sys = system.time_shifted(assemble_biot(grid, solution), t0)
        mask = grid.interior_mask()
        f_t, g_t = _sources_at(solution, t0 + t)
        _assert_close(sys.load_p(t), _loop_load(grid, g_t)[mask])
        f = _loop_load(grid, f_t)[mask]
        _assert_close(sys.load_u(t), np.concatenate([f[:, 0], f[:, 1]]))

    def test_constants_come_from_the_solution(self):
        grid = Grid2D(4)
        sys = assemble_biot(grid, manufactured(BiotParameters(alpha=0.5)))
        assert sys.coupling_constant == 0.25 / 0.625
        mask = grid.interior_mask()
        umask = np.concatenate([mask, mask])
        _assert_close(sys.coupling.toarray(),
                      _loop_coupling(grid, 0.5)[mask][:, umask])

    @pytest.mark.parametrize("t", [0.37, 1.0, 2.0])
    def test_exact_fields_decay_from_their_initial_vectors(self, t):
        sys = manufactured_system(4)
        decay = math.exp(-t / 5)
        assert np.array_equal(sys.exact_p(t), decay * sys.exact_p(0.0))
        assert np.array_equal(sys.exact_u(t), decay * sys.exact_u(0.0))

    def test_initial_vectors_keep_their_bits(self):
        # every Biot run starts from these four vectors, so a change of the
        # problem description that moves a bit of them moves every run
        sys = manufactured_system(4)
        vectors = {"f0": sys.load_u(0.0), "g0": sys.load_p(0.0),
                   "p0": sys.p0, "u0": sys.u0}
        digests = {name: hashlib.sha256(np.ascontiguousarray(
            v, dtype="<f8").tobytes()).hexdigest()[:16]
            for name, v in vectors.items()}
        assert digests == {"f0": "263bf3bbd0fedafd", "g0": "03e90d2b1865c247",
                           "p0": "9463c7731f123f4e", "u0": "8df5c6944a63d83d"}

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_constants_bracket_sharp_discrete_values(self, solution, n):
        sys = assemble_biot(Grid2D(n), solution)
        sharp = exact_discrete_constants(sys)
        slack = 1e-12
        for name in ("elastic_coercivity", "flow_coercivity",
                     "storage_coercivity"):
            assert getattr(sys, name) <= sharp[name] * (1 + slack), name
        assert sys.coupling_constant >= sharp["coupling_constant"]

    def test_storage_matches_loop_assembled_mass(self, params, solution):
        grid = Grid2D(4)
        sys = assemble_biot(grid, solution)
        mask = grid.interior_mask()
        expected = params.inv_m * _loop_mass_matrix(grid)[mask][:, mask]
        np.testing.assert_allclose(sys.storage.toarray(), expected,
                                   rtol=1e-13, atol=1e-16)

    def test_blocks_symmetric(self, solution):
        sys = assemble_biot(Grid2D(6), solution)
        for name in ("elasticity", "flow_stiffness", "storage", "norm_u",
                     "norm_p_grad", "norm_p"):
            m = getattr(sys, name).toarray()
            scale = np.abs(m).max()
            assert np.abs(m - m.T).max() <= 1e-12 * scale, name

    def test_zero_alpha_decouples(self):
        prm = BiotParameters(alpha=1e-12)
        sys = assemble_biot(Grid2D(4), manufactured(prm))
        assert np.abs(sys.coupling.toarray()).max() <= 1e-12

    def test_rigid_translation_has_no_elastic_response(self, solution):
        # constant displacement on an interior patch: rows of A at nodes whose
        # whole support sees the constant field must vanish
        n = 8
        grid = Grid2D(n)
        sys = assemble_biot(grid, solution)
        mapping = grid.interior_map()
        x, y = grid.nodes()
        ni = grid.interior_count
        u = np.zeros(2 * ni)
        patch = (x >= 2 / n - 1e-12) & (x <= 6 / n + 1e-12) & \
                (y >= 2 / n - 1e-12) & (y <= 6 / n + 1e-12)
        for idx in np.where(patch)[0]:
            u[mapping[idx]] = 1.0
            u[mapping[idx] + ni] = 1.0
        out = sys.elasticity @ u
        deep = (x >= 3 / n - 1e-12) & (x <= 5 / n + 1e-12) & \
               (y >= 3 / n - 1e-12) & (y <= 5 / n + 1e-12)
        for idx in np.where(deep)[0]:
            assert abs(out[mapping[idx]]) <= 1e-12
            assert abs(out[mapping[idx] + ni]) <= 1e-12

    def test_consistent_initial_data(self):
        sys = manufactured_system(8)
        r_u = (sys.elasticity @ sys.u0 - sys.coupling.T @ sys.p0
               - sys.load_u(0.0))
        scale = max(np.abs(sys.load_u(0.0)).max(), 1.0)
        assert np.abs(r_u).max() <= 1e-10 * scale


class TestStationarySolve:
    def test_spatial_order_of_elliptic_solve(self, solution):
        # A u_h = D^T (I_h p(0)) + F_u(0) should track the interpolated
        # displacement at first order in the energy norm
        errs = []
        for n in (8, 16, 32):
            grid = Grid2D(n)
            sys = assemble_biot(grid, solution)
            u_h = factorize(sys.elasticity).solve(
                sys.coupling.T @ sys.p0 + sys.load_u(0.0))
            diff = u_h - interpolate(grid, solution.u)
            errs.append(math.sqrt(weighted_norm_sq(sys.norm_u, diff)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 0.9


class TestSemidiscreteReference:
    def test_closed_form_solves_discrete_system(self):
        sys = manufactured_system(8)
        h = 1e-6
        for t in (0.1, 0.6):
            du = (sys.semidiscrete_u(t + h) - sys.semidiscrete_u(t - h)) / (2 * h)
            dp = (sys.semidiscrete_p(t + h) - sys.semidiscrete_p(t - h)) / (2 * h)
            r_u, r_p = residual_coupled(sys, sys.semidiscrete_u(t),
                                        sys.semidiscrete_p(t), du, dp, t)
            assert np.abs(r_u).max() <= 1e-9
            assert np.abs(r_p).max() <= 1e-7

    def test_matches_interpolated_initial_data(self):
        sys = manufactured_system(8)
        np.testing.assert_allclose(sys.semidiscrete_p(0.0), sys.p0,
                                   atol=1e-12)


@pytest.fixture
def eigh_calls(monkeypatch):
    """Calls of ``scipy.linalg.eigh`` as :mod:`porosplit.system` sees it."""
    calls = []
    eigh = scipy.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(system.scipy.linalg, "eigh", counting)
    return calls


class TestLazyOracle:
    def test_split_run_never_builds_the_oracle(self, eigh_calls):
        sys = manufactured_system(8)
        traj = integrate(sys, SplitConfig(tol=2.0 ** -14, gamma_target=0.4),
                         scheme(2), 2.0 ** -3, 1.0, mode="split")
        assert len(traj.reports) == 7
        assert eigh_calls == []

    def test_evaluators_share_one_build(self, eigh_calls):
        sys = manufactured_system(8)
        for t in (0.0, 0.25, 1.0):
            sys.semidiscrete_p(t)
            sys.semidiscrete_u(t)
        sys.semidiscrete_u(2.0)
        assert eigh_calls == [(sys.dim_p, sys.dim_p)]

    def test_construction_only_validates(self, monkeypatch):
        sys = assemble_biot(Grid2D(6), manufactured(BiotParameters()))

        def forbidden(*args, **kwargs):
            raise AssertionError("oracle construction did heavy work")

        for name in ("factorize", "as_array"):
            monkeypatch.setattr(system, name, forbidden)
        monkeypatch.setattr(system.scipy.linalg, "eigh", forbidden)
        semidiscrete_solution(sys, ("exp", 0.2))

    def test_rejects_nonsymmetric_flow_before_factorizing(self, monkeypatch):
        sys = assemble_biot(Grid2D(4), manufactured(BiotParameters()))
        skew = scipy.sparse.csr_matrix(([1e-3], ([0], [1])),
                                       shape=sys.flow_stiffness.shape)
        bad = replace(sys, flow_stiffness=sys.flow_stiffness + skew)
        monkeypatch.setattr(system, "factorize", None)
        with pytest.raises(InvalidParameter, match="symmetric flow"):
            semidiscrete_solution(bad, ("exp", 0.2))

    def test_rejects_an_unknown_source_shape(self, monkeypatch):
        sys = assemble_biot(Grid2D(4), manufactured(BiotParameters()))
        monkeypatch.setattr(system, "factorize", None)
        with pytest.raises(InvalidParameter, match="unknown source shape"):
            semidiscrete_solution(sys, ("cos", 1.0))
