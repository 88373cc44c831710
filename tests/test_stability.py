import tracemalloc

import numpy as np
import pytest

from porosplit import stability
from porosplit.stability import (GStabilityData, criterion_min,
                                 find_multiplier, g_stability_data,
                                 identity_residual, verify_identity)
from verification import boundary_criterion_min


class TestCriterion:
    def test_a_stable_orders_pass_with_zero_multiplier(self):
        assert criterion_min(1, 0.0, samples=2000) >= -1e-14
        assert criterion_min(2, 0.0, samples=2000) >= -1e-14

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_higher_orders_need_a_multiplier(self, k):
        assert criterion_min(k, 0.0, samples=2000) < 0.0

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            criterion_min(1, 0.0, samples=10)

    def test_monotone_near_feasibility_boundary(self):
        # spot-check on the search grid around the k=3 boundary
        etas = [0.07 + 0.002 * i for i in range(10)]
        vals = [criterion_min(3, e, samples=20000) for e in etas]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-13


class TestFindMultiplier:
    @pytest.mark.parametrize("k,expected", [(3, 0.0836), (4, 0.2878),
                                            (5, 0.8160)])
    def test_search_values(self, k, expected):
        cert = find_multiplier(k)
        assert cert.valid
        assert cert.multiplier == pytest.approx(expected, abs=1e-3)
        assert cert.multiplier < 1.0
        assert cert.sample_count == 100_000

    def test_rejects_low_orders(self):
        with pytest.raises(ValueError):
            find_multiplier(2)


@pytest.fixture
def fresh_search():
    """find_multiplier without its memo, restored afterwards."""
    find_multiplier.cache_clear()
    yield
    find_multiplier.cache_clear()


class TestSampledOncePerSearch:
    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("eta", [0.0, 0.0836, 0.2879, 0.5, 0.816, 0.99])
    def test_criterion_is_bit_identical_to_a_fresh_sampling(self, k, eta):
        assert criterion_min(k, eta) == boundary_criterion_min(k, eta)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_search_matches_a_search_on_the_fresh_sampling(
            self, k, fresh_search, monkeypatch):
        cert = find_multiplier(k)
        find_multiplier.cache_clear()
        monkeypatch.setattr(stability, "criterion_min",
                            lambda k_, eta: boundary_criterion_min(k_, eta))
        ref = find_multiplier(k)
        assert (cert.multiplier, cert.min_real_part) == \
            (ref.multiplier, ref.min_real_part)

    def test_one_sampling_per_search_and_none_kept(self, fresh_search,
                                                   monkeypatch):
        samplings = []
        calls = []
        coefficients, criterion = stability.coefficients, stability.criterion_min

        def counting_coefficients(k):
            samplings.append(k)
            return coefficients(k)

        def counting_criterion(k, eta):
            calls.append(eta)
            return criterion(k, eta)

        monkeypatch.setattr(stability, "coefficients", counting_coefficients)
        monkeypatch.setattr(stability, "criterion_min", counting_criterion)
        find_multiplier(3)
        assert samplings == [3]
        assert len(calls) == 47
        assert stability._held_circle == {}

    def test_search_releases_the_samples(self, fresh_search):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            find_multiplier(3)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # zeta and xi(zeta) take 3.2 MB at 100 000 samples
        assert kept < 100_000

    def test_a_failed_search_releases_the_samples(self, fresh_search,
                                                  monkeypatch):
        monkeypatch.setattr(stability, "_FEASIBLE_FLOOR", 1.0)
        with pytest.raises(stability.NotFound):
            find_multiplier(3)
        assert stability._held_circle == {}


class TestGData:
    def test_paper_matrices(self):
        d1 = g_stability_data(1)
        np.testing.assert_allclose(d1.g_matrix, [[0.5]])
        d2 = g_stability_data(2)
        np.testing.assert_allclose(d2.g_matrix,
                                   [[1.25, -0.5], [-0.5, 0.25]])
        assert d1.multiplier == d2.multiplier == 0.0

    def test_spd_validation(self):
        with pytest.raises(ValueError):
            GStabilityData(order=1, g_matrix=np.array([[-1.0]]),
                           gamma_vec=np.array([1.0, 0.0]), multiplier=0.0)


class TestIdentity:
    def test_order1_identity_with_m_identity(self):
        data = g_stability_data(1)
        resid, scale = identity_residual(data, np.eye(4),
                                         [np.ones(4), 2.0 * np.ones(4)])
        assert resid <= 1e-12 * scale

    @pytest.mark.parametrize("k", [1, 2])
    def test_randomized(self, k):
        worst = verify_identity(g_stability_data(k), trials=200, dim=10)
        assert worst <= 1e-10

    def test_wrong_sign_combination_breaks_order2(self):
        data = g_stability_data(2)
        bad = GStabilityData(order=2, g_matrix=data.g_matrix,
                             gamma_vec=np.array([0.5, 1.0, 0.5]),
                             multiplier=0.0)
        assert verify_identity(bad, trials=100, dim=6) > 1e-3

    def test_zero_sequence(self):
        data = g_stability_data(2)
        resid, _ = identity_residual(data, np.eye(3), [np.zeros(3)] * 3)
        assert resid == 0.0

    @pytest.mark.parametrize("tau", [1e-3, 1.0, 1e3])
    def test_tau_independence(self, tau):
        worst = verify_identity(g_stability_data(2), trials=100, dim=6,
                                tau=tau)
        assert worst <= 1e-10

    def test_scaling_invariance_of_relative_residual(self):
        data = g_stability_data(2)
        rng = np.random.default_rng(4)
        m = np.eye(5)
        ys = [rng.normal(size=5) for _ in range(3)]
        r1, s1 = identity_residual(data, m, ys)
        r2, s2 = identity_residual(data, m, [1e3 * y for y in ys])
        # both sides scale by c^2, so the relative residual is unchanged
        assert s2 == pytest.approx(1e6 * s1, rel=1e-12)
        assert r2 / s2 == pytest.approx(r1 / s1, abs=1e-12)
