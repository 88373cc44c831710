import tracemalloc

import numpy as np
import pytest

from porosplit import stability
from porosplit.bdf import UnsupportedOrder
from porosplit.stability import (GStabilityData, criterion_min,
                                 find_multiplier, g_stability_data,
                                 identity_residual, verify_identity)
from verification import boundary_criterion_min, scanned_multiplier

# (multiplier, min_real_part) of the k = 3, 4, 5 certificates, bit for bit
CERTIFICATES = {
    3: ("0x1.566cf41f212d8p-4", "-0x1.175a9f57f0cdap-54"),
    4: ("0x1.26cf41f212d77p-2", "0x1.6780049a02844p-52"),
    5: ("0x1.a1cac083126eap-1", "-0x1.b2c8590b21646p-50"),
}


def hexed(cert):
    return (cert.multiplier.hex(), cert.min_real_part.hex())


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

    @pytest.mark.parametrize("samples", [2000.5, 2000.0, True, "2000"])
    def test_samples_must_be_an_integer(self, samples):
        # 2000.5 would sample 2001 points that are not equispaced
        with pytest.raises(ValueError, match="samples"):
            criterion_min(1, 0.0, samples=samples)

    def test_numpy_integer_samples_pass(self):
        assert criterion_min(1, 0.0, samples=np.int64(2000)) == \
            criterion_min(1, 0.0, samples=2000)

    @pytest.mark.parametrize("eta", [False, np.False_, -0.1, 1.0])
    def test_eta_must_be_a_number_in_the_unit_interval(self, eta):
        with pytest.raises(ValueError, match="eta"):
            criterion_min(3, eta, samples=2000)

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

    @pytest.mark.parametrize("k", [1, 2])
    def test_a_stable_orders_are_certified_by_one_evaluation(
            self, k, fresh_search, counted_search):
        # the closed form's lower end is 0: eta = 0 needs no grid neighbour
        _, calls = counted_search
        cert = find_multiplier(k)
        assert calls == [0.0]
        assert cert.multiplier == 0.0
        assert cert.min_real_part.hex() == criterion_min(k, 0.0).hex()

    @pytest.mark.parametrize("search", [find_multiplier])
    @pytest.mark.parametrize("k", [6, 0, True, 3.0])
    def test_rejects_orders_outside_the_bdf_range(self, search, k):
        with pytest.raises(UnsupportedOrder, match="1..5"):
            search(k)

    def test_a_float_order_is_rejected_after_a_numpy_integer_one(self):
        assert find_multiplier(np.int64(3)) == find_multiplier(3)
        with pytest.raises(UnsupportedOrder):
            find_multiplier(3.0)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_certificate_bits(self, k):
        assert hexed(find_multiplier(k)) == CERTIFICATES[k]

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_feasible_multipliers_form_one_interval(self, k, monkeypatch):
        # the search reads the boundary off the closed form and checks only
        # its two neighbours; the 1e-4 grid within 0.01 of it must agree
        key = (k, stability._SEARCH_SAMPLES)
        monkeypatch.setitem(stability._held_circle, key,
                            stability._sampled_circle(*key))
        i = round(find_multiplier(k).multiplier / 1e-4)
        feasible = [criterion_min(k, j * 1e-4) >= -1e-12
                    for j in range(i - 100, i + 101)]
        assert feasible == [False] * 100 + [True] * 101


@pytest.fixture
def fresh_search():
    """find_multiplier without its memo, restored afterwards."""
    find_multiplier.cache_clear()
    yield
    find_multiplier.cache_clear()


@pytest.fixture
def counted_search(monkeypatch):
    """(orders sampled, etas evaluated) while the test runs."""
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
    return samplings, calls


class TestSampledOncePerSearch:
    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("eta", [0.0, 0.0836, 0.2879, 0.5, 0.816, 0.99])
    def test_criterion_is_bit_identical_to_a_fresh_sampling(self, k, eta):
        assert criterion_min(k, eta) == boundary_criterion_min(k, eta)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_search_matches_a_search_on_the_fresh_sampling(
            self, k, fresh_search, monkeypatch):
        # both equal the two-level scan of the grid, bit for bit
        assert hexed(find_multiplier(k)) == hexed(scanned_multiplier(k))
        find_multiplier.cache_clear()
        monkeypatch.setattr(stability, "criterion_min",
                            lambda k_, eta: boundary_criterion_min(k_, eta))
        assert hexed(find_multiplier(k)) == hexed(scanned_multiplier(k))

    def test_one_sampling_per_search_and_none_kept(self, fresh_search,
                                                   counted_search):
        samplings, calls = counted_search
        for k in (3, 4, 5):
            del samplings[:], calls[:]
            eta = find_multiplier(k).multiplier
            assert samplings == [k]
            # feasible at eta, infeasible one grid step below
            assert calls == [eta, (round(eta / 1e-4) - 1) * 1e-4]
            assert stability._held_circle == {}

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("offset, evaluations", [(-1, 2), (1, 3)])
    def test_a_boundary_one_step_off_is_corrected(
            self, k, offset, evaluations, fresh_search, counted_search,
            monkeypatch):
        lower_end = stability._lower_end
        monkeypatch.setattr(stability, "_lower_end",
                            lambda *a: lower_end(*a) + offset * 1e-4)
        assert hexed(find_multiplier(k)) == CERTIFICATES[k]
        assert len(counted_search[1]) == evaluations

    @pytest.mark.parametrize("offset", [-2, 2])
    def test_a_boundary_two_steps_off_is_not_certified(
            self, offset, fresh_search, counted_search, monkeypatch):
        lower_end = stability._lower_end
        monkeypatch.setattr(stability, "_lower_end",
                            lambda *a: lower_end(*a) + offset * 1e-4)
        with pytest.raises(stability.NotFound):
            find_multiplier(3)
        assert len(counted_search[1]) <= 3
        assert stability._held_circle == {}

    def test_search_releases_the_samples(self, fresh_search):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            find_multiplier(3)
            kept, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        # zeta and xi(zeta) take 3.2 MB at 100 000 samples; sampling them
        # peaks at 7.2 MB, and the closed form adds less than that
        assert kept < 100_000
        assert peak <= 7_300_000

    def test_a_failed_search_releases_the_samples(self, fresh_search,
                                                  counted_search,
                                                  monkeypatch):
        monkeypatch.setattr(stability, "_FEASIBLE_FLOOR", 1.0)
        with pytest.raises(stability.NotFound):
            find_multiplier(3)
        assert len(counted_search[1]) <= 3
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

    @pytest.mark.parametrize("trials, dim, name", [
        (100.0, 4, "trials"), (True, 4, "trials"), (100, 2.5, "dim"),
        (100, True, "dim"), (100, 0, "dim"),
    ])
    def test_counts_must_be_integers(self, trials, dim, name):
        with pytest.raises(ValueError, match=name):
            verify_identity(g_stability_data(1), trials=trials, dim=dim)

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
