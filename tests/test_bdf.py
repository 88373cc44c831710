import math
from fractions import Fraction

import numpy as np
import pytest

from porosplit import bdf
from porosplit.bdf import (BdfScheme, History, IncompleteHistory,
                           UnsupportedOrder, coefficients, exact_coefficients,
                           history_sum, scheme)
from porosplit.linalg import DimensionMismatch
from verification import derivative_defect, discrete_derivative

TABLE = {
    1: (Fraction(1), Fraction(-1)),
    2: (Fraction(3, 2), Fraction(-2), Fraction(1, 2)),
    3: (Fraction(11, 6), Fraction(-3), Fraction(3, 2), Fraction(-1, 3)),
    4: (Fraction(25, 12), Fraction(-4), Fraction(3), Fraction(-4, 3),
        Fraction(1, 4)),
    5: (Fraction(137, 60), Fraction(-5), Fraction(5), Fraction(-10, 3),
        Fraction(5, 4), Fraction(-1, 5)),
}


def expansion_oracle(k):
    """Independent expansion of sum_{l<=k} (1-s)^l / l via polynomial products."""
    poly = [Fraction(0)] * (k + 1)
    for ell in range(1, k + 1):
        term = [Fraction(1)]
        for _ in range(ell):
            # multiply by (1 - s)
            term = [a - (term[i - 1] if i > 0 else 0)
                    for i, a in enumerate(term + [Fraction(0)])]
        for i, c in enumerate(term):
            poly[i] += c / ell
    return tuple(poly)


class TestCoefficients:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_rational_equality_with_table(self, k):
        assert exact_coefficients(k) == TABLE[k]

    @pytest.mark.parametrize("k", range(1, 6))
    def test_matches_independent_expansion(self, k):
        assert expansion_oracle(k) == exact_coefficients(k)
        for a, b in zip(coefficients(k), expansion_oracle(k)):
            assert abs(a - float(b)) <= 1e-14

    @pytest.mark.parametrize("k", range(1, 6))
    def test_consistency_sums(self, k):
        exact = exact_coefficients(k)
        assert sum(exact) == 0
        assert sum(ell * c for ell, c in enumerate(exact)) == -1

    @pytest.mark.parametrize("k", [0, 6, -1, True, np.True_, 1.0])
    def test_unsupported_orders(self, k):
        with pytest.raises(UnsupportedOrder):
            coefficients(k)

    def test_examples_from_table(self):
        assert coefficients(1) == (1.0, -1.0)
        assert coefficients(2) == (1.5, -2.0, 0.5)
        assert coefficients(5) == (137.0 / 60.0, -5.0, 5.0, -10.0 / 3.0,
                                   1.25, -0.2)


class TestScheme:
    def test_low_orders_have_zero_multiplier(self):
        assert scheme(1).multiplier == 0.0
        assert scheme(2).multiplier == 0.0

    def test_high_orders_cache_search_result(self):
        s3 = scheme(3)
        assert 0.0 < s3.multiplier < 1.0
        assert scheme(3) is s3

    @pytest.mark.parametrize("cached", [1, np.int64(1)])
    def test_a_boolean_order_is_rejected_after_an_integer_one(self, cached):
        # True hashes like 1, so a cache keyed on the value alone would
        # hand it the BDF-1 scheme
        assert scheme(cached).order == 1
        assert exact_coefficients(cached) == TABLE[1]
        with pytest.raises(UnsupportedOrder, match="True"):
            scheme(True)
        with pytest.raises(UnsupportedOrder, match="True"):
            exact_coefficients(True)

    def test_numpy_integer_orders_pass(self):
        assert scheme(np.int64(3)) == scheme(3)

    def test_invalid_construction(self):
        with pytest.raises(UnsupportedOrder):
            BdfScheme(order=2, coeffs=(1.0, -1.0), multiplier=0.0)


class TestHistory:
    def test_newest_first_ordering(self):
        h = History(2)
        h.push(np.array([1.0]))
        h.push(np.array([2.0]))
        assert [v[0] for v in h.items()] == [2.0, 1.0]
        h.push(np.array([3.0]))
        assert [v[0] for v in h.items()] == [3.0, 2.0]

    def test_shape_guard(self):
        h = History(2, [np.zeros(2)])
        with pytest.raises(DimensionMismatch):
            h.push(np.zeros(3))


class TestHistorySum:
    def test_hand_value_order3(self):
        # newest-first y^{n-1}, y^{n-2}, y^{n-3} = 1, 2, 4
        hist = History(3, [np.array([4.0]), np.array([2.0]), np.array([1.0])])
        out = history_sum(scheme(3), hist)
        np.testing.assert_allclose(out, [-3.0 * 1.0 + 1.5 * 2.0 - 4.0 / 3.0],
                                   rtol=1e-15)

    def test_incomplete_history(self):
        with pytest.raises(IncompleteHistory):
            history_sum(scheme(2), History(2, [np.ones(1)]))

    def test_derivative_splits_into_leading_and_history_parts(self):
        rng = np.random.default_rng(1)
        sch = scheme(2)
        ys = [rng.normal(size=3) for _ in range(3)]   # y^n, y^{n-1}, y^{n-2}
        hist = History(2, ys[:0:-1])
        out = discrete_derivative(sch, 0.5, ys[0], hist)
        np.testing.assert_array_equal(
            out, (sch.leading * ys[0] + history_sum(sch, hist)) / 0.5)


class TestDiscreteDerivative:
    def test_forward_difference(self):
        out = discrete_derivative(scheme(1), 1.0, np.array([2.0]),
                                  History(1, [np.array([1.0])]))
        np.testing.assert_allclose(out, [1.0])

    def test_constants_annihilated(self):
        c = 3.7 * np.ones(4)
        for k in range(1, 6):
            hist = History(k, [c] * k)
            out = discrete_derivative(scheme(k), 0.5, c, hist)
            assert np.abs(out).max() <= 1e-13

    def test_hand_value_order2(self):
        hist = History(2, [np.array([0.0]), np.array([1.0])])  # y^{n-2}, y^{n-1}
        out = discrete_derivative(scheme(2), 1.0, np.array([4.0]), hist)
        np.testing.assert_allclose(out, [1.5 * 4.0 - 2.0 * 1.0 + 0.5 * 0.0])

    def test_incomplete_history(self):
        with pytest.raises(IncompleteHistory):
            discrete_derivative(scheme(2), 1.0, np.ones(1),
                                History(2, [np.ones(1)]))

    def test_linearity(self):
        rng = np.random.default_rng(0)
        k = 3
        sch = scheme(k)
        ys = [rng.normal(size=5) for _ in range(k)]
        zs = [rng.normal(size=5) for _ in range(k)]
        yn, zn = rng.normal(size=5), rng.normal(size=5)
        lhs = discrete_derivative(sch, 0.25, yn + zn,
                                  History(k, [y + z for y, z in
                                              zip(ys, zs)][::-1]))
        rhs = (discrete_derivative(sch, 0.25, yn, History(k, ys[::-1]))
               + discrete_derivative(sch, 0.25, zn, History(k, zs[::-1])))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestDerivativeDefect:
    def test_polynomial_exactness(self):
        for tau in (0.1, 0.37):
            d = derivative_defect(scheme(2), tau, lambda t: t * t,
                                  lambda t: 2 * t, t=1.3)
            assert d <= 1e-10

    def test_constant_exact(self):
        for k in (1, 2):
            assert derivative_defect(scheme(k), 0.2, lambda t: 4.0,
                                     lambda t: 0.0, t=0.9) == 0.0
        for k in (3, 4, 5):
            assert derivative_defect(scheme(k), 0.2, lambda t: 4.0,
                                     lambda t: 0.0, t=0.9) <= 1e-12

    def test_first_order_richardson_ratio(self):
        sch = scheme(1)
        defects = [derivative_defect(sch, tau, math.exp, math.exp, t=0.0)
                   for tau in (1e-2, 5e-3, 2.5e-3)]
        for a, b in zip(defects, defects[1:]):
            assert a / b == pytest.approx(2.0, rel=0.05)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_observed_order_on_sine(self, k):
        # base step large enough that the k=5 defects stay above round-off
        sch = scheme(k)
        taus = [0.2 / 2 ** i for i in range(5)]
        defects = [derivative_defect(sch, tau, math.sin, math.cos, t=1.0)
                   for tau in taus]
        slope = np.polyfit(np.log(taus), np.log(defects), 1)[0]
        assert slope == pytest.approx(k, abs=0.15)
