"""Transform tests: branch values, inversion, bounds, two-argument form."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compsum.transform import (
    gamma_tau,
    gamma_tau_rows,
    gamma_tilde,
    psi_tau,
    t_tau,
    t_tau_max,
    t_tau_rows,
    t_tilde,
)

TAU_GRID = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0]


class TestTransformValues:
    def test_zero_at_zero(self):
        for tau in TAU_GRID:
            assert t_tau(0.0, tau, 7) == pytest.approx(0.0, abs=1e-15)

    def test_log_branch_endpoint(self):
        # the 0*log(0) convention makes the beta = 1 limit equal log 2
        assert t_tau(1.0, 1.0, 3) == pytest.approx(math.log(2), abs=1e-15)

    def test_linear_branch(self):
        assert t_tau(0.5, 2.0, 10) == pytest.approx(0.05, abs=1e-15)
        # continuity cross-check from the curved side of the switch
        assert t_tau(0.5, 2.0 - 1e-7, 10) == pytest.approx(0.05, abs=1e-5)

    def test_matches_binary_sqrt_form_at_tau_zero(self):
        # the tau = 0 member collapses to 1 - sqrt(1 - beta^2)
        for beta in np.linspace(0.0, 1.0, 21):
            assert t_tau(beta, 0.0, 5) == pytest.approx(
                1.0 - math.sqrt(1.0 - beta * beta), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            t_tau(-0.01, 1.0, 3)
        with pytest.raises(ValueError):
            t_tau(1.01, 1.0, 3)
        with pytest.raises(ValueError):
            t_tau(0.5, 1.0, 1)

    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_monotone_convex(self, tau):
        betas = np.linspace(0.0, 1.0, 101)
        vals = np.array([t_tau(b, tau, 5) for b in betas])
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(np.diff(vals, 2) >= -1e-10)

    def test_continuity_in_tau(self):
        for beta in np.linspace(0.05, 0.95, 10):
            for t0 in (1.0, 2.0):
                base = t_tau(beta, t0, 5)
                for eps in (1e-7, -1e-7):
                    assert t_tau(beta, t0 + eps, 5) == pytest.approx(
                        base, abs=1e-5)

    def test_nearly_saturated_exponent(self):
        # the tau -> 2 side runs through exponents ~1e9; must stay finite
        v = t_tau(0.9, 2.0 - 1e-9, 4)
        assert math.isfinite(v)
        assert v == pytest.approx(t_tau(0.9, 2.0, 4), abs=1e-7)


class TestInverse:
    def test_zero(self):
        for tau in TAU_GRID:
            assert gamma_tau(0.0, tau, 5) == 0.0

    def test_linear_branch_closed_inverse(self):
        assert gamma_tau(0.05, 2.0, 10) == pytest.approx(0.5, abs=1e-15)

    @given(st.floats(0.0, 1.0), st.sampled_from(TAU_GRID),
           st.sampled_from([2, 3, 5, 10]))
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, beta, tau, n):
        t = t_tau(beta, tau, n)
        assert gamma_tau(t, tau, n) == pytest.approx(beta, abs=1e-9)

    def test_range_error_reports_maximum(self):
        tmax = t_tau_max(1.0, 4)
        with pytest.raises(ValueError, match="attainable maximum"):
            gamma_tau(tmax * 1.5, 1.0, 4)
        with pytest.raises(ValueError):
            gamma_tau(-1e-9, 1.0, 4)


class TestPolynomialBounds:
    def test_values(self):
        assert t_tilde(1.0, 1.0, 7) == pytest.approx(0.5)
        assert t_tilde(0.0, 0.3, 7) == 0.0
        # beta^2 / (2^0 * (2 - 0)) at beta = 0.4
        assert t_tilde(0.4, 0.0, 3) == pytest.approx(0.08)
        assert gamma_tilde(0.0, 0.5, 3) == 0.0
        assert gamma_tilde(0.02, 2.0, 10) == pytest.approx(0.2)

    @pytest.mark.parametrize("tau", TAU_GRID)
    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_sandwich(self, tau, n):
        for beta in np.linspace(0.0, 1.0, 41):
            tt = t_tilde(beta, tau, n)
            tv = t_tau(beta, tau, n)
            assert tt <= tv + 1e-12
        for t in np.linspace(0.0, t_tau_max(tau, n), 25):
            assert gamma_tau(t, tau, n) <= gamma_tilde(t, tau, n) + 1e-9

    def test_logistic_sqrt_bound(self):
        # the tau = 1 inverse is bounded by sqrt(2 t)
        for t in np.linspace(0.0, math.log(2), 30):
            assert gamma_tau(t, 1.0, 6) <= math.sqrt(2 * t) + 1e-9
            assert gamma_tilde(t, 1.0, 6) == pytest.approx(math.sqrt(2 * t))

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, 1.5, 1.9])
    def test_tightest_order_ratio_stabilizes(self, tau):
        # the lower bound has the right polynomial order: the ratio to the
        # transform converges to a positive constant as beta -> 0
        ratios = [t_tilde(b, tau, 5) / t_tau(b, tau, 5)
                  for b in (1e-2, 1e-3, 1e-4)]
        assert all(r > 0 for r in ratios)
        assert max(ratios) / min(ratios) < 1.05


class TestTwoArgument:
    def test_reduces_to_transform_at_alpha_one(self):
        for tau in TAU_GRID:
            for beta in np.linspace(0.0, 1.0, 11):
                assert psi_tau(1.0, beta, tau, 4) == pytest.approx(
                    t_tau(beta, tau, 4), abs=1e-12)

    def test_zero_beta_log_branch(self):
        assert psi_tau(0.7, 0.0, 1.0, 3) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            psi_tau(0.3, 0.4, 1.0, 3)

    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_lower_bounded_by_transform(self, tau):
        rng = np.random.default_rng(9)
        for _ in range(50):
            beta = rng.uniform(0.0, 1.0)
            alpha = rng.uniform(beta, 1.0)
            assert psi_tau(alpha, beta, tau, 5) >= \
                t_tau(beta, tau, 5) - 1e-10

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
    def test_minimum_over_alpha_at_one(self, tau):
        # attained at alpha = 1 (the tau >= 2 branch is constant in alpha)
        for beta in (0.1, 0.4, 0.8):
            alphas = np.linspace(beta, 1.0, 40)
            vals = [psi_tau(a, beta, tau, 5) for a in alphas]
            assert vals[-1] <= min(vals) + 1e-12


class TestRowForms:
    @staticmethod
    def _rows(seed=4, count=400):
        rng = np.random.default_rng(seed)
        tau = rng.choice(TAU_GRID + [1.0 - 1e-10, 1.0 + 1e-10, 2.0 - 1e-10,
                                     2.0 + 1e-10], count)
        n = rng.choice([2, 3, 5, 10], count)
        beta = rng.uniform(0.0, 1.0, count) ** rng.choice([1, 4, 12], count)
        beta[:3] = (0.0, 1.0, 3e-6)
        return beta, tau, n

    def test_t_tau_rows_equal_one_call_per_row(self):
        beta, tau, n = self._rows()
        rows = t_tau_rows(beta, tau, n)
        assert rows.tolist() == [t_tau(*args) for args in zip(beta, tau, n)]

    def test_gamma_tau_rows_equal_one_call_per_row_bit_for_bit(self):
        beta, tau, n = self._rows()
        t = t_tau_rows(beta, tau, n)
        rows = gamma_tau_rows(t, tau, n)
        assert rows.tolist() == [gamma_tau(*args) for args in zip(t, tau, n)]

    @pytest.mark.parametrize("tau", [1.0 - 1e-10, 1.0 + 1e-10,
                                     2.0 - 1e-10, 2.0 + 1e-10])
    def test_round_trip_beside_the_branch_switches(self, tau):
        betas = np.concatenate([np.linspace(0.0, 1.0, 41),
                                [1e-9, 3e-7, 2e-6, 9.9e-6, 1.1e-5]])
        for n in (2, 5):
            t = t_tau_rows(betas, tau, n)
            assert np.abs(gamma_tau_rows(t, tau, n) - betas).max() <= 1e-9

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, 1.5, 1.9])
    def test_round_trip_at_small_beta(self, tau):
        betas = np.geomspace(1e-12, 9.9e-6, 25)
        t = t_tau_rows(betas, tau, 3)
        assert np.abs(gamma_tau_rows(t, tau, 3) - betas).max() <= 1e-9

    def test_rows_check_each_argument(self):
        with pytest.raises(ValueError, match="^beta"):
            t_tau_rows([0.5, 1.5], 1.0, 3)
        with pytest.raises(ValueError, match="^tau"):
            t_tau_rows([0.5, 0.5], [1.0, math.nan], 3)
        with pytest.raises(ValueError, match="^t must be nonnegative"):
            gamma_tau_rows([0.1, -1e-9], 1.0, 3)
        with pytest.raises(ValueError, match="attainable maximum"):
            gamma_tau_rows([0.1, 1.0], 1.0, 3)
        assert gamma_tau_rows([], 1.0, 3).shape == (0,)

    @pytest.mark.parametrize("n", [2.5, 2.7, True, math.nan, "3"])
    def test_non_integer_n_refused(self, n):
        for call in (lambda: t_tau(0.5, 1.0, n), lambda: gamma_tau(0.1, 1.0, n),
                     lambda: t_tilde(0.5, 1.0, n),
                     lambda: gamma_tilde(0.1, 1.0, n),
                     lambda: psi_tau(0.8, 0.5, 1.0, n),
                     lambda: t_tau_rows([0.5, 0.5], 1.0, [n, n])):
            with pytest.raises(ValueError, match="^n must be an integer"):
                call()

    def test_integral_float_n_refused(self):
        # one integer rule: an int or a numpy integer, never a float
        with pytest.raises(ValueError, match="^n must be an integer"):
            t_tau(0.5, 1.5, 3.0)
        assert t_tau(0.5, 1.5, np.int64(3)) == t_tau(0.5, 1.5, 3)
