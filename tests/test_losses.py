"""Loss-family unit tests: frozen values, invariants, gradient oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compsum import losses
from compsum.losses import (
    _rows_lse,
    comp_sum_grad,
    comp_sum_grad_batch,
    comp_sum_loss,
    comp_sum_loss_batch,
    loss_upper_bound,
    phi_tau,
    phi_tau_deriv,
    predict,
    predict_batch,
)


def fd_gradient(f, x, h=1e-6):
    """Central finite differences, the independent gradient oracle."""
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


class TestPhi:
    def test_zero_everywhere_in_tau(self):
        for tau in [0.0, 0.5, 1.0, 1.7, 2.0, 3.0, 50.0]:
            assert phi_tau(0.0, tau) == 0.0

    def test_log_branch(self):
        assert phi_tau(1.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_half_power_value(self):
        # (1 / (1 - 0.5)) * ((1 + 3) ** 0.5 - 1) = 2, by hand
        assert phi_tau(3.0, 0.5) == pytest.approx(2.0, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            phi_tau(-0.1, 1.0)
        with pytest.raises(ValueError):
            phi_tau(math.inf, 1.0)
        with pytest.raises(ValueError):
            phi_tau(1.0, -0.5)
        with pytest.raises(ValueError):
            phi_tau(1.0, 101.0)

    @pytest.mark.parametrize("tau", [0.0, 0.3, 1.0, 1.5, 2.0, 3.0])
    def test_bounded_by_identity_monotone_concave(self, tau):
        u = np.linspace(0.0, 50.0, 400)
        v = phi_tau(u, tau)
        assert np.all(v >= -1e-15)
        assert np.all(v <= u + 1e-12)
        d = np.diff(v)
        assert np.all(d >= -1e-12)
        assert np.all(np.diff(d) <= 1e-9)

    def test_continuity_in_tau_at_branches(self):
        u = np.linspace(0.0, 20.0, 50)
        for t0 in (1.0, 2.0):
            for eps in (1e-7, -1e-7):
                delta = np.abs(phi_tau(u, t0 + eps) - phi_tau(u, t0))
                assert delta.max() <= 1e-5

    def test_difference_monotone_in_tau(self):
        # Phi(u1) - Phi(u2) is non-increasing in tau for u1 >= u2 >= 0
        rng = np.random.default_rng(0)
        taus = np.linspace(0.0, 4.0, 41)
        for _ in range(200):
            u2 = rng.uniform(0.0, 5.0)
            u1 = u2 + rng.uniform(0.0, 5.0)
            diffs = np.array([phi_tau(u1, t) - phi_tau(u2, t) for t in taus])
            assert np.all(np.diff(diffs) <= 1e-10)


class TestPhiDeriv:
    def test_at_zero(self):
        assert phi_tau_deriv(0.0, 3.0) == 1.0

    def test_log_branch_half(self):
        assert phi_tau_deriv(1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_lipschitz_unit(self):
        u = np.linspace(0.0, 100.0, 500)
        for tau in [0.0, 0.5, 1.0, 2.0, 5.0]:
            d = phi_tau_deriv(u, tau)
            assert np.all(d <= 1.0 + 1e-15)
            assert np.all(d > 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            u = rng.uniform(0.01, 20.0)
            tau = rng.uniform(0.0, 3.0)
            h = 1e-6 * max(1.0, u)
            fd = (phi_tau(u + h, tau) - phi_tau(u - h, tau)) / (2.0 * h)
            assert phi_tau_deriv(u, tau) == pytest.approx(fd, rel=1e-6)


class TestCompSumLoss:
    def test_logistic_uniform_two_labels(self):
        assert comp_sum_loss([0.0, 0.0], 0, 1.0) == pytest.approx(math.log(2))

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_mae_uniform(self, n):
        # equal scores at tau = 2 give 1 - 1/n for every label
        for y in range(n):
            assert comp_sum_loss([1.3] * n, y, 2.0) == pytest.approx(1 - 1 / n)

    def test_sum_exponential(self):
        assert comp_sum_loss([0.0, 0.0, 0.0], 0, 0.0) == pytest.approx(2.0)
        # cross-check against the generic branch approaching tau = 0
        assert comp_sum_loss([0.3, -0.5, 1.0], 1, 1e-11) == pytest.approx(
            comp_sum_loss([0.3, -0.5, 1.0], 1, 0.0), rel=1e-9)

    def test_logistic_equals_negative_log_softmax(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            s = rng.normal(scale=3.0, size=4)
            y = int(rng.integers(0, 4))
            ref = -math.log(math.exp(s[y]) / np.exp(s).sum())
            assert comp_sum_loss(s, y, 1.0) == pytest.approx(ref, abs=1e-12)

    def test_gce_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = rng.normal(scale=2.0, size=5)
            y = int(rng.integers(0, 5))
            tau = rng.uniform(1.1, 1.9)
            sm = math.exp(s[y]) / np.exp(s).sum()
            ref = (1.0 - sm ** (tau - 1.0)) / (tau - 1.0)
            assert comp_sum_loss(s, y, tau) == pytest.approx(ref, rel=1e-12)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8),
           st.floats(-50, 50), st.floats(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, scores, shift, tau):
        s = np.asarray(scores)
        y = len(scores) - 1
        a = comp_sum_loss(s, y, tau)
        b = comp_sum_loss(s + shift, y, tau)
        assert b == pytest.approx(a, abs=1e-12 * max(1.0, a))

    def test_finite_for_large_scores(self):
        s = np.array([700.0, -700.0])
        for tau in [0.0, 0.5, 1.0, 2.0]:
            assert math.isfinite(comp_sum_loss(s, 1, tau))

    def test_errors(self):
        with pytest.raises(ValueError):
            comp_sum_loss([0.0, 0.0], 2, 1.0)
        with pytest.raises(ValueError):
            comp_sum_loss([0.0, math.nan], 0, 1.0)
        with pytest.raises(ValueError):
            comp_sum_loss([0.0], 0, 1.0)

    def test_all_labels_matches_single(self):
        rng = np.random.default_rng(4)
        s = rng.normal(size=6)
        all_l = comp_sum_loss_batch(np.tile(s, (6, 1)), np.arange(6), 1.4)
        for y in range(6):
            assert all_l[y] == pytest.approx(comp_sum_loss(s, y, 1.4))


class TestCompSumGrad:
    def test_logistic_softmax_minus_onehot(self):
        g = comp_sum_grad([0.0, 0.0], 0, 1.0)
        assert np.allclose(g, [-0.5, 0.5])

    def test_sum_exponential_hand_value(self):
        # d/dh of sum_{y' != 1} exp(h_{y'} - h_1) at equal scores
        g = comp_sum_grad([0.0, 0.0, 0.0], 1, 0.0)
        assert np.allclose(g, [1.0, -2.0, 1.0])

    def test_finite_differences_sweep(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.choice([2, 3, 5, 10]))
            s = rng.normal(scale=3.0, size=n)
            y = int(rng.integers(0, n))
            tau = float(rng.uniform(0.0, 3.0))
            g = comp_sum_grad(s, y, tau)
            fd = fd_gradient(lambda x: comp_sum_loss(x, y, tau), s)
            # relative to the gradient scale (the oracle's own noise floor
            # grows with the loss magnitude)
            err = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(fd))
            assert err < 1e-5

    def test_batch_matches_single(self):
        rng = np.random.default_rng(6)
        S = rng.normal(size=(20, 4))
        Y = rng.integers(0, 4, size=20)
        bl = comp_sum_loss_batch(S, Y, 0.7)
        bg = comp_sum_grad_batch(S, Y, 0.7)
        for i in range(20):
            assert bl[i] == pytest.approx(comp_sum_loss(S[i], Y[i], 0.7))
            assert np.allclose(bg[i], comp_sum_grad(S[i], Y[i], 0.7))

    @pytest.mark.parametrize("Y", [[-1], [3], [0, -3], [2, 5]])
    def test_batch_refuses_labels_out_of_range(self, Y):
        # negative labels used to index from the end
        S = np.tile([0.0, 1.0, 2.0], (len(Y), 1))
        for batch in (comp_sum_loss_batch, comp_sum_grad_batch):
            with pytest.raises(ValueError, match=r"^Y: labels must lie in "
                                                 r"\[0, 3\)"):
                batch(S, Y, 1.0)

    def test_per_row_tau_equals_each_rows_own_tau(self):
        rng = np.random.default_rng(8)
        V = rng.exponential(2.0, size=(60, 3))
        taus = rng.choice([0.0, 0.5, 1.0, 1.0 + 1e-10, 1.5, 3.0], 60)
        rows = losses._phi_of_gap_array(V, taus[:, None])
        for v, tau, row in zip(V, taus, rows):
            assert np.array_equal(losses._phi_of_gap_array(v, float(tau)), row)


class TestOneLogSumExp:
    @pytest.mark.parametrize("n", [2, 3, 5, 10, 16])
    def test_row_bits_do_not_depend_on_row_count(self, n):
        # the row sums switch from one accumulate call to a loop over the
        # columns above 64 rows; both add left to right
        S = np.random.default_rng(n).normal(scale=5.0, size=(1000, n))
        alone = np.array([_rows_lse(S[r:r + 1])[0] for r in range(1000)])
        for R in (1, 64, 65, 128, 1000):
            assert np.array_equal(_rows_lse(S[:R]), alone[:R])

    def test_scalar_forms_are_one_row_batch_calls(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.choice([2, 3, 5, 10, 16]))
            s = rng.normal(scale=3.0, size=n)
            y = int(rng.integers(0, n))
            tau = float(rng.uniform(0.0, 3.0))
            assert comp_sum_loss(s, y, tau) == \
                comp_sum_loss_batch(s[None], [y], tau)[0]
            assert np.array_equal(comp_sum_grad(s, y, tau),
                                  comp_sum_grad_batch(s[None], [y], tau)[0])


class TestMisc:
    def test_predict_tie_breaks_to_highest_index(self):
        assert predict([1.0, 3.0, 3.0, 2.0]) == 2
        assert predict([2.0, 2.0]) == 1
        assert list(predict_batch(np.array([[1.0, 1.0], [3.0, 1.0]]))) == [1, 0]

    def test_loss_cap_policy(self):
        assert loss_upper_bound(2.0, 10) == pytest.approx(1.0)
        assert loss_upper_bound(3.0, 4) == pytest.approx(0.5)
        assert loss_upper_bound(1.0, 10) == math.inf
        assert loss_upper_bound(0.5, 10) == math.inf
        # with a score bound, the cap is the transform of the largest sum
        b = loss_upper_bound(1.0, 3, lam=2.0)
        assert b == pytest.approx(math.log(1 + 2 * math.exp(4.0)))
        assert loss_upper_bound(2.0, 3, lam=2.0) < 1.0
