"""Adversarial-loss tests: attacks against exact oracles, dominance chain,
consistency checks, bound verification."""

import math

import numpy as np
import pytest

from compsum.adversarial import (
    AdvParams,
    PerturbationBall,
    _margin_objective,
    _ramp_objective,
    adv_comp_rho_loss,
    adv_comp_rho_loss_exact_1d,
    adv_zero_one,
    adv_zero_one_exact_1d,
    check_local_rho_consistency,
    clean_rho_loss,
    cstar_adv_rho_closed,
    deviation_objective,
    deviation_sup_batch,
    deviation_sup_exact_1d,
    project_to_ball,
    rho_margin,
    rho_margin_subgrad,
    smooth_adv_comp_loss,
    smooth_adv_comp_loss_exact_1d,
    sup_rho_inner_exact_1d,
    verify_adv_bound,
)
from compsum.losses import comp_sum_loss_batch, phi_tau
from compsum.models import LinearModel, init_mlp
from compsum.risk import finite_distribution, linear_family, score_box


def linear2(w0, w1, b0=0.0, b1=0.0):
    return LinearModel(np.array([[w0], [w1]]), np.array([b0, b1]))


class TestRampLoss:
    def test_values(self):
        assert rho_margin(0.0, 1.0) == 1.0
        assert rho_margin(0.5, 1.0) == 0.5
        assert rho_margin(2.0, 1.0) == 0.0
        assert rho_margin(-3.0, 1.0) == 1.0

    def test_lipschitz(self):
        u = np.linspace(-2, 4, 1000)
        v = rho_margin(u, 2.0)
        assert np.max(np.abs(np.diff(v) / np.diff(u))) <= 0.5 + 1e-12

    def test_subgradient_kink_convention(self):
        assert rho_margin_subgrad(0.5, 1.0) == -1.0
        assert rho_margin_subgrad(0.0, 1.0) == -0.5
        assert rho_margin_subgrad(1.0, 1.0) == -0.5
        assert rho_margin_subgrad(-1.0, 1.0) == 0.0
        assert rho_margin_subgrad(2.0, 1.0) == 0.0

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            rho_margin(0.5, 0.0)


class TestParams:
    def test_p_norm_support(self):
        for p in (1.0, 2.0, math.inf):
            PerturbationBall(p, 0.1)
        with pytest.raises(ValueError):
            PerturbationBall(3.0, 0.1)
        with pytest.raises(ValueError):
            PerturbationBall(2.0, -0.1)

    def test_nu_constraint(self):
        a = AdvParams(n=5, rho=0.5)
        assert a.nu >= math.sqrt(4) / 0.5 - 1e-12
        with pytest.raises(ValueError):
            AdvParams(n=5, rho=0.5, nu=1.0)
        # n = 2 admits the unit default
        assert AdvParams(n=2, rho=1.0).nu == 1.0

    def test_default_step_size(self):
        a = AdvParams(n=2, pgd_steps=10)
        assert a.step_size(PerturbationBall(math.inf, 0.4)) == pytest.approx(
            0.1)


def _ramp_case(tau):
    def case(rng, S, Y):
        # keep every competing margin off the ramp's kinks at 0 and rho
        margins = S[np.arange(len(Y)), Y][:, None] - S
        margins[np.arange(len(Y)), Y] = 0.5
        keep = np.all((np.abs(margins) > 1e-3) & (np.abs(margins - 1.0) > 1e-3),
                      axis=1)
        return _ramp_objective(Y[keep], tau, 1.0), S[keep]
    return case


def _deviation_case(rng, S, Y):
    # a base away from S keeps the deviation norm away from 0
    return deviation_objective(S + rng.normal(size=S.shape), Y), S


def _margin_case(rng, S, Y):
    # keep the best competitor's score unique
    masked = S.copy()
    masked[np.arange(len(Y)), Y] = -np.inf
    top2 = np.sort(masked, axis=1)[:, -2:]
    keep = top2[:, 1] - top2[:, 0] > 1e-3
    return _margin_objective(Y[keep]), S[keep]


class TestObjectiveGradients:
    @pytest.mark.parametrize("case", [
        _ramp_case(0.0), _ramp_case(1.0), _ramp_case(1.5),
        _deviation_case, _margin_case,
    ], ids=["ramp-tau0", "ramp-tau1", "ramp-tau1.5", "deviation", "margin"])
    def test_score_gradient_matches_central_differences(self, case):
        rng = np.random.default_rng(17)
        S = rng.normal(scale=1.5, size=(200, 4))
        Y = rng.integers(0, 4, size=200)
        objective, S = case(rng, S, Y)
        assert S.shape[0] >= 50
        _, ds = objective(S)
        h = 1e-6
        for j in range(S.shape[1]):
            e = np.zeros(S.shape[1])
            e[j] = h
            fd = (objective(S + e)[0] - objective(S - e)[0]) / (2 * h)
            assert np.allclose(ds[:, j], fd, rtol=1e-6, atol=1e-8)


class TestProjections:
    def test_linf(self):
        X = np.zeros((1, 3))
        Xp = np.array([[0.5, -0.9, 0.1]])
        out = project_to_ball(Xp, X, PerturbationBall(math.inf, 0.2))
        assert np.allclose(out, [[0.2, -0.2, 0.1]])

    def test_l2(self):
        X = np.zeros((1, 2))
        Xp = np.array([[3.0, 4.0]])
        out = project_to_ball(Xp, X, PerturbationBall(2.0, 1.0))
        assert np.allclose(out, [[0.6, 0.8]])

    def test_l1(self):
        X = np.zeros((1, 2))
        Xp = np.array([[1.0, 1.0]])
        out = project_to_ball(Xp, X, PerturbationBall(1.0, 1.0))
        assert np.abs(out).sum() == pytest.approx(1.0)
        # already inside: unchanged
        inside = np.array([[0.2, -0.1]])
        assert np.allclose(project_to_ball(inside, X,
                                           PerturbationBall(1.0, 1.0)), inside)


class TestDegenerateBall:
    def setup_method(self):
        self.model = linear2(1.0, -1.0, 0.1, -0.1)
        self.ball = PerturbationBall(math.inf, 0.0)
        self.adv = AdvParams(n=2, rho=1.0, pgd_steps=5, restarts=2, seed=0)

    def test_rho_loss_is_pointwise(self):
        v = adv_comp_rho_loss(self.model, [0.3], 0, 1.0, self.adv, self.ball)
        assert v == pytest.approx(clean_rho_loss(self.model, [0.3], 0, 1.0, 1.0))

    def test_smooth_loss_is_scaled_clean(self):
        x = np.array([[0.3]])
        v = smooth_adv_comp_loss(self.model, [0.3], 0, 1.0, self.adv, self.ball)
        scores = self.model.forward(x) / self.adv.rho
        assert v == pytest.approx(
            float(comp_sum_loss_batch(scores, np.array([0]), 1.0)[0]))

    def test_zero_one_equals_clean(self):
        assert adv_zero_one(self.model, [0.3], 0, self.ball, self.adv) == 0
        assert adv_zero_one(self.model, [-0.3], 0, self.ball, self.adv) == 1


class TestAgainstExactOracles:
    def test_pgd_rho_loss_lower_bounds_and_meets_exact(self):
        rng = np.random.default_rng(1)
        ball = PerturbationBall(math.inf, 0.25)
        adv = AdvParams(n=2, rho=1.0, pgd_steps=40, restarts=3, seed=0)
        meets = 0
        for _ in range(60):
            m = linear2(*rng.normal(scale=1.5, size=2),
                        *rng.normal(scale=0.5, size=2))
            x = float(rng.normal())
            y = int(rng.integers(0, 2))
            exact = adv_comp_rho_loss_exact_1d(m, x, y, 1.0, 1.0, 0.25)
            pgd = adv_comp_rho_loss(m, [x], y, 1.0, adv, ball)
            assert pgd <= exact + 1e-10
            meets += pgd == pytest.approx(exact, abs=1e-7)
        assert meets >= 55  # two-label ramps are monotone: PGD finds the end

    def test_adv_zero_one_matches_enumeration(self):
        rng = np.random.default_rng(2)
        ball = PerturbationBall(math.inf, 0.3)
        adv = AdvParams(n=2, rho=1.0, pgd_steps=30, restarts=3, seed=0)
        for _ in range(100):
            m = linear2(*rng.normal(scale=1.5, size=2),
                        *rng.normal(scale=0.5, size=2))
            x = float(rng.normal())
            y = int(rng.integers(0, 2))
            assert adv_zero_one(m, [x], y, ball, adv) == \
                adv_zero_one_exact_1d(m, x, y, 0.3)

    def test_certified_margin_gives_zero_loss(self):
        # margins exceed rho plus the attack budget times the weight gap
        m = linear2(2.0, -2.0)
        gamma, rho = 0.1, 0.5
        # at x = 1: margin = 4; worst-case drop = gamma * |w0 - w1| = 0.4
        assert adv_comp_rho_loss_exact_1d(m, 1.0, 0, 1.0, rho, gamma) == 0.0
        adv = AdvParams(n=2, rho=rho, pgd_steps=20, restarts=2, seed=0)
        assert adv_comp_rho_loss(m, [1.0], 0, 1.0, adv,
                                 PerturbationBall(math.inf, gamma)) == 0.0

    def test_deviation_closed_form(self):
        rng = np.random.default_rng(3)
        ball = PerturbationBall(math.inf, 0.2)
        adv = AdvParams(n=3, pgd_steps=50, restarts=2, seed=0)
        for _ in range(30):
            model = LinearModel(rng.normal(scale=1.0, size=(3, 1)),
                                rng.normal(scale=0.5, size=3))
            x = np.array([[float(rng.normal())]])
            y = np.array([int(rng.integers(0, 3))])
            exact = deviation_sup_exact_1d(model, float(x[0, 0]), int(y[0]),
                                           0.2)
            pgd = float(deviation_sup_batch(model, x, y, adv, ball)[0])
            assert pgd == pytest.approx(exact, abs=1e-8)

    def test_sup_inner_hits_interior_breakpoints(self):
        # two ramps saturating on opposite sides peak strictly inside the
        # interval: margins -2t + 0.2 and 2t + 0.2 sum to 1.6 at t = 0 but
        # only 1.0 at t = +/- 0.5
        m = LinearModel(np.array([[0.0], [2.0], [-2.0]]),
                        np.array([0.0, -0.2, -0.2]))
        val = sup_rho_inner_exact_1d(m, 0.0, 0, 1.0, 0.5)
        ends = []
        for t in (-0.5, 0.5):
            s = m.W[:, 0] * t + m.b
            vals = rho_margin(s[0] - s, 1.0)
            vals[0] = 0.0
            ends.append(vals.sum())
        assert val == pytest.approx(1.6, abs=1e-12)
        assert max(ends) == pytest.approx(1.0, abs=1e-12)


class TestMonotonicityAndChain:
    def test_more_steps_never_decrease(self):
        rng = np.random.default_rng(4)
        ball = PerturbationBall(math.inf, 0.3)
        for _ in range(20):
            m = linear2(*rng.normal(scale=1.0, size=2),
                        *rng.normal(scale=0.5, size=2))
            x = [float(rng.normal())]
            prev = -1.0
            for steps in (1, 3, 10, 30):
                adv = AdvParams(n=2, rho=1.0, pgd_steps=steps,
                                pgd_step_size=0.05, restarts=1, seed=0)
                v = adv_comp_rho_loss(m, x, 0, 1.0, adv, ball)
                assert v >= prev - 1e-12
                prev = v

    def test_dominance_chain_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.choice([2, 3, 4]))
            m = LinearModel(rng.normal(scale=1.5, size=(n, 1)),
                            rng.normal(scale=0.7, size=n))
            x = float(rng.normal())
            y = int(rng.integers(0, n))
            tau = float(rng.uniform(0.0, 3.0))
            rho = float(rng.uniform(0.3, 2.0))
            gamma = float(rng.uniform(0.01, 0.6))
            adv = AdvParams(n=n, rho=rho)
            smooth = smooth_adv_comp_loss_exact_1d(m, x, y, tau, adv, gamma)
            sup = adv_comp_rho_loss_exact_1d(m, x, y, tau, rho, gamma)
            clean = clean_rho_loss(m, x, y, tau, rho)
            assert smooth >= sup - 1e-8
            assert sup >= clean - 1e-12

    def test_value_range(self):
        rng = np.random.default_rng(6)
        ball = PerturbationBall(math.inf, 0.5)
        for _ in range(30):
            n = int(rng.choice([2, 4]))
            m = LinearModel(rng.normal(size=(n, 1)), rng.normal(size=n))
            adv = AdvParams(n=n, rho=0.7, pgd_steps=10, seed=0)
            v = adv_comp_rho_loss(m, [0.0], 0, 1.2, adv, ball)
            assert 0.0 <= v <= phi_tau(float(n - 1), 1.2) + 1e-12


class TestInputGradients:
    def test_mlp_input_grad_matches_fd(self):
        rng = np.random.default_rng(7)
        model = init_mlp(4, 8, 3, seed=0)
        X = rng.normal(size=(5, 4))
        Y = rng.integers(0, 3, size=5)
        tau = 1.3

        from compsum.losses import comp_sum_grad_batch
        ds = comp_sum_grad_batch(model.forward(X), Y, tau)
        g = model.input_grad(X, ds)
        h = 1e-6
        for i in range(5):
            for j in range(4):
                Xp = X.copy(); Xp[i, j] += h
                Xm = X.copy(); Xm[i, j] -= h
                lp = comp_sum_loss_batch(model.forward(Xp), Y, tau)[i]
                lm = comp_sum_loss_batch(model.forward(Xm), Y, tau)[i]
                fd = (lp - lm) / (2 * h)
                assert g[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-7)


class TestLocalRhoConsistency:
    def test_score_box_staircase(self):
        res = check_local_rho_consistency(score_box(4, 3.0), 1.0)
        assert res.passed
        levels = res.witness
        assert np.all(np.diff(levels) >= 1.0 - 1e-12)
        assert np.all(np.abs(levels) <= 3.0 + 1e-12)

    def test_too_small_box_fails(self):
        res = check_local_rho_consistency(score_box(2, 0.4), 1.0)
        assert not res.passed

    def test_large_rho_passes_on_a_box_that_fits(self):
        # the staircase's rounding grows with rho; the gap test must not
        # refuse it
        for rho in np.random.default_rng(0).uniform(1e3, 1e6, size=200):
            res = check_local_rho_consistency(score_box(5, 1e9), rho)
            assert res.passed, (rho, res.reason)
            assert np.all(np.diff(res.witness) >= rho * (1.0 - 1e-12))

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e6])
    def test_too_small_box_fails_at_every_scale(self, scale):
        res = check_local_rho_consistency(score_box(3, 0.99 * scale), scale)
        assert not res.passed
        assert check_local_rho_consistency(score_box(3, scale), scale).passed

    def test_linear_constants(self):
        res = check_local_rho_consistency(linear_family(3, 2, weight_bound=5.0),
                                          1.0)
        assert res.passed
        res = check_local_rho_consistency(linear_family(3, 2, weight_bound=0.5),
                                          1.0)
        assert not res.passed

    @pytest.mark.parametrize("p_norm", [1.0, 2.0, math.inf])
    def test_linear_witness_is_constant_on_balls(self, p_norm):
        # the check decides the set once because the witness's scores are
        # its levels at every input, so at every point of every ball
        res = check_local_rho_consistency(linear_family(4, 3, weight_bound=2.0),
                                          1.0)
        levels = res.witness.b
        rng = np.random.default_rng(5)
        X = rng.normal(scale=10.0, size=(50, 3))
        ball = PerturbationBall(p_norm, 0.7)
        Xp = project_to_ball(X + rng.uniform(-0.7, 0.7, size=X.shape), X, ball)
        for pts in (X, Xp):
            assert np.array_equal(res.witness.forward(pts),
                                  np.broadcast_to(levels, (50, 4)))


class TestAdvBound:
    def _instance(self, rng, n=2):
        model = LinearModel(rng.normal(scale=1.5, size=(n, 1)),
                            rng.normal(scale=0.7, size=n))
        K = int(rng.integers(1, 4))
        dist = finite_distribution(rng.dirichlet(np.ones(K)),
                                   rng.dirichlet(np.ones(n), size=K),
                                   xs=rng.normal(size=(K, 1)))
        return model, dist

    def test_slack_and_corollary(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.choice([2, 3]))
            model, dist = self._instance(rng, n)
            tau = float(rng.uniform(0.0, 3.0))
            rho = float(rng.uniform(0.3, 1.5))
            adv = AdvParams(n=n, rho=rho)
            spec = linear_family(n, 1, weight_bound=max(1.0, (n - 1) * rho))
            rep = verify_adv_bound(dist, spec, model, tau, adv,
                                   PerturbationBall(math.inf,
                                                    float(rng.uniform(0.01, 0.5))))
            assert rep.slack >= -1e-6
            assert rep.rhs_smooth >= rep.rhs - 1e-12

    def test_margin_witness_zero_lhs(self):
        # a hypothesis ordering labels like the conditionals with gaps
        # beyond rho + attack reach has no worst-case excess
        model = linear2(0.0, 0.0, 3.0, -3.0)
        dist = finite_distribution([1.0], [[0.8, 0.2]], xs=[[0.0]])
        adv = AdvParams(n=2, rho=1.0)
        rep = verify_adv_bound(dist, linear_family(2, 1, weight_bound=2.0),
                               model, 1.0, adv,
                               PerturbationBall(math.inf, 0.3))
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)

    def test_refuses_inconsistent_spec(self):
        model = linear2(1.0, -1.0)
        dist = finite_distribution([1.0], [[0.5, 0.5]], xs=[[0.0]])
        adv = AdvParams(n=2, rho=2.0, nu=2.0)
        with pytest.raises(ValueError, match="not locally"):
            verify_adv_bound(dist, linear_family(2, 1, weight_bound=0.5),
                             model, 1.0, adv, PerturbationBall(math.inf, 0.1))

    @pytest.mark.parametrize("spec,reason", [
        (linear_family(3, 1, weight_bound=0.5), "bias bound 0.5"),
        (score_box(2, 0.4), "cannot fit 2 levels"),
    ])
    def test_refuses_each_kind_at_unit_rho(self, spec, reason):
        n = spec.n
        model = LinearModel(np.ones((n, 1)), np.zeros(n))
        dist = finite_distribution([1.0], [np.full(n, 1.0 / n)], xs=[[0.0]])
        with pytest.raises(ValueError,
                           match=f"not locally margin-consistent: {reason}"):
            verify_adv_bound(dist, spec, model, 1.0, AdvParams(n=n, rho=1.0),
                             PerturbationBall(math.inf, 0.1))

    @pytest.mark.parametrize("spec", [
        linear_family(3, 1, weight_bound=5.0),
        linear_family(2, 7, weight_bound=5.0),
        score_box(3, 5.0),
    ])
    def test_refuses_set_of_other_shape(self, spec):
        dist = finite_distribution([1.0], [[0.5, 0.5]], xs=[[0.0]])
        with pytest.raises(ValueError, match="does not describe"):
            verify_adv_bound(dist, spec, linear2(1.0, -1.0), 1.0,
                             AdvParams(n=2, rho=1.0),
                             PerturbationBall(math.inf, 0.1))

    def test_multiplier_constant_at_log_two(self):
        assert phi_tau(1.0, 1.0) == math.log(2.0)

    def test_cstar_closed_form_two_labels(self):
        assert cstar_adv_rho_closed([0.7, 0.3], 1.0) == pytest.approx(
            0.3 * math.log(2))
