"""Adversarial-loss tests: attacks against exact oracles, dominance chain,
consistency checks, bound verification."""

import math
import re
from dataclasses import astuple

import numpy as np
import pytest

from compsum.adversarial import (
    AdvParams,
    PerturbationBall,
    _cstar_adv_rho_rows,
    _l1_project_rows,
    _margin_objective,
    _ramp_objective,
    _steepest_ascent,
    adv_comp_rho_loss_batch,
    adv_zero_one_batch,
    adv_zero_one_exact_rows,
    check_local_rho_consistency,
    deviation_objective,
    deviation_sup_exact_rows,
    pgd_maximize,
    project_to_ball,
    rho_margin,
    rho_margin_subgrad,
    smooth_adv_comp_loss_batch,
    smooth_adv_exact_rows,
    sup_ramp_exact_rows,
    verify_adv_bound,
    verify_adv_bound_batch,
)
from compsum.losses import comp_sum_grad_batch, comp_sum_loss_batch, phi_tau
from compsum.models import LinearModel, init_linear, init_mlp
from compsum.risk import finite_distribution, linear_family, score_box


def linear2(w0, w1, b0=0.0, b1=0.0):
    return LinearModel(np.array([[w0], [w1]]), np.array([b0, b1]))


def one_row(model, x, y):
    """One example of a 1-D linear model as the exact oracles' rows."""
    return model.W.T, model.b[None], np.array([float(x)]), np.array([y])


def exact_rho_loss(model, x, y, tau, rho, gamma):
    """Exact worst ramp-margin comp-sum loss of one example."""
    return phi_tau(sup_ramp_exact_rows(*one_row(model, x, y), rho, gamma)[0],
                   tau)


def one_example(x, y):
    """One example of a 1-D model as the batch losses' one-row arrays."""
    return np.array([[float(x)]]), np.array([y])


def clean_rho_loss(model, x, y, tau, rho):
    """Pointwise ramp-margin comp-sum loss of one example: the transform of
    the ramps at its label's score margins, its own margin left out."""
    s = model.forward(np.array([[float(x)]]))[0]
    ramps = rho_margin(s[y] - s, rho)
    ramps[y] = 0.0
    return phi_tau(ramps.sum(), tau)


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
        # a NaN or infinite radius would let no attacked point beat the
        # clean one, so the robust accuracy would read as the clean
        for gamma in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="^gamma must be finite"):
                PerturbationBall(2.0, gamma)

    @pytest.mark.parametrize("field, args", [
        ("p_norm", (True, 0.3)), ("p_norm", (False, 0.3)),
        ("gamma", (2.0, True)), ("gamma", (math.inf, False)),
    ])
    def test_ball_refuses_bools(self, field, args):
        # True read as the l1 ball or as radius 1
        with pytest.raises(ValueError, match=f"^{field} must be a number"):
            PerturbationBall(*args)

    @pytest.mark.parametrize("field, value", [
        ("rho", 0.0), ("rho", math.inf), ("rho", math.nan),
        ("nu", math.nan), ("nu", math.inf),
        ("pgd_step_size", -0.1), ("pgd_step_size", 0.0),
        ("pgd_step_size", math.nan), ("pgd_step_size", math.inf),
    ])
    def test_attack_params_refuse_non_finite_or_nonpositive(self, field,
                                                            value):
        with pytest.raises(ValueError, match=f"^{field}"):
            AdvParams(n=2, **{field: value})

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

    @pytest.mark.parametrize("gamma, steps", [
        (0.4, 10), (0.3, 2), (1e-300, 7), (7e307, 3)])
    def test_default_step_size_keeps_its_bits_below_the_overflow(self, gamma,
                                                                 steps):
        ball = PerturbationBall(math.inf, gamma)
        assert AdvParams(n=2, pgd_steps=steps).step_size(ball) == \
            2.5 * gamma / steps

    def test_default_step_size_divides_first_where_the_product_overflows(
            self):
        ball = PerturbationBall(math.inf, 1e308)
        assert AdvParams(n=2, pgd_steps=2).step_size(ball) == 1.25e308
        assert AdvParams(n=2, pgd_steps=1).step_size(ball) == math.inf


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

    def test_l1_rows_match_a_per_row_reference(self):
        def reference(delta, radius):
            out = delta.copy()
            for i in np.flatnonzero(np.abs(out).sum(axis=1) > radius):
                v = np.abs(out[i])
                u = np.sort(v)[::-1]
                css = np.cumsum(u)
                ks = np.arange(1, v.size + 1)
                k = ks[u - (css - radius) / ks > 0][-1]
                theta = (css[k - 1] - radius) / k
                out[i] = np.sign(out[i]) * np.maximum(v - theta, 0.0)
            return out

        rng = np.random.default_rng(21)
        for _ in range(300):
            rows, dim = int(rng.integers(1, 40)), int(rng.integers(1, 12))
            radius = float(rng.uniform(0.05, 3.0))
            # half-integer entries left without noise make ties; a zero
            # column and zero rows mix with rows scaled into the ball
            D = rng.integers(-4, 5, size=(rows, dim)) * 0.5
            D += (rng.random((rows, dim)) < 0.5) * rng.normal(size=(rows, dim))
            D[:, rng.integers(0, dim)] = 0.0
            D[rng.random(rows) < 0.3] *= radius / (1.0 + 4.0 * dim)
            D[rng.random(rows) < 0.2] = 0.0
            expected = reference(D, radius)
            got = _l1_project_rows(D.copy(), radius)
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))
        # rows inside the ball come back as they were
        inside = np.array([[0.2, -0.1], [0.0, 0.0], [0.5, 0.5]])
        assert np.array_equal(_l1_project_rows(inside.copy(), 1.0), inside)
        # radius 0 maps every row to the centre
        assert np.array_equal(
            _l1_project_rows(np.array([[1.0, -2.0, 2.0]]), 0.0),
            np.zeros((1, 3)))


class TestDegenerateBall:
    def setup_method(self):
        self.model = linear2(1.0, -1.0, 0.1, -0.1)
        self.ball = PerturbationBall(math.inf, 0.0)
        self.adv = AdvParams(n=2, rho=1.0, pgd_steps=5, restarts=2, seed=0)

    def test_rho_loss_is_pointwise(self):
        v = adv_comp_rho_loss_batch(self.model, *one_example(0.3, 0), 1.0,
                                    self.adv, self.ball)[0]
        assert v == pytest.approx(clean_rho_loss(self.model, 0.3, 0, 1.0, 1.0))

    def test_smooth_loss_is_scaled_clean(self):
        x = np.array([[0.3]])
        v = smooth_adv_comp_loss_batch(self.model, *one_example(0.3, 0), 1.0,
                                       self.adv, self.ball)[0]
        scores = self.model.forward(x) / self.adv.rho
        assert v == pytest.approx(
            float(comp_sum_loss_batch(scores, np.array([0]), 1.0)[0]))

    def test_zero_one_equals_clean(self):
        for x, wrong in ((0.3, 0), (-0.3, 1)):
            X, Y = one_example(x, 0)
            assert adv_zero_one_batch(self.model, X, Y,
                                      self.model.forward_vjp(X), self.ball,
                                      self.adv)[0] == wrong


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
            exact = exact_rho_loss(m, x, y, 1.0, 1.0, 0.25)
            pgd = adv_comp_rho_loss_batch(m, *one_example(x, y), 1.0, adv,
                                          ball)[0]
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
            X, Y = one_example(x, y)
            assert adv_zero_one_batch(m, X, Y, m.forward_vjp(X), ball,
                                      adv)[0] == \
                adv_zero_one_exact_rows(*one_row(m, x, y), 0.3)[0]

    def test_certified_margin_gives_zero_loss(self):
        # margins exceed rho plus the attack budget times the weight gap
        m = linear2(2.0, -2.0)
        gamma, rho = 0.1, 0.5
        # at x = 1: margin = 4; worst-case drop = gamma * |w0 - w1| = 0.4
        assert exact_rho_loss(m, 1.0, 0, 1.0, rho, gamma) == 0.0
        adv = AdvParams(n=2, rho=rho, pgd_steps=20, restarts=2, seed=0)
        assert adv_comp_rho_loss_batch(m, *one_example(1.0, 0), 1.0, adv,
                                       PerturbationBall(math.inf, gamma))[0] \
            == 0.0

    def test_deviation_closed_form(self):
        rng = np.random.default_rng(3)
        ball = PerturbationBall(math.inf, 0.2)
        adv = AdvParams(n=3, pgd_steps=50, restarts=2, seed=0)
        for _ in range(30):
            model = LinearModel(rng.normal(scale=1.0, size=(3, 1)),
                                rng.normal(scale=0.5, size=3))
            x = np.array([[float(rng.normal())]])
            y = np.array([int(rng.integers(0, 3))])
            exact = deviation_sup_exact_rows(model.W.T, y, 0.2)[0]
            clean = model.forward_vjp(x)
            pgd = float(pgd_maximize(model, deviation_objective(clean[0], y),
                                     x, clean, ball, adv)[0][0])
            assert pgd == pytest.approx(exact, abs=1e-8)

    def test_smooth_loss_meets_exact_at_one_restart(self):
        # the deviation attack starts off the clean points, where its
        # gradient vanishes, so one restart reaches the exact supremum
        rng = np.random.default_rng(11)
        ball = PerturbationBall(math.inf, 0.3)
        adv = AdvParams(n=3, pgd_steps=10, restarts=1, seed=0)
        for _ in range(50):
            model = LinearModel(rng.normal(size=(3, 1)),
                                rng.normal(scale=0.5, size=3))
            x = float(rng.normal())
            y = int(rng.integers(0, 3))
            tau = float(rng.uniform(0.0, 3.0))
            exact = smooth_adv_exact_rows(*one_row(model, x, y), tau,
                                          adv.rho, adv.nu, 0.3)[0]
            assert smooth_adv_comp_loss_batch(
                model, *one_example(x, y), tau, adv, ball)[0] == \
                pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("p_norm, q", [
        (1.0, math.inf), (2.0, 2.0), (math.inf, 1.0),
    ])
    def test_margin_attack_reaches_dual_norm(self, p_norm, q):
        # with two labels the margin is affine in x, so its supremum over the
        # ball is the clean margin plus gamma times the dual norm of
        # w_c - w_y, which the steepest-ascent steps of every geometry reach
        rng = np.random.default_rng(5)
        model = LinearModel(rng.normal(size=(2, 4)), rng.normal(size=2))
        X = rng.normal(size=(20, 4))
        Y = rng.integers(0, 2, size=20)
        objective = _margin_objective(Y)
        adv = AdvParams(n=2, pgd_steps=10, seed=0)
        best, _ = pgd_maximize(model, objective, X, model.forward_vjp(X),
                               PerturbationBall(p_norm, 0.3), adv)
        dw = model.W[1 - Y] - model.W[Y]
        exact = (objective(model.forward(X))[0]
                 + 0.3 * np.linalg.norm(dw, ord=q, axis=1))
        assert np.abs(best - exact).max() <= 1e-12

    def test_sup_inner_hits_interior_breakpoints(self):
        # two ramps saturating on opposite sides peak strictly inside the
        # interval: margins -2t + 0.2 and 2t + 0.2 sum to 1.6 at t = 0 but
        # only 1.0 at t = +/- 0.5
        m = LinearModel(np.array([[0.0], [2.0], [-2.0]]),
                        np.array([0.0, -0.2, -0.2]))
        val = sup_ramp_exact_rows(*one_row(m, 0.0, 0), 1.0, 0.5)[0]
        ends = []
        for t in (-0.5, 0.5):
            s = m.W[:, 0] * t + m.b
            vals = rho_margin(s[0] - s, 1.0)
            vals[0] = 0.0
            ends.append(vals.sum())
        assert val == pytest.approx(1.6, abs=1e-12)
        assert max(ends) == pytest.approx(1.0, abs=1e-12)


ONE_EXAMPLE_LOSSES = {
    "adv_comp_rho_loss": lambda m, X, Y, adv, ball: adv_comp_rho_loss_batch(
        m, X, Y, 1.0, adv, ball),
    "smooth_adv_comp_loss": lambda m, X, Y, adv, ball:
        smooth_adv_comp_loss_batch(m, X, Y, 1.0, adv, ball),
    "adv_zero_one": lambda m, X, Y, adv, ball: adv_zero_one_batch(
        m, X, Y, m.forward_vjp(X), ball, adv),
}


@pytest.mark.parametrize("loss", ONE_EXAMPLE_LOSSES.values(),
                         ids=ONE_EXAMPLE_LOSSES.keys())
class TestOneExample:
    ball = PerturbationBall(math.inf, 0.1)
    adv = AdvParams(n=2, seed=0)

    @pytest.mark.parametrize("y, message", [
        (2, r"lie in \[0, 2\)"), (0.5, "be a 1-D integer array"),
    ], ids=["2", "0.5"])
    def test_bad_label_is_refused(self, loss, y, message):
        # a fractional label makes the one-row labels a float array
        with pytest.raises(ValueError, match=f"^Y: labels must {message}"):
            loss(linear2(1.0, -1.0), *one_example(0.5, y), self.adv,
                 self.ball)


@pytest.mark.parametrize("bad", [-1, 2])
def test_batch_losses_refuse_labels_out_of_range(bad):
    # a negative label wrapped to the last one; one past the end was an
    # IndexError (the smooth loss refused a negative label only after its
    # attack)
    model = linear2(1.0, -1.0)
    X, Y = np.zeros((3, 1)), np.array([0, bad, 1])
    ball, adv = PerturbationBall(math.inf, 0.1), AdvParams(n=2)
    with pytest.raises(ValueError, match=r"^Y: labels must lie in \[0, 2\)"):
        adv_comp_rho_loss_batch(model, X, Y, 1.0, adv, ball)
    with pytest.raises(ValueError, match=r"^Y: labels must lie in \[0, 2\)"):
        adv_zero_one_batch(model, X, Y, model.forward_vjp(X), ball, adv)
    with pytest.raises(ValueError, match=r"^Y: labels must lie in \[0, 2\)"):
        smooth_adv_comp_loss_batch(model, X, Y, 1.0, adv, ball)


class TestMonotonicityAndChain:
    def test_more_steps_never_decrease(self):
        rng = np.random.default_rng(4)
        ball = PerturbationBall(math.inf, 0.3)
        for _ in range(20):
            m = linear2(*rng.normal(scale=1.0, size=2),
                        *rng.normal(scale=0.5, size=2))
            x = float(rng.normal())
            prev = -1.0
            for steps in (1, 3, 10, 30):
                adv = AdvParams(n=2, rho=1.0, pgd_steps=steps,
                                pgd_step_size=0.05, restarts=1, seed=0)
                v = adv_comp_rho_loss_batch(m, *one_example(x, 0), 1.0, adv,
                                            ball)[0]
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
            smooth = smooth_adv_exact_rows(*one_row(m, x, y), tau, rho,
                                           adv.nu, gamma)[0]
            sup = exact_rho_loss(m, x, y, tau, rho, gamma)
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
            v = adv_comp_rho_loss_batch(m, *one_example(0.0, 0), 1.2, adv,
                                        ball)[0]
            assert 0.0 <= v <= phi_tau(float(n - 1), 1.2) + 1e-12


def _check_input_grad_fd(model):
    """``forward_vjp``'s input pullback of the comp-sum loss gradient
    against central differences of the loss, row by row."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(5, model.dim))
    Y = rng.integers(0, model.n_labels, size=5)
    tau = 1.3

    scores, back = model.forward_vjp(X)
    g = back.inputs(comp_sum_grad_batch(scores, Y, tau))
    h = 1e-6
    for i in range(5):
        for j in range(model.dim):
            Xp = X.copy(); Xp[i, j] += h
            Xm = X.copy(); Xm[i, j] -= h
            lp = comp_sum_loss_batch(model.forward(Xp), Y, tau)[i]
            lm = comp_sum_loss_batch(model.forward(Xm), Y, tau)[i]
            fd = (lp - lm) / (2 * h)
            assert g[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-7)


class TestInputGradients:
    def test_mlp_input_grad_matches_fd(self):
        _check_input_grad_fd(init_mlp(4, 8, 3, seed=0))

    def test_linear_input_grad_matches_fd(self):
        _check_input_grad_fd(init_linear(4, 3, seed=0))

    @pytest.mark.parametrize("steps,restarts", [(5, 1), (3, 3)])
    def test_pgd_makes_one_hidden_pass_per_iterate(self, monkeypatch, steps,
                                                   restarts):
        # every hidden-layer pass is one np.tanh call in compsum.models; the
        # step from an iterate pulls back through that iterate's pass, and
        # the attack's callers hand it the clean pass they already made
        from compsum import train as train_mod
        model = init_mlp(4, 8, 3, seed=0)
        calls = {"tanh": 0, "forward": 0, "forward_vjp": 0}
        tanh = np.tanh

        def counting_tanh(*args, **kwargs):
            calls["tanh"] += 1
            return tanh(*args, **kwargs)

        monkeypatch.setattr(np, "tanh", counting_tanh)
        for name in ("forward", "forward_vjp"):
            method = getattr(model, name)

            def counted(*args, _name=name, _method=method):
                calls[_name] += 1
                return _method(*args)

            monkeypatch.setattr(model, name, counted)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, 4))
        Y = rng.integers(0, 3, size=6)
        ball = PerturbationBall(math.inf, 0.2)
        adv = AdvParams(n=3, pgd_steps=steps, restarts=restarts, seed=0)
        passes = restarts * (steps + 1)  # the clean pass included
        pgd_maximize(model, _margin_objective(Y), X, model.forward_vjp(X),
                     ball, adv)
        assert calls == {"tanh": passes, "forward": 0,
                         "forward_vjp": passes}

        # evaluate: the attack's passes plus one at the attacked points
        calls.update(tanh=0, forward=0, forward_vjp=0)
        train_mod.evaluate(model, X, Y, ball, adv)
        assert calls == {"tanh": passes + 1, "forward": 1,
                         "forward_vjp": passes}

        # smooth training step: likewise, plus one pass at the jittered
        # start off the clean points and a pullback at the attacked points
        calls.update(tanh=0, forward=0, forward_vjp=0)
        cfg = train_mod.TrainConfig(adversarial=adv, ball=ball)
        train_mod._smooth_batch_grads(model, X, Y, cfg,
                                      np.random.default_rng(0))
        assert calls == {"tanh": passes + 2, "forward": 0,
                         "forward_vjp": passes + 2}

        # smooth adversarial loss: the clean term reads the attack's clean
        # pass, and the attack starts off the clean points
        calls.update(tanh=0, forward=0, forward_vjp=0)
        smooth_adv_comp_loss_batch(model, X, Y, 1.0, adv, ball)
        assert calls == {"tanh": passes + 1, "forward": 0,
                         "forward_vjp": passes + 1}


class TestInPlaceSteps:
    """The attack steps in the input-gradient buffer; it must take the
    reference step and write nothing the caller holds."""

    def _problem(self, p_norm):
        rng = np.random.default_rng(11)
        model = init_mlp(5, 7, 3, seed=1)
        X = rng.normal(size=(9, 5))
        return model, X, PerturbationBall(p_norm, 0.4)

    @pytest.mark.parametrize("p_norm", [1.0, 2.0, math.inf])
    def test_step_equals_the_reference_step(self, p_norm):
        model, X, ball = self._problem(p_norm)
        ds = np.random.default_rng(2).normal(size=(X.shape[0], 3))
        calls = []

        def rising(scores, rows):
            # every iterate beats the last, so the best point is the last
            calls.append(None)
            return np.full(scores.shape[0], float(len(calls))), ds[rows]

        adv = AdvParams(n=3, pgd_steps=2, seed=0)
        step = adv.step_size(ball)
        Xp = X
        for _ in range(2):
            g = model.forward_vjp(Xp.copy())[1].inputs(ds.copy())
            Xp = project_to_ball(
                Xp.copy() + step * _steepest_ascent(g, p_norm), X.copy(),
                ball)
        _, best = pgd_maximize(model, rising, X, model.forward_vjp(X),
                               ball, adv)
        assert len(calls) == 3
        assert np.array_equal(best, Xp)

    def test_overflowing_step_is_refused_under_gamma(self):
        # 2.5 * (1e308 / 1) is inf: the step would make NaN iterates, which
        # never beat a best value and so would drop out unseen
        model, X, _ = self._problem(math.inf)
        Y = np.arange(X.shape[0]) % 3
        with pytest.raises(ValueError, match="^gamma: the attack step"):
            pgd_maximize(model, _margin_objective(Y), X,
                         model.forward_vjp(X), PerturbationBall(math.inf,
                                                                1e308),
                         AdvParams(n=3, pgd_steps=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_best_point_is_refused_under_gamma(self):
        # a point at 1e308 steps to inf, and the objective takes it as best
        rng = np.random.default_rng(11)
        X = rng.normal(size=(9, 5))
        X[:, 0] = 1e308
        calls = []

        def rising(scores, rows):
            calls.append(None)
            return np.full(scores.shape[0], float(len(calls))), \
                np.ones((scores.shape[0], 3))

        model = init_linear(5, 3, seed=1)
        with pytest.raises(ValueError, match="^gamma: the attack's points"):
            pgd_maximize(model, rising, X, model.forward_vjp(X),
                         PerturbationBall(math.inf, 1e308),
                         AdvParams(n=3, pgd_steps=3))

    @pytest.mark.parametrize("p_norm", [1.0, 2.0, math.inf])
    def test_attack_leaves_inputs_and_clean_pass_unchanged(self, p_norm):
        model, X, ball = self._problem(p_norm)
        Y = np.arange(X.shape[0]) % 3
        clean = model.forward_vjp(X)
        ds = np.ones((X.shape[0], 3))
        X_before, scores_before = X.copy(), clean[0].copy()
        grads_before = (clean[1].inputs(ds), clean[1].params(ds))
        adv = AdvParams(n=3, pgd_steps=4, restarts=2, seed=0)
        pgd_maximize(model, deviation_objective(clean[0], Y), X, clean, ball,
                     adv)
        assert np.array_equal(X, X_before)
        assert np.array_equal(clean[0], scores_before)
        assert np.array_equal(clean[1].inputs(ds), grads_before[0])
        assert np.array_equal(clean[1].params(ds), grads_before[1])


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

    def test_batch_equals_one_call_per_instance(self):
        # label counts 2 and 3, one to three atoms, conditionals with zero
        # entries, and every parameter drawn per instance; the batch must
        # return each single call's report bit for bit, in either order
        rng = np.random.default_rng(21)
        insts = []
        for i in range(60):
            n = 2 + i % 2
            model, dist = self._instance(rng, n)
            if i % 3 == 0:
                conds = dist.conds.copy()
                conds[0] = 0.0
                conds[0, rng.integers(0, n)] = 1.0
                dist = finite_distribution(dist.weights, conds, xs=dist.xs)
            rho = float(rng.uniform(0.3, 1.5))
            nu = math.sqrt(n - 1) / rho + float(rng.uniform(0.0, 2.0))
            insts.append((dist, linear_family(n, 1, weight_bound=n * rho),
                          model, float(rng.choice([0.0, 1.0, 2.0, 2.7])),
                          AdvParams(n=n, rho=rho, nu=nu),
                          PerturbationBall(math.inf,
                                           float(rng.uniform(0.0, 0.6)))))
        singles = [repr(astuple(verify_adv_bound(*inst))) for inst in insts]
        assert any("nan" in rep for rep in singles)
        for order in (insts, insts[::-1]):
            batch = [repr(astuple(rep))
                     for rep in verify_adv_bound_batch(*zip(*order))]
            assert batch == (singles if order is insts else singles[::-1])

    @pytest.mark.parametrize("model_n, dist_n, adv_n, message", [
        (3, 2, 2, "model: 3 labels"), (2, 3, 3, "model: 2 labels"),
        (3, 3, 2, "adv.n: 2 labels"),
    ])
    def test_refuses_label_count_mismatch(self, model_n, dist_n, adv_n,
                                          message):
        model = LinearModel(np.arange(model_n, dtype=float)[:, None],
                            np.zeros(model_n))
        dist = finite_distribution([1.0], [np.full(dist_n, 1.0 / dist_n)],
                                   xs=[[0.0]])
        with pytest.raises(ValueError, match=f"^{re.escape(message)} "):
            verify_adv_bound(dist, linear_family(dist_n, 1, weight_bound=5.0),
                             model, 1.0, AdvParams(n=adv_n, rho=1.0),
                             PerturbationBall(math.inf, 0.1))

    def test_batch_refuses_the_first_failing_instance(self):
        dist = finite_distribution([1.0], [[0.5, 0.5]], xs=[[0.0]])
        good = (dist, linear_family(2, 1, weight_bound=2.0),
                linear2(1.0, -1.0), 1.0, AdvParams(n=2, rho=1.0),
                PerturbationBall(math.inf, 0.1))
        tight = [(dist, linear_family(2, 1, weight_bound=bound)) + good[2:]
                 for bound in (0.4, 0.3)]
        assert len(verify_adv_bound_batch(*zip(good, good))) == 2
        with pytest.raises(ValueError, match="bias bound 0.4 below"):
            verify_adv_bound_batch(*zip(good, *tight, good))

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

    @pytest.mark.parametrize("xs", [None, [[0.0, 1.0]]],
                             ids=["no-xs", "two-features"])
    def test_refuses_distribution_without_one_feature(self, xs):
        dist = finite_distribution([1.0], [[0.5, 0.5]], xs=xs)
        with pytest.raises(ValueError, match="one feature per support point"):
            verify_adv_bound(dist, linear_family(2, 1, weight_bound=2.0),
                             linear2(1.0, -1.0), 1.0, AdvParams(n=2, rho=1.0),
                             PerturbationBall(math.inf, 0.1))

    def test_multiplier_constant_at_log_two(self):
        assert phi_tau(1.0, 1.0) == math.log(2.0)

    def test_cstar_closed_form_two_labels(self):
        assert _cstar_adv_rho_rows(np.array([[0.7, 0.3]]),
                                   np.array([1.0]))[0] == pytest.approx(
            0.3 * math.log(2))
