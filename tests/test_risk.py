"""Risk-module tests: closed forms against the brute-force oracle, gaps,
serialization."""

import math

import numpy as np
import pytest

from compsum import losses, risk
from compsum.risk import (
    calibration_gap,
    cond_risk,
    cond_risk_power_sum_stationary,
    cond_risk_star_brute,
    cond_risk_star_closed,
    finite_distribution,
    gap_upper_bound_deterministic,
    linear_family,
    load_distribution,
    minimizability_gap,
    minimize_weighted_cond_risk,
    minimize_weighted_cond_risk_batch,
    optimal_scores,
    save_distribution,
    score_box,
)


class TestCondRisk:
    def test_uniform_two_label_logistic(self):
        assert cond_risk([0.0, 0.0], [0.5, 0.5], 1.0) == pytest.approx(
            math.log(2))

    def test_degenerate_distribution(self):
        s = [1.0, 2.0, 0.0]
        assert cond_risk(s, [0, 1, 0], 1.3) == pytest.approx(
            losses.comp_sum_loss(s, 1, 1.3))

    def test_independent_summation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.choice([2, 3, 5]))
            s = rng.normal(size=n)
            p = rng.dirichlet(np.ones(n))
            direct = sum(p[y] * losses.comp_sum_loss(s, y, 0.8)
                         for y in range(n))
            assert cond_risk(s, p, 0.8) == pytest.approx(direct, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cond_risk([0.0, 0.0], [0.5, 0.3, 0.2], 1.0)

    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            cond_risk([0.0, 0.0], [0.6, 0.6], 1.0)


class TestClosedForm:
    def test_uniform_entropy(self):
        for n in (2, 4, 10):
            assert cond_risk_star_closed([1 / n] * n, 1.0) == pytest.approx(
                math.log(n))

    def test_mae_branch(self):
        assert cond_risk_star_closed([0.7, 0.3], 2.0) == pytest.approx(0.3)

    def test_onehot_vanishes(self):
        for tau in (0.0, 0.5, 1.0, 2.0, 3.0):
            assert cond_risk_star_closed([1.0, 0.0, 0.0], tau) == \
                pytest.approx(0.0, abs=1e-15)

    def test_above_two_is_vertex_value(self):
        # concave in softmax coordinates above tau = 2: the infimum is the
        # degenerate vertex limit, not the interior stationary point
        p = [0.5, 0.3, 0.15, 0.05]
        assert cond_risk_star_closed(p, 3.0) == pytest.approx(0.25)
        stat = cond_risk_power_sum_stationary(p, 3.0)
        assert stat > cond_risk_star_closed(p, 3.0)

    def test_stationary_matches_closed_below_two(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.choice([2, 3, 5]))
            p = rng.dirichlet(np.ones(n))
            tau = float(rng.uniform(0.0, 1.95))
            assert cond_risk_power_sum_stationary(p, tau) == pytest.approx(
                cond_risk_star_closed(p, tau), rel=1e-10, abs=1e-12)

    def test_stationary_warns_on_zeros_above_two(self):
        with pytest.warns(RuntimeWarning):
            cond_risk_power_sum_stationary([0.9, 0.1, 0.0], 2.5)

    def test_continuity_in_tau_at_two(self):
        p = [0.55, 0.3, 0.15]
        base = cond_risk_star_closed(p, 2.0)
        assert cond_risk_star_closed(p, 2.0 - 1e-7) == pytest.approx(
            base, abs=1e-5)
        assert cond_risk_star_closed(p, 2.0 + 1e-7) == pytest.approx(
            base, abs=1e-5)


class TestBruteOracle:
    def test_matches_entropy(self):
        res = cond_risk_star_brute([0.7, 0.3], 1.0, score_box(2, 30.0), seed=0)
        expected = 0.7 * math.log(1 / 0.7) + 0.3 * math.log(1 / 0.3)
        assert res.value == pytest.approx(expected, abs=1e-9)

    def test_onehot_drains_to_floor(self):
        res = cond_risk_star_brute([0.0, 1.0, 0.0], 0.5,
                                   score_box(3, 20.0), seed=0)
        assert res.value == pytest.approx(0.0, abs=1e-6)
        assert res.scores[1] > res.scores[0]

    def test_oversized_box_is_refused(self):
        # 2 * lam overflows, so no start can be drawn from [-lam, lam]
        with pytest.raises(ValueError, match="too wide"):
            cond_risk_star_brute([0.5, 0.5], 1.0, score_box(2, 1e308))

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(2)
        for i in range(40):
            n = int(rng.choice([2, 3, 5, 10]))
            tau = float(rng.uniform(0.0, 3.0))
            p = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
            if abs(2 - tau) > 1e-9 and \
                    abs(1 / (2 - tau)) * math.log(p.max() / p.min()) > 48.0:
                continue
            res = cond_risk_star_brute(p, tau, score_box(n, 30.0), seed=i)
            assert res.value == pytest.approx(
                cond_risk_star_closed(p, tau), abs=1e-6)

    def test_box_infimum_converges_to_closed_form(self):
        # completeness in practice: the box value decreases to the
        # complete-set value as the box grows
        p = np.array([0.6, 0.3, 0.1])
        closed = cond_risk_star_closed(p, 0.5)
        prev = math.inf
        for lam in (5.0, 15.0, 30.0):
            v = cond_risk_star_brute(p, 0.5, score_box(3, lam), seed=1).value
            assert v >= closed - 1e-9
            assert v <= prev + 1e-12
            prev = v
        assert prev == pytest.approx(closed, abs=1e-8)

    def test_deterministic_case_closed_form(self):
        # deterministic labels: the box optimum is the transform of
        # exp(-2 lam) * (n - 1)
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.choice([2, 3, 5]))
            lam = float(rng.uniform(0.5, 3.0))
            tau = float(rng.uniform(0.0, 2.5))
            p = np.zeros(n)
            p[int(rng.integers(0, n))] = 1.0
            res = cond_risk_star_brute(p, tau, score_box(n, lam), seed=5)
            expected = losses.phi_tau(math.exp(-2 * lam) * (n - 1), tau)
            assert res.value == pytest.approx(expected, abs=1e-8)

    def test_signed_weights_supremum(self):
        # negated coefficients turn the minimizer into a supremum oracle
        c = np.array([0.5, -0.5])
        res = minimize_weighted_cond_risk(-c, 1.0, 2.0, seed=0)
        sup = -res.value
        assert sup > 0.0

    def test_requires_score_box(self):
        with pytest.raises(ValueError):
            cond_risk_star_brute([0.5, 0.5], 1.0, linear_family(2, 1), seed=0)


class TestBatchOracle:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_single_problem_oracle(self, n):
        rng = np.random.default_rng(n)
        C = rng.dirichlet(np.ones(n), size=6)
        C[1::2] *= -1.0  # negated rows: suprema
        lam = 3.0
        seeds = [10 * n + b for b in range(6)]
        for tau in (0.5, 1.0, 1.5, 2.5):
            batch = minimize_weighted_cond_risk_batch(C, tau, lam, seeds)
            assert len(batch) == len(C)
            for c, seed, got in zip(C, seeds, batch):
                want = minimize_weighted_cond_risk(c, tau, lam, seed=seed)
                assert abs(got.value - want.value) <= 1e-9
                assert got.converged == want.converged
                if tau > 1.0:
                    continue
                # for tau <= 1 the weighted loss is convex in the scores
                if c[0] < 0:
                    # a convex function peaks at a box vertex, and a vertex
                    # with both signs is the only point of its shift line
                    assert np.all(np.abs(want.scores) == lam)
                    assert np.abs(got.scores - want.scores).max() <= 1e-9
                else:
                    # the loss ignores a common shift of the scores, so the
                    # minimizer is unique up to that shift
                    assert np.abs((got.scores - got.scores.mean())
                                  - (want.scores - want.scores.mean())
                                  ).max() <= 1e-6

    def test_one_problem_takes_the_scalar_path(self):
        c = np.array([0.2, 0.5, 0.3])
        (got,) = minimize_weighted_cond_risk_batch([c], 1.3, 5.0, [4])
        want = minimize_weighted_cond_risk(c, 1.3, 5.0, seed=4)
        assert got.value == want.value
        assert np.array_equal(got.scores, want.scores)
        assert got.converged == want.converged

    def test_empty_batch_and_shape_errors(self):
        assert minimize_weighted_cond_risk_batch(np.zeros((0, 2)), 1.0, 1.0,
                                                 []) == []
        with pytest.raises(ValueError):
            minimize_weighted_cond_risk_batch([[0.5, 0.5]], 1.0, 1.0, [0, 1])


def stationarity_residual(p, tau):
    """Independent oracle: the score-sum form of the risk derivative.

    For each label, ``p_y (1 - S_y) / S_y^tau + sum_{y' != y} p_{y'} /
    (S_{y'}^{tau-1} S_y)`` must vanish at the optimal sums.
    """
    p = np.asarray(p, dtype=np.float64)
    r = 1.0 / (2.0 - tau)
    S = (p ** r).sum() / p ** r
    res = np.empty_like(p)
    for y in range(p.size):
        other = sum(p[j] / (S[j] ** (tau - 1.0) * S[y])
                    for j in range(p.size) if j != y)
        res[y] = p[y] * (1.0 - S[y]) / S[y] ** tau + other
    return res


class TestOptimalScores:
    def test_stationary_point_residual(self):
        # the power-sum scores are stationary on both sides of tau = 2
        # (above it they are a stationary point but not the minimum)
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.choice([2, 3, 5]))
            p = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
            tau = float(rng.uniform(0.0, 1.9)) if rng.random() < 0.7 \
                else float(rng.uniform(2.1, 3.0))
            assert np.max(np.abs(stationarity_residual(p, tau))) <= 1e-8

    def test_zero_calibration_gap_at_optimum(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.choice([2, 3, 5]))
            p = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
            tau = float(rng.uniform(0.0, 1.9))
            s = optimal_scores(p, tau)
            assert calibration_gap(s, p, tau, score_box(n)) == pytest.approx(
                0.0, abs=1e-9)

    def test_gap_nonnegative_everywhere(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.choice([2, 3]))
            p = rng.dirichlet(np.ones(n))
            s = rng.normal(scale=2.0, size=n)
            assert calibration_gap(s, p, 1.0, score_box(n)) >= -1e-9

    def test_onehot_matching_argmax_with_margin(self):
        p = np.array([0.0, 1.0])
        s = np.array([-10.0, 10.0])
        assert calibration_gap(s, p, 1.0, score_box(2)) == pytest.approx(
            0.0, abs=1e-8)


class TestMinimizabilityGap:
    def test_score_box_decomposes(self):
        dist = finite_distribution([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]])
        assert minimizability_gap(dist, score_box(2, 5.0), 1.0) == 0.0

    def test_score_box_runs_no_oracle(self, monkeypatch):
        def no_oracle(*args):
            raise AssertionError("the score-box gap ran the box oracle")

        monkeypatch.setattr(risk, "pgd_box_weighted_min", no_oracle)
        monkeypatch.setattr(risk, "pgd_box_weighted_min_batch", no_oracle)
        dist = finite_distribution([0.3, 0.7], [[0.9, 0.1], [0.2, 0.8]])
        for spec in (score_box(2, 1.5), score_box(2)):
            gap = minimizability_gap(dist, spec, 1.7, seed=4)
            assert gap == 0.0 and type(gap) is float
        with pytest.raises(ValueError):
            minimizability_gap(dist, score_box(2, 1.5), -1.0)

    def test_linear_needs_finite_weight_bound(self, monkeypatch):
        def no_oracle(*args):
            raise AssertionError("the box oracle ran on an unbounded box")

        monkeypatch.setattr(risk, "pgd_box_weighted_min", no_oracle)
        monkeypatch.setattr(risk, "pgd_box_weighted_min_batch", no_oracle)
        dist = finite_distribution([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]],
                                   xs=[[1.0], [-1.0]])
        for bound in (math.inf, 1e308):
            with pytest.raises(ValueError, match="finite weight_bound"):
                minimizability_gap(dist, linear_family(2, 1, bound), 1.0)

    def test_linear_conflict_is_positive(self):
        # two points with identical features but opposite labels force a
        # shared score vector
        dist = finite_distribution([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]],
                                   xs=[[1.0], [1.0]])
        gap = minimizability_gap(dist, linear_family(2, 1, weight_bound=10.0),
                                 1.0)
        assert gap > 0.1

    def test_linear_with_separable_features_vanishes(self):
        # distinguishable features let the joint optimum match the
        # pointwise optima
        dist = finite_distribution([0.5, 0.5], [[0.85, 0.15], [0.2, 0.8]],
                                   xs=[[1.0, 0.0], [0.0, 1.0]])
        gap = minimizability_gap(dist, linear_family(2, 2, weight_bound=50.0),
                                 1.0, seed=3)
        assert abs(gap) <= 1e-6

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for i in range(5):
            dist = finite_distribution(
                [0.3, 0.7], rng.dirichlet(np.ones(3), size=2),
                xs=rng.normal(size=(2, 2)))
            gap = minimizability_gap(dist, linear_family(3, 2, weight_bound=5.0),
                                     1.5, seed=i)
            assert gap >= -1e-9


class TestDeterministicGapBound:
    def test_identity_at_tau_zero(self):
        spec = score_box(5, 2.0)
        c0 = math.exp(-4.0) * 4
        assert gap_upper_bound_deterministic(spec, 0.0, 0.5) == pytest.approx(
            0.5 - c0)

    def test_large_box_limit(self):
        spec = score_box(5, 200.0)
        assert gap_upper_bound_deterministic(spec, 1.0, 0.5) == pytest.approx(
            losses.phi_tau(0.5, 1.0), abs=1e-12)

    def test_domain_error(self):
        spec = score_box(5, 1.0)
        with pytest.raises(ValueError):
            gap_upper_bound_deterministic(spec, 1.0, 1e-9)

    def test_ordering_in_tau(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            lam = float(rng.uniform(0.5, 5.0))
            n = int(rng.choice([2, 3, 5, 10]))
            spec = score_box(n, lam)
            r = math.exp(-2 * lam) * (n - 1) + float(rng.exponential(1.0))
            vals = [gap_upper_bound_deterministic(spec, t, r)
                    for t in (0.0, 1.0, 1.5, 2.0)]
            assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))


class TestJensenChain:
    def test_transformed_best_risk_bounded(self):
        # best-in-class risk of the composed loss is at most the transform
        # of the best-in-class inner-loss risk
        rng = np.random.default_rng(9)
        for i in range(15):
            n = int(rng.choice([2, 3]))
            K = int(rng.integers(1, 4))
            dist = finite_distribution(rng.dirichlet(np.ones(K)),
                                       rng.dirichlet(np.ones(n), size=K))
            spec = score_box(n, 6.0)
            tau = float(rng.uniform(0.0, 2.0))
            r_tau = sum(pt.weight * cond_risk_star_brute(
                pt.cond, tau, spec, seed=i).value for pt in dist.points)
            r_zero = sum(pt.weight * cond_risk_star_brute(
                pt.cond, 0.0, spec, seed=i).value for pt in dist.points)
            assert r_tau <= losses.phi_tau(r_zero, tau) + 1e-9


class TestSerialization:
    def test_round_trip(self, tmp_path):
        dist = finite_distribution([0.25, 0.75],
                                   [[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
        path = tmp_path / "dist.csv"
        save_distribution(dist, path)
        text = path.read_text().splitlines()
        assert text[0] == "weight,p1,p2,p3"
        loaded = load_distribution(path)
        assert loaded.n == 3
        assert np.allclose(loaded.weights, dist.weights)
        assert np.allclose(loaded.conds, dist.conds)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError):
            load_distribution(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("weight,p1,p2\n1.0,0.5\n")
        with pytest.raises(ValueError, match="line 2"):
            load_distribution(path)


class TestSpecValidation:
    def test_symmetry_and_completeness_flags(self):
        assert score_box(3).is_complete
        assert score_box(3).is_symmetric
        assert not score_box(3, 5.0).is_complete
        assert score_box(3, 5.0).is_symmetric
        asym = score_box(3, 5.0).__class__("score_box", 3, lam=5.0,
                                           label_lams=(1.0, 2.0, 3.0))
        assert not asym.is_symmetric
        assert linear_family(3, 2).is_symmetric
        assert not linear_family(3, 2).is_complete

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            score_box(1)
        with pytest.raises(ValueError):
            score_box(3, -1.0)
        with pytest.raises(ValueError):
            linear_family(3, 0)
