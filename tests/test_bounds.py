"""Bound-assembly tests: equality instances, random slack, score family,
learning bound."""

import math

import numpy as np
import pytest

from compsum import transform
from compsum.bounds import (
    BOUND_CSV_HEADER,
    _golden_min_rows,
    _lemma_sup_closed_rows,
    build_tightness_instance,
    hbar_mu_range,
    hbar_mu_scores,
    learning_bound,
    lemma_sup_closed,
    lemma_sup_grid,
    tightness_sides,
    verify_h_consistency_bound,
    verify_lemma_inf,
)
from compsum.risk import HypothesisSpec, finite_distribution, score_box


class TestVerifyBound:
    def test_bayes_witness_zero_lhs(self):
        dist = finite_distribution([1.0], [[0.2, 0.8]])
        rep = verify_h_consistency_bound(dist, [[-3.0, 3.0]],
                                         score_box(2), 1.0)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs >= 0.0
        assert rep.slack >= -1e-9

    def test_equality_on_tightness_instance(self):
        inst = build_tightness_instance(0.4, 1.0, 3)
        rep = verify_h_consistency_bound(inst.dist, inst.assignment,
                                         score_box(3), 1.0)
        assert rep.slack == pytest.approx(0.0, abs=1e-9)

    def test_random_instances_never_violate(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            n = int(rng.choice([2, 3, 5]))
            K = int(rng.integers(1, 4))
            dist = finite_distribution(rng.dirichlet(np.ones(K)),
                                       rng.dirichlet(np.ones(n), size=K))
            assignment = rng.normal(scale=2.0, size=(K, n))
            tau = float(rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]))
            rep = verify_h_consistency_bound(dist, assignment,
                                             score_box(n), tau)
            assert rep.slack >= -1e-9

    def test_vacuous_flagged_not_violated(self):
        dist = finite_distribution([1.0], [[0.9, 0.1]])
        # scores backing the wrong label at tau = 3: the surrogate excess
        # exceeds the transform's range, which caps the bound at 1
        rep = verify_h_consistency_bound(dist, [[-12.0, 12.0]],
                                         score_box(2), 3.0)
        assert any(f.startswith("vacuous") for f in rep.flags)
        assert rep.rhs == 1.0
        assert rep.slack >= 0.0

    def test_non_symmetric_spec_precondition(self):
        dist = finite_distribution([1.0], [[0.5, 0.5]])
        asym = HypothesisSpec("score_box", 2, lam=5.0, label_lams=(1.0, 2.0))
        rep = verify_h_consistency_bound(dist, [[0.0, 0.0]], asym, 1.0)
        assert rep.flags == ["precondition_unmet:not_symmetric"]
        assert math.isnan(rep.slack)

    def test_assignment_outside_finite_box_rejected(self):
        dist = finite_distribution([1.0], [[0.5, 0.5]])
        with pytest.raises(ValueError):
            verify_h_consistency_bound(dist, [[6.0, 0.0]],
                                       score_box(2, 5.0), 1.0)

    def test_csv_row_shape(self):
        dist = finite_distribution([1.0], [[0.4, 0.6]])
        rep = verify_h_consistency_bound(dist, [[0.0, 0.1]], score_box(2), 1.0)
        assert len(rep.csv_row().split(",")) == \
            len(BOUND_CSV_HEADER.split(","))


class TestTightness:
    def test_degenerate_beta_zero(self):
        inst = build_tightness_instance(0.0, 1.0, 4)
        zo, sur = tightness_sides(inst)
        assert zo == pytest.approx(0.0, abs=1e-15)
        assert sur == pytest.approx(0.0, abs=1e-12)

    def test_beta_one_log_branch(self):
        inst = build_tightness_instance(1.0, 1.0, 4)
        _, sur = tightness_sides(inst)
        assert sur == pytest.approx(math.log(2), abs=1e-12)

    def test_sqrt_family_member(self):
        inst = build_tightness_instance(0.4, 0.0, 4)
        _, sur = tightness_sides(inst)
        assert sur == pytest.approx(1 - math.sqrt(1 - 0.16), abs=1e-12)

    @pytest.mark.parametrize("tau", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_equality_grid(self, tau):
        for beta in np.linspace(0.0, 1.0, 21):
            inst = build_tightness_instance(beta, tau, 5)
            zo, sur = tightness_sides(inst)
            assert abs(zo - beta) <= 1e-9
            assert abs(sur - transform.t_tau(beta, tau, 5)) <= 1e-9

    def test_above_one_flagged(self):
        inst = build_tightness_instance(0.3, 1.5, 3)
        assert "outside_proven_tightness_range" in inst.flags


class TestScoreFamily:
    def test_mu_zero_swaps_the_two_labels(self):
        s = np.array([0.5, 2.0, -1.0])
        out = hbar_mu_scores(s, 0.0, y_max=2)
        assert out[1] == pytest.approx(s[2])   # predicted slot
        assert out[2] == pytest.approx(s[1])   # top slot
        assert out[0] == s[0]

    def test_exp_sum_conserved(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.choice([2, 3, 5]))
            s = rng.normal(scale=2.0, size=n)
            y_max = int(rng.integers(0, n))
            from compsum.losses import predict
            if predict(s) == y_max:
                continue
            lo, hi = hbar_mu_range(s, y_max)
            mu = float(rng.uniform(0.99 * lo, 0.99 * hi))
            out = hbar_mu_scores(s, mu, y_max)
            rel = abs(np.exp(s).sum() - np.exp(out).sum()) / np.exp(s).sum()
            worst = max(worst, rel)
        assert worst <= 1e-12

    def test_out_of_range_mu_reports_interval(self):
        s = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="interval"):
            hbar_mu_scores(s, 10.0, y_max=0)

    def test_degenerate_top_equals_predicted(self):
        s = np.array([0.0, 1.0])
        out = hbar_mu_scores(s, 0.3, y_max=1)
        assert np.array_equal(out, s)


class TestLemmaForms:
    def test_sup_closed_vs_grid(self):
        rng = np.random.default_rng(3)
        from compsum.losses import predict
        checked = 0
        while checked < 60:
            n = int(rng.choice([2, 3, 5]))
            s = rng.normal(scale=2.0, size=n)
            p = rng.dirichlet(np.ones(n))
            y_max = predict(p)
            if predict(s) == y_max:
                continue
            tau = float(rng.uniform(0.0, 3.0))
            closed = lemma_sup_closed(s, p, tau, y_max)
            grid = lemma_sup_grid(s, p, tau, y_max)
            assert closed == pytest.approx(grid, abs=1e-6)
            checked += 1

    def test_inf_balanced_pair_is_zero(self):
        res = verify_lemma_inf(np.array([0.5, 0.5]), 1.0)
        assert res.closed == pytest.approx(0.0, abs=1e-12)
        assert res.brute == pytest.approx(0.0, abs=1e-9)

    def test_inf_matches_transform_on_two_label_margin(self):
        beta = 0.3
        res = verify_lemma_inf(np.array([(1 + beta) / 2, (1 - beta) / 2]), 1.0)
        assert res.brute == pytest.approx(transform.t_tau(beta, 1.0, 2),
                                          abs=1e-9)

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, 1.5, 2.0])
    def test_inf_closed_vs_brute(self, tau):
        rng = np.random.default_rng(4)
        for i in range(4):
            n = int(rng.choice([2, 3, 5]))
            p = rng.dirichlet(np.ones(n))
            res = verify_lemma_inf(p, tau, seed=i)
            assert res.brute == pytest.approx(res.closed, abs=1e-6)

    @pytest.mark.parametrize("tau", [2.5, 3.0])
    def test_inf_closed_is_lower_bound_above_two(self, tau):
        # above tau = 2 the closed branch under-states the infimum, which
        # is the direction the main bound needs
        rng = np.random.default_rng(5)
        for i in range(3):
            n = int(rng.choice([2, 3]))
            p = rng.dirichlet(np.ones(n))
            res = verify_lemma_inf(p, tau, seed=i)
            assert res.brute >= res.closed - 1e-9

    def test_pred_label_must_differ(self):
        with pytest.raises(ValueError):
            verify_lemma_inf(np.array([0.2, 0.8]), 1.0, pred_label=1)

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
    @pytest.mark.parametrize("p", [[0.5, 0.3, 0.2], [0.7, 0.0, 0.3]])
    def test_sup_closed_rows_vs_grid(self, tau, p):
        # the predicted label 1 leads every row; in the second
        # distribution it carries zero probability
        p = np.array(p)
        rng = np.random.default_rng(6)
        S = rng.normal(scale=2.0, size=(8, 3))
        S[:, 1] = S.max(axis=1) + rng.uniform(0.0, 1.0, size=8)
        vals = _lemma_sup_closed_rows(S, p, tau, 0, 1)
        assert vals.shape == (8,)
        for s, v in zip(S, vals):
            assert v == pytest.approx(lemma_sup_grid(s, p, tau, 0, 1), abs=1e-6)

    def test_golden_min_rows_matches_each_row_alone(self):
        # brackets of different widths and offsets close after different
        # numbers of steps; a closed row must not move again
        lo = np.array([-1.0, -10.0, 0.5, 100.0, -1e3])
        hi = np.array([1.0, 10.0, 0.6, 100.001, 1e3])
        shift = np.array([0.3, -7.2, 0.55, 100.0004, 512.25])
        steps = [[] for _ in lo]
        calls = []

        def f(rows, x):
            calls.append(rows)
            return (x - shift[rows]) ** 2

        x, fx = _golden_min_rows(f, lo, hi)
        np.testing.assert_allclose(x, shift, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(fx, (x - shift) ** 2, rtol=0.0, atol=0.0)
        for k, rows in enumerate(calls[1:-1]):
            for r in rows:
                steps[r].append(k)
        # each row takes a run of steps from the first, then stays frozen
        assert all(s == list(range(len(s))) for s in steps)
        assert len({len(s) for s in steps}) > 1
        for r in range(len(lo)):
            xr, fr = _golden_min_rows(lambda rows, v: (v - shift[r]) ** 2,
                                      lo[r:r + 1], hi[r:r + 1])
            assert (xr[0], fr[0]) == (x[r], fx[r])


class TestLearningBound:
    def _easy_dist(self):
        return finite_distribution([0.5, 0.5], [[0.95, 0.05], [0.1, 0.9]])

    def test_components_and_determinism(self):
        dist = self._easy_dist()
        spec = score_box(2, 1.5)
        a = learning_bound(dist, spec, 2.0, m=100, delta=0.05, seed=7,
                           n_sign_draws=50)
        b = learning_bound(dist, spec, 2.0, m=100, delta=0.05, seed=7,
                           n_sign_draws=50)
        assert a == b
        assert a.rademacher > 0
        assert a.concentration > 0
        assert a.arg == pytest.approx(
            a.m_gap + 4 * a.rademacher + a.concentration)
        assert 0.0 <= a.realized_excess <= 1.0

    def test_concentration_term_vanishes_with_m(self):
        dist = self._easy_dist()
        spec = score_box(2, 1.5)
        prev = math.inf
        for m in (50, 200, 800, 3200):
            r = learning_bound(dist, spec, 2.0, m=m, delta=0.05, seed=1,
                               n_sign_draws=10)
            assert r.concentration < prev
            prev = r.concentration
        assert prev < 0.1

    def test_vacuous_at_tiny_sample(self):
        dist = self._easy_dist()
        r = learning_bound(dist, score_box(2, 30.0), 1.0, m=5, delta=0.05,
                           seed=0, n_sign_draws=10)
        assert r.vacuous
        assert r.bound == 1.0

    def test_bound_shrinks_and_covers(self):
        dist = self._easy_dist()
        spec = score_box(2, 1.5)
        prev = math.inf
        for m in (50, 200, 800):
            r = learning_bound(dist, spec, 2.0, m=m, delta=0.05, seed=3,
                               n_sign_draws=100)
            assert r.bound <= prev + 1e-12
            assert r.realized_excess <= r.bound + 1e-12
            prev = r.bound
        assert prev < 1.0  # non-vacuous by m = 800

    def test_counts_unconverged_oracle_solves(self):
        # two support points: at most 2 minimizers and 2 suprema per draw
        dist = self._easy_dist()
        r = learning_bound(dist, score_box(2, 30.0), 1.0, m=100, delta=0.05,
                           seed=2, n_sign_draws=20)
        assert r.oracle_nonconverged == 0
        capped = learning_bound(dist, score_box(2, 30.0), 1.0, m=100,
                                delta=0.05, seed=2, n_sign_draws=20,
                                opt_iters=1)
        assert 0 < capped.oracle_nonconverged <= 2 + 2 * 20

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            learning_bound(self._easy_dist(), score_box(2, 1.5), 1.0,
                           m=50, delta=1.0, seed=0)

    def test_needs_finite_box(self):
        with pytest.raises(ValueError):
            learning_bound(self._easy_dist(), score_box(2), 1.0,
                           m=50, delta=0.05, seed=0)


class TestTrainLoopSelection:
    def test_checkpoint_tracks_best_metric(self):
        # drive the generic loop with a stubbed metric sequence and check
        # the returned parameters belong to the best epoch
        from compsum.train import TrainConfig, _train_loop
        from compsum.train import SyntheticDataset
        from compsum.models import init_linear

        X = np.zeros((8, 2))
        y = np.zeros(8, dtype=np.int64)
        data = SyntheticDataset(X, y, X, y, 2)
        model = init_linear(2, 2, seed=0)
        cfg = TrainConfig(epochs=4, batch_size=8, holdout_frac=0.0,
                          momentum=0.0, lr0=1.0, schedule="constant")
        metrics = iter([0.2, 0.9, 0.4, 0.1])
        snapshots = []

        def batch_step(m, Xb, Yb, rng):
            g = {k: np.ones_like(v) * 0.01 for k, v in m.params().items()}
            return 0.0, g

        def select_metric(m, Xv, yv, rng):
            snapshots.append(m.get_flat())
            return next(metrics), {"clean_acc": 0.0, "robust_acc": 0.0}

        history, best_flat, _ = _train_loop(data, model, cfg, batch_step,
                                            select_metric)
        flags = [h["checkpoint_flag"] for h in history]
        assert flags == [1, 1, 0, 0]
        assert np.allclose(best_flat, snapshots[1])
