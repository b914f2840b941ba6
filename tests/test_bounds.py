"""Bound-assembly tests: equality instances, random slack, score family,
learning bound."""

import math
import re

import numpy as np
import pytest

from compsum import bounds, losses, suites, transform
from compsum.bounds import (
    BOUND_CSV_HEADER,
    LearningBoundResult,
    _golden_min_rows,
    _lemma_sup_closed_rows,
    _sup_rows,
    build_tightness_instance,
    hbar_mu_range,
    hbar_mu_scores,
    learning_bound,
    lemma_sup_closed,
    lemma_sup_grid,
    lemma_sup_grid_batch,
    tightness_sides,
    verify_h_consistency_bound,
    verify_lemma_inf,
    verify_lemma_inf_batch,
)
from compsum.cli import main
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

    def test_batch_equals_one_call_per_instance(self):
        # every label count and suite tau, one to three atoms, vacuous and
        # non-vacuous instances, a finite box and the non-symmetric fixture
        rng = np.random.default_rng(22)
        dists, assignments, specs, taus = [], [], [], []
        for n in (2, 3, 5):
            for tau in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
                for K in (1, 2, 3):
                    dists.append(finite_distribution(
                        rng.dirichlet(np.ones(K)),
                        rng.dirichlet(np.ones(n), size=K)))
                    scale = float(rng.choice([0.3, 12.0]))
                    assignments.append(np.clip(
                        rng.normal(scale=scale, size=(K, n)), -12.0, 12.0))
                    specs.append(score_box(n, 12.0) if K == 2
                                 else score_box(n))
                    taus.append(tau)
        dists.append(finite_distribution([1.0], [[0.6, 0.4]]))
        assignments.append([[0.0, 0.0]])
        specs.append(HypothesisSpec("score_box", 2, lam=4.0,
                                    label_lams=(1.0, 2.0)))
        taus.append(1.0)

        batch = bounds.verify_h_consistency_bound_batch(
            dists, assignments, specs, taus)
        singles = [verify_h_consistency_bound(*args)
                   for args in zip(dists, assignments, specs, taus)]
        assert [r.csv_row() for r in batch] == \
            [r.csv_row() for r in singles]
        flags = [f for r in batch for f in r.flags]
        for flag in ("vacuous:surrogate_excess_above_transform_range",
                     "finite_box_closed_forms",
                     "precondition_unmet:not_symmetric"):
            assert flag in flags
        assert sum(math.isfinite(r.slack) and r.rhs < 1.0 for r in batch) > 20

    def test_batch_of_nothing(self):
        assert bounds.verify_h_consistency_bound_batch([], [], [], []) == []

    def test_batch_refuses_unequal_lengths(self):
        dist = finite_distribution([1.0], [[0.4, 0.6]])
        with pytest.raises(ValueError, match="equal lengths"):
            bounds.verify_h_consistency_bound_batch(
                [dist, dist], [[[0.0, 0.1]]], [score_box(2)] * 2, [1.0] * 2)

    def test_suite_summary_pins_the_draw_order(self):
        # any change in what the suite draws, or in which order, moves
        # these figures
        _, rows, violations = suites.run_bounds_suite(count=1000, seed=3)
        assert rows[-1] == "# min_slack=1.563e-11 vacuous=252/1000"
        assert not violations


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
        vals = _lemma_sup_closed_rows(
            S, _sup_rows(p, tau, 0, 1).take(np.zeros(8, dtype=int)))
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

    def test_sup_closed_rows_mixed_branches(self):
        # one call over rows of every branch and instance gives each row
        # the value of its own instance alone, bit for bit
        rng = np.random.default_rng(8)
        cases = [(np.array([0.5, 0.3, 0.2]), tau, 0, 1)
                 for tau in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)]
        cases.append((np.array([0.7, 0.0, 0.3]), 1.0, 0, 1))
        cases.append((np.array([0.7, 0.0, 0.3]), 0.5, 0, 1))
        S = rng.normal(scale=2.0, size=(len(cases), 3))
        q = bounds._SupRows(*map(np.concatenate, zip(*(
            _sup_rows(*case) for case in cases))))
        vals = _lemma_sup_closed_rows(S, q)
        for s, case, v in zip(S, cases, vals):
            alone = _lemma_sup_closed_rows(s[None, :], _sup_rows(*case))
            assert alone[0] == v

    @pytest.mark.parametrize("tau", [-1.0, math.nan, math.inf])
    def test_sup_grid_rejects_bad_tau(self, tau):
        with pytest.raises(ValueError, match="tau"):
            lemma_sup_grid(np.array([0.0, 1.0]), np.array([0.6, 0.4]), tau)

    def test_inf_batch_equals_one_call_per_instance(self):
        # mixed label counts; tau exactly 1, inside (0, 2), exactly 2 and
        # inside (2, 3); a given predicted label; a predicted label of zero
        # probability
        rng = np.random.default_rng(9)
        ps, taus, preds = [], [], []
        for k, tau in enumerate([1.0, 0.7, 2.0, 2.6, 1.0, 1.3, 2.0, 2.2,
                                 0.0, 1.0]):
            ps.append(rng.dirichlet(np.ones([2, 3, 5][k % 3])))
            taus.append(tau)
            preds.append(None)
        preds[4] = int(np.argsort(ps[4])[0])  # n = 3: the least likely label
        zero = np.array([0.6, 0.0, 0.1, 0.2, 0.1])
        ps.append(zero)
        taus.append(1.5)
        preds.append(1)
        ps.append(zero)
        taus.append(1.0)
        preds.append(1)
        seeds = [100 + k for k in range(len(ps))]
        batch = verify_lemma_inf_batch(ps, taus, seeds, preds)
        assert len(batch) == len(ps)
        for p, tau, seed, pred, res in zip(ps, taus, seeds, preds, batch):
            alone = verify_lemma_inf(p, tau, pred_label=pred, seed=seed)
            assert res.closed == alone.closed
            assert res.brute == alone.brute
            assert res.scores.tobytes() == alone.scores.tobytes()
            assert res.converged and alone.converged
        assert batch[-1].scores[1] == 0.0
        assert batch[-1].brute == pytest.approx(batch[-1].closed, abs=1e-6)

    def test_inf_batch_of_nothing(self):
        assert verify_lemma_inf_batch([], [], []) == []

    @pytest.mark.parametrize("bad, match", [
        ({"pred_label": -1}, "pred_label"),
        ({"pred_label": 7}, "pred_label"),
        ({"pred_label": 1.5}, "pred_label"),
        ({"n_starts": 0}, "n_starts"),
        ({"n_starts": 2.5}, "n_starts"),
        ({"spread": 0.0}, "spread"),
        ({"spread": -1.0}, "spread"),
        ({"spread": math.nan}, "spread"),
        ({"seeds": [0, 1]}, "lengths"),
        ({"pred_labels": [1, 2]}, "lengths"),
    ])
    def test_inf_rejects_bad_arguments(self, bad, match):
        # n_starts and spread are fixed settings, no longer arguments
        error = TypeError if match in ("n_starts", "spread") else ValueError
        p = np.array([0.5, 0.3, 0.2])
        batch = {"seeds": [0], **bad}
        if "pred_label" in bad:
            batch["pred_labels"] = [batch.pop("pred_label")]
        with pytest.raises(error, match=match):
            verify_lemma_inf_batch([p], [1.0], **batch)
        if "seeds" not in bad and "pred_labels" not in bad:
            with pytest.raises(error, match=match):
                verify_lemma_inf(p, 1.0, **bad)

    def test_lemmas_suite_searches_its_infima_in_one_batch(self, monkeypatch):
        calls = []
        batch = bounds.verify_lemma_inf_batch

        def counted(ps, taus, seeds, *args, **kwargs):
            calls.append(len(ps))
            return batch(ps, taus, seeds, *args, **kwargs)

        def single(*args, **kwargs):
            raise AssertionError("the suite searched an infimum alone")

        monkeypatch.setattr(bounds, "verify_lemma_inf_batch", counted)
        monkeypatch.setattr(bounds, "verify_lemma_inf", single)
        _, rows, violations = suites.run_lemmas_suite(n_sup=1, n_cons=1,
                                                      n_psi=1)
        assert calls == [24]
        assert sum(row.startswith("inf,") for row in rows) == 24
        assert violations == []

    def test_sup_grid_batch_equals_one_call_per_instance(self):
        # mixed label counts; tau exactly 1, inside (0, 2), exactly 2 and
        # above; a zero probability; given and default top and predicted
        # labels
        rng = np.random.default_rng(10)
        S, ps, taus, tops, preds = [], [], [], [], []
        for k, tau in enumerate([1.0, 0.4, 1.7, 2.0, 2.8, 0.0, 1.0, 2.5]):
            n = [2, 3, 5][k % 3]
            p = rng.dirichlet(np.ones(n))
            s = rng.normal(scale=2.0, size=n)
            top = losses.predict(p)
            s[(top + 1) % n] = s.max() + 0.5  # the prediction misses the top
            S.append(s)
            ps.append(p)
            taus.append(tau)
            tops.append(top if k % 2 else None)
            preds.append((top + 1) % n if k % 4 == 1 else None)
        S.append(np.array([0.3, 1.2, -0.4]))
        ps.append(np.array([0.7, 0.0, 0.3]))  # the predicted label has p = 0
        taus.append(1.0)
        tops.append(0)
        preds.append(1)
        batch = lemma_sup_grid_batch(S, ps, taus, tops, preds)
        assert len(batch) == len(S)
        for args, value in zip(zip(S, ps, taus, tops, preds), batch):
            assert lemma_sup_grid(*args) == value
        # the defaults are the argmaxes of p and of the scores
        assert lemma_sup_grid_batch(S, ps, taus) == lemma_sup_grid_batch(
            S, ps, taus, [losses.predict(p) for p in ps],
            [losses.predict(s) for s in S])
        for s, p, tau, value in zip(S, ps, taus, batch):
            assert value == pytest.approx(lemma_sup_closed(s, p, tau),
                                          abs=1e-6)

    def test_lemmas_suite_grids_its_suprema_in_one_batch(self, monkeypatch):
        calls = []
        batch = bounds.lemma_sup_grid_batch

        def counted(S, *args, **kwargs):
            calls.append(len(S))
            return batch(S, *args, **kwargs)

        def single(*args, **kwargs):
            raise AssertionError("the suite gridded a supremum alone")

        monkeypatch.setattr(bounds, "lemma_sup_grid_batch", counted)
        monkeypatch.setattr(bounds, "lemma_sup_grid", single)
        _, rows, violations = suites.run_lemmas_suite(n_inf=0, n_cons=1,
                                                      n_psi=1)
        assert calls == [60]
        assert sum(row.startswith("sup,") for row in rows) == 60
        assert violations == []

    def test_inf_batch_grids_each_label_count_once(self, monkeypatch):
        calls = []
        batch = bounds.lemma_sup_grid_batch

        def counted(S, *args, **kwargs):
            calls.append(np.shape(S))
            return batch(S, *args, **kwargs)

        monkeypatch.setattr(bounds, "lemma_sup_grid_batch", counted)
        rng = np.random.default_rng(11)
        ps = [rng.dirichlet(np.ones(n)) for n in (5, 2, 3, 2, 5, 2)]
        results = verify_lemma_inf_batch(ps, [0.5, 1.0, 1.5, 2.0, 2.5, 1.0],
                                         range(6))
        assert calls == [(3, 2), (1, 3), (2, 5)]
        for res in results[:4]:
            assert res.brute == pytest.approx(res.closed, abs=1e-6)


    @pytest.mark.parametrize("p, tau, pred", [
        *((n, tau, None) for n in (2, 3, 5)
          for tau in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)),
        ([0.6, 0.0, 0.1, 0.2, 0.1], 1.5, 1),
        ([0.6, 0.0, 0.1, 0.2, 0.1], 1.0, 1),
    ])
    def test_inf_objective_derivatives(self, p, tau, pred):
        # value against the closed form; gradient and Hessian against
        # central differences of the value and the gradient
        rng = np.random.default_rng(12)
        p = rng.dirichlet(np.ones(p)) if isinstance(p, int) else np.array(p)
        top = losses.predict(p)
        pred = (top + 1) % len(p) if pred is None else pred
        others = np.array([[j for j in range(len(p)) if j != pred]] * 6)
        q = _sup_rows(p, tau, top, pred).take(np.zeros(6, dtype=int))
        obj = bounds._LemmaSupRisk(q, others)
        h = bounds._INF_SPREAD / 2
        X = rng.uniform(-h, h, size=(6, len(p) - 1))
        S = np.zeros((6, len(p)))
        S[:, others[0]] = X - h
        f, G = obj.value_grad(X)
        H = obj.hessian(X)
        np.testing.assert_array_equal(f, _lemma_sup_closed_rows(S, q))
        np.testing.assert_array_equal(obj.value(X), f)
        eps = 1e-6
        for j in range(len(p) - 1):
            E = np.zeros_like(X)
            E[:, j] = eps
            g_num = (obj.value(X + E) - obj.value(X - E)) / (2 * eps)
            H_num = (obj.value_grad(X + E)[1]
                     - obj.value_grad(X - E)[1]) / (2 * eps)
            for r in range(6):
                assert abs(g_num[r] - G[r, j]) <= \
                    1e-6 * np.abs(G[r]).max() + 1e-9
                assert np.abs(H_num[r] - H[r, :, j]).max() <= \
                    1e-6 * np.abs(H[r]).max() + 1e-9

    def test_unconverged_inf_is_a_violation(self, monkeypatch, tmp_path,
                                            capsys):
        engine = bounds.newton_box_min

        def unconverged(*args):
            f, x, conv = engine(*args)
            return f, x, np.zeros_like(conv)

        monkeypatch.setattr(bounds, "newton_box_min", unconverged)
        _, rows, violations = suites.run_lemmas_suite(n_sup=1, n_inf=3,
                                                      n_cons=1, n_psi=1)
        expected = [row.split(",")[1:3] for row in rows
                    if row.startswith("inf,")]
        found = [m.groups() for m in map(re.compile(
            r"^inf search unconverged at tau=(.*), n=(\d+)$").match,
            violations) if m]
        assert len(found) == len(expected) == 3
        for (tau, n), (row_tau, row_n) in zip(found, expected):
            assert float(tau) == float(row_tau) and n == row_n
        out = tmp_path / "l.csv"
        assert main(["verify", "--suite", "lemmas", "--out", str(out)]) == 2
        assert "VIOLATION: inf search unconverged at tau=" in \
            capsys.readouterr().err


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

    @pytest.mark.parametrize("field, value", [
        ("m", 0), ("m", -3), ("m", 2.7), ("m", True), ("m", "50"),
        ("n_sign_draws", 0), ("n_sign_draws", 1.5),
        ("n_sign_draws", False), ("opt_iters", 0), ("opt_iters", 10.0),
        ("seed", -1), ("seed", 1.5), ("seed", None),
    ])
    def test_input_contract(self, field, value):
        kw = dict(m=50, delta=0.05, seed=0, n_sign_draws=5, opt_iters=100)
        kw[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            learning_bound(self._easy_dist(), score_box(2, 1.5), 1.0, **kw)

    # (weights, conds, lam, tau, m, delta, seed, n_sign_draws) and the
    # result of the per-point draws: one rng.choice per label and np.add.at
    # sums of the label counts, the signs and the suprema
    GOLDEN = [
        ((0.5, 0.5), ((0.95, 0.05), (0.1, 0.9)), 1.5, 2.0, 50, 0.05, 0, 200,
         LearningBoundResult(
             1.0, 0.0, True, 0.0, 0.0760264937198697, 0.005316101111584504,
             0.36591145776370215, 0.6700174326431809, 0.9525741268224333,
             50, 0.05, 0)),
        ((0.5, 0.5), ((0.95, 0.05), (0.1, 0.9)), 1.5, 2.0, 200, 0.05, 1, 200,
         LearningBoundResult(
             0.6250608018530874, 0.0, False, 0.0, 0.03239366801117316,
             0.002698995387415569, 0.18295572888185108, 0.3125304009265437,
             0.9525741268224333, 200, 0.05, 0)),
        ((0.5, 0.5), ((0.95, 0.05), (0.1, 0.9)), 1.5, 2.0, 800, 0.05, 2, 200,
         LearningBoundResult(
             0.33320153973631006, 0.0, False, 0.0, 0.018780726356807373,
             0.0012516074095052744, 0.09147786444092554, 0.16660076986815503,
             0.9525741268224333, 800, 0.05, 0)),
        ((0.1, 0.2, 0.3, 0.4), ((0.7, 0.2, 0.1), (0.2, 0.5, 0.3),
                                (0.0, 0.4, 0.6), (0.25, 0.35, 0.4)),
         2.0, 1.7, 12, 0.1, 0, 30,
         LearningBoundResult(
             1.0, 0.11999999999999998, True, 0.0, 0.47814537067423923,
             0.049845980144986, 0.9718880175468333, 2.88446950024379,
             1.375435894397868, 12, 0.1, 0)),
    ]

    @pytest.mark.parametrize("case", range(len(GOLDEN)))
    def test_equals_the_per_point_draws(self, case):
        weights, conds, lam, tau, m, delta, seed, draws, want = \
            self.GOLDEN[case]
        got = learning_bound(finite_distribution(weights, conds),
                             score_box(len(conds[0]), lam), tau, m=m,
                             delta=delta, seed=seed, n_sign_draws=draws)
        assert got == want


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
            return 0.0, np.ones_like(m.flat) * 0.01

        def select_metric(m, Xv, yv, rng):
            snapshots.append(m.get_flat())
            return next(metrics), {"clean_acc": 0.0, "robust_acc": 0.0}

        history, best_flat = _train_loop(data, model, cfg, batch_step,
                                         select_metric)
        flags = [h["checkpoint_flag"] for h in history]
        assert flags == [1, 1, 0, 0]
        assert np.allclose(best_flat, snapshots[1])
