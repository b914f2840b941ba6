"""Trainer tests: determinism, descent, robustness relations, checkpoints."""

import dataclasses
import math
import os
import re

import numpy as np
import pytest

from compsum import adversarial, models
from compsum import train as train_mod
from compsum.adversarial import AdvParams, PerturbationBall, deviation_objective
from compsum.losses import comp_sum_loss_batch
from compsum.models import init_linear, init_mlp, load_model, save_model
from compsum.train import (
    TrainConfig,
    cosine_lr,
    evaluate,
    gaussian_mixture_dataset,
    make_model,
    margin_task_dataset,
    train_adv_comp_sum,
    train_standard,
    train_standard_best_lr,
)


def small_data(seed=0):
    return gaussian_mixture_dataset(n_classes=2, dim=4, n_train=300,
                                    n_test=200, center_scale=3.0, noise=0.5,
                                    seed=seed)


class TestSchedule:
    def test_cosine_formula(self):
        assert cosine_lr(0.4, 0, 10) == pytest.approx(0.4)
        assert cosine_lr(0.4, 5, 10) == pytest.approx(0.2)
        assert cosine_lr(0.4, 10, 10) == pytest.approx(0.0, abs=1e-15)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(schedule="step")
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(adversarial=AdvParams(n=2))  # ball missing


class TestSizeChecks:
    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("epochs", -2), ("batch_size", 0), ("lr0", 0.0),
        ("lr0", -0.1), ("lr0", math.inf), ("lr0", math.nan),
        ("holdout_frac", 1.0), ("holdout_frac", 1.5), ("holdout_frac", -0.1),
        ("weight_avg_decay", math.nan), ("weight_avg_decay", math.inf),
        ("weight_avg_decay", -math.inf), ("weight_avg_decay", -1.0),
        ("weight_avg_decay", 1.0), ("weight_avg_decay", 1e308),
    ])
    def test_train_config_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("tau", True), ("lr0", True), ("lr0", False), ("momentum", True),
        ("weight_decay", True), ("epochs", True), ("batch_size", True),
        ("seed", True), ("holdout_frac", True), ("weight_avg_decay", False),
        ("eval_attack_steps", True),
    ])
    def test_train_config_refuses_bools(self, field, value):
        with pytest.raises(ValueError,
                           match=f"^{field} must be a number, not a bool"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("decay", [0.0, 0.98])
    def test_weight_avg_decay_in_unit_interval_accepted(self, decay):
        assert TrainConfig(weight_avg_decay=decay).weight_avg_decay == decay

    @pytest.mark.parametrize("make, kwargs, field", [
        (init_linear, dict(dim=0, n_labels=3), "dim"),
        (init_linear, dict(dim=4, n_labels=1), "n_labels"),
        (init_mlp, dict(dim=0, hidden=6, n_labels=3), "dim"),
        (init_mlp, dict(dim=4, hidden=0, n_labels=3), "hidden"),
        (init_mlp, dict(dim=4, hidden=6, n_labels=1), "n_labels"),
        (gaussian_mixture_dataset, dict(n_classes=1), "n_classes"),
        (gaussian_mixture_dataset, dict(dim=0), "dim"),
        (gaussian_mixture_dataset, dict(n_train=0), "n_train"),
        (gaussian_mixture_dataset, dict(n_test=-1), "n_test"),
        (margin_task_dataset, dict(dim=0), "dim"),
        (margin_task_dataset, dict(n_train=0), "n_train"),
        (margin_task_dataset, dict(n_test=0), "n_test"),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_models_and_datasets_reject(self, make, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be >= "):
            make(**kwargs)

    @pytest.mark.filterwarnings("error")
    def test_split_leaving_no_training_point_rejected(self):
        # the holdout keeps at least one point whenever holdout_frac > 0,
        # which leaves a one-point training set nothing to train on
        data = gaussian_mixture_dataset(n_train=1, seed=0)
        model = make_model("linear", data.X_train.shape[1], data.n_classes,
                           seed=0)
        with pytest.raises(ValueError,
                           match="^holdout_frac must .* training set of 1 "):
            train_standard(data, model, TrainConfig(epochs=1))
        _, hist = train_standard(data, model,
                                 TrainConfig(epochs=1, holdout_frac=0.0))
        assert math.isfinite(hist[0]["train_loss"])


class TestStandardTraining:
    def test_determinism_bit_identical(self):
        data = small_data()
        cfg = TrainConfig(tau=1.0, lr0=0.1, epochs=6, batch_size=64, seed=3)
        _, h1 = train_standard(data, make_model("mlp", 4, 2, 16, seed=3), cfg)
        _, h2 = train_standard(data, make_model("mlp", 4, 2, 16, seed=3), cfg)
        assert h1 == h2

    def test_separable_reaches_high_accuracy(self):
        data = small_data()
        cfg = TrainConfig(tau=1.0, lr0=0.1, epochs=15, batch_size=64, seed=0)
        _, hist = train_standard(data, make_model("mlp", 4, 2, 16, seed=0),
                                 cfg)
        assert hist[-1]["clean_acc"] >= 0.99

    def test_mae_loss_decreases(self):
        data = gaussian_mixture_dataset(n_classes=10, dim=20, n_train=1000,
                                        n_test=200, noise=2.5, seed=1)
        cfg = TrainConfig(tau=2.0, lr0=0.03, epochs=10, batch_size=128, seed=1)
        _, hist = train_standard(data, make_model("mlp", 20, 10, seed=1), cfg)
        assert hist[-1]["train_loss"] < hist[0]["train_loss"]

    def test_epoch_loss_mostly_non_increasing_late(self):
        data = gaussian_mixture_dataset(n_classes=10, dim=20, n_train=1500,
                                        n_test=200, noise=2.5, seed=2)
        cfg = TrainConfig(tau=1.0, lr0=0.1, epochs=16, batch_size=128, seed=2)
        _, hist = train_standard(data, make_model("mlp", 20, 10, seed=2), cfg)
        losses = [h["train_loss"] for h in hist][8:]
        # material rises only: mini-batch noise wiggles the converged tail
        rises = sum(b > a + 1e-3 * (1 + a)
                    for a, b in zip(losses, losses[1:]))
        assert rises <= max(1, int(0.05 * len(losses)) + 1)

    def test_divergence_aborts_with_last_state(self):
        data = small_data()
        # absurd rate at tau = 0 blows up immediately
        cfg = TrainConfig(tau=0.0, lr0=500.0, epochs=5, batch_size=64, seed=0,
                          schedule="constant")
        model, hist = train_standard(data, make_model("mlp", 4, 2, 16, seed=0),
                                     cfg)
        assert any(h.get("diverged") for h in hist)
        assert np.all(np.isfinite(model.get_flat()))

    @pytest.mark.parametrize("diverge_at,bad", [(0, "loss"), (7, "grads")])
    def test_divergence_keeps_state_after_last_finite_step(self, diverge_at,
                                                           bad):
        # a batch is checked before the step on it, so a diverging run ends
        # on exactly the parameters that the last finite step left (the
        # initial ones when the first batch diverges); 7 is in epoch 1
        data = small_data()
        model = make_model("mlp", 4, 2, 16, seed=0)
        cfg = TrainConfig(lr0=0.5, momentum=0.9, weight_decay=1e-3,
                          epochs=3, batch_size=64, seed=0)
        seen = []

        def batch_step(m, X, Y, rng):
            seen.append(m.get_flat())
            loss, grads = train_mod._standard_batch_grads(m, X, Y, 1.0)
            if len(seen) > diverge_at:
                if bad == "loss":
                    loss = math.inf
                else:
                    grads[-1] = math.nan
            return loss, grads

        def select_metric(m, Xv, yv, rng):
            return 0.0, {"clean_acc": 0.0, "robust_acc": 0.0}

        history, _, _ = train_mod._train_loop(data, model, cfg, batch_step,
                                              select_metric)
        assert history[-1]["diverged"] == 1
        assert len(seen) == diverge_at + 1
        assert np.array_equal(model.flat, seen[-1])
        assert np.array_equal(model.flat, seen[0]) == (diverge_at == 0)

    def test_lr_grid_prefers_stable_rate(self):
        data = small_data()
        cfg = TrainConfig(tau=0.0, epochs=8, batch_size=64, seed=0)
        model, hist, lr = train_standard_best_lr(
            data, lambda: make_model("mlp", 4, 2, 16, seed=0), cfg,
            lr_grid=(0.003, 500.0))
        assert lr == 0.003
        assert hist[-1]["clean_acc"] > 0.9

    def test_lr_grid_selects_on_holdout_not_test(self, monkeypatch):
        # the holdout prefers lr0 = 0.01, the test split lr0 = 0.1
        accs = {0.01: (0.9, 0.5), 0.1: (0.6, 0.95)}

        def fake_train_standard(data, model, cfg):
            holdout, test = accs[cfg.lr0]
            return model, [{"epoch": 0, "holdout_metric": holdout,
                            "clean_acc": test}]

        monkeypatch.setattr(train_mod, "train_standard", fake_train_standard)
        _, hist, lr = train_standard_best_lr(small_data(), object,
                                             TrainConfig(),
                                             lr_grid=(0.01, 0.1))
        assert lr == 0.01
        assert hist[-1]["holdout_metric"] == 0.9

    def test_weight_averaging_runs_and_differs(self):
        data = small_data()
        base = dict(tau=1.0, lr0=0.1, epochs=6, batch_size=64, seed=1)
        m_plain, _ = train_standard(data, make_model("mlp", 4, 2, 16, seed=1),
                                    TrainConfig(**base))
        m_avg, _ = train_standard(data, make_model("mlp", 4, 2, 16, seed=1),
                                  TrainConfig(**base, weight_avg_decay=0.98))
        assert not np.array_equal(m_plain.get_flat(), m_avg.get_flat())
        assert evaluate(m_avg, data.X_test, data.y_test)["clean_acc"] > 0.9

    def test_rejects_adversarial_config(self):
        data = small_data()
        cfg = TrainConfig(adversarial=AdvParams(n=2),
                          ball=PerturbationBall(math.inf, 0.1))
        with pytest.raises(ValueError):
            train_standard(data, make_model("mlp", 4, 2, 16), cfg)


class TestEvaluate:
    def test_perfect_on_own_train_set(self):
        data = small_data()
        cfg = TrainConfig(tau=1.0, lr0=0.1, epochs=20, batch_size=64, seed=0)
        model, _ = train_standard(data, make_model("mlp", 4, 2, 16, seed=0),
                                  cfg)
        m = evaluate(model, data.X_train, data.y_train)
        assert m["clean_acc"] >= 0.995

    def test_robust_accuracy_matches_enumeration_on_linear_1d(self):
        # affine scores on an interval: endpoint enumeration is exact, and
        # the margin attack should reproduce it
        from compsum.adversarial import adv_zero_one_exact_rows
        from compsum.models import LinearModel
        rng = np.random.default_rng(11)
        model = LinearModel(np.array([[1.3], [-0.7]]), np.array([0.2, -0.1]))
        X = rng.normal(size=(200, 1))
        y = rng.integers(0, 2, size=200)
        gamma = 0.3
        ball = PerturbationBall(math.inf, gamma)
        m = evaluate(model, X, y, ball, AdvParams(n=2, pgd_steps=40, seed=0))
        W, B = (np.tile(a, (200, 1)) for a in (model.W[:, 0], model.b))
        exact = 1.0 - np.mean(adv_zero_one_exact_rows(W, B, X[:, 0], y,
                                                      gamma))
        assert m["robust_acc"] == pytest.approx(exact, abs=1e-12)

    def test_robust_never_exceeds_clean(self):
        rng = np.random.default_rng(5)
        data = small_data()
        ball = PerturbationBall(math.inf, 0.2)
        for seed in range(3):
            model = make_model("mlp", 4, 2, 16, seed=seed)
            m = evaluate(model, data.X_test, data.y_test, ball,
                         AdvParams(n=2, pgd_steps=10, seed=seed))
            assert m["robust_acc"] <= m["clean_acc"] + 1e-12

    @pytest.mark.parametrize("bad", [-1, 2, 7])
    @pytest.mark.parametrize("robust", [False, True])
    def test_labels_out_of_range_name_y(self, bad, robust):
        # a negative label used to count as wrong, and the attack masked
        # the label it wrapped to; one past the end was an IndexError
        # under attack and a silent clean accuracy without
        data = small_data()
        model = make_model("mlp", 4, 2, 16, seed=0)
        y = data.y_test.copy()
        y[3] = bad
        ball = PerturbationBall(math.inf, 0.2) if robust else None
        attack = AdvParams(n=2, pgd_steps=5) if robust else None
        with pytest.raises(ValueError, match=r"^Y: labels must lie in "):
            evaluate(model, data.X_test, y, ball, attack)


class TestAdversarialTraining:
    def test_degenerate_ball_matches_standard(self):
        data = small_data()
        common = dict(tau=1.0, lr0=0.05, epochs=6, batch_size=64, seed=4)
        _, hs = train_standard(data, make_model("mlp", 4, 2, 16, seed=4),
                               TrainConfig(**common))
        adv = AdvParams(n=2, rho=1.0, nu=1.0, pgd_steps=5, seed=4)
        _, ha = train_adv_comp_sum(
            data, make_model("mlp", 4, 2, 16, seed=4),
            TrainConfig(**common, adversarial=adv,
                        ball=PerturbationBall(math.inf, 0.0)))
        for rs, ra in zip(hs, ha):
            assert ra["train_loss"] == pytest.approx(rs["train_loss"],
                                                     abs=1e-12)
            assert ra["clean_acc"] == rs["clean_acc"]
            # at zero radius the attack is the identity
            assert ra["robust_acc"] == ra["clean_acc"]

    def test_determinism(self):
        data = margin_task_dataset(n_train=200, n_test=100, seed=1)
        adv = AdvParams(n=2, rho=1.0, nu=1.0, pgd_steps=5, seed=1)
        cfg = TrainConfig(tau=1.0, lr0=0.1, epochs=4, batch_size=64, seed=1,
                          adversarial=adv,
                          ball=PerturbationBall(math.inf, 0.2))
        _, h1 = train_adv_comp_sum(data, make_model("mlp", 20, 2, 16, seed=1),
                                   cfg)
        _, h2 = train_adv_comp_sum(data, make_model("mlp", 20, 2, 16, seed=1),
                                   cfg)
        assert h1 == h2

    def test_checkpoint_flags_track_running_best(self):
        data = margin_task_dataset(n_train=200, n_test=100, seed=2)
        adv = AdvParams(n=2, rho=1.0, nu=1.0, pgd_steps=5, seed=2)
        cfg = TrainConfig(tau=1.0, lr0=0.1, epochs=6, batch_size=64, seed=2,
                          adversarial=adv,
                          ball=PerturbationBall(math.inf, 0.2))
        _, hist = train_adv_comp_sum(data, make_model("mlp", 20, 2, 16, seed=2),
                                     cfg)
        best = -math.inf
        for h in hist:
            assert h["checkpoint_flag"] == int(h["holdout_metric"] > best)
            best = max(best, h["holdout_metric"])

    def test_deviation_attack_leaves_the_clean_points(self, monkeypatch):
        # the deviation and its gradient are 0 at the clean points, so an
        # attack started there never moves; the training step starts it
        # from jittered points and finds a positive deviation at one restart
        data = margin_task_dataset(n_train=64, n_test=8, seed=3)
        X, Y = data.X_train, data.y_train
        adv = AdvParams(n=2, rho=1.0, nu=1.0, pgd_steps=5, restarts=1, seed=3)
        ball = PerturbationBall(math.inf, 0.2)
        model = make_model("mlp", X.shape[1], 2, 16, seed=3)
        clean = model.forward_vjp(X)
        values, X_adv = train_mod.pgd_maximize(
            model, deviation_objective(clean[0], Y), X, clean, ball, adv)
        assert np.all(values == 0.0) and np.array_equal(X_adv, X)

        attack = adversarial.pgd_maximize
        attacked = []

        def recorded(*args):
            attacked.append(attack(*args))
            return attacked[-1]

        monkeypatch.setattr(adversarial, "pgd_maximize", recorded)
        cfg = TrainConfig(tau=1.0, adversarial=adv, ball=ball)
        loss, _ = train_mod._smooth_batch_grads(model, X, Y, cfg,
                                                np.random.default_rng(0))
        (values, X_adv), = attacked
        assert np.all(values > 0.0)
        assert np.abs(X_adv - X).max() <= 0.2 + 1e-12
        clean_loss = comp_sum_loss_batch(clean[0], Y, 1.0).mean()
        assert loss == pytest.approx(clean_loss + values.mean(), abs=1e-12)

    def test_smooth_batch_grads_match_central_differences(self, monkeypatch):
        # at restarts = 2 the attack leaves the clean points, so the
        # deviation term and its gradients at X and at X_adv are nonzero;
        # X_adv is held fixed, as the training step treats it
        data = gaussian_mixture_dataset(n_classes=3, dim=4, n_train=12,
                                        n_test=3, seed=5)
        X, Y = data.X_train, data.y_train
        adv = AdvParams(n=3, rho=0.7, pgd_steps=5, restarts=2, seed=5)
        cfg = TrainConfig(tau=1.5, adversarial=adv,
                          ball=PerturbationBall(math.inf, 0.3))
        for make in (lambda: init_linear(4, 3, seed=5),
                     lambda: init_mlp(4, 6, 3, seed=5)):
            model, m2 = make(), make()
            clean = model.forward_vjp(X)
            _, X_adv = train_mod.pgd_maximize(
                model, deviation_objective(clean[0], Y), X, clean, cfg.ball,
                adv, np.random.default_rng(5))
            assert np.all(np.any(X_adv != X, axis=1))

            def loss(flat):
                m2.set_flat(flat)
                return train_mod._smooth_batch_grads(m2, X, Y, cfg, None)[0]

            with monkeypatch.context() as mp:
                mp.setattr(adversarial, "pgd_maximize",
                           lambda *args: (None, X_adv))
                _, gflat = train_mod._smooth_batch_grads(model, X, Y, cfg,
                                                         None)
                flat = model.get_flat()
                for idx in range(flat.size):
                    e = np.zeros_like(flat)
                    e[idx] = 1e-6
                    fd = (loss(flat + e) - loss(flat - e)) / 2e-6
                    assert gflat[idx] == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestModelsAndCheckpoints:
    def test_param_grads_match_fd(self):
        rng = np.random.default_rng(6)
        for make in (lambda: init_linear(3, 2, seed=0),
                     lambda: init_mlp(3, 5, 2, seed=0)):
            model, m2 = make(), make()
            X = rng.normal(size=(4, 3))
            ds = rng.normal(size=(4, model.n_labels))

            def loss(flat):
                m2.set_flat(flat)
                return float((m2.forward(X) * ds).sum())

            gflat = model.forward_vjp(X)[1].params(ds)
            flat = model.get_flat()
            for idx in rng.choice(flat.size, size=min(10, flat.size),
                                  replace=False):
                e = np.zeros_like(flat)
                e[idx] = 1e-6
                fd = (loss(flat + e) - loss(flat - e)) / 2e-6
                assert gflat[idx] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_forward_vjp_scores_are_forward(self):
        rng = np.random.default_rng(8)
        for model in (init_linear(3, 4, seed=2), init_mlp(3, 5, 4, seed=2)):
            X = rng.normal(size=(7, 3))
            assert np.array_equal(model.forward_vjp(X)[0], model.forward(X))

    @pytest.mark.parametrize("rows,dim,hidden,n", [(1, 1, 1, 2), (7, 3, 5, 4),
                                                   (800, 20, 64, 2),
                                                   (333, 11, 17, 10)])
    def test_mlp_passes_equal_expression_forms(self, rows, dim, hidden, n):
        # the in-place passes do the expression forms' operations in the
        # same order, so every value is equal bit for bit
        rng = np.random.default_rng(rows)
        model = init_mlp(dim, hidden, n, seed=rows)
        model.set_flat(rng.normal(size=model.flat.size))
        W1, b1, W2, b2 = model.W1, model.b1, model.W2, model.b2
        X = rng.normal(size=(rows, dim))
        ds = rng.normal(size=(rows, n))
        Z = np.tanh(X @ W1 + b1)
        dZ = (ds @ W2.T) * (1.0 - Z * Z)
        scores, back = model.forward_vjp(X)
        assert np.array_equal(model.forward(X), Z @ W2 + b2)
        assert np.array_equal(scores, Z @ W2 + b2)
        assert np.array_equal(back.inputs(ds), dZ @ W1.T)
        assert np.array_equal(back.params(ds), np.concatenate(
            [(X.T @ dZ).ravel(), dZ.sum(axis=0), (Z.T @ ds).ravel(),
             ds.sum(axis=0)]))

    def test_pullback_survives_repeats_and_later_passes(self):
        rng = np.random.default_rng(9)
        for model in (init_linear(6, 3, seed=4), init_mlp(6, 9, 3, seed=4)):
            X = rng.normal(size=(12, 6))
            X_before = X.copy()
            ds = rng.normal(size=(12, 3))
            _, back = model.forward_vjp(X)
            first = (back.inputs(ds), back.params(ds))
            second = (back.inputs(ds), back.params(ds))
            model.forward_vjp(rng.normal(size=(12, 6)))[1].inputs(ds)
            model.forward(rng.normal(size=(12, 6)))
            third = (back.inputs(ds), back.params(ds))
            for got in (second, third):
                assert all(np.array_equal(a, b) for a, b in zip(first, got))
            assert np.array_equal(X, X_before)

    def test_checkpoint_round_trip(self, tmp_path):
        for model in (init_linear(4, 3, seed=1), init_mlp(4, 8, 3, seed=1)):
            path = tmp_path / "m.ckpt"
            save_model(model, path)
            loaded = load_model(path)
            assert type(loaded) is type(model)
            assert np.array_equal(loaded.get_flat(), model.get_flat())
            header = path.read_bytes().split(b"\n", 1)[0]
            assert header.startswith(b"compsum-model ")

    def test_failed_save_keeps_old_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_model(init_mlp(4, 8, 3, seed=1), path)
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            save_model(init_mlp(4, 8, 3, seed=2), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.ckpt"]

    def test_views_share_the_flat_vector(self):
        for model in (init_linear(3, 2, seed=0), init_mlp(3, 5, 2, seed=0)):
            flat = model.get_flat()
            model.set_flat(flat + 1.0)
            assert np.array_equal(model.flat, flat + 1.0)
            arrays = [getattr(model, f.name)
                      for f in dataclasses.fields(model)]
            assert all(np.shares_memory(a, model.flat) for a in arrays)
            assert np.array_equal(
                np.concatenate([a.ravel() for a in arrays]), model.flat)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_checkpoint_rejected(self, tmp_path, bad):
        for model in (init_linear(4, 3, seed=1), init_mlp(4, 8, 3, seed=1)):
            model.flat[-1] = bad
            path = tmp_path / "m.ckpt"
            save_model(model, path)
            with pytest.raises(ValueError, match="non-finite parameters"):
                load_model(path)

    @pytest.mark.parametrize("data", [
        b"compsum-model mlp 4000 4000 10\n",
        b"compsum-model linear 3\n",
        b"compsum-model linear -3 2\n",
        b"compsum-model mlp 2 x 3\n",
        b"compsum-model linear 1 2\n" + bytes(31),
    ], ids=["huge", "missing-dim", "negative-dim", "non-integer-dim",
            "partial-float"])
    def test_bad_header_refused_before_any_array(self, tmp_path, monkeypatch,
                                                 data):
        def no_model(*args):
            raise AssertionError("a model was built for a bad checkpoint")

        monkeypatch.setattr(models, "LinearModel", no_model)
        monkeypatch.setattr(models, "MLPModel", no_model)
        path = tmp_path / "bad.ckpt"
        path.write_bytes(data)
        header = data.split(b"\n")[0].decode()
        with pytest.raises(ValueError, match=re.escape(
                f"bad checkpoint header {header!r} in {path}: ")):
            load_model(path)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        model = init_linear(4, 3, seed=1)
        path = tmp_path / "m.ckpt"
        save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError):
            load_model(path)
