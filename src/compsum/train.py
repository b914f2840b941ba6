"""Desk-scale training on synthetic data.

Standard comp-sum minimization across the family parameter and the
adversarial variant that minimizes the regularized smooth adversarial
comp-sum loss (attack on the deviation term, attacked points treated as
constants when differentiating). Mini-batch SGD with Nesterov momentum and
a cosine or constant schedule; everything is deterministic given the
config seed.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _checks as check
# the benchmark's tracer wraps ``pgd_maximize`` where this module looks it
# up; no code here calls it
from .adversarial import (
    AdvParams,
    PerturbationBall,
    adv_zero_one_batch,
    pgd_maximize,
    smooth_adv_comp_loss_batch,
)
from .losses import comp_sum_grad_batch, comp_sum_loss_batch, predict_batch
from .models import init_linear, init_mlp


@dataclass(frozen=True)
class SyntheticDataset:
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    n_classes: int
    spec: dict = field(default_factory=dict)


def gaussian_mixture_dataset(n_classes=10, dim=20, n_train=5000, n_test=1000,
                             center_scale=2.0, noise=2.0, seed=0):
    """Gaussian mixture with one spherical cluster per class.

    ``center_scale`` controls class separation, ``noise`` the within-class
    spread; together they set the Bayes accuracy of the benchmark.
    """
    check.sizes(2, n_classes=n_classes)
    check.sizes(dim=dim, n_train=n_train, n_test=n_test)
    check.real(center_scale, "center_scale", "[0, inf)")
    check.real(noise, "noise", "[0, inf)")
    check.integer(seed, "seed")
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=center_scale, size=(n_classes, dim))
    priors = np.full(n_classes, 1.0 / n_classes)

    def draw(count):
        ys = rng.choice(n_classes, size=count, p=priors)
        X = centers[ys] + rng.normal(scale=noise, size=(count, dim))
        return X, ys

    X_train, y_train = draw(n_train)
    X_test, y_test = draw(n_test)
    spec = {"kind": "gaussian_mixture", "n_classes": n_classes, "dim": dim,
            "center_scale": center_scale, "noise": noise, "seed": seed}
    return SyntheticDataset(X_train, y_train, X_test, y_test, n_classes, spec)


def margin_task_dataset(n_train=400, n_test=800, dim=20, center=0.8,
                        sigma=0.4, seed=0):
    """Two-class task with a designed geometric margin along the first axis.

    Classes sit at ``-center`` and ``+center`` on the first coordinate with
    isotropic noise ``sigma`` in every dimension. The designed attack
    radius is half the clearance between the class cores (centers within
    1.25 sigma): ``center - 1.25 * sigma``. A model that only reads the
    first axis is robust at that radius; a model whose score slopes leak
    into the noise dimensions (which a small clean-trained sample
    encourages) hands the max-norm attack a budget of ``gamma`` in every
    leaked dimension.
    """
    check.sizes(dim=dim, n_train=n_train, n_test=n_test)
    check.real(center, "center")
    check.real(sigma, "sigma", "[0, inf)")
    check.integer(seed, "seed")
    rng = np.random.default_rng(seed)

    def draw(count):
        ys = (rng.random(count) < 0.5).astype(np.int64)
        X = rng.normal(scale=sigma, size=(count, dim))
        X[:, 0] += np.where(ys == 1, center, -center)
        return X, ys

    X_train, y_train = draw(n_train)
    X_test, y_test = draw(n_test)
    spec = {"kind": "margin_task", "n_classes": 2, "dim": dim,
            "center": center, "sigma": sigma, "seed": seed,
            "designed_gamma": center - 1.25 * sigma}
    return SyntheticDataset(X_train, y_train, X_test, y_test, 2, spec)


@dataclass(frozen=True)
class TrainConfig:
    tau: float = 1.0
    lr0: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0
    epochs: int = 30
    batch_size: int = 128
    schedule: str = "cosine"
    seed: int = 0
    holdout_frac: float = 0.1
    weight_avg_decay: float = 0.0  # 0 disables exponential parameter averaging
    eval_attack_steps: int = 40
    adversarial: AdvParams | None = None
    ball: PerturbationBall | None = None

    def __post_init__(self):
        check.tau(self.tau)
        for name, interval in (("lr0", "(0, inf)"), ("momentum", "[0, 1)"),
                               ("weight_decay", "[0, inf)"),
                               ("holdout_frac", "[0, 1)"),
                               ("weight_avg_decay", "[0, 1)")):
            check.real(getattr(self, name), name, interval)
        check.sizes(epochs=self.epochs, batch_size=self.batch_size,
                    eval_attack_steps=self.eval_attack_steps)
        check.sizes(0, seed=self.seed)
        if self.schedule not in ("cosine", "constant"):
            raise ValueError(f"schedule: unknown schedule {self.schedule!r}")
        if (self.adversarial is None) != (self.ball is None):
            raise ValueError("adversarial params and ball go together")


def cosine_lr(lr0, epoch, total_epochs):
    """Half-cosine decay without restarts."""
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


def _lr_at(cfg, epoch):
    if cfg.schedule == "cosine":
        return cosine_lr(cfg.lr0, epoch, cfg.epochs)
    return cfg.lr0


class _NesterovSGD:
    def __init__(self, model, momentum, weight_decay):
        self.model = model
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = np.zeros_like(model.flat)

    def step(self, grads, lr):
        mu, p, v = self.momentum, self.model.flat, self.velocity
        g = grads + self.weight_decay * p
        v *= mu
        v += g
        p -= lr * (g + mu * v) if mu else lr * g


def _standard_batch_grads(model, X, Y, tau):
    scores, back = model.forward_vjp(X)
    loss = float(comp_sum_loss_batch(scores, Y, tau).mean())
    ds = comp_sum_grad_batch(scores, Y, tau) / X.shape[0]
    return loss, back.params(ds)


def _smooth_batch_grads(model, X, Y, cfg, rng):
    """Smooth adversarial loss and its parameter gradients on one batch:
    ``smooth_adv_comp_loss_batch`` with the gradient, its attack drawing
    from ``rng``."""
    return smooth_adv_comp_loss_batch(model, X, Y, cfg.tau, cfg.adversarial,
                                      cfg.ball, rng, grad=True)


def evaluate(model, X, Y, ball=None, attack=None, rng=None):
    """Clean accuracy, plus worst-case accuracy under the margin attack
    when a ball is given. The attack includes the clean point, so the
    robust accuracy never exceeds the clean one. ``X`` must be a finite
    ``(rows, model.dim)`` array and ``Y`` one label in ``[0, n_labels)``
    per row."""
    X = check.reals(X, "X")
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise ValueError(f"X must be a (rows, {model.dim}) array, got shape "
                         f"{X.shape}")
    Y = check.labels(Y, model.n_labels, X.shape[0])
    clean = model.forward_vjp(X)
    out = {"clean_acc": float((predict_batch(clean[0]) == Y).mean())}
    if ball is not None:
        if attack is None:
            attack = AdvParams(n=model.n_labels, pgd_steps=40)
        wrong = adv_zero_one_batch(model, X, Y, clean, ball, attack, rng)
        out["robust_acc"] = float(1.0 - wrong.mean())
    return out


def _split_holdout(X, y, frac, rng):
    m = X.shape[0]
    idx = rng.permutation(m)
    cut = max(int(m * frac), 1) if frac > 0 else 0
    if cut >= m:
        raise ValueError(f"holdout_frac must leave a training point: "
                         f"{frac:g} of a training set of {m} leaves none")
    val, tr = idx[:cut], idx[cut:]
    return X[tr], y[tr], X[val], y[val]


def _train_loop(data, model, cfg, batch_step, select_metric):
    rng = np.random.default_rng(cfg.seed)
    Xtr, ytr, Xval, yval = _split_holdout(
        data.X_train, data.y_train, cfg.holdout_frac, rng)
    opt = _NesterovSGD(model, cfg.momentum, cfg.weight_decay)
    history = []
    best_metric = -math.inf
    best_flat = model.get_flat()
    avg_flat = model.get_flat() if cfg.weight_avg_decay else None

    diverged = False
    for epoch in range(cfg.epochs):
        lr = _lr_at(cfg, epoch)
        order = rng.permutation(Xtr.shape[0])
        losses_epoch = []
        for start in range(0, Xtr.shape[0], cfg.batch_size):
            sel = order[start:start + cfg.batch_size]
            # divergence is detected via the finiteness check below, so the
            # float overflow on the way there is expected, not a defect
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads = batch_step(model, Xtr[sel], ytr[sel], rng)
            if not (math.isfinite(loss) and np.isfinite(grads).all()):
                # divergence: abort before the step, so the model keeps the
                # state after the last finite one
                diverged = True
                break
            opt.step(grads, lr)
            losses_epoch.append(loss)
            if avg_flat is not None:
                d = cfg.weight_avg_decay
                avg_flat = d * avg_flat + (1.0 - d) * model.flat
        if diverged:
            history.append({"epoch": epoch, "lr": lr,
                            "train_loss": math.inf, "clean_acc": math.nan,
                            "robust_acc": math.nan, "checkpoint_flag": 0,
                            "diverged": 1})
            break

        metric, row = select_metric(model, Xval, yval, rng)
        is_best = metric > best_metric
        if is_best:
            best_metric = metric
            best_flat = model.get_flat()
        row.update(epoch=epoch, lr=lr,
                   train_loss=float(np.mean(losses_epoch)),
                   checkpoint_flag=int(is_best), holdout_metric=metric)
        history.append(row)
    return history, best_flat, avg_flat


def train_standard(data, model, cfg):
    """Minimize the empirical comp-sum loss; returns the final model and
    the per-epoch metric history (checkpoint flags mark the best held-out
    clean accuracy)."""
    if cfg.adversarial is not None:
        raise ValueError("standard training takes no adversarial config")

    def batch_step(m, X, Y, rng):
        return _standard_batch_grads(m, X, Y, cfg.tau)

    def select_metric(m, Xval, yval, rng):
        val = evaluate(m, Xval, yval)["clean_acc"] if len(yval) else 0.0
        test = evaluate(m, data.X_test, data.y_test)
        return val, {"clean_acc": test["clean_acc"], "robust_acc": math.nan}

    history, _, avg_flat = _train_loop(data, model, cfg, batch_step,
                                       select_metric)
    if avg_flat is not None:
        model.set_flat(avg_flat)
    return model, history


def train_adv_comp_sum(data, model, cfg):
    """Minimize the regularized smooth adversarial comp-sum loss.

    Each step attacks the batch's deviation term by projected gradient
    ascent and descends the smooth loss with the attacked points held
    constant. Early stopping selects the checkpoint with the best held-out
    robust accuracy under the margin attack; that checkpoint is returned.
    """
    if cfg.adversarial is None or cfg.ball is None:
        raise ValueError("adversarial training needs adversarial params and ball")
    eval_attack = replace(cfg.adversarial, pgd_steps=cfg.eval_attack_steps)

    def batch_step(m, X, Y, rng):
        return _smooth_batch_grads(m, X, Y, cfg, rng)

    def select_metric(m, Xval, yval, rng):
        if len(yval):
            val = evaluate(m, Xval, yval, cfg.ball, eval_attack, rng)["robust_acc"]
        else:
            val = 0.0
        test = evaluate(m, data.X_test, data.y_test, cfg.ball, eval_attack, rng)
        return val, {"clean_acc": test["clean_acc"],
                     "robust_acc": test["robust_acc"]}

    history, best_flat, avg_flat = _train_loop(data, model, cfg, batch_step,
                                               select_metric)
    model.set_flat(avg_flat if avg_flat is not None else best_flat)
    return model, history


def make_model(kind, dim, n_classes, hidden=64, seed=0):
    if kind == "mlp":
        return init_mlp(dim, hidden, n_classes, seed=seed)
    if kind == "linear":
        return init_linear(dim, n_classes, seed=seed)
    raise ValueError(f"unknown model kind {kind!r}")


def train_standard_best_lr(data, model_factory, cfg, lr_grid=(0.003, 0.01, 0.03, 0.1)):
    """Train at each initial learning rate and keep the best model by its
    last finished epoch's held-out clean accuracy; a run that finishes no
    epoch loses. The test split plays no part in the choice. With an empty
    holdout every finite run scores 0, so the first finite rate in the grid
    wins.

    Mirrors selecting the initial rate per surrogate from a small grid.
    """
    best = None
    for lr0 in lr_grid:
        model = model_factory()
        model, history = train_standard(data, model, replace(cfg, lr0=lr0))
        finite = [h for h in history if not h.get("diverged")]
        score = finite[-1]["holdout_metric"] if finite else -math.inf
        if best is None or score > best[0]:
            best = (score, model, history, lr0)
    _, model, history, lr0 = best
    return model, history, lr0
