"""The input contract of the exported API.

Each number of ``BAD`` goes into one argument of an otherwise valid call
of every exported entry that takes numbers. The call either returns
without a warning or raises a ``ValueError`` whose message begins with
that argument's name. The table is fixed, so the test is deterministic.
Arguments that hold objects (distributions, hypothesis sets, models,
attack parameters, balls, datasets, configs, file paths) are not in it.
"""

import math
import re
import warnings

import numpy as np
import pytest

import compsum
from compsum import adversarial, losses
from compsum.adversarial import AdvParams, PerturbationBall
from compsum.models import LinearModel, init_linear, init_mlp
from compsum.risk import finite_distribution, linear_family, score_box

BAD = [math.nan, math.inf, -math.inf, -1, 0, 1e308, True, "3", 2.5]

DIST = finite_distribution([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]],
                           xs=[[1.0], [-1.0]])
BOX = score_box(2, 3.0)
MODEL = LinearModel(np.array([[1.0], [-1.0]]), np.zeros(2))
ADV = AdvParams(n=2)
BALL = PerturbationBall(math.inf, 0.1)
ADV_SPEC = linear_family(2, 1, weight_bound=2.0)
S3, P3 = [0.0, 1.0, 2.0], [0.6, 0.3, 0.1]
X4 = np.linspace(-1.0, 1.0, 4)[:, None]

# (entry, valid keyword arguments, the arguments that take a bad value and
# the name each refusal begins with); "taus[0]" is the first entry of the
# list ``taus``, refused under that name
TABLE = [
    (compsum.phi_tau, dict(u=0.5, tau=1.5), ["u", "tau"]),
    (compsum.phi_tau_deriv, dict(u=0.5, tau=1.5), ["u", "tau"]),
    (compsum.comp_sum_loss, dict(scores=S3, y=1, tau=1.5),
     ["scores", "y", "tau"]),
    (compsum.comp_sum_grad, dict(scores=S3, y=1, tau=1.5),
     ["scores", "y", "tau"]),
    (compsum.loss_upper_bound, dict(tau=1.5, n=3, lam=1.0),
     ["tau", "n", "lam"]),
    (compsum.predict, dict(scores=S3), ["scores"]),
    (compsum.t_tau, dict(beta=0.5, tau=1.5, n=3), ["beta", "tau", "n"]),
    (compsum.gamma_tau, dict(t=0.01, tau=1.5, n=3), ["t", "tau", "n"]),
    (compsum.t_tau_rows, dict(beta=[0.5], tau=[1.5], n=[3]),
     ["beta", "tau", "n"]),
    (compsum.gamma_tau_rows, dict(t=[0.01], tau=[1.5], n=[3]),
     ["t", "tau", "n"]),
    (compsum.t_tilde, dict(beta=0.5, tau=1.5, n=3), ["beta", "tau", "n"]),
    (compsum.gamma_tilde, dict(t=0.01, tau=1.5, n=3), ["t", "tau", "n"]),
    (compsum.psi_tau, dict(alpha=0.8, beta=0.5, tau=1.5, n=3),
     ["alpha", "beta", "tau", "n"]),
    (compsum.FiniteDistribution,
     dict(weights=[0.5, 0.5], conds=[[0.9, 0.1], [0.2, 0.8]],
          xs=[[1.0], [-1.0]]), ["weights", "conds", "xs"]),
    (compsum.HypothesisSpec, dict(kind="score_box", n=2, lam=2.0,
                                  label_lams=(1.0, 2.0)),
     ["n", "lam", "label_lams", "feature_dim"]),
    (compsum.HypothesisSpec, dict(kind="linear", n=2, feature_dim=1,
                                  weight_bound=2.0),
     ["n", "feature_dim", "weight_bound"]),
    (compsum.score_box, dict(n=3, lam=2.0), ["n", "lam"]),
    (compsum.linear_family, dict(n=2, feature_dim=1, weight_bound=2.0),
     ["n", "feature_dim", "weight_bound"]),
    (compsum.cond_risk, dict(scores=S3, p=P3, tau=1.5),
     ["scores", "p", "tau"]),
    (compsum.cond_risk_star_closed, dict(p=P3, tau=1.5), ["p", "tau"]),
    (compsum.cond_risk_star_brute,
     dict(p=[0.7, 0.3], tau=1.5, spec=BOX, seed=0, max_iter=200),
     ["p", "tau", "seed", "max_iter"]),
    (compsum.minimizability_gap, dict(dist=DIST, spec=BOX, tau=1.5, seed=0),
     ["tau", "seed"]),
    (compsum.gap_upper_bound_deterministic,
     dict(spec=BOX, tau=1.5, r_star_tau0=1.0), ["tau", "r_star_tau0"]),
    (compsum.verify_h_consistency_bound,
     dict(dist=DIST, assignment=[[1.0, 0.0], [0.0, 1.0]], spec=BOX,
          tau=1.5), ["assignment", "tau"]),
    (compsum.verify_h_consistency_bound_batch,
     dict(dists=[DIST], assignments=[[[1.0, 0.0], [0.0, 1.0]]],
          specs=[BOX], taus=[1.5]),
     ["assignments[0]", "taus[0]"]),
    (compsum.build_tightness_instance, dict(beta=0.5, tau=0.5, n=3),
     ["beta", "tau", "n"]),
    (compsum.hbar_mu_scores, dict(scores=[0.0, 1.0], mu=0.5, y_max=0),
     ["scores", "mu", "y_max", "pred"]),
    (compsum.lemma_sup_closed, dict(scores=S3, p=P3, tau=1.5),
     ["scores", "p", "tau", "y_max", "pred"]),
    (compsum.lemma_sup_grid, dict(scores=S3, p=P3, tau=1.5),
     ["scores", "p", "tau", "y_max", "pred"]),
    (compsum.verify_lemma_inf, dict(p=P3, tau=1.0, pred_label=1, seed=0),
     ["p", "tau", "pred_label", "seed"]),
    (compsum.verify_lemma_inf_batch,
     dict(ps=[P3], taus=[1.0], seeds=[0], pred_labels=[1]),
     ["ps[0]", "taus[0]", "seeds[0]", "pred_labels[0]"]),
    (compsum.learning_bound,
     dict(dist=DIST, spec=score_box(2, 1.5), tau=1.5, m=6, delta=0.05,
          seed=0, n_sign_draws=2, opt_iters=50),
     ["tau", "m", "delta", "seed", "n_sign_draws", "opt_iters"]),
    (compsum.PerturbationBall, dict(p_norm=2.0, gamma=0.1),
     ["p_norm", "gamma"]),
    (compsum.AdvParams, dict(n=2, rho=1.0, nu=2.0, pgd_steps=3,
                             pgd_step_size=0.1, restarts=1, seed=0),
     ["n", "rho", "nu", "pgd_steps", "pgd_step_size", "restarts", "seed"]),
    (compsum.rho_margin, dict(u=0.5, rho=1.0), ["u", "rho"]),
    (compsum.check_local_rho_consistency, dict(spec=score_box(3, 2.0),
                                               rho=1.0), ["rho"]),
    (compsum.verify_adv_bound,
     dict(dist=DIST, spec=ADV_SPEC, model=MODEL, tau=1.5, adv=ADV,
          ball=BALL), ["tau"]),
    (compsum.verify_adv_bound_batch,
     dict(dists=[DIST], specs=[ADV_SPEC], models=[MODEL], taus=[1.5],
          advs=[ADV], balls=[BALL]), ["taus[0]"]),
    (compsum.TrainConfig, dict(),
     ["tau", "lr0", "momentum", "weight_decay", "epochs", "batch_size",
      "seed", "holdout_frac", "eval_attack_steps"]),
    (compsum.gaussian_mixture_dataset,
     dict(n_classes=2, dim=2, n_train=8, n_test=8, center_scale=2.0,
          noise=2.0, seed=0),
     ["n_classes", "dim", "n_train", "n_test", "center_scale", "noise",
      "seed"]),
    (compsum.margin_task_dataset,
     dict(n_train=8, n_test=8, dim=2, center=0.8, sigma=0.4, seed=0),
     ["n_train", "n_test", "dim", "center", "sigma", "seed"]),
    (compsum.evaluate, dict(model=MODEL, X=X4, Y=[0, 1, 0, 1], ball=BALL,
                            attack=ADV), ["X", "Y"]),
    (init_linear, dict(dim=2, n_labels=3, seed=0), ["dim", "n_labels"]),
    (init_mlp, dict(dim=2, hidden=3, n_labels=3, seed=0),
     ["dim", "hidden", "n_labels"]),
    (losses.comp_sum_loss_batch, dict(scores=[S3], Y=[1], tau=1.5),
     ["Y", "tau"]),
    (losses.comp_sum_grad_batch, dict(scores=[S3], Y=[1], tau=1.5),
     ["Y", "tau"]),
    (adversarial.adv_comp_rho_loss_batch,
     dict(model=MODEL, X=X4, Y=[0, 1, 0, 1], tau=1.5, adv=ADV, ball=BALL),
     ["Y", "tau"]),
    (adversarial.smooth_adv_comp_loss_batch,
     dict(model=MODEL, X=X4, Y=[0, 1, 0, 1], tau=1.5, adv=ADV, ball=BALL),
     ["Y", "tau"]),
    (adversarial.adv_zero_one_batch,
     dict(model=MODEL, X=X4, Y=[0, 1, 0, 1], clean=MODEL.forward_vjp(X4),
          ball=BALL, attack=ADV), ["Y"]),
]

# exported callables whose arguments are all objects, so no row of
# ``TABLE`` can hold them
OBJECTS_ONLY = {"backend_name", "BoundReport", "tightness_sides",
                "train_standard", "train_adv_comp_sum"}

CASES = [(fn, kwargs, arg, name)
         for fn, kwargs, args in TABLE
         for arg, name in (args.items() if isinstance(args, dict)
                           else zip(args, args))]


def _substitute(kwargs, arg, value):
    kw = dict(kwargs)
    if arg.endswith("[0]"):
        arg = arg[:-3]
        kw[arg] = [value] + list(kw[arg][1:])
    else:
        kw[arg] = value
    return kw


@pytest.mark.parametrize(
    "fn, kwargs, arg, name", CASES,
    ids=[f"{fn.__name__}-{arg}" for fn, _, arg, _ in CASES])
def test_each_bad_number_returns_or_is_refused_by_name(fn, kwargs, arg,
                                                       name):
    fn(**kwargs)  # the call is valid as it stands
    wrong = []
    for value in BAD:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                fn(**_substitute(kwargs, arg, value))
            except ValueError as exc:
                if not re.match(rf"{re.escape(name)}[ :=]", str(exc)):
                    wrong.append(f"{value!r}: {exc}")
            except Exception as exc:  # noqa: BLE001 - any other is a fault
                wrong.append(f"{value!r}: {type(exc).__name__}: {exc}")
    assert not wrong, wrong


# inputs that were silently accepted, truncated, or refused with another
# exception or another argument's name; each is refused by its own name
REFUSED = [
    (lambda: compsum.loss_upper_bound(1.0, 2.7, lam=1), "n"),
    (lambda: compsum.build_tightness_instance(0.5, 0.5, 3.7), "n"),
    (lambda: compsum.score_box(2.5), "n"),
    (lambda: compsum.score_box(math.nan), "n"),
    (lambda: compsum.linear_family(2, 1.5), "feature_dim"),
    (lambda: AdvParams(n=2.5), "n"),
    (lambda: AdvParams(n=math.nan), "n"),
    (lambda: AdvParams(n=2, pgd_steps=2.5), "pgd_steps"),
    (lambda: AdvParams(n=2, restarts=math.nan), "restarts"),
    (lambda: AdvParams(n=2, rho=True), "rho"),
    (lambda: AdvParams(n=2, seed=-1), "seed"),
    (lambda: AdvParams(n=2, seed=1.5), "seed"),
    (lambda: compsum.TrainConfig(epochs=2.5), "epochs"),
    (lambda: compsum.TrainConfig(weight_decay=math.nan), "weight_decay"),
    (lambda: compsum.TrainConfig(weight_decay=math.inf), "weight_decay"),
    (lambda: compsum.TrainConfig(tau=-1), "tau"),
    (lambda: compsum.TrainConfig(tau=math.nan), "tau"),
    (lambda: compsum.TrainConfig(eval_attack_steps=0), "eval_attack_steps"),
    (lambda: compsum.TrainConfig(eval_attack_steps=2.5),
     "eval_attack_steps"),
    (lambda: compsum.TrainConfig(seed=-1), "seed"),
    (lambda: compsum.rho_margin(0.5, True), "rho"),
    (lambda: compsum.rho_margin("3", 1.0), "u"),
    (lambda: compsum.check_local_rho_consistency(score_box(3, 2.0), True),
     "rho"),
    (lambda: compsum.check_local_rho_consistency(score_box(3, 2.0),
                                                 math.inf), "rho"),
    (lambda: compsum.hbar_mu_scores([0.0, 1.0], True, 0), "mu"),
    (lambda: compsum.gamma_tilde(math.inf, 1.5, 3), "t"),
    (lambda: compsum.comp_sum_loss(S3, True, 1.5), "y"),
    (lambda: compsum.gaussian_mixture_dataset(n_classes=2.5), "n_classes"),
    (lambda: init_mlp(4, 3.5, 2), "hidden"),
    (lambda: losses.comp_sum_loss_batch([S3], [1.0], 1.5), "Y"),
    (lambda: compsum.gaussian_mixture_dataset(noise=-1), "noise"),
    (lambda: compsum.margin_task_dataset(sigma=-1), "sigma"),
    (lambda: compsum.gap_upper_bound_deterministic(BOX, 1.5, math.nan),
     "r_star_tau0"),
    (lambda: compsum.evaluate(MODEL, np.zeros((4, 3)), [0, 1, 0, 1]), "X"),
    (lambda: compsum.lemma_sup_grid(S3, P3, 1.5, y_max=2), "pred"),
    (lambda: compsum.verify_adv_bound_batch([DIST, DIST], [ADV_SPEC],
                                            [MODEL] * 2, [1.5] * 2,
                                            [ADV] * 2, [BALL] * 2), "specs"),
    (lambda: compsum.hbar_mu_scores([0.0, 800.0], 0.5, 0), "scores"),
    (lambda: compsum.lemma_sup_grid([0.0, 800.0, 2.0], P3, 1.5), "scores"),
    (lambda: compsum.lemma_sup_grid([-800.0, 1.0, 2.0], P3, 1.5), "scores"),
]


@pytest.mark.parametrize("call, name", REFUSED,
                         ids=[f"{name}-{i}" for i, (_, name) in
                              enumerate(REFUSED)])
def test_input_that_slipped_past_is_refused_by_name(call, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{name}[ :=]"):
            call()


def test_every_export_resolves_and_each_callable_is_in_the_table():
    tabled = {fn for fn, _, _ in TABLE}
    unresolved = [name for name in compsum.__all__
                  if not hasattr(compsum, name)]
    assert not unresolved, unresolved
    untabled = [name for name in compsum.__all__
                if callable(getattr(compsum, name))
                and getattr(compsum, name) not in tabled]
    assert sorted(untabled) == sorted(OBJECTS_ONLY)
