"""The PGD attack's early exits against a copy of the full-budget loop.

``reference_pgd_maximize`` is the attack as it ran before rows could leave
it: every row takes every step of every restart. A row whose step returns
its iterate, and a zero-one row whose margin violation turned positive,
leave the attack; neither exit may change a verdict, a fixed-point row's
best value or point, or what the caller's generator draws.
"""

import math

import numpy as np
import pytest

from compsum.adversarial import (
    AdvParams,
    PerturbationBall,
    _margin_objective,
    _project_delta,
    _ramp_objective,
    _steepest_ascent,
    adv_zero_one_batch,
    deviation_objective,
    pgd_maximize,
    project_to_ball,
)
from compsum.losses import predict_batch
from compsum.models import init_linear, init_mlp


def reference_pgd_maximize(model, objective, X, clean, ball, adv, rng=None,
                           start=None):
    """The full-budget attack: every row takes every step."""
    rng = np.random.default_rng(adv.seed) if rng is None else rng
    scores, back = clean
    v, ds = objective(scores)
    best_v = np.asarray(v, dtype=np.float64).copy()
    best_X = X.copy()
    if ball.gamma == 0.0:
        return best_v, best_X
    step = adv.step_size(ball)
    for r in range(adv.restarts):
        Xp = X
        if r > 0 or start is not None:
            Xp = start if r == 0 else project_to_ball(
                X + rng.uniform(-ball.gamma, ball.gamma, size=X.shape), X, ball)
            scores, back = model.forward_vjp(Xp)
            v, ds = objective(scores)
            upd = v > best_v
            best_v[upd] = v[upd]
            best_X[upd] = Xp[upd]
        for _ in range(adv.pgd_steps):
            d = _steepest_ascent(back.inputs(ds), ball.p_norm)
            d *= step
            d += Xp
            d -= X
            Xp = _project_delta(d, ball)
            Xp += X
            scores, back = model.forward_vjp(Xp)
            v, ds = objective(scores)
            upd = v > best_v
            best_v[upd] = v[upd]
            best_X[upd] = Xp[upd]
    return best_v, best_X


MODELS = {"mlp": lambda seed: init_mlp(5, 16, 3, seed=seed),
          "linear": lambda seed: init_linear(5, 3, seed=seed)}
P_NORMS = {1.0: 0.6, 2.0: 0.4, math.inf: 0.25}  # p -> ball radius


def _problem(kind, p_norm, rows, seed):
    """A random model, a batch with random labels (about two thirds wrong
    at the clean points) and a ball."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rows, 5))
    Y = rng.integers(0, 3, size=rows)
    return MODELS[kind](seed), X, Y, PerturbationBall(p_norm, P_NORMS[p_norm])


def _counting(model):
    """Record the row count of every pass the model makes."""
    passes = []
    forward_vjp = model.forward_vjp

    def counted(X):
        passes.append(X.shape[0])
        return forward_vjp(X)

    model.forward_vjp = counted
    return passes


CASES = [(kind, p, restarts, rows)
         for kind in MODELS for p in P_NORMS for restarts in (1, 3)
         for rows in (37, 64)]
IDS = [f"{kind}-p{p:g}-r{restarts}-m{rows}"
       for kind, p, restarts, rows in CASES]


@pytest.mark.parametrize("kind, p_norm, restarts, rows", CASES, ids=IDS)
def test_zero_one_verdicts_equal_the_full_budget(kind, p_norm, restarts,
                                                 rows):
    model, X, Y, ball = _problem(kind, p_norm, rows, seed=restarts + rows)
    adv = AdvParams(n=3, pgd_steps=20, restarts=restarts, seed=0)
    clean = model.forward_vjp(X)
    rng_ref, rng = np.random.default_rng(5), np.random.default_rng(5)
    _, X_ref = reference_pgd_maximize(model, _margin_objective(Y), X, clean,
                                      ball, adv, rng_ref)
    expected = ((predict_batch(clean[0]) != Y)
                | (predict_batch(model.forward(X_ref)) != Y))
    passes = _counting(model)
    verdicts = adv_zero_one_batch(model, X, Y, clean, ball, adv, rng)
    assert np.array_equal(verdicts, expected.astype(np.int64))
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    # the exits did fire: fewer rows passed than the full budget's
    assert sum(passes) < rows * (restarts * (adv.pgd_steps + 1) - 1)


@pytest.mark.parametrize("objective", ["deviation", "ramp"])
@pytest.mark.parametrize("kind, p_norm, restarts, rows", CASES, ids=IDS)
def test_fixed_point_exit_keeps_values_and_points(kind, p_norm, restarts,
                                                  rows, objective):
    model, X, Y, ball = _problem(kind, p_norm, rows, seed=restarts + rows)
    adv = AdvParams(n=3, pgd_steps=20, restarts=restarts, seed=0)
    clean = model.forward_vjp(X)
    start = None
    if objective == "deviation":
        make = deviation_objective(clean[0], Y)
        # off the clean points, where the deviation's gradient vanishes
        start = project_to_ball(
            X + 1e-3 * np.random.default_rng(9).standard_normal(X.shape), X,
            ball)
    else:
        make = _ramp_objective(Y, 1.0, 1.0)
    rng_ref, rng = np.random.default_rng(7), np.random.default_rng(7)
    ref = reference_pgd_maximize(model, make, X, clean, ball, adv, rng_ref,
                                 start)
    got = pgd_maximize(model, make, X, clean, ball, adv, rng, start)
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_fixed_points_leave_the_attack():
    # a linear model's margin gradient is constant, so a sign step that
    # reaches a corner of the max-norm ball returns it from then on: every
    # row leaves at the second step of each restart
    model = init_linear(5, 2, seed=0)
    X = np.random.default_rng(0).normal(size=(8, 5))
    Y = predict_batch(model.forward(X))
    ball = PerturbationBall(math.inf, 1e-6)
    adv = AdvParams(n=2, pgd_steps=10, pgd_step_size=1.0, restarts=2, seed=0)
    clean = model.forward_vjp(X)
    ref = reference_pgd_maximize(model, _margin_objective(Y), X, clean, ball,
                                 adv)
    passes = _counting(model)
    got = pgd_maximize(model, _margin_objective(Y), X, clean, ball, adv)
    # restart 0: one pass at the corner; restart 1: the uniform start and
    # the corner
    assert passes == [8, 8, 8]
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


@pytest.mark.parametrize("restarts", [1, 3])
def test_batch_wrong_everywhere_is_never_attacked(restarts):
    model, X, _, ball = _problem("mlp", math.inf, 12, seed=1)
    clean = model.forward_vjp(X)
    Y = (predict_batch(clean[0]) + 1) % 3
    adv = AdvParams(n=3, pgd_steps=20, restarts=restarts, seed=0)
    rng_ref, rng = np.random.default_rng(3), np.random.default_rng(3)
    reference_pgd_maximize(model, _margin_objective(Y), X, clean, ball, adv,
                           rng_ref)
    passes = _counting(model)
    verdicts = adv_zero_one_batch(model, X, Y, clean, ball, adv, rng)
    assert passes == []
    assert np.all(verdicts == 1)
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_settled_rows_return_a_value_above_stop():
    model, X, Y, ball = _problem("mlp", math.inf, 40, seed=2)
    adv = AdvParams(n=3, pgd_steps=20, seed=0)
    clean = model.forward_vjp(X)
    ref_v, _ = reference_pgd_maximize(model, _margin_objective(Y), X, clean,
                                      ball, adv)
    v, X_best = pgd_maximize(model, _margin_objective(Y), X, clean, ball, adv,
                             stop=0.0)
    settled = ref_v > 0.0
    assert settled.any() and not settled.all()
    # the same rows settle, each at a point that attains its value, and
    # every other row keeps the full budget's value
    assert np.array_equal(v > 0.0, settled)
    assert np.array_equal(_margin_objective(Y)(model.forward(X_best))[0], v)
    assert np.array_equal(v[~settled], ref_v[~settled])
