"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines. Headline full-scale image benchmarks are out of scope; the
training criteria are qualitative-direction checks on synthetic data.
"""

import math
import time

import numpy as np

from compsum import suites
from compsum.adversarial import AdvParams, PerturbationBall
from compsum.bounds import learning_bound
from compsum.losses import comp_sum_grad, comp_sum_loss, phi_tau
from compsum.risk import (
    cond_risk_star_brute,
    cond_risk_star_closed,
    finite_distribution,
    score_box,
)
from compsum.train import (
    TrainConfig,
    evaluate,
    gaussian_mixture_dataset,
    make_model,
    margin_task_dataset,
    train_adv_comp_sum,
    train_standard,
    train_standard_best_lr,
)
from compsum.transform import gamma_tau, gamma_tilde, t_tau, t_tilde


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status} ({detail})")
    assert passed, f"criterion {num} {name}: {detail}"


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.choice([2, 3, 5, 10]))
        s = rng.normal(scale=3.0, size=n)
        y = int(rng.integers(0, n))
        tau = float(rng.uniform(0.0, 3.0))
        g = comp_sum_grad(s, y, tau)
        fd = np.empty(n)
        h = 1e-6
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd[j] = (comp_sum_loss(s + e, y, tau)
                     - comp_sum_loss(s - e, y, tau)) / (2 * h)
        worst = max(worst, np.linalg.norm(g - fd)
                    / max(1.0, np.linalg.norm(fd)))
    report(1, "gradient-correctness", worst < 1e-5,
           f"max rel err {worst:.2e} on 1000 draws, {time.time() - t0:.1f}s")


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(20240811)
    worst = 0.0
    count = 0
    unconverged = 0
    while count < 500:
        n = int(rng.choice([2, 3, 5, 10]))
        tau = float(rng.uniform(0.0, 3.0))
        p = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
        # keep the complete-set minimizer representable inside the box
        if abs(2.0 - tau) > 1e-9 and \
                abs(1.0 / (2.0 - tau)) * math.log(p.max() / p.min()) > 48.0:
            continue
        count += 1
        res = cond_risk_star_brute(p, tau, score_box(n, 30.0), seed=count)
        worst = max(worst, abs(res.value - cond_risk_star_closed(p, tau)))
        unconverged += not res.converged
    report(2, "oracle-equivalence", worst < 1e-6 and unconverged == 0,
           f"max |closed - brute| {worst:.2e} on 500 draws, "
           f"{unconverged} unconverged, {time.time() - t0:.1f}s")


def test_criterion_3_bound_never_violated():
    t0 = time.time()
    _, rows, violations = suites.run_bounds_suite(count=10000, tol=1e-9)
    report(3, "consistency-bound-slack", not violations,
           f"{len(violations)} violations in 10000 instances; {rows[-1][2:]}; "
           f"{time.time() - t0:.1f}s")


def test_criterion_4_tightness_equality():
    t0 = time.time()
    _, _, violations = suites.run_tightness_suite(
        taus=(0.0, 0.25, 0.5, 0.75, 1.0), n_beta=21, n=5, tol=1e-9)
    report(4, "tightness-equality", not violations,
           f"{len(violations)} deviations over 5 tau x 21 beta, "
           f"{time.time() - t0:.1f}s")


def test_criterion_5_transform_sandwich_roundtrip():
    t0 = time.time()
    rng = np.random.default_rng(105)
    ok = True
    detail = []
    worst_rt = 0.0
    for _ in range(1000):
        beta = float(rng.uniform(0.0, 1.0))
        tau = float(rng.uniform(0.0, 3.0))
        n = int(rng.choice([2, 3, 5, 10]))
        tv = t_tau(beta, tau, n)
        if t_tilde(beta, tau, n) > tv + 1e-12:
            ok = False
            detail.append("lower bound above transform")
        worst_rt = max(worst_rt, abs(gamma_tau(tv, tau, n) - beta))
        t = float(rng.uniform(0.0, tv)) if tv > 0 else 0.0
        if gamma_tau(t, tau, n) > gamma_tilde(t, tau, n) + 1e-9:
            ok = False
            detail.append("inverse above its upper bound")
    if worst_rt > 1e-9:
        ok = False
        detail.append(f"round trip err {worst_rt:.2e}")
    for beta in np.linspace(0.05, 0.95, 10):
        for t0_, eps in ((1.0, 1e-7), (1.0, -1e-7), (2.0, 1e-7), (2.0, -1e-7)):
            if abs(t_tau(beta, t0_ + eps, 5) - t_tau(beta, t0_, 5)) > 1e-5:
                ok = False
                detail.append(f"tau-discontinuity at {t0_}")
    for t in np.linspace(0.0, math.log(2.0), 40):
        if gamma_tau(t, 1.0, 8) > math.sqrt(2.0 * t) + 1e-9:
            ok = False
            detail.append("log-member inverse above sqrt(2t)")
    report(5, "transform-sandwich-roundtrip", ok,
           f"worst round trip {worst_rt:.2e}; {'; '.join(detail) or 'all inequalities hold'}; "
           f"{time.time() - t0:.1f}s")


def test_criterion_6_gap_ordering():
    t0 = time.time()
    _, _, violations = suites.run_gaps_suite(count=100, tol=1e-10)
    report(6, "gap-bound-ordering", not violations,
           f"{len(violations)} ordering violations in 100 configs, "
           f"{time.time() - t0:.1f}s")


def test_criterion_7_score_family_closed_forms():
    t0 = time.time()
    _, _, violations = suites.run_lemmas_suite(
        n_sup=60, n_inf=24, n_cons=1000, n_psi=40,
        sup_tol=1e-6, inf_tol=1e-6, cons_tol=1e-12)
    report(7, "score-family-closed-forms", not violations,
           f"{len(violations)} deviations (sup/inf/psi/conservation), "
           f"{time.time() - t0:.1f}s")


def test_criterion_8_adversarial_bound():
    t0 = time.time()
    assert phi_tau(1.0, 1.0) == math.log(2.0)  # the constant, exactly
    _, rows, violations = suites.run_adversarial_suite(count=1000, tol=1e-6)
    report(8, "adversarial-bound", not violations,
           f"{len(violations)} violations in 1000 exact instances; "
           f"{rows[-1][2:]}; transform at 1 equals log 2 at machine "
           f"precision; {time.time() - t0:.1f}s")


def test_criterion_9_learning_bound():
    t0 = time.time()
    dist = finite_distribution([0.5, 0.5], [[0.95, 0.05], [0.1, 0.9]])
    spec = score_box(2, 1.5)
    covered = 0
    unconverged = 0
    for seed in range(100):
        r = learning_bound(dist, spec, 2.0, m=200, delta=0.05, seed=seed,
                           n_sign_draws=200)
        unconverged += r.oracle_nonconverged
        if r.realized_excess <= r.bound + 1e-12:
            covered += 1
    monotone = True
    for seed in (0, 1, 2):
        prev = math.inf
        for m in (50, 200, 800):
            r = learning_bound(dist, spec, 2.0, m=m, delta=0.05, seed=seed,
                               n_sign_draws=200)
            unconverged += r.oracle_nonconverged
            if r.bound > prev + 1e-12:
                monotone = False
            prev = r.bound
    report(9, "learning-bound",
           covered >= 90 and monotone and unconverged == 0,
           f"coverage {covered}/100 at delta=0.05; bound non-increasing over "
           f"m in (50, 200, 800): {monotone}; {unconverged} unconverged "
           f"oracle solves; {time.time() - t0:.1f}s")


def test_criterion_10_family_direction_benchmark():
    t0 = time.time()
    accs = {0.0: [], 1.0: [], 2.0: []}
    for seed in (0, 1, 2):
        data = gaussian_mixture_dataset(seed=seed)
        for tau in accs:
            cfg = TrainConfig(tau=tau, epochs=20, batch_size=128, seed=seed)
            _, hist, _ = train_standard_best_lr(
                data, lambda: make_model("mlp", 20, 10, seed=seed), cfg)
            accs[tau].append(hist[-1]["clean_acc"])
    mean = {tau: float(np.mean(v)) for tau, v in accs.items()}
    ok = (mean[1.0] >= mean[0.0] - 0.02) and (mean[1.0] >= mean[2.0] - 0.02)
    report(10, "family-direction-benchmark", ok,
           f"mean acc tau0={mean[0.0]:.4f} tau1={mean[1.0]:.4f} "
           f"tau2={mean[2.0]:.4f} over 3 seeds; {time.time() - t0:.0f}s")


def test_criterion_11_adversarial_training_efficacy():
    t0 = time.time()
    robust_gaps = []
    clean_gaps = []
    for seed in (0, 1, 2):
        data = margin_task_dataset(seed=seed)
        gamma = data.spec["designed_gamma"]
        ball = PerturbationBall(math.inf, gamma)
        train_attack = AdvParams(n=2, rho=1.0, nu=1.0, pgd_steps=10,
                                 restarts=1, seed=seed)
        eval_attack = AdvParams(n=2, pgd_steps=40, seed=100 + seed)
        base = dict(tau=1.0, lr0=0.1, epochs=40, batch_size=64, seed=seed,
                    weight_decay=5e-4)
        m_clean, _ = train_standard(
            data, make_model("mlp", data.X_train.shape[1], 2, seed=seed),
            TrainConfig(**base))
        e_clean = evaluate(m_clean, data.X_test, data.y_test, ball,
                           eval_attack)
        m_adv, _ = train_adv_comp_sum(
            data, make_model("mlp", data.X_train.shape[1], 2, seed=seed),
            TrainConfig(**base, adversarial=train_attack, ball=ball))
        e_adv = evaluate(m_adv, data.X_test, data.y_test, ball, eval_attack)
        robust_gaps.append(e_adv["robust_acc"] - e_clean["robust_acc"])
        clean_gaps.append(e_adv["clean_acc"] - e_clean["clean_acc"])
    mean_robust = float(np.mean(robust_gaps))
    mean_clean = float(np.mean(clean_gaps))
    ok = mean_robust >= 0.05 and mean_clean >= -0.05
    report(11, "adversarial-training-efficacy", ok,
           f"mean robust gain {mean_robust:+.3f} "
           f"(per seed {[round(g, 3) for g in robust_gaps]}), mean clean "
           f"delta {mean_clean:+.3f} at designed gamma; {time.time() - t0:.0f}s")
