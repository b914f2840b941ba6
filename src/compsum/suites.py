"""Randomized verification sweeps behind the ``verify`` command.

Each suite returns (header, rows, violations): CSV-ready result rows and a
list of human-readable violation strings (empty when every instance passed
at its stated tolerance).
"""

import math

import numpy as np

from . import adversarial as advmod
from . import bounds, losses, risk, transform
from .models import LinearModel
from .risk import finite_distribution, linear_family, score_box


def fmt_number(v):
    """A number as CSV text: 17 significant digits, negative zero as 0."""
    if v == 0.0:
        v = 0.0  # normalize negative zero
    return f"{v:.17g}"


# Instances of the bounds suite per batch call: the batch holds every
# instance it verifies, and this many keep that memory small.
BOUNDS_BATCH = 250


def run_bounds_suite(count=10000, seed=20240811, ns=(2, 3, 5),
                     taus=(0.0, 0.5, 1.0, 1.5, 2.0, 3.0), tol=1e-9,
                     keep_rows=200):
    """Randomized consistency-bound instances: slack must stay above -tol.

    Assignments mix near-optimal scores with noise so a healthy share of
    instances lands inside the transform's range (non-vacuous). The
    instances are drawn and verified ``BOUNDS_BATCH`` at a time (see
    ``_bounds_batch``), in the generator's order.
    """
    rng = np.random.default_rng(seed)
    rows = []
    violations = []
    min_slack = math.inf
    vacuous = 0
    for start in range(0, count, BOUNDS_BATCH):
        reports = _bounds_batch(rng, min(BOUNDS_BATCH, count - start), ns,
                                taus)
        for i, rep in enumerate(reports, start):
            if any(f.startswith("vacuous") for f in rep.flags):
                vacuous += 1
            min_slack = min(min_slack, rep.slack)
            if rep.slack < -tol:
                violations.append(
                    f"instance {i}: slack {rep.slack} below -{tol} "
                    f"(tau={rep.tau}, n={rep.n})")
            if i < keep_rows:
                rows.append(rep.csv_row())
    # a deliberately non-symmetric fixture exercises the precondition
    # gate: it is flagged, never counted as a violation
    fixture = risk.HypothesisSpec("score_box", 2, lam=4.0,
                                  label_lams=(1.0, 2.0))
    dist = finite_distribution([1.0], [[0.6, 0.4]])
    rep = bounds.verify_h_consistency_bound(dist, [[0.0, 0.0]], fixture, 1.0)
    rows.append(rep.csv_row())
    if "precondition_unmet:not_symmetric" not in rep.flags:
        violations.append("non-symmetric fixture was not gated")
    rows.append(f"# min_slack={min_slack:.3e} vacuous={vacuous}/{count}")
    return bounds.BOUND_CSV_HEADER, rows, violations


def _bounds_batch(rng, count, ns, taus):
    """Draw ``count`` bounds-suite instances and verify them in one
    ``verify_h_consistency_bound_batch`` call; their reports.

    Each instance draws its label count, tau, atom count, weights,
    conditionals, noise scale and noise, in that order. The near-optimal
    scores that the noise perturbs draw nothing, so they are computed
    afterwards, one ``optimal_scores_rows`` call per label count, and
    each noise array becomes its instance's assignment in place.
    """
    dists, inst_taus, noises = [], [], []
    for _ in range(count):
        # rng.choice(a) draws the index integers(0, len(a)) and nothing else
        n = int(ns[rng.integers(0, len(ns))])
        tau = float(taus[rng.integers(0, len(taus))])
        K = int(rng.integers(1, 4))
        weights = rng.dirichlet(np.ones(K))
        conds = rng.dirichlet(np.ones(n), size=K)
        dists.append(finite_distribution(weights, conds))
        inst_taus.append(tau)
        noise = float(rng.uniform(0.05, 3.0))
        noises.append(rng.normal(scale=noise, size=(K, n)))

    label_counts = [dist.n for dist in dists]
    boxes = {}
    for n in sorted(set(label_counts)):
        boxes[n] = score_box(n)
        group = [i for i, m in enumerate(label_counts) if m == n]
        atoms = [len(dists[i].weights) for i in group]
        base = risk.optimal_scores_rows(
            np.concatenate([dists[i].conds for i in group]),
            np.repeat([inst_taus[i] for i in group], atoms), lam=12.0)
        for i, b in zip(group, np.split(base, np.cumsum(atoms)[:-1])):
            noises[i] += b
            np.clip(noises[i], -12.0, 12.0, out=noises[i])
    return bounds.verify_h_consistency_bound_batch(
        dists, noises, [boxes[n] for n in label_counts], inst_taus)


def run_tightness_suite(taus=(0.0, 0.25, 0.5, 0.75, 1.0), n_beta=21, n=5,
                        tol=1e-9):
    """Singleton equality instances: both sides must match to tol."""
    header = "tau,beta,zero_one_side,surrogate_side,expected_surrogate"
    rows = []
    violations = []
    grid = [(tau, beta) for tau in taus
            for beta in np.linspace(0.0, 1.0, n_beta).tolist()]
    expects = transform.t_tau_rows([beta for _, beta in grid],
                                   [tau for tau, _ in grid], n).tolist()
    for (tau, beta), expected in zip(grid, expects):
        inst = bounds.build_tightness_instance(beta, tau, n)
        zo, sur = bounds.tightness_sides(inst)
        rows.append(",".join(fmt_number(v) for v in
                             (tau, beta, zo, sur, expected)))
        if abs(zo - beta) > tol:
            violations.append(
                f"zero-one side off by {zo - beta} at tau={tau}, beta={beta}")
        if abs(sur - expected) > tol:
            violations.append(
                f"surrogate side off by {sur - expected} at tau={tau}, beta={beta}")
    return header, rows, violations


def run_gaps_suite(count=100, seed=7, taus=(0.0, 1.0, 1.5, 2.0), tol=1e-10):
    """Deterministic-case gap bound must be non-increasing over tau."""
    header = "config,lam,n,r_star," + ",".join(f"mtilde_tau{t}" for t in taus)
    rows = []
    violations = []
    rng = np.random.default_rng(seed)
    for i in range(count):
        lam = float(rng.uniform(0.5, 5.0))
        n = int(rng.choice([2, 3, 5, 10]))
        spec = score_box(n, lam)
        c0 = risk.sum_exp_box_optimum(n, lam)
        r_star = c0 + float(rng.exponential(1.0))
        vals = [risk.gap_upper_bound_deterministic(spec, t, r_star)
                for t in taus]
        rows.append(",".join([str(i), fmt_number(lam), str(n),
                              fmt_number(r_star)]
                             + [fmt_number(v) for v in vals]))
        for a, b in zip(vals, vals[1:]):
            if b > a + tol:
                violations.append(
                    f"config {i}: gap bound increased by {b - a} along tau")
    return header, rows, violations


def gap_table(lam, n, r_star, taus):
    """Rows of the gap-bound table for one configuration."""
    spec = score_box(n, lam)
    c0 = risk.sum_exp_box_optimum(n, lam)
    header = "tau,c_star_tau0,r_star_tau0,m_tilde"
    rows = [",".join(fmt_number(v) for v in
                     (t, c0, r_star,
                      risk.gap_upper_bound_deterministic(spec, t, r_star)))
            for t in taus]
    return header, rows


def run_lemmas_suite(seed=11, n_sup=60, n_inf=24, n_cons=1000, n_psi=40,
                     sup_tol=1e-6, inf_tol=1e-6, cons_tol=1e-12,
                     psi_tol=1e-10):
    """Closed forms of the exp-sum score family against numeric oracles.

    The supremum form is checked for equality on tau in [0, 3]; the
    infimum form for equality on tau in [0, 2] and one-sidedly (numeric
    >= closed) above, where the closed branch is only a lower bound.
    """
    header = "check,tau,n,closed,numeric,diff"
    rows = []
    violations = []
    rng = np.random.default_rng(seed)

    # draw every supremum instance first, then grid them in one batch
    sups = []
    while len(sups) < n_sup:
        n = int(rng.choice([2, 3, 5]))
        s = rng.normal(scale=2.0, size=n)
        p = rng.dirichlet(np.ones(n))
        y_max = losses.predict(p)
        if losses.predict(s) == y_max:
            continue
        sups.append((s, p, float(rng.uniform(0.0, 3.0)), y_max))
    numerics = bounds.lemma_sup_grid_batch(*zip(*sups)) if sups else []
    for (s, p, tau, y_max), numeric in zip(sups, numerics):
        closed = bounds.lemma_sup_closed(s, p, tau, y_max)
        rows.append(",".join(["sup", fmt_number(tau), str(len(s))] + [
            fmt_number(v) for v in (closed, numeric, closed - numeric)]))
        if abs(closed - numeric) > sup_tol:
            violations.append(
                f"sup closed/grid differ by {closed - numeric} at tau={tau}")

    # draw every infimum instance first, then search them in one batch
    ps, taus, seeds = [], [], []
    for i in range(n_inf):
        n = int(rng.choice([2, 3, 5]))
        ps.append(rng.dirichlet(np.ones(n)))
        taus.append(float(rng.uniform(0.0, 2.0)) if i % 2 == 0 else
                    float(rng.uniform(2.0, 3.0)))
        seeds.append(int(rng.integers(1 << 30)))
    results = bounds.verify_lemma_inf_batch(ps, taus, seeds)
    for p, tau, res in zip(ps, taus, results):
        rows.append(",".join(["inf", fmt_number(tau), str(len(p))] + [
            fmt_number(v) for v in (res.closed, res.brute,
                                    res.closed - res.brute)]))
        if tau <= 2.0:
            if abs(res.closed - res.brute) > inf_tol:
                violations.append(
                    f"inf closed/brute differ by {res.closed - res.brute} "
                    f"at tau={tau}")
        elif res.brute < res.closed - inf_tol:
            violations.append(
                f"inf brute {res.brute} fell below the closed lower bound "
                f"{res.closed} at tau={tau}")
        if not res.converged:
            violations.append(f"inf search unconverged at tau={tau}, "
                              f"n={len(p)}")

    worst = 0.0
    for _ in range(n_cons):
        n = int(rng.choice([2, 3, 5]))
        s = rng.normal(scale=2.0, size=n)
        y_max = int(rng.integers(0, n))
        pred = losses.predict(s)
        if pred == y_max:
            continue
        lo, hi = bounds.hbar_mu_range(s, y_max)
        mu = float(rng.uniform(0.99 * lo, 0.99 * hi))
        hb = bounds.hbar_mu_scores(s, mu, y_max)
        rel = abs(np.exp(s).sum() - np.exp(hb).sum()) / np.exp(s).sum()
        worst = max(worst, rel)
        if rel > cons_tol:
            violations.append(f"exp-sum conservation off by {rel}")
    rows.append(f"conservation,nan,nan,nan,{fmt_number(worst)},nan")

    for _ in range(n_psi):
        n = int(rng.choice([2, 3, 5]))
        tau = float(rng.uniform(0.0, 3.0))
        beta = float(rng.uniform(0.0, 1.0))
        tval = transform.t_tau(beta, tau, n)
        for alpha in np.linspace(beta, 1.0, 9):
            pval = transform.psi_tau(alpha, beta, tau, n)
            if pval < tval - psi_tol:
                violations.append(
                    f"psi({alpha},{beta}) = {pval} below t({beta}) = {tval} "
                    f"at tau={tau}")
    rows.append("psi_lower_bound,nan,nan,nan,nan,nan")
    return header, rows, violations


def run_adversarial_suite(count=1000, seed=13, tol=1e-6, keep_rows=200):
    """Exact 1-D linear instances of the adversarial bound.

    Checks the bound's slack and that the smooth-loss variant is never
    below the ramp variant. The instances are drawn in the generator's
    order and verified ``BOUNDS_BATCH`` at a time, each batch in one
    ``verify_adv_bound_batch`` call.
    """
    header = "tau,n,lhs,rhs,slack,rhs_smooth,corollary_ok,flags"
    rows = []
    violations = []
    rng = np.random.default_rng(seed)
    min_slack = math.inf
    for start in range(0, count, BOUNDS_BATCH):
        draws = [_adversarial_draw(rng)
                 for _ in range(min(BOUNDS_BATCH, count - start))]
        reports = advmod.verify_adv_bound_batch(*zip(*draws))
        for i, rep in enumerate(reports, start):
            min_slack = min(min_slack, rep.slack)
            cor_ok = rep.rhs_smooth >= rep.rhs - 1e-12
            if rep.slack < -tol:
                violations.append(
                    f"instance {i}: slack {rep.slack} (tau={rep.tau})")
            if not cor_ok:
                violations.append(
                    f"instance {i}: smooth-variant bound {rep.rhs_smooth} "
                    f"fell below the ramp bound {rep.rhs}")
            if i < keep_rows:
                rows.append(",".join(
                    [fmt_number(rep.tau), str(rep.n), fmt_number(rep.lhs),
                     fmt_number(rep.rhs), fmt_number(rep.slack),
                     fmt_number(rep.rhs_smooth), str(int(cor_ok)),
                     ";".join(rep.flags)]))
    rows.append(f"# min_slack={min_slack:.3e}")
    return header, rows, violations


def _adversarial_draw(rng):
    """One adversarial-suite instance ``(dist, spec, model, tau, adv,
    ball)``, drawing its label count, model, atom count, weights,
    conditionals, features, tau, rho and radius, in that order."""
    n = int(rng.choice([2, 3]))
    model = LinearModel(rng.normal(scale=1.5, size=(n, 1)),
                        rng.normal(scale=0.7, size=n))
    K = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(K))
    conds = rng.dirichlet(np.ones(n), size=K)
    xs = rng.normal(scale=1.0, size=(K, 1))
    dist = finite_distribution(weights, conds, xs=xs)
    tau = float(rng.uniform(0.0, 3.0))
    rho = float(rng.uniform(0.3, 1.5))
    gamma = float(rng.uniform(0.01, 0.5))
    spec = linear_family(n, 1, weight_bound=max(1.0, (n - 1) * rho))
    return (dist, spec, model, tau, advmod.AdvParams(n=n, rho=rho),
            advmod.PerturbationBall(math.inf, gamma))


SUITES = {
    "bounds": run_bounds_suite,
    "tightness": run_tightness_suite,
    "gaps": run_gaps_suite,
    "lemmas": run_lemmas_suite,
    "adversarial": run_adversarial_suite,
}
