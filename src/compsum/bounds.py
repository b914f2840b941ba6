"""Consistency-bound assembly and numerical certification.

Builds both sides of the zero-one-versus-surrogate excess-risk inequality
on finite-support instances, constructs the singleton instances where the
inequality is an equality, checks the exp-sum-preserving score family and
its two extremal closed forms against grid search and brute force, and
assembles the sampled learning bound.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import losses, risk
from .losses import check_tau, predict
from .risk import (
    FiniteDistribution,
    cond_risk,
    cond_risk_star_closed,
    finite_distribution,
    minimize_weighted_cond_risk_batch,
)
from .transform import gamma_tau, psi_tau, t_tau_max

BOUND_CSV_HEADER = "tau,n,lhs,rhs,slack,gap01,gapSurrogate,flags"


@dataclass
class BoundReport:
    """Both sides of a consistency bound on one instance.

    ``lhs`` is the zero-one excess risk plus the zero-one minimizability
    gap; ``rhs`` the inverse transform applied to the surrogate excess plus
    surrogate gap. ``slack = rhs - lhs`` is nonnegative whenever the
    hypothesis-set preconditions hold.
    """

    tau: float
    n: int
    lhs: float
    rhs: float
    slack: float
    gap01: float = 0.0
    gap_surrogate: float = 0.0
    flags: list = field(default_factory=list)
    per_point: list = field(default_factory=list)

    def csv_row(self):
        cols = [self.tau, self.n, self.lhs, self.rhs, self.slack,
                self.gap01, self.gap_surrogate]
        return ",".join(f"{v:.17g}" for v in cols) + "," + ";".join(self.flags)


def verify_h_consistency_bound(dist, assignment, spec, tau):
    """Evaluate both sides of the consistency bound for one score assignment.

    Uses the closed best-in-class forms of a symmetric complete set (finite
    boxes are flagged as approximations). A non-symmetric spec is refused
    with a ``precondition_unmet`` flag rather than counted as a violation.
    """
    tau = check_tau(tau)
    if spec.kind != "score_box":
        raise ValueError("bound verification needs a score_box spec "
                         "(closed best-in-class forms assume it)")
    flags = []
    if not spec.is_symmetric:
        return BoundReport(tau, dist.n, math.nan, math.nan, math.nan,
                           flags=["precondition_unmet:not_symmetric"])
    if not spec.is_complete:
        flags.append("finite_box_closed_forms")

    scores = np.asarray(assignment, dtype=np.float64)
    if scores.shape != (len(dist.points), dist.n):
        raise ValueError("assignment must be one score vector per support point")
    if spec.kind == "score_box" and not spec.is_complete:
        if np.any(np.abs(scores) > spec.lam * (1 + 1e-12)):
            raise ValueError("assignment leaves the spec's score box")

    lhs = 0.0
    arg = 0.0
    per_point = []
    for k, pt in enumerate(dist.points):
        pred = predict(scores[k])
        zo_gap = pt.cond.max() - pt.cond[pred]
        sur_gap = cond_risk(scores[k], pt.cond, tau) - cond_risk_star_closed(pt.cond, tau)
        lhs += pt.weight * zo_gap
        arg += pt.weight * sur_gap
        per_point.append((zo_gap, sur_gap))

    tmax = t_tau_max(tau, dist.n)
    if arg > tmax:
        rhs = 1.0
        flags.append("vacuous:surrogate_excess_above_transform_range")
    else:
        rhs = gamma_tau(arg, tau, dist.n)
    return BoundReport(tau, dist.n, lhs, rhs, rhs - lhs,
                       flags=flags, per_point=per_point)


# ---------------------------------------------------------------------------
# tightness construction
# ---------------------------------------------------------------------------

# Witness floor for labels carrying zero probability: exp(-40) ~ 4e-18, far
# below every stated tolerance while keeping all scores finite.
WITNESS_FLOOR = -40.0


@dataclass(frozen=True)
class TightnessInstance:
    beta: float
    tau: float
    n: int
    dist: FiniteDistribution
    assignment: np.ndarray
    flags: tuple = ()


def build_tightness_instance(beta, tau, n):
    """Singleton instance on which the bound holds with equality.

    The distribution puts mass ``(1 + beta) / 2`` and ``(1 - beta) / 2`` on
    the first two labels; the witness scores tie those labels (so the
    highest-index rule predicts the less likely one) and floor the rest.
    Equality is proven for ``tau`` in [0, 1]; larger ``tau`` is accepted but
    flagged.
    """
    beta = float(beta)
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    tau = check_tau(tau)
    n = int(n)
    if n < 2:
        raise ValueError("n must be >= 2")
    cond = np.zeros(n)
    cond[0] = (1.0 + beta) / 2.0
    cond[1] = (1.0 - beta) / 2.0
    dist = finite_distribution([1.0], [cond])
    scores = np.full((1, n), WITNESS_FLOOR)
    scores[0, 0] = 0.0
    scores[0, 1] = 0.0
    flags = ("outside_proven_tightness_range",) if tau > 1.0 else ()
    return TightnessInstance(beta, tau, n, dist, scores, flags)


def tightness_sides(inst):
    """(zero-one side, surrogate side) of the instance; equal to
    ``(beta, t_tau(beta))`` for ``tau`` in [0, 1]."""
    pt = inst.dist.points[0]
    pred = predict(inst.assignment[0])
    zero_one = pt.cond.max() - pt.cond[pred]
    surrogate = cond_risk(inst.assignment[0], pt.cond, inst.tau) - \
        cond_risk_star_closed(pt.cond, inst.tau)
    return zero_one, surrogate


# ---------------------------------------------------------------------------
# exp-sum-preserving score family and its extremal closed forms
# ---------------------------------------------------------------------------

def hbar_mu_range(scores, y_max, pred=None):
    """Open interval of ``mu`` keeping both transformed scores representable."""
    s = losses.check_scores(scores)
    y_max = losses.check_label(y_max, s.shape[0])
    pred = predict(s) if pred is None else losses.check_label(pred, s.shape[0])
    return -math.exp(s[y_max]), math.exp(s[pred])


def hbar_mu_scores(scores, mu, y_max, pred=None):
    """Transfer ``mu`` of exp-mass between the predicted and top labels.

    The predicted label's exp-score becomes ``exp(h[y_max]) + mu`` and the
    top label's ``exp(h[pred]) - mu`` (at ``mu = 0`` the two scores swap),
    so the total exp-sum is conserved for every valid ``mu``. ``pred``
    defaults to the argmax of the scores; when it coincides with ``y_max``
    the family degenerates and the scores are returned unchanged.
    """
    s = losses.check_scores(scores)
    y_max = losses.check_label(y_max, s.shape[0])
    mu = float(mu)
    pred = predict(s) if pred is None else losses.check_label(pred, s.shape[0])
    if pred == y_max:
        return s.copy()
    lo, hi = -math.exp(s[y_max]), math.exp(s[pred])
    if not lo < mu < hi:
        raise ValueError(f"mu={mu} outside the representable interval ({lo}, {hi})")
    out = s.copy()
    out[pred] = math.log(math.exp(s[y_max]) + mu)
    out[y_max] = math.log(math.exp(s[pred]) - mu)
    return out


def _lemma_sup_closed_rows(S, p, tau, y_max, pred):
    """Validation-free core of ``lemma_sup_closed`` on each row of the
    ``(R, n)`` scores ``S``; returns the ``R`` values."""
    pm, ph = p[y_max], p[pred]
    hm, hp = S[:, y_max], S[:, pred]
    lse = losses._logsumexp_rows(S)
    l_ab = np.logaddexp(hm, hp)

    if abs(tau - 1.0) < losses.TAU_BRANCH_TOL:
        tot = pm + ph
        zero = np.zeros(S.shape[0])
        t1 = zero if pm == 0 else pm * (l_ab - hm + math.log(pm / tot))
        t2 = zero if ph == 0 else ph * (l_ab - hp + math.log(ph / tot))
        return t1 + t2

    one_m_tau = 1.0 - tau
    t2 = pm * np.exp(one_m_tau * (lse - hm))
    t3 = ph * np.exp(one_m_tau * (lse - hp))
    if tau < 2.0:
        r = 1.0 / (2.0 - tau)
        lp = np.logaddexp(r * math.log(pm) if pm > 0 else -np.inf,
                          r * math.log(ph) if ph > 0 else -np.inf)
        t1 = np.exp((2.0 - tau) * lp + one_m_tau * (lse - l_ab))
    else:
        t1 = pm * np.exp(one_m_tau * (lse - l_ab))
    return (t1 - t2 - t3) / (tau - 1.0)


def lemma_sup_closed(scores, p, tau, y_max=None, pred=None):
    """Closed form of ``C(h) - inf_mu C(h_mu)`` over the exp-sum family.

    ``pred`` designates the predicted label (default: argmax of the scores
    with the highest-index tie rule); it must differ from the top
    conditional label ``y_max``.
    """
    s = losses.check_scores(scores)
    p = risk.check_cond_dist(p, s.shape[0])
    tau = check_tau(tau)
    y_max = predict(p) if y_max is None else losses.check_label(y_max, s.shape[0])
    pred = predict(s) if pred is None else losses.check_label(pred, s.shape[0])
    if pred == y_max:
        raise ValueError("closed form needs predicted label != top label")
    return float(_lemma_sup_closed_rows(s[None, :], p, tau, y_max, pred)[0])


def _golden_max(f, lo, hi, iters=120):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if b - a <= 1e-14 * (abs(a) + abs(b) + 1.0):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    mid = 0.5 * (a + b)
    return max(fc, fd, f(mid))


def _family_gap(s, p, tau, y_max, pred, mu):
    """``C(h) - C(h_mu)`` evaluated in difference form.

    The family conserves the exp-sum, so every label outside
    ``{y_max, pred}`` contributes identically to both sides and cancels
    analytically; summing only the two participating labels avoids the
    catastrophic cancellation that the naive difference suffers when floor
    scores make individual losses enormous. ``mu`` may be an array of
    family parameters, giving one gap per entry.
    """
    lse = losses._logsumexp(s)
    em_new = math.exp(s[pred]) - mu
    ep_new = math.exp(s[y_max]) + mu
    phi = losses._phi_of_gap_array
    gap = p[y_max] * (phi(np.float64(lse - s[y_max]), tau)
                      - phi(np.maximum(lse - np.log(em_new), 0.0), tau))
    gap += p[pred] * (phi(np.float64(lse - s[pred]), tau)
                      - phi(np.maximum(lse - np.log(ep_new), 0.0), tau))
    return gap


def lemma_sup_grid(scores, p, tau, y_max=None, pred=None, grid=512):
    """Grid-plus-golden-section supremum of ``C(h) - C(h_mu)`` over ``mu``.

    Independent numerical oracle for ``lemma_sup_closed``; the supremum may
    sit at the open boundary of the ``mu`` interval, so the grid stops a
    relative 1e-12 short of it.
    """
    s = losses.check_scores(scores)
    p = risk.check_cond_dist(p, s.shape[0])
    y_max = predict(p) if y_max is None else y_max
    pred = predict(s) if pred is None else pred

    def f(mu):
        return float(_family_gap(s, p, tau, y_max, pred, mu))

    lo, hi = hbar_mu_range(s, y_max, pred)
    lo, hi = lo * (1.0 - 1e-12), hi * (1.0 - 1e-12)
    mus = np.linspace(lo, hi, grid)
    vals = _family_gap(s, p, tau, y_max, pred, mus)
    i = int(np.argmax(vals))
    a = mus[max(i - 1, 0)]
    b = mus[min(i + 1, grid - 1)]
    return max(float(vals[i]), _golden_max(f, a, b))


@dataclass
class LemmaInfResult:
    closed: float
    brute: float
    scores: np.ndarray


def _golden_min_rows(f, lo, hi, iters=80):
    """Golden-section minimum of one 1-D function per row, rows in lockstep.

    ``f(rows, x)`` evaluates the functions of the rows indexed by ``rows``
    at the points ``x``. Each row stops once its bracket, which starts at
    ``[lo, hi]``, has closed to a relative 1e-13 or after ``iters`` steps,
    and stays frozen from then on. Returns each row's minimizer and value.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    rows = np.arange(len(lo))
    a = np.array(lo, dtype=np.float64)
    b = np.array(hi, dtype=np.float64)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = np.split(f(np.tile(rows, 2), np.concatenate([c, d])), 2)
    live = rows
    for _ in range(iters):
        al, bl = a[live], b[live]
        live = live[~(bl - al <= 1e-13 * (np.abs(al) + np.abs(bl) + 1.0))]
        if live.size == 0:
            break
        left = fc[live] < fd[live]
        lw, rw = live[left], live[~left]
        b[lw], d[lw], fd[lw] = d[lw], c[lw], fc[lw]
        c[lw] = b[lw] - invphi * (b[lw] - a[lw])
        a[rw], c[rw], fc[rw] = c[rw], d[rw], fd[rw]
        d[rw] = a[rw] + invphi * (b[rw] - a[rw])
        fx = f(live, np.where(left, c[live], d[live]))
        fc[lw], fd[rw] = fx[left], fx[~left]
    mid = 0.5 * (a + b)
    fm = f(rows, mid)
    at_mid = (fm <= fc) & (fm <= fd)
    at_c = fc <= fd
    x = np.where(at_mid, mid, np.where(at_c, c, d))
    return x, np.where(at_mid, fm, np.where(at_c, fc, fd))


def verify_lemma_inf(p, tau, pred_label=None, spread=24.0, seed=0,
                     n_starts=6, iters=300, polish_sweeps=5):
    """Brute-force the infimum over scores of ``C(h) - inf_mu C(h_mu)``.

    The infimum runs over hypotheses predicting ``pred_label`` (default:
    the runner-up conditional label). By shift invariance the predicted
    score is pinned at 0 and the remaining coordinates live in
    ``[-spread, 0]``, which enforces the argmax constraint by construction.
    Multi-start projected descent on the (separately grid-verified) closed
    supremum form is followed by cyclic coordinate golden-section polish.
    The starts run in lockstep: each descent step evaluates the
    finite-difference probes of every live start in one call of the closed
    form and their candidates in a second, and each polish coordinate runs
    one golden-section search over all starts; every start keeps its own
    step size and stopping rule, and the first best start wins. The
    reported ``brute`` value re-evaluates the inner infimum numerically
    at the minimizer found. ``closed`` is the two-argument transform at
    ``alpha = p_top + p_pred``, ``beta = p_top - p_pred``. The two agree
    for ``tau <= 2``; above that the closed form is only a lower bound of
    the brute value (which is the direction the consistency bound uses).
    """
    p = risk.check_cond_dist(p)
    tau = check_tau(tau)
    n = p.shape[0]
    y_max = predict(p)
    if pred_label is None:
        order = np.argsort(p)
        pred_label = int(order[-2]) if int(order[-1]) == y_max else int(order[-1])
    if pred_label == y_max:
        raise ValueError("pred_label must differ from the top conditional label")

    others = np.array([j for j in range(n) if j != pred_label])
    dim = n - 1

    def objective(U):
        S = np.zeros((U.shape[0], n))
        S[:, others] = U
        return _lemma_sup_closed_rows(S, p, tau, y_max, pred_label)

    rng = np.random.default_rng(seed)
    starts = [np.zeros(dim), np.full(dim, -1.0)]
    starts += [rng.uniform(-spread, 0.0, dim) for _ in range(n_starts - 2)]
    U = np.array(starts[:n_starts])
    F = objective(U)
    step = np.full(n_starts, 0.25)
    fd_h = 1e-7
    cols = np.arange(dim)
    live = np.arange(n_starts)
    for _ in range(iters):
        if live.size == 0:
            break
        u = U[live]
        up = np.minimum(u + fd_h, 0.0)
        um = np.maximum(u - fd_h, -spread)
        # rows [0, dim) of each start move coordinate j up, [dim, 2 dim) down
        probes = np.repeat(u[:, None, :], 2 * dim, axis=1)
        probes[:, cols, cols] = up
        probes[:, dim + cols, cols] = um
        fpm = objective(probes.reshape(-1, dim)).reshape(live.size, 2 * dim)
        g = np.zeros_like(u)
        np.divide(fpm[:, :dim] - fpm[:, dim:], up - um, out=g, where=up > um)
        cand = np.clip(u - step[live, None] * g, -spread, 0.0)
        fc = objective(cand)
        better = fc < F[live]
        acc, rej = live[better], live[~better]
        U[acc], F[acc] = cand[better], fc[better]
        step[acc] = np.minimum(step[acc] * 1.5, 50.0)
        step[rej] *= 0.5
        live = live[better | (step[live] >= 1e-10)]
    # cyclic coordinate golden-section polish
    for _ in range(polish_sweeps):
        for j in range(dim):
            def along_j(rows, v, j=j):
                V = U[rows]
                V[:, j] = v
                return objective(V)

            lo = np.maximum(U[:, j] - 2.0, -spread)
            hi = np.minimum(U[:, j] + 2.0, 0.0)
            v_best, f_best = _golden_min_rows(along_j, lo, hi)
            better = f_best < F
            U[better, j], F[better] = v_best[better], f_best[better]
    best_u = U[int(np.argmin(F))]

    s_best = np.empty(n)
    s_best[pred_label] = 0.0
    s_best[others] = best_u
    # honest re-evaluation: the numeric supremum over mu at the minimizer
    brute = lemma_sup_grid(s_best, p, tau, y_max, pred_label)
    alpha = float(p[y_max] + p[pred_label])
    beta = float(p[y_max] - p[pred_label])
    closed = psi_tau(alpha, beta, tau, n)
    return LemmaInfResult(closed, brute, s_best)


# ---------------------------------------------------------------------------
# sampled learning bound
# ---------------------------------------------------------------------------

@dataclass
class LearningBoundResult:
    bound: float
    realized_excess: float
    vacuous: bool
    m_gap: float
    rademacher: float
    rademacher_se: float
    concentration: float
    arg: float
    b_tau: float
    m: int
    delta: float
    oracle_nonconverged: int


def learning_bound(dist, spec, tau, m, delta, seed, n_sign_draws=200,
                   opt_iters=3000):
    """Sampled zero-one estimation bound for the empirical surrogate minimizer.

    Draws ``m`` points, brute-forces the per-point empirical minimizer over
    the score box, Monte-Carlo estimates the complexity term over
    ``n_sign_draws`` sign vectors (per-sign suprema by the same brute-force
    optimizer), and applies the inverse transform to
    ``gap + 4 * complexity + 2 * B * sqrt(log(2 / delta) / (2 m))``.
    Also reports the realized zero-one excess of the minimizer for direct
    comparison. Arguments beyond the transform's range yield the vacuous
    bound 1. ``oracle_nonconverged`` counts the oracle solves of both
    batches (minimizers and suprema) that ended unconverged.
    """
    tau = check_tau(tau)
    if spec.kind != "score_box" or not math.isfinite(spec.lam):
        raise ValueError("learning bound needs a score_box spec with finite lam")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    m = int(m)
    n = dist.n
    K = len(dist.points)
    rng = np.random.default_rng(seed)

    weights = dist.weights
    point_idx = rng.choice(K, size=m, p=weights)
    labels = np.empty(m, dtype=np.int64)
    for i in range(m):
        labels[i] = rng.choice(n, p=dist.points[point_idx[i]].cond)

    # empirical surrogate minimizer decomposes over distinct support points
    counts = np.zeros((K, n))
    np.add.at(counts, (point_idx, labels), 1.0)
    seen = np.flatnonzero(counts.sum(axis=1))
    fits = minimize_weighted_cond_risk_batch(
        counts[seen] / counts[seen].sum(axis=1, keepdims=True), tau, spec.lam,
        (seed + 1000 + seen).tolist(), max_iter=opt_iters)
    nonconverged = sum(not res.converged for res in fits)
    assignment = np.zeros((K, n))
    for k, res in zip(seen, fits):
        assignment[k] = res.scores

    realized = 0.0
    for k, pt in enumerate(dist.points):
        pred = predict(assignment[k])
        realized += pt.weight * (pt.cond.max() - pt.cond[pred])

    # Monte-Carlo complexity estimate: mean over sign draws of the supremum
    # of the sign-weighted empirical loss, supremum decomposed per point;
    # all suprema of the bound go to the oracle in one batch
    coeffs = np.zeros((n_sign_draws, K, n))
    for d in range(n_sign_draws):
        sigma = rng.integers(0, 2, size=m) * 2.0 - 1.0
        np.add.at(coeffs[d], (point_idx, labels), sigma)
    draw, pts = np.nonzero(np.any(coeffs, axis=2))
    fits = minimize_weighted_cond_risk_batch(
        -coeffs[draw, pts] / m, tau, spec.lam,
        (seed + 5000 + 17 * draw + pts).tolist(), max_iter=opt_iters)
    nonconverged += sum(not res.converged for res in fits)
    sups = np.zeros(n_sign_draws)
    np.add.at(sups, draw, [-res.value for res in fits])
    rademacher = float(sups.mean())
    rademacher_se = float(sups.std(ddof=1) / math.sqrt(n_sign_draws)) \
        if n_sign_draws > 1 else 0.0

    b_tau = losses.loss_upper_bound(tau, n, lam=spec.lam)
    concentration = 2.0 * b_tau * math.sqrt(math.log(2.0 / delta) / (2.0 * m))
    m_gap = risk.minimizability_gap(dist, spec, tau, seed=seed)
    arg = m_gap + 4.0 * rademacher + concentration

    tmax = t_tau_max(tau, n)
    if arg > tmax:
        return LearningBoundResult(1.0, realized, True, m_gap, rademacher,
                                   rademacher_se, concentration, arg, b_tau,
                                   m, delta, nonconverged)
    bound = gamma_tau(arg, tau, n)
    return LearningBoundResult(bound, realized, False, m_gap, rademacher,
                               rademacher_se, concentration, arg, b_tau,
                               m, delta, nonconverged)
