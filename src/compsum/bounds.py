"""Consistency-bound assembly and numerical certification.

Builds both sides of the zero-one-versus-surrogate excess-risk inequality
on finite-support instances, constructs the singleton instances where the
inequality is an equality, checks the exp-sum-preserving score family and
its two extremal closed forms against grid search and brute force, and
assembles the sampled learning bound.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _checks as check
from . import losses, risk
from ._kernels import newton_box_min
from .losses import predict
from .risk import (
    FiniteDistribution,
    cond_risk,
    cond_risk_star_closed,
    finite_distribution,
    minimize_weighted_cond_risk_batch,
)
from .transform import (
    gamma_tau,
    gamma_tau_rows,
    psi_tau,
    t_tau_max,
    t_tau_rows,
)

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

    def csv_row(self):
        cols = [self.tau, self.n, self.lhs, self.rhs, self.slack,
                self.gap01, self.gap_surrogate]
        return ",".join(f"{v:.17g}" for v in cols) + "," + ";".join(self.flags)


def verify_h_consistency_bound(dist, assignment, spec, tau):
    """Evaluate both sides of the consistency bound for one score assignment.

    A batch of one: see ``verify_h_consistency_bound_batch``.
    """
    return check.one(verify_h_consistency_bound_batch, dist, assignment,
                     spec, tau)


def verify_h_consistency_bound_batch(dists, assignments, specs, taus):
    """Both sides of the consistency bound on each instance ``(dists[i],
    assignments[i], specs[i], taus[i])``; one ``BoundReport`` each.

    Uses the closed best-in-class forms of a symmetric complete set (finite
    boxes are flagged as approximations). A non-symmetric spec is refused
    with a ``precondition_unmet`` flag rather than counted as a violation.
    The instances are checked in order, then both sides of all of them
    come from one ``risk.excess_risks`` call and one ``gamma_tau_rows``
    call, so a report does not depend on the rest of the batch. A refusal
    names the entry, as in ``taus[2]: tau must lie in [0, 100]``.
    """
    check.lengths(dists=dists, assignments=assignments, specs=specs,
                  taus=taus)
    reports = []
    todo = []  # (report, dist, scores) of the symmetric instances
    try:
        for k, (dist, assignment, spec, tau) in enumerate(
                zip(dists, assignments, specs, taus)):
            tau = check.tau(tau)
            if spec.kind != "score_box":
                raise ValueError("spec: bound verification needs a score_box "
                                 "spec (closed best-in-class forms assume "
                                 "it)")
            check.label_count(spec.n, dist.n, "spec")
            if not spec.is_symmetric:
                reports.append(BoundReport(
                    tau, dist.n, math.nan, math.nan, math.nan,
                    flags=["precondition_unmet:not_symmetric"]))
                continue
            scores = check.reals(assignment, "assignment")
            if scores.shape != dist.conds.shape:
                raise ValueError("assignment must be one score vector per "
                                 "support point")
            rep = BoundReport(tau, dist.n, 0.0, 0.0, 0.0)
            if not spec.is_complete:
                if np.any(np.abs(scores) > spec.lam * (1 + 1e-12)):
                    raise ValueError("assignment leaves the spec's score box")
                rep.flags.append("finite_box_closed_forms")
            reports.append(rep)
            todo.append((rep, dist, scores))
    except ValueError as exc:
        raise check.entry(exc, k, dist="dists", assignment="assignments",
                          spec="specs", tau="taus") from None
    if not todo:
        return reports

    tau = np.array([rep.tau for rep, _, _ in todo])
    n = np.array([rep.n for rep, _, _ in todo])
    lhs, arg = risk.excess_risks([dist for _, dist, _ in todo],
                                 [scores for _, _, scores in todo], tau)
    vacuous = arg > t_tau_rows(1.0, tau, n)
    rhs = np.ones(len(todo))
    rhs[~vacuous] = gamma_tau_rows(arg[~vacuous], tau[~vacuous],
                                   n[~vacuous])
    for (rep, _, _), lhs_i, rhs_i, vac in zip(todo, lhs.tolist(),
                                              rhs.tolist(), vacuous.tolist()):
        rep.lhs, rep.rhs, rep.slack = lhs_i, rhs_i, rhs_i - lhs_i
        if vac:
            rep.flags.append("vacuous:surrogate_excess_above_transform_range")
    return reports


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
    beta = check.real(beta, "beta", "[0, 1]")
    tau = check.tau(tau)
    n = check.integer(n, "n", 2)
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
    cond, s = inst.dist.conds[0], inst.assignment[0]
    zero_one = cond.max() - cond[predict(s)]
    surrogate = cond_risk(s, cond, inst.tau) - \
        cond_risk_star_closed(cond, inst.tau)
    return zero_one, surrogate


# ---------------------------------------------------------------------------
# exp-sum-preserving score family and its extremal closed forms
# ---------------------------------------------------------------------------

def hbar_mu_range(scores, y_max, pred=None):
    """Open interval of ``mu`` keeping both transformed scores representable."""
    s = check.scores(scores)
    y_max = check.label(y_max, s.shape[0], "y_max")
    pred = predict(s) if pred is None else check.label(pred, len(s), "pred")
    return -math.exp(s[y_max]), math.exp(s[pred])


def hbar_mu_scores(scores, mu, y_max, pred=None):
    """Transfer ``mu`` of exp-mass between the predicted and top labels.

    The predicted label's exp-score becomes ``exp(h[y_max]) + mu`` and the
    top label's ``exp(h[pred]) - mu`` (at ``mu = 0`` the two scores swap),
    so the total exp-sum is conserved for every valid ``mu``. ``pred``
    defaults to the argmax of the scores; when it coincides with ``y_max``
    the family degenerates and the scores are returned unchanged.
    """
    s = check.scores(scores)
    y_max = check.label(y_max, s.shape[0], "y_max")
    mu = check.real(mu, "mu")
    pred = predict(s) if pred is None else check.label(pred, len(s), "pred")
    if pred == y_max:
        return s.copy()
    lo, hi = -math.exp(s[y_max]), math.exp(s[pred])
    if not lo < mu < hi:
        raise ValueError(f"mu={mu} outside the representable interval ({lo}, {hi})")
    out = s.copy()
    out[pred] = math.log(math.exp(s[y_max]) + mu)
    out[y_max] = math.log(math.exp(s[pred]) - mu)
    return out


class _SupRows(NamedTuple):
    """Per-row parameters of the closed supremum: the probabilities ``pm``
    and ``ph`` of the top label ``y_max`` and of the predicted label
    ``pred``, ``tau``, and the constants ``lm, lh, lp`` of ``_sup_rows``."""

    pm: np.ndarray
    ph: np.ndarray
    tau: np.ndarray
    y_max: np.ndarray
    pred: np.ndarray
    lm: np.ndarray
    lh: np.ndarray
    lp: np.ndarray

    def take(self, idx):
        return _SupRows(*(a[idx] for a in self))


def _sup_rows(p, tau, y_max, pred):
    """One instance's ``_SupRows``, one row long.

    At tau = 1 the constants are ``lm = log(pm / (pm + ph))`` and
    ``lh = log(ph / (pm + ph))``; for tau < 2 otherwise ``lp`` is the
    log-sum of ``r log pm`` and ``r log ph`` with ``r = 1 / (2 - tau)``.
    A constant of another branch, or of a zero probability, is 0. They are
    computed once with ``math.log``: ``np.log`` on an array may differ in
    the last bit.
    """
    pm, ph = float(p[y_max]), float(p[pred])
    lm = lh = lp = 0.0
    if abs(tau - 1.0) < losses.TAU_BRANCH_TOL:
        tot = pm + ph
        lm = math.log(pm / tot) if pm > 0 else 0.0
        lh = math.log(ph / tot) if ph > 0 else 0.0
    elif tau < 2.0:
        r = 1.0 / (2.0 - tau)
        lp = float(np.logaddexp(r * math.log(pm) if pm > 0 else -np.inf,
                                r * math.log(ph) if ph > 0 else -np.inf))
    return _SupRows(*(np.array([v]) for v in
                      (pm, ph, tau, y_max, pred, lm, lh, lp)))


def _lemma_sup_closed_rows(S, q, parts=False):
    """Validation-free core of ``lemma_sup_closed`` on each row of the
    ``(R, n)`` scores ``S`` with the per-row parameters ``q`` (a
    ``_SupRows`` of length ``R``); each row takes the branch of its own
    ``tau``. Returns the ``R`` values or, with ``parts``, (values, ``h_m``,
    ``lse``, ``l = logaddexp(h_m, h_p)``, the tau = 1 mask and the terms
    ``T = a exp((1 - tau)(lse - L))`` for ``L = l, h_m, h_p``); for tau !=
    1 the value is ``(T_l - T_m - T_p) / (tau - 1)``."""
    rows = np.arange(S.shape[0])
    hm, hp = S[rows, q.y_max], S[rows, q.pred]
    lse = losses._rows_lse(S)
    l_ab = np.logaddexp(hm, hp)
    one = np.abs(q.tau - 1.0) < losses.TAU_BRANCH_TOL
    one_m_tau = 1.0 - q.tau
    t2 = q.pm * np.exp(one_m_tau * (lse - hm))
    t3 = q.ph * np.exp(one_m_tau * (lse - hp))
    x = one_m_tau * (lse - l_ab)
    t1 = np.where(q.tau >= 2.0, q.pm * np.exp(x),
                  np.exp((2.0 - q.tau) * q.lp + x))
    # a zero probability has a zero constant, so its term is 0
    value = np.where(one, q.pm * (l_ab - hm + q.lm)
                     + q.ph * (l_ab - hp + q.lh),
                     (t1 - t2 - t3) / np.where(one, 1.0, q.tau - 1.0))
    return (value, hm, lse, l_ab, one, t1, t2, t3) if parts else value


def lemma_sup_closed(scores, p, tau, y_max=None, pred=None):
    """Closed form of ``C(h) - inf_mu C(h_mu)`` over the exp-sum family.

    ``pred`` designates the predicted label (default: argmax of the scores
    with the highest-index tie rule); it must differ from the top
    conditional label ``y_max``.
    """
    s, p, tau, y_max, pred = _family_args(scores, p, tau, y_max, pred)
    return float(_lemma_sup_closed_rows(s[None, :],
                                        _sup_rows(p, tau, y_max, pred))[0])


def _family_args(scores, p, tau, y_max, pred):
    """One instance's checked ``(scores, p, tau, y_max, pred)``: ``y_max``
    defaults to the argmax of ``p``, ``pred`` to that of the scores, and
    the two must differ."""
    s = check.scores(scores)
    p = check.cond_dist(p, len(s))
    y_max = predict(p) if y_max is None else check.label(y_max, len(s),
                                                         "y_max")
    pred = predict(s) if pred is None else check.label(pred, len(s), "pred")
    if pred == y_max:
        raise ValueError("pred: the exp-sum family needs a predicted label "
                         "other than the top label y_max")
    return s, p, check.tau(tau), y_max, pred


# lemma oracles: points of the supremum's mu grid; the infimum search's
# box [-_INF_SPREAD, 0] and starts per instance
_SUP_GRID = 512
_INF_SPREAD = 24.0
_INF_STARTS = 6


class _LemmaSupRisk:
    """Row ``r`` of the infimum search: ``_lemma_sup_closed_rows`` with the
    parameters ``q[r]`` over the scores of the labels ``others[r]``, each
    ``_INF_SPREAD / 2`` below its variable, so the engine's box ``[-h, h]``
    is the scores' ``[-_INF_SPREAD, 0]``; the predicted score is 0.

    For tau != 1 each term of the closed form is ``T = a exp(k (lse - L))``
    with ``k = 1 - tau`` and ``L`` one of ``h_m``, ``h_p = 0`` and ``l =
    logaddexp(h_m, h_p)``. With ``u = sigma - grad L`` the term adds ``b u``
    to the gradient and ``b (k u u^T + diag(sigma) - sigma sigma^T - hess
    L)`` to the Hessian, where ``b = -T`` for ``l`` and ``T`` otherwise.
    Only ``l`` has a Hessian, ``rho (1 - rho) e_m e_m^T`` with ``rho =
    exp(h_m - l)``. At tau = 1 the form is ``pm (l - h_m) + ph (l - h_p)``
    plus constants: the same sums at ``k = 0`` with ``T = pm + ph, pm, ph``.
    """

    def __init__(self, q, others):
        self.q, self.others = q, others

    def rows(self, keep):
        return _LemmaSupRisk(self.q.take(keep), self.others[keep])

    def _scores(self, X):
        S = np.zeros((X.shape[0], X.shape[1] + 1))
        S[np.arange(X.shape[0])[:, None], self.others] = X - _INF_SPREAD / 2
        return S

    def value(self, X):
        return _lemma_sup_closed_rows(self._scores(X), self.q)

    def _terms(self, X):
        """The values, ``k`` and, over the variables, ``sigma``, ``e_m`` and
        the coefficients of the gradient ``B sigma - c e_m`` and the Hessian
        ``(k - 1) B sigma sigma^T + B diag(sigma) - k c (sigma e_m^T + e_m
        sigma^T) + d e_m e_m^T``."""
        q = self.q
        value, hm, lse, l_ab, one, t1, t2, t3 = _lemma_sup_closed_rows(
            self._scores(X), q, parts=True)
        k = np.where(one, 0.0, 1.0 - q.tau)
        b1, t2, t3 = (np.where(one, a, t) for a, t in (
            (-q.pm - q.ph, -t1), (q.pm, t2), (q.ph, t3)))
        rho = np.exp(hm - l_ab)
        d = k * (b1 * rho * rho + t2) - b1 * rho * (1.0 - rho)
        sig = np.exp(X - _INF_SPREAD / 2 - lse[:, None])
        return (value, k, sig, self.others == q.y_max[:, None], b1 + t2 + t3,
                b1 * rho + t2, d)

    def value_grad(self, X):
        value, _, sig, e, B, c, _ = self._terms(X)
        return value, B[:, None] * sig - c[:, None] * e

    def hessian(self, X):
        _, k, sig, e, B, c, d = self._terms(X)
        se = sig[:, :, None] * e[:, None, :]
        H = ((k - 1.0) * B)[:, None, None] * sig[:, :, None] * sig[:, None, :]
        H -= (k * c)[:, None, None] * (se + se.transpose(0, 2, 1))
        H += d[:, None, None] * (e[:, :, None] & e[:, None, :])
        diag = np.arange(X.shape[1])
        H[:, diag, diag] += B[:, None] * sig
        return H


def _family_gap_rows(K, mu):
    """``C(h) - C(h_mu)`` in difference form at each row of the ``(R, m)``
    family parameters ``mu``, with the constants of ``K``'s row (see
    ``lemma_sup_grid_batch``). The family conserves the exp-sum, so every
    label outside ``{y_max, pred}`` contributes identically to both sides
    and cancels analytically; summing only the two participating labels
    avoids the catastrophic cancellation that the naive difference suffers
    when floor scores make individual losses enormous.
    """
    lse, lo, hi, pm, ph, cm, cp, tau = K.T[:, :, None]

    def phi(v):
        return losses._phi_of_gap_array(np.maximum(v, 0.0), tau)

    return pm * (cm - phi(lse - np.log(hi - mu))) \
        + ph * (cp - phi(lse - np.log(mu - lo)))


def lemma_sup_grid(scores, p, tau, y_max=None, pred=None):
    """Grid-plus-golden-section supremum of ``C(h) - C(h_mu)`` over ``mu``.

    A batch of one: see ``lemma_sup_grid_batch``.
    """
    return check.one(lemma_sup_grid_batch, scores, p, tau, y_max, pred)


def lemma_sup_grid_batch(S, ps, taus, y_maxs=None, preds=None):
    """Supremum of ``C(h) - C(h_mu)`` over ``mu`` for each instance
    ``(S[i], ps[i], taus[i])``: an independent numerical oracle for
    ``lemma_sup_closed``. ``y_max`` defaults to the argmax of ``p`` and
    ``pred`` to that of the scores (also where an entry is None).

    The supremum may sit at the open boundary of the ``mu`` interval, so
    each grid of ``_SUP_GRID`` points stops a relative 1e-12 short of it.
    All grids are one gap evaluation, and one lockstep golden-section
    search polishes between the grid neighbours of each best point.
    """
    y_maxs = [None] * len(S) if y_maxs is None else y_maxs
    preds = [None] * len(S) if preds is None else preds
    check.lengths(S=S, ps=ps, taus=taus, y_maxs=y_maxs, preds=preds)
    K = []  # per instance: lse, lo, hi, pm, ph, cm, cp, tau
    phi = losses._phi_of_gap_array
    try:
        for k, args in enumerate(zip(S, ps, taus, y_maxs, preds)):
            s, p, tau, y_max, pred = _family_args(*args)
            lo, hi = hbar_mu_range(s, y_max, pred)
            lse = losses._rows_lse(s[None])[0]
            K.append((lse, lo, hi, p[y_max], p[pred],
                      phi(np.float64(lse - s[y_max]), tau),
                      phi(np.float64(lse - s[pred]), tau), tau))
    except ValueError as exc:
        raise check.entry(exc, k, scores="S", p="ps", tau="taus",
                          y_max="y_maxs", pred="preds") from None
    K = np.array(K).reshape(-1, 8)
    mus = np.linspace(K[:, 1] * (1.0 - 1e-12), K[:, 2] * (1.0 - 1e-12),
                      _SUP_GRID, axis=1)
    vals = _family_gap_rows(K, mus)
    rows = np.arange(len(K))
    i = vals.argmax(axis=1)
    best = vals[rows, i]
    _, low = _golden_min_rows(
        lambda idx, mu: -_family_gap_rows(K[idx], mu[:, None])[:, 0],
        mus[rows, np.maximum(i - 1, 0)],
        mus[rows, np.minimum(i + 1, _SUP_GRID - 1)])
    return np.where(-low > best, -low, best).tolist()


@dataclass
class LemmaInfResult:
    closed: float
    brute: float
    scores: np.ndarray
    converged: bool  # every start of the search converged


def _golden_min_rows(f, lo, hi):
    """Golden-section minimum of one 1-D function per row, rows in lockstep.

    ``f(rows, x)`` evaluates the functions of the rows indexed by ``rows``
    at the points ``x``. Each row stops once its bracket, which starts at
    ``[lo, hi]``, has closed to a relative 1e-14 or after 120 steps, and
    stays frozen from then on. Returns each row's minimizer and value.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    rows = np.arange(len(lo))
    a = np.array(lo, dtype=np.float64)
    b = np.array(hi, dtype=np.float64)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = np.split(f(np.tile(rows, 2), np.concatenate([c, d])), 2)
    live = rows
    for _ in range(120):
        al, bl = a[live], b[live]
        live = live[~(bl - al <= 1e-14 * (np.abs(al) + np.abs(bl) + 1.0))]
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


def verify_lemma_inf(p, tau, pred_label=None, seed=0):
    """Brute-force the infimum over scores of ``C(h) - inf_mu C(h_mu)``.

    A batch of one: see ``verify_lemma_inf_batch``, whose search this runs
    on the one instance ``(p, tau, seed, pred_label)``.
    """
    return check.one(verify_lemma_inf_batch, p, tau, seed, pred_label)


def verify_lemma_inf_batch(ps, taus, seeds, pred_labels=None):
    """``verify_lemma_inf`` on many instances; one ``LemmaInfResult`` each.

    The infimum of instance ``i`` runs over hypotheses predicting
    ``pred_labels[i]`` (default, or where the entry is None: the runner-up
    conditional label of ``ps[i]``). By shift invariance the predicted
    score is pinned at 0 and the remaining coordinates live in
    ``[-_INF_SPREAD, 0]``, which enforces the argmax constraint by
    construction. The closed supremum form (separately grid-verified) is
    minimized from two fixed starts and ``_INF_STARTS - 2`` uniform draws
    from ``seeds[i]`` by ``newton_box_min`` on ``_LemmaSupRisk``, with the
    box oracle's iteration cap and tolerance. Instances with the same label
    count run in lockstep, each start one row; every row keeps its own
    stopping rule, so an instance's result does not depend on the rest of
    the batch. The first best start of an instance wins, and ``converged``
    says whether every start of it converged. The reported ``brute`` value
    re-evaluates the inner infimum numerically at the minimizers found, one
    ``lemma_sup_grid_batch`` call per label count. ``closed`` is the
    two-argument transform at ``alpha = p_top + p_pred``,
    ``beta = p_top - p_pred``. The two agree for ``tau <= 2``; above that
    the closed form is only a lower bound of the brute value (which is the
    direction the consistency bound uses).
    """
    pred_labels = [None] * len(ps) if pred_labels is None else \
        list(pred_labels)
    check.lengths(ps=ps, taus=taus, seeds=seeds, pred_labels=pred_labels)
    ps, taus, seeds = list(ps), list(taus), list(seeds)
    tops, preds = [], []
    try:
        for k, pred in enumerate(pred_labels):
            ps[k] = p = check.cond_dist(ps[k])
            taus[k] = check.tau(taus[k])
            seeds[k] = check.integer(seeds[k], "seed")
            y_max = predict(p)
            if pred is None:
                order = np.argsort(p)
                pred = int(order[-2] if order[-1] == y_max else order[-1])
            pred = check.label(pred, p.shape[0], "pred_label")
            if pred == y_max:
                raise ValueError("pred_label must differ from the top "
                                 "conditional label")
            tops.append(y_max)
            preds.append(pred)
    except ValueError as exc:
        raise check.entry(exc, k, p="ps", tau="taus", seed="seeds",
                          pred_label="pred_labels") from None

    results = [None] * len(ps)
    for n in sorted({p.shape[0] for p in ps}):
        group = [i for i, p in enumerate(ps) if p.shape[0] == n]
        dim = n - 1
        starts = []
        for i in group:
            rng = np.random.default_rng(seeds[i])
            starts += [np.zeros(dim), np.full(dim, -1.0)]
            starts += [rng.uniform(-_INF_SPREAD, 0.0, dim)
                       for _ in range(_INF_STARTS - 2)]
        # every start of every instance is one row
        q = _SupRows(*map(np.concatenate, zip(*(
            _sup_rows(ps[i], taus[i], tops[i], preds[i]) for i in group))))
        q = q.take(np.repeat(np.arange(len(group)), _INF_STARTS))
        others = np.repeat([[j for j in range(n) if j != preds[i]]
                            for i in group], _INF_STARTS, axis=0)
        obj = _LemmaSupRisk(q, others)
        h = _INF_SPREAD / 2
        F, U, conv = newton_box_min(obj, np.array(starts) + h, h, 10000,
                                    risk.ORACLE_GTOL)
        best = np.arange(len(group)) * _INF_STARTS + F.reshape(
            len(group), _INF_STARTS).argmin(axis=1)
        S_best = obj.rows(best)._scores(U[best])
        conv = conv.reshape(len(group), _INF_STARTS).all(axis=1)
        # honest re-evaluation: the numeric supremum over mu at each
        # minimizer
        brutes = lemma_sup_grid_batch(S_best, *zip(*(
            (ps[i], taus[i], tops[i], preds[i]) for i in group)))
        for i, s_best, brute, ok in zip(group, S_best, brutes, conv):
            pm, ph = ps[i][tops[i]], ps[i][preds[i]]
            results[i] = LemmaInfResult(
                psi_tau(float(pm + ph), float(pm - ph), taus[i], n),
                brute, s_best, bool(ok))
    return results


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

    The labels of all ``m`` points come from one uniform draw each, the
    signs of a draw from one ``integers`` call, and both oracle batches
    from one ``minimize_weighted_cond_risk_batch`` call each, so the
    bound runs no Python loop per point.
    """
    tau = check.tau(tau)
    if spec.kind != "score_box" or not math.isfinite(spec.lam):
        raise ValueError("spec: the learning bound needs a score_box spec "
                         "with finite lam")
    check.label_count(spec.n, dist.n, "spec")
    delta = check.real(delta, "delta", "(0, 1)")
    m = check.integer(m, "m", 1)
    n_sign_draws = check.integer(n_sign_draws, "n_sign_draws", 1)
    opt_iters = check.integer(opt_iters, "opt_iters", 1)
    seed = check.integer(seed, "seed", 0)
    n = dist.n
    K = len(dist.weights)
    rng = np.random.default_rng(seed)

    weights = dist.weights
    point_idx = rng.choice(K, size=m, p=weights)
    # rng.choice(n, p=conds[k]) for every point at once, on the same
    # stream: one uniform per point, searched from the right in the
    # normalised cumulative sum of its conditional
    cdf = np.cumsum(dist.conds, axis=1)
    cdf /= cdf[:, -1:]
    labels = (cdf[point_idx] <= rng.random(m)[:, None]).sum(axis=1)
    # (point, label) cell of each draw, flat over the (K, n) table
    cells = point_idx * n + labels

    # empirical surrogate minimizer decomposes over distinct support points
    counts = np.bincount(cells, minlength=K * n).reshape(K, n).astype(float)
    seen = np.flatnonzero(counts.sum(axis=1))
    fits = minimize_weighted_cond_risk_batch(
        counts[seen] / counts[seen].sum(axis=1, keepdims=True), tau, spec.lam,
        (seed + 1000 + seen).tolist(), max_iter=opt_iters)
    nonconverged = sum(not res.converged for res in fits)
    assignment = np.zeros((K, n))
    for k, res in zip(seen, fits):
        assignment[k] = res.scores

    realized = 0.0
    for w, cond, s in zip(weights.tolist(), dist.conds, assignment):
        realized += w * (cond.max() - cond[predict(s)])

    # Monte-Carlo complexity estimate: mean over sign draws of the supremum
    # of the sign-weighted empirical loss, supremum decomposed per point;
    # all suprema of the bound go to the oracle in one batch
    coeffs = np.empty((n_sign_draws, K, n))
    for d in range(n_sign_draws):
        sigma = rng.integers(0, 2, size=m) * 2.0 - 1.0
        coeffs[d] = np.bincount(cells, sigma, K * n).reshape(K, n)
    draw, pts = np.nonzero(np.any(coeffs, axis=2))
    fits = minimize_weighted_cond_risk_batch(
        -coeffs[draw, pts] / m, tau, spec.lam,
        (seed + 5000 + 17 * draw + pts).tolist(), max_iter=opt_iters)
    nonconverged += sum(not res.converged for res in fits)
    sups = np.bincount(draw, [-res.value for res in fits], n_sign_draws)
    rademacher = float(sups.mean())
    rademacher_se = float(sups.std(ddof=1) / math.sqrt(n_sign_draws)) \
        if n_sign_draws > 1 else 0.0

    b_tau = losses.loss_upper_bound(tau, n, lam=spec.lam)
    concentration = 2.0 * b_tau * math.sqrt(math.log(2.0 / delta) / (2.0 * m))
    m_gap = risk.minimizability_gap(dist, spec, tau, seed=seed)
    arg = m_gap + 4.0 * rademacher + concentration

    vacuous = arg > t_tau_max(tau, n)
    bound = 1.0 if vacuous else gamma_tau(arg, tau, n)
    return LearningBoundResult(bound, realized, vacuous, m_gap, rademacher,
                               rademacher_se, concentration, arg, b_tau,
                               m, delta, nonconverged)
