"""Adversarial losses for the comp-sum family.

Provides the worst-case zero-one loss over a perturbation ball, the
ramp-margin comp-sum loss with projected-gradient inner maximization, the
smooth adversarial loss (clean loss at scaled scores plus a worst-case
score-difference deviation term), a local margin-consistency check decided
once per hypothesis set by a constant witness, and exact enumeration
oracles for one-dimensional linear instances used to certify the
adversarial consistency bound.

Each PGD attack maximizes an objective of the scores, written once as a
function ``objective(scores) -> (values, d values / d scores)``;
``pgd_maximize`` runs the model and chains the score gradient to the
inputs. PGD values are lower bounds on the true suprema; the exact oracles
are the reference where enumeration is possible.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import losses, risk
from .losses import check_tau, phi_tau, phi_tau_deriv, predict, predict_batch
from .models import LinearModel

SUPPORTED_P_NORMS = (1.0, 2.0, math.inf)


@dataclass(frozen=True)
class PerturbationBall:
    """Input-space ball ``{x': ||x - x'||_p <= gamma}``.

    ``gamma = 0`` is accepted as the degenerate ball (clean evaluation).
    """

    p_norm: float
    gamma: float

    def __post_init__(self):
        if float(self.p_norm) not in SUPPORTED_P_NORMS:
            raise ValueError(f"p_norm must be one of {SUPPORTED_P_NORMS}")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")


@dataclass(frozen=True)
class AdvParams:
    """Margin/smoothness hyperparameters and attack budget.

    ``nu`` must satisfy ``nu >= sqrt(n - 1) / rho``; the default is the
    smallest theory-compliant value of at least 1. ``pgd_step_size`` of
    None selects ``2.5 * gamma / pgd_steps`` at attack time.
    """

    n: int
    rho: float = 1.0
    nu: float | None = None
    pgd_steps: int = 10
    pgd_step_size: float | None = None
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        nu_min = math.sqrt(self.n - 1) / self.rho
        if self.nu is None:
            object.__setattr__(self, "nu", max(1.0, nu_min))
        elif self.nu < nu_min - 1e-12:
            raise ValueError(f"nu={self.nu} below the required {nu_min}")
        if self.pgd_steps < 1 or self.restarts < 1:
            raise ValueError("pgd_steps and restarts must be >= 1")

    def step_size(self, ball):
        if self.pgd_step_size is not None:
            return self.pgd_step_size
        return 2.5 * ball.gamma / self.pgd_steps


def rho_margin(u, rho):
    """Clamped ramp ``min(max(0, 1 - u / rho), 1)``: 1 below 0, 0 above rho."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    return np.clip(1.0 - np.asarray(u, dtype=np.float64) / rho, 0.0, 1.0)


def rho_margin_subgrad(u, rho):
    """Subgradient of the ramp: ``-1/rho`` on (0, rho), ``-1/(2 rho)`` at
    the kinks, 0 outside. The kink convention keeps attacks deterministic."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    u = np.asarray(u, dtype=np.float64)
    g = np.where((u > 0) & (u < rho), -1.0 / rho, 0.0)
    g = np.where((u == 0.0) | (u == rho), -0.5 / rho, g)
    return g


# ---------------------------------------------------------------------------
# projected-gradient attack engine
# ---------------------------------------------------------------------------

def _l1_project_rows(delta, radius):
    """Row-wise Euclidean projection onto the l1 ball of given radius."""
    out = delta.copy()
    norms = np.abs(out).sum(axis=1)
    for i in np.flatnonzero(norms > radius):
        v = np.abs(out[i])
        u = np.sort(v)[::-1]
        css = np.cumsum(u)
        ks = np.arange(1, v.size + 1)
        cond = u - (css - radius) / ks > 0
        k = ks[cond][-1]
        theta = (css[k - 1] - radius) / k
        out[i] = np.sign(out[i]) * np.maximum(v - theta, 0.0)
    return out


def project_to_ball(Xp, X, ball):
    """Project perturbed rows back into the per-row ball around X."""
    delta = Xp - X
    if ball.p_norm == math.inf:
        delta = np.clip(delta, -ball.gamma, ball.gamma)
    elif ball.p_norm == 2.0:
        norms = np.linalg.norm(delta, axis=1, keepdims=True)
        scale = np.minimum(1.0, ball.gamma / np.maximum(norms, 1e-300))
        delta = delta * scale
    else:
        delta = _l1_project_rows(delta, ball.gamma)
    return X + delta


def _steepest_ascent(g, p_norm):
    """Unit step of steepest ascent for the given ball geometry."""
    if p_norm == math.inf:
        return np.sign(g)
    if p_norm == 2.0:
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        return g / np.maximum(norms, 1e-300)
    step = np.zeros_like(g)
    idx = np.argmax(np.abs(g), axis=1)
    rows = np.arange(g.shape[0])
    step[rows, idx] = np.sign(g[rows, idx])
    return step


def pgd_maximize(model, objective, X, ball, adv, rng=None):
    """Maximize ``objective`` at the model's scores over per-row balls by
    projected ascent.

    ``objective(scores)`` returns the per-row values and their gradient
    with respect to the scores. Each iterate costs one ``model.forward``
    and one objective call, plus one ``model.input_grad`` when a step is
    taken from it. Restart 0 starts at the clean points; further restarts
    start uniformly inside the (projected) ball. The best value seen at any
    iterate is retained per row, so enlarging the budget never lowers the
    estimate. Returns (best values, best points).
    """
    rng = np.random.default_rng(adv.seed) if rng is None else rng
    v, ds = objective(model.forward(X))
    best_v = np.asarray(v, dtype=np.float64).copy()
    best_X = X.copy()
    if ball.gamma == 0.0:
        return best_v, best_X
    step = adv.step_size(ball)
    for r in range(adv.restarts):
        Xp = X
        if r > 0:
            Xp = project_to_ball(
                X + rng.uniform(-ball.gamma, ball.gamma, size=X.shape), X, ball)
            v, ds = objective(model.forward(Xp))
            upd = v > best_v
            best_v[upd] = v[upd]
            best_X[upd] = Xp[upd]
        for _ in range(adv.pgd_steps):
            g = model.input_grad(Xp, ds)
            Xp = project_to_ball(Xp + step * _steepest_ascent(g, ball.p_norm),
                                 X, ball)
            v, ds = objective(model.forward(Xp))
            upd = v > best_v
            best_v[upd] = v[upd]
            best_X[upd] = Xp[upd]
    return best_v, best_X


# ---------------------------------------------------------------------------
# attack objectives and the adversarial losses built on them
# ---------------------------------------------------------------------------

def _ramp_objective(Y, tau, rho):
    """Ramp-margin comp-sum loss: the outer transform of the summed ramps
    at the score margins of each row's label."""

    def objective(scores):
        rows = np.arange(scores.shape[0])
        margins = scores[rows, Y][:, None] - scores
        ramps = rho_margin(margins, rho)
        ramps[rows, Y] = 0.0
        inner = ramps.sum(axis=1)
        ramp_g = rho_margin_subgrad(margins, rho)
        ramp_g[rows, Y] = 0.0
        ds = -ramp_g
        ds[rows, Y] = ramp_g.sum(axis=1)
        ds *= phi_tau_deriv(inner, tau)[:, None]
        return phi_tau(inner, tau), ds

    return objective


def deviation_objective(base_scores, Y):
    """Score-difference deviation: per row, the l2 norm over competing
    labels ``j`` of ``(s_y - s_j) - (base_y - base_j)``.

    Its gradient is the unit deviation direction (0 where the deviation is
    0), so the same objective serves the attack and the training step's
    upstream gradient at the attacked points.
    """
    rows = np.arange(base_scores.shape[0])
    base_diff = base_scores[rows, Y][:, None] - base_scores

    def objective(scores):
        dev = (scores[rows, Y][:, None] - scores) - base_diff
        dev[rows, Y] = 0.0
        norms = np.linalg.norm(dev, axis=1, keepdims=True)
        u = dev / np.maximum(norms, 1e-300)
        ds = -u
        ds[rows, Y] = u.sum(axis=1)
        return norms[:, 0], ds

    return objective


def _margin_objective(Y):
    """Margin violation: best competing score minus the label's score,
    with the competitor chosen by the highest-index tie rule."""

    def objective(scores):
        rows = np.arange(scores.shape[0])
        masked = scores.copy()
        masked[rows, Y] = -np.inf
        comp = predict_batch(masked)
        ds = np.zeros_like(scores)
        ds[rows, comp] = 1.0
        ds[rows, Y] -= 1.0
        return masked[rows, comp] - scores[rows, Y], ds

    return objective


def adv_comp_rho_loss_batch(model, X, Y, tau, adv, ball, rng=None):
    """PGD estimate of the worst ramp-margin comp-sum loss over the ball."""
    return pgd_maximize(model, _ramp_objective(Y, check_tau(tau), adv.rho),
                        X, ball, adv, rng)[0]


def adv_comp_rho_loss(model, x, y, tau, adv, ball):
    """Worst ramp-margin comp-sum loss of one example (PGD lower bound).

    Value lies in ``[0, phi_tau(n - 1)]``; at ``gamma = 0`` it is exactly
    the pointwise ramp-margin loss.
    """
    X = np.asarray(x, dtype=np.float64)[None, :]
    Y = np.array([losses.check_label(y, model.n_labels)])
    return float(adv_comp_rho_loss_batch(model, X, Y, tau, adv, ball)[0])


def deviation_sup_batch(model, X, Y, adv, ball, rng=None):
    """PGD estimate of the worst score-difference deviation over the ball."""
    return pgd_maximize(model, deviation_objective(model.forward(X), Y),
                        X, ball, adv, rng)[0]


def smooth_adv_comp_loss_batch(model, X, Y, tau, adv, ball, rng=None):
    """Clean loss at scores scaled by ``1 / rho`` plus the weighted worst
    score-difference deviation (PGD estimate)."""
    tau = check_tau(tau)
    clean = losses.comp_sum_loss_batch(model.forward(X) / adv.rho, Y, tau)
    return clean + adv.nu * deviation_sup_batch(model, X, Y, adv, ball, rng)


def smooth_adv_comp_loss(model, x, y, tau, adv, ball):
    """Smooth adversarial comp-sum loss of one example.

    At ``gamma = 0`` the deviation term vanishes and the value is exactly
    the clean loss at the scaled scores. Dominates the ramp-margin
    adversarial loss whenever both inner suprema are exact.
    """
    X = np.asarray(x, dtype=np.float64)[None, :]
    Y = np.array([losses.check_label(y, model.n_labels)])
    return float(smooth_adv_comp_loss_batch(model, X, Y, tau, adv, ball)[0])


def margin_attack_batch(model, X, Y, ball, adv, rng=None):
    """PGD on the margin loss: returns the attacked points."""
    return pgd_maximize(model, _margin_objective(Y), X, ball, adv, rng)[1]


def adv_zero_one_batch(model, X, Y, ball, attack, rng=None):
    """Worst-case zero-one losses (PGD lower bound): 1 where any attacked
    or clean point is misclassified under the highest-index tie rule."""
    Xbest = margin_attack_batch(model, X, Y, ball, attack, rng)
    wrong_clean = predict_batch(model.forward(X)) != Y
    wrong_adv = predict_batch(model.forward(Xbest)) != Y
    return (wrong_clean | wrong_adv).astype(np.int64)


def adv_zero_one(model, x, y, ball, attack):
    """Worst-case zero-one loss of one example; exact at ``gamma = 0``."""
    X = np.asarray(x, dtype=np.float64)[None, :]
    Y = np.array([losses.check_label(y, model.n_labels)])
    return int(adv_zero_one_batch(model, X, Y, ball, attack)[0])


# ---------------------------------------------------------------------------
# local margin consistency of hypothesis sets
# ---------------------------------------------------------------------------

@dataclass
class RhoConsistencyResult:
    passed: bool
    reason: str
    witness: object = None


def check_local_rho_consistency(spec, rho):
    """Decide whether the set contains a hypothesis keeping every pairwise
    score gap at least ``rho`` with a fixed ordering on every ball.

    For both supported kinds the witness is the staircase
    ``-0.5 * (n - 1) * rho + rho * arange(n)``: score levels inside
    ``[-lam, lam]`` for the score box, zero weights with those biases
    inside the coefficient bound for the linear family. The witness is
    constant in x, so its infimum over any ball equals its value at any
    point, and one exact test of its gaps and order decides the set for
    every point and every ball radius.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    n = spec.n
    span = (n - 1) * rho
    if spec.kind == "score_box":
        bound, reason = spec.lam, "staircase witness with spacing rho"
        failure = (f"cannot fit {n} levels spaced {rho} inside "
                   f"[-{spec.lam}, {spec.lam}]")
    elif spec.kind == "linear":
        bound, reason = spec.weight_bound, "constant staircase witness"
        failure = f"bias bound {spec.weight_bound} below required {span / 2}"
    else:
        raise ValueError(f"unsupported hypothesis kind {spec.kind!r}")
    # relative tolerances: the staircase's rounding scales with rho
    if span > 2.0 * bound * (1.0 + 1e-12):
        return RhoConsistencyResult(False, failure)

    levels = -0.5 * span + rho * np.arange(n)
    gaps = np.abs(levels[:, None] - levels[None, :])[~np.eye(n, dtype=bool)]
    if gaps.min() < rho * (1.0 - 1e-12) or \
            np.any(np.argsort(levels) != np.arange(n)):
        return RhoConsistencyResult(
            False, f"staircase gaps fall below {rho} in floating point")
    witness = levels if spec.kind == "score_box" else \
        LinearModel(np.zeros((n, spec.feature_dim)), levels)
    return RhoConsistencyResult(True, reason, witness)


# ---------------------------------------------------------------------------
# exact oracles for one-dimensional linear instances
# ---------------------------------------------------------------------------

def _linear_wb(model):
    if not isinstance(model, LinearModel) or model.dim != 1:
        raise ValueError("exact oracles need a one-dimensional linear model")
    return model.W[:, 0], model.b


def adv_zero_one_exact_1d(model, x, y, gamma):
    """Exact worst-case zero-one loss: an affine score family wins on an
    interval, so checking the two ball endpoints is exact."""
    w, b = _linear_wb(model)
    for t in (x - gamma, x + gamma):
        if predict(w * t + b) != y:
            return 1
    return 0


def sup_rho_inner_exact_1d(model, x, y, rho, gamma):
    """Exact supremum over the interval of the summed ramps.

    Each ramp of an affine margin is piecewise linear in the input, so the
    supremum of the sum sits at an endpoint or at a ramp breakpoint.
    """
    w, b = _linear_wb(model)
    n = w.shape[0]
    lo, hi = x - gamma, x + gamma
    cands = [lo, hi]
    for j in range(n):
        if j == y:
            continue
        slope = w[y] - w[j]
        inter = b[y] - b[j]
        if slope != 0.0:
            for target in (0.0, rho):
                t = (target - inter) / slope
                if lo < t < hi:
                    cands.append(t)
    best = -math.inf
    for t in cands:
        s = w * t + b
        margins = s[y] - s
        vals = rho_margin(margins, rho)
        vals[y] = 0.0
        best = max(best, float(vals.sum()))
    return best


def adv_comp_rho_loss_exact_1d(model, x, y, tau, rho, gamma):
    return float(phi_tau(sup_rho_inner_exact_1d(model, x, y, rho, gamma), tau))


def deviation_sup_exact_1d(model, x, y, gamma):
    """Exact worst deviation norm: affine differences make it
    ``gamma * ||w_y - w_j||_2`` over the competing labels."""
    w, _ = _linear_wb(model)
    diffs = w[y] - np.delete(w, y)
    return float(gamma * np.linalg.norm(diffs))


def smooth_adv_comp_loss_exact_1d(model, x, y, tau, adv, gamma):
    s = model.forward(np.array([[float(x)]]))[0]
    clean = losses.comp_sum_loss(s / adv.rho, y, tau)
    return clean + adv.nu * deviation_sup_exact_1d(model, x, y, gamma)


def clean_rho_loss(model, x, y, tau, rho):
    """Pointwise ramp-margin comp-sum loss (no perturbation)."""
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    objective = _ramp_objective(np.array([y]), check_tau(tau), rho)
    return float(objective(model.forward(X))[0][0])


def cstar_adv_rho_closed(p, tau):
    """Best-in-class conditional sup-ramp risk for a symmetric locally
    margin-consistent set: ascending-sorted probabilities dotted with the
    transform of the count of strictly-higher labels."""
    p = risk.check_cond_dist(p)
    n = p.shape[0]
    q = np.sort(p)
    coeffs = phi_tau(np.arange(n - 1, -1, -1, dtype=np.float64), tau)
    return float(q @ coeffs)


def _best_threshold_adv01(dist, gamma):
    """Exact best-in-class expected adversarial zero-one risk over
    one-dimensional two-class threshold classifiers."""
    xs = np.array([float(pt.x[0]) for pt in dist.points])
    ws = dist.weights
    conds = dist.conds
    edges = np.concatenate([xs - gamma, xs + gamma])
    edges = np.sort(np.unique(edges))
    cands = [edges[0] - 1.0, edges[-1] + 1.0]
    cands += list((edges[:-1] + edges[1:]) / 2.0)
    best = math.inf
    for t in cands:
        for orient in (1, -1):
            # orient=+1: predict label 1 above the threshold
            risk_val = 0.0
            for k in range(len(xs)):
                lo, hi = xs[k] - gamma, xs[k] + gamma
                ok1 = lo > t if orient == 1 else hi < t
                ok0 = hi < t if orient == 1 else lo > t
                risk_val += ws[k] * (conds[k][1] * (0.0 if ok1 else 1.0)
                                     + conds[k][0] * (0.0 if ok0 else 1.0))
            best = min(best, risk_val)
    return best


@dataclass
class AdvBoundReport:
    """Both sides of the adversarial consistency bound plus the smooth-loss
    variant; combined form (excess plus gap) on each side."""

    tau: float
    n: int
    lhs: float
    rhs: float
    slack: float
    rhs_smooth: float
    gap01: float = math.nan
    gap_surrogate: float = math.nan
    flags: list = field(default_factory=list)


def verify_adv_bound(dist, spec, model, tau, adv, ball):
    """Evaluate both sides of the adversarial consistency bound exactly on
    a one-dimensional linear instance.

    ``lhs`` is the worst-case zero-one excess plus gap (combined form:
    expected worst-case risk minus the expected conditional optimum);
    ``rhs`` divides the corresponding sup-ramp quantity by the outer
    transform at 1, the direction the pointwise calibration chain
    supports (``sup-ramp gap >= phi_tau(1) * zero-one gap`` with
    ``phi_tau(1) <= 1``). ``rhs_smooth`` replaces the hypothesis's
    sup-ramp risk by its smooth adversarial loss, which can only increase
    the bound. Refuses hypothesis sets of another label count or feature
    dimension, and sets that fail the local margin consistency check.
    """
    tau = check_tau(tau)
    w, b = _linear_wb(model)
    if spec.n != dist.n or (spec.kind == "linear" and spec.feature_dim != 1):
        raise ValueError(f"hypothesis set {spec} does not describe "
                         f"one-dimensional {dist.n}-label instances")
    check = check_local_rho_consistency(spec, adv.rho)
    if not check.passed:
        raise ValueError(
            f"hypothesis set is not locally margin-consistent: {check.reason}")

    gamma = ball.gamma
    r_adv01 = 0.0
    e_cstar01 = 0.0
    r_rho = 0.0
    r_smooth = 0.0
    e_cstar_rho = 0.0
    for pt in dist.points:
        x = float(pt.x[0])
        e_cstar01 += pt.weight * (1.0 - pt.cond.max())
        e_cstar_rho += pt.weight * cstar_adv_rho_closed(pt.cond, tau)
        for y in range(dist.n):
            if pt.cond[y] == 0.0:
                continue
            wy = pt.weight * pt.cond[y]
            r_adv01 += wy * adv_zero_one_exact_1d(model, x, y, gamma)
            r_rho += wy * adv_comp_rho_loss_exact_1d(model, x, y, tau,
                                                     adv.rho, gamma)
            r_smooth += wy * smooth_adv_comp_loss_exact_1d(model, x, y, tau,
                                                           adv, gamma)

    phi1 = float(phi_tau(1.0, tau))
    lhs = r_adv01 - e_cstar01
    rhs = (r_rho - e_cstar_rho) / phi1
    rhs_smooth = (r_smooth - e_cstar_rho) / phi1
    flags = []
    gap01 = math.nan
    if dist.n == 2:
        gap01 = _best_threshold_adv01(dist, gamma) - e_cstar01
    else:
        flags.append("gap01_skipped:n>2")
    return AdvBoundReport(tau, dist.n, lhs, rhs, rhs - lhs, rhs_smooth,
                          gap01=gap01, flags=flags)
