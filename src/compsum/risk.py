"""Conditional risks, best-in-class risks, calibration and minimizability gaps.

The closed-form best-in-class conditional risk assumes a symmetric and
complete hypothesis set; the brute-force oracle minimizes over an explicit
score box by multi-start safeguarded projected Newton descent (one Armijo
search along the projected Newton arc per iteration) and is the
independent cross-check for every closed form in this module.

The minimizability gap (best-in-class expected risk minus the expected
pointwise infimum) is always upper bounded by the approximation error,
where the inner infimum runs over all measurable score functions instead of
the restricted set; the gap is the finer quantity and the only one
computed here.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import losses
from ._kernels import (WeightedCondRisk, newton_box_min,
                       pgd_box_weighted_min, pgd_box_weighted_min_batch)
from .losses import TAU_BRANCH_TOL, check_tau

# Box half-width standing in for an unbounded (complete) score set in the
# brute-force oracle.
UNBOUNDED_BOX_LAM = 30.0

# Starts per brute-force oracle problem, and the unit-step projected-gradient
# norm at which a start has converged.
ORACLE_STARTS = 8
ORACLE_GTOL = 1e-10

# Smoothing floor for zero probabilities when tau > 2 makes the closed-form
# exponent negative.
ZERO_PROB_EPS = 1e-12


def check_cond_dist(p, n=None):
    """Validate a conditional label distribution (sums to 1 within 1e-12)."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.shape[0] < 2:
        raise ValueError("conditional distribution must be 1-D with >= 2 entries")
    if n is not None and p.shape[0] != n:
        raise ValueError(f"expected {n} labels, got {p.shape[0]}")
    if np.any(p < -1e-15):
        raise ValueError("probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {p.sum()}, not 1")
    return np.maximum(p, 0.0)


@dataclass(frozen=True)
class SupportPoint:
    """One atom of a finite-support distribution.

    ``x`` carries input features and is only required by hypothesis sets
    whose scores depend on the input (the linear family).
    """

    weight: float
    cond: np.ndarray
    x: np.ndarray | None = None


@dataclass(frozen=True)
class FiniteDistribution:
    points: tuple
    n: int

    def __post_init__(self):
        if not self.points:
            raise ValueError("distribution needs at least one support point")
        total = 0.0
        for pt in self.points:
            if pt.weight < 0:
                raise ValueError("weights must be nonnegative")
            check_cond_dist(pt.cond, self.n)
            total += pt.weight
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, not 1")

    @property
    def weights(self):
        return np.array([pt.weight for pt in self.points])

    @property
    def conds(self):
        return np.stack([pt.cond for pt in self.points])


def finite_distribution(weights, conds, xs=None):
    """Build a validated FiniteDistribution from arrays."""
    weights = np.asarray(weights, dtype=np.float64)
    conds = np.asarray(conds, dtype=np.float64)
    pts = []
    for k in range(len(weights)):
        x = None if xs is None else np.asarray(xs[k], dtype=np.float64)
        pts.append(SupportPoint(float(weights[k]), conds[k].copy(), x))
    return FiniteDistribution(tuple(pts), conds.shape[1])


def save_distribution(dist, path):
    """Write the tabular form: header ``weight,p1,...,pn``, one row per atom."""
    with open(path, "w") as fh:
        fh.write("weight," + ",".join(f"p{i + 1}" for i in range(dist.n)) + "\n")
        for pt in dist.points:
            row = [pt.weight] + list(pt.cond)
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def load_distribution(path):
    with open(path) as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if not cols or cols[0] != "weight" or len(cols) < 3:
            raise ValueError(f"bad distribution header: {header!r}")
        n = len(cols) - 1
        weights, conds = [], []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            vals = [float(v) for v in line.split(",")]
            if len(vals) != n + 1:
                raise ValueError(f"line {line_no}: expected {n + 1} fields")
            weights.append(vals[0])
            conds.append(vals[1:])
    return finite_distribution(np.array(weights), np.array(conds))


@dataclass(frozen=True)
class HypothesisSpec:
    """Restricted hypothesis set description.

    kind ``score_box``: per input, the generated score vectors fill the box
    ``[-lam, lam]^n`` (``lam = inf`` means complete). ``label_lams`` builds a
    non-symmetric fixture with per-label half-widths. kind ``linear``:
    per-label affine scores ``w_y . x + b_y`` with every coefficient bounded
    by ``weight_bound``.
    """

    kind: str
    n: int
    lam: float = math.inf
    label_lams: tuple | None = None
    feature_dim: int = 0
    weight_bound: float = math.inf

    def __post_init__(self):
        if self.kind not in ("score_box", "linear"):
            raise ValueError(f"unknown hypothesis kind {self.kind!r}")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.kind == "score_box" and not self.lam > 0:
            raise ValueError("lam must be positive")
        if self.kind == "linear" and self.feature_dim < 1:
            raise ValueError("linear spec needs feature_dim >= 1")

    @property
    def is_symmetric(self):
        if self.kind == "score_box":
            return self.label_lams is None or len(set(self.label_lams)) == 1
        return True

    @property
    def is_complete(self):
        if self.kind == "score_box":
            return self.label_lams is None and math.isinf(self.lam)
        return False

    def box_lam(self):
        """Effective box half-width for brute-force search."""
        if self.kind != "score_box":
            raise ValueError("box_lam only applies to score_box specs")
        return UNBOUNDED_BOX_LAM if math.isinf(self.lam) else self.lam


def score_box(n, lam=math.inf):
    return HypothesisSpec("score_box", n, lam=lam)


def linear_family(n, feature_dim, weight_bound=math.inf):
    return HypothesisSpec("linear", n, feature_dim=feature_dim,
                          weight_bound=weight_bound)


@dataclass
class BruteResult:
    value: float
    scores: np.ndarray
    converged: bool


def cond_risk(scores, p, tau):
    """Conditional risk: probability-weighted loss over all labels."""
    s = losses.check_scores(scores)
    p = check_cond_dist(p, s.shape[0])
    return float(p @ losses.comp_sum_loss_all_labels(s, tau))


def cond_risk_star_closed(p, tau):
    """Best-in-class conditional risk for a symmetric complete set.

    Shannon entropy at ``tau = 1``; the power-sum form (a Renyi-entropy
    expression, with the convention ``0 ** r = 0``) for ``tau < 2``; and
    ``(1 - max(p)) / (tau - 1)`` for ``tau >= 2``. The last branch is the
    degenerate-vertex limit: in softmax coordinates the conditional risk is
    concave once the loss exponent ``tau - 1`` exceeds 1, so the infimum
    sits at a simplex vertex rather than at the interior stationary point.
    """
    p = check_cond_dist(p)
    tau = check_tau(tau)
    if tau >= 2.0 - TAU_BRANCH_TOL:
        return float((1.0 - p.max()) / (tau - 1.0))
    return _power_sum_stationary(p, tau)


def cond_risk_power_sum_stationary(p, tau):
    """Stationary value of the conditional risk in the power-sum form.

    Coincides with ``cond_risk_star_closed`` for ``tau < 2`` (where the
    problem is convex in softmax coordinates); for ``tau > 2`` it is a
    stationary point but not the infimum. Exposed for diagnostics.
    """
    p = check_cond_dist(p)
    tau = check_tau(tau)
    if abs(tau - 2.0) < TAU_BRANCH_TOL:
        return float(1.0 - p.max())
    if tau > 2.0 and np.any(p < ZERO_PROB_EPS):
        warnings.warn(
            "zero probabilities floored at 1e-12: the power-sum exponent "
            "is negative for tau > 2",
            RuntimeWarning,
            stacklevel=2,
        )
        p = np.maximum(p, ZERO_PROB_EPS)
    return _power_sum_stationary(p, tau)


def _power_sum_stationary(p, tau):
    """Shannon entropy at ``tau = 1``, else
    ``expm1((2 - tau) * log sum_y p_y ** (1 / (2 - tau))) / (1 - tau)``
    over the nonzero ``p_y``."""
    if abs(tau - 1.0) < TAU_BRANCH_TOL:
        nz = p[p > 0]
        return float(-(nz * np.log(nz)).sum())
    r = 1.0 / (2.0 - tau)
    with np.errstate(divide="ignore"):
        logs = np.log(p)
    terms = r * logs[np.isfinite(logs)]
    lse = losses._logsumexp(terms)
    return float(math.expm1((2.0 - tau) * lse) / (1.0 - tau))


def optimal_scores(p, tau, lam=UNBOUNDED_BOX_LAM):
    """Score vector attaining the complete-set conditional risk minimum.

    Proportional in exp-space to ``p ** (1 / (2 - tau))``; labels with zero
    probability sit at ``-lam``. For ``tau >= 2`` the minimizer is the
    degenerate limit: top label at ``+lam``, everything else at ``-lam``.
    """
    p = check_cond_dist(p)
    tau = check_tau(tau)
    if tau >= 2.0 - TAU_BRANCH_TOL:
        s = np.full(p.shape, -lam)
        s[losses.predict(p)] = lam
        return s
    r = 1.0 / (2.0 - tau)
    with np.errstate(divide="ignore"):
        s = r * np.log(p)
    s[~np.isfinite(s)] = -np.inf
    s -= s.max()
    return np.maximum(s, -lam)


def pgd_starts(c, lam, rng):
    """``ORACLE_STARTS`` deterministic starts for the weights ``c``: zeros,
    the corners that favour the largest and the smallest weight, random.

    The random starts are drawn uniformly from ``[-lam, lam]``, so a box
    whose width ``2 * lam`` is not a finite float is refused.
    """
    if not math.isfinite(2.0 * float(lam)):
        raise ValueError(f"score box half-width {lam:g} is too wide to search")
    n = len(c)
    hi = np.full(n, -lam)
    hi[int(np.argmax(c))] = lam
    lo = np.full(n, -lam)
    lo[int(np.argmin(c))] = lam
    return np.stack([np.zeros(n), hi, lo] + [
        rng.uniform(-lam, lam, size=n) for _ in range(ORACLE_STARTS - 3)])


def minimize_weighted_cond_risk(c, tau, lam, *, seed=0, max_iter=10000):
    """Minimize ``sum_y c[y] * loss(s, y, tau)`` over the box ``[-lam, lam]^n``.

    ``c`` may carry negative entries (used with negated coefficients to
    compute suprema). Deterministic given ``seed``.
    """
    c = np.ascontiguousarray(c, dtype=np.float64)
    tau = check_tau(tau)
    rng = np.random.default_rng(seed)
    starts = pgd_starts(c, lam, rng)
    val, scores, conv = pgd_box_weighted_min(
        c, tau, float(lam), np.ascontiguousarray(starts), max_iter, ORACLE_GTOL
    )
    return BruteResult(float(val), np.asarray(scores), bool(conv))


def minimize_weighted_cond_risk_batch(C, tau, lam, seeds, *, max_iter=10000):
    """``minimize_weighted_cond_risk`` for each row of ``C`` on one box.

    Row ``b`` is solved from the starts that ``seed=seeds[b]`` gives the
    single-problem oracle, so each result is that call's result bit for
    bit (both kernels take the same steps on the same row-wise functions).
    Several problems run through the lockstep kernel, all their starts at
    once. A single problem goes to the one-problem kernel through
    ``minimize_weighted_cond_risk``, so that the benchmark's tracer, which
    wraps that kernel, sees it. Speed is not the reason: the lockstep
    kernel solves a single problem faster, since its starts share
    iterations. Returns one ``BruteResult`` per row.
    """
    C = np.asarray(C, dtype=np.float64)
    tau = check_tau(tau)
    seeds = list(seeds)
    if C.ndim != 2 or C.shape[0] != len(seeds):
        raise ValueError("C must be a (B, n) array with one seed per row")
    if len(seeds) <= 1:
        return [minimize_weighted_cond_risk(c, tau, lam, seed=s,
                                            max_iter=max_iter)
                for c, s in zip(C, seeds)]
    starts = np.stack([pgd_starts(c, lam, np.random.default_rng(s))
                       for c, s in zip(C, seeds)])
    vals, scores, conv = pgd_box_weighted_min_batch(
        C, tau, float(lam), starts, max_iter, ORACLE_GTOL)
    return [BruteResult(float(v), x, bool(ok))
            for v, x, ok in zip(vals, scores, conv)]


def cond_risk_star_brute(p, tau, spec, *, seed=0, max_iter=10000):
    """Independent oracle: minimize the conditional risk over a score box.

    Multi-start safeguarded projected Newton descent (an Armijo search on
    the projected Newton arc); ``converged`` is False when any start was
    still running at ``max_iter`` (a warning, not an error).
    """
    p = check_cond_dist(p)
    if spec.kind != "score_box":
        raise ValueError("brute-force oracle needs a score_box spec")
    return minimize_weighted_cond_risk(p, tau, spec.box_lam(), seed=seed,
                                       max_iter=max_iter)


def cond_risk_star(p, tau, spec, **kw):
    """Closed form when the spec is complete, brute force otherwise."""
    if spec.kind == "score_box" and spec.is_complete:
        return cond_risk_star_closed(p, tau)
    return cond_risk_star_brute(p, tau, spec, **kw).value


def calibration_gap(scores, p, tau, spec, **kw):
    """Conditional risk of the scores minus the best-in-class value."""
    return cond_risk(scores, p, tau) - cond_risk_star(p, tau, spec, **kw)


# ---------------------------------------------------------------------------
# minimizability gap
# ---------------------------------------------------------------------------

def _linear_point_boxes(dist, spec):
    """Per-point reachable score boxes of a bounded linear family."""
    lams = []
    for pt in dist.points:
        if pt.x is None:
            raise ValueError("linear spec needs per-point features")
        lam = spec.weight_bound * (float(np.abs(pt.x).sum()) + 1.0)
        # the oracle draws starts uniformly from [-lam, lam]
        if not math.isfinite(2.0 * lam):
            raise ValueError(
                f"linear spec needs a finite weight_bound: the per-point "
                f"score box weight_bound * (|x|_1 + 1) = {lam:g} is too wide "
                f"to search")
        lams.append(lam)
    return lams


class _LinearRisk:
    """Expected risk of the shared affine scores ``S_k = W x_k + b = J_k
    theta``, ``J_k = [I (x) x_k^T, I]``, one row of ``theta = (W row-major,
    b)`` per start: gradient ``sum_k J_k^T g_k`` and Hessian ``sum_k J_k^T
    H_k J_k`` from each point's weighted objective. Every row is the same
    function, so ``rows`` keeps it whole."""

    def __init__(self, dist, tau):
        eye = np.eye(dist.n)
        self.terms = [(np.hstack([np.kron(eye, pt.x[None, :]), eye]),
                       WeightedCondRisk(pt.weight * pt.cond, tau))
                      for pt in dist.points]

    def value(self, T):
        return sum(pt.value(T @ J.T) for J, pt in self.terms)

    def value_grad(self, T):
        f, G = 0.0, 0.0
        for J, pt in self.terms:
            fk, gk = pt.value_grad(T @ J.T)
            f, G = f + fk, G + gk @ J
        return f, G

    def hessian(self, T):
        return sum(J.T @ pt.hessian(T @ J.T) @ J for J, pt in self.terms)

    def rows(self, keep):
        return self


def _linear_joint_minimum(dist, spec, tau, seed):
    """Minimize the expected risk over shared (W, b) in the weight box from
    six starts (zero and five uniform); returns (value, all converged)."""
    size, bound = spec.n * (spec.feature_dim + 1), spec.weight_bound
    rng = np.random.default_rng(seed)
    starts = np.vstack([np.zeros(size), rng.uniform(-bound, bound, (5, size))])
    vals, _, conv = newton_box_min(_LinearRisk(dist, tau), starts, bound,
                                   10000, ORACLE_GTOL)
    return float(vals.min()), bool(conv.all())


def minimizability_gap(dist, spec, tau, *, seed=0):
    """Best-in-class expected risk minus the expected pointwise infimum.

    A score box lets every support point take its own score vector, so the
    best-in-class expected risk ``inf_h sum_x w(x) C(h(x), x)`` decomposes
    into ``sum_x w(x) inf_s C(s, x)``, which is the expected pointwise
    infimum itself: the gap is exactly 0 and no oracle runs. A shared-score
    family (linear) couples the points and can have a strictly positive
    gap; its weights need a finite ``weight_bound``. Its joint minimum runs
    on the oracle's projected Newton engine from six starts. A
    ``RuntimeWarning`` reports a per-point or joint solve that did not
    converge, or a joint minimum more than 1e-9 below the pointwise one.

    For tau > 1 the joint objective is not convex, and the six starts can
    all end at local minima; the gap is then an upper estimate. Example:
    weights ``[0.05, 0.08, 0.18, 0.25, 0.44]``, conditionals ``[[0.73,
    0.27], [0.19, 0.81], [0.06, 0.94], [0.27, 0.73], [0.66, 0.34]]``,
    features ``[[1.0, -0.3], [-0.3, -0.8], [0.5, -0.1], [0.5, -0.6], [0.1,
    -0.9]]``, ``linear_family(2, 2, weight_bound=3.0)``, tau 2.4 and seed 0
    give 0.11701, where 200 starts give 0.09575.
    """
    tau = check_tau(tau)
    if spec.kind == "score_box":
        return 0.0
    fits = [minimize_weighted_cond_risk(pt.cond, tau, lam, seed=seed + 31 * k)
            for k, (pt, lam) in enumerate(zip(dist.points,
                                              _linear_point_boxes(dist, spec)))]
    joint, converged = _linear_joint_minimum(dist, spec, tau, seed)
    gap = joint - sum(pt.weight * res.value
                      for pt, res in zip(dist.points, fits))
    if not (converged and all(res.converged for res in fits)) or gap < -1e-9:
        warnings.warn(f"minimizability gap {gap:.3e}: a minimum did not "
                      f"converge or the joint one lies below the pointwise "
                      f"one", RuntimeWarning, stacklevel=2)
    return max(gap, 0.0)


def gap_upper_bound_deterministic(spec, tau, r_star_tau0):
    """Deterministic-label gap bound: transform difference at the two risks.

    The pointwise optimum of the sum-exponential loss over the box is
    ``exp(-2 lam) * (n - 1)``; the bound is the outer transform evaluated at
    the supplied best-in-class sum-exponential risk minus the transform at
    that optimum. Non-increasing in ``tau``.
    """
    tau = check_tau(tau)
    if spec.kind != "score_box" or math.isinf(spec.lam):
        raise ValueError("needs a score_box spec with finite lam")
    r_star_tau0 = float(r_star_tau0)
    c0 = math.exp(-2.0 * spec.lam) * (spec.n - 1)
    if r_star_tau0 < c0 - 1e-15:
        raise ValueError(
            f"r_star_tau0={r_star_tau0} below the pointwise optimum {c0}"
        )
    return float(losses.phi_tau(r_star_tau0, tau) - losses.phi_tau(c0, tau))
