"""Conditional risks, best-in-class risks, calibration and minimizability gaps.

The closed-form best-in-class conditional risk assumes a symmetric and
complete hypothesis set; the brute-force oracle minimizes over an explicit
score box by multi-start safeguarded projected Newton descent (one Armijo
search along the projected Newton arc per iteration) and is the
independent cross-check for every closed form in this module.
Expectations run over a ``FiniteDistribution``, three arrays (weights,
conditionals, features) checked once when built.

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

from . import _checks as check
from . import losses
# the benchmark's tracer wraps ``pgd_box_weighted_min`` where this module
# looks it up; no code here calls it
from ._kernels import (
    WeightedCondRisk,
    newton_box_min,
    pgd_box_weighted_min,
    weighted_cond_value,
)
from .losses import TAU_BRANCH_TOL

# Box half-width standing in for an unbounded (complete) score set in the
# brute-force oracle.
UNBOUNDED_BOX_LAM = 30.0

# Starts per brute-force oracle problem, and the unit-step projected-gradient
# norm at which a start has converged.
ORACLE_STARTS = 8
ORACLE_GTOL = 1e-10


class FiniteDistribution:
    """A finite-support distribution as arrays, one row per atom: ``weights``
    (K,), conditional label distributions ``conds`` (K, n) and features
    ``xs`` (K, d) or None; the linear family and the adversarial bound read
    ``xs``. Built from copies, checked once: finite nonnegative weights that
    sum to 1 within 1e-12, each row of ``conds`` a conditional distribution
    and finite features.
    """

    def __init__(self, weights, conds, xs=None):
        self.weights = check.floats(weights, "weights", copy=True)
        self.conds = check.floats(conds, "conds", copy=True)
        self.xs = None if xs is None else check.floats(xs, "xs", copy=True)
        K = self.weights.size
        arrays = (("weights", self.weights, 1), ("conds", self.conds, 2),
                  ("xs", self.xs, 2))
        for name, a, ndim in arrays:
            if a is not None and (a.ndim != ndim or a.shape[0] != K or K == 0):
                shapes = [a.shape for _, a, _ in arrays if a is not None]
                raise ValueError(f"{name}: need K >= 1 weights (K,), conds "
                                 f"(K, n) and xs (K, d) or None, got shapes "
                                 f"{shapes}")
        if self.xs is not None:
            check.reals(self.xs, "xs")
        check.reals(self.weights, "weights", "[0, inf)")
        total = sum(self.weights.tolist())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got a sum of {total}")
        # every row by the tests of check.cond_dist at once (an axis-1 sum
        # is each row's own sum); a failing one is checked row by row, so
        # the first bad row raises its own message
        C = self.conds
        if not (C.shape[1] >= 2 and np.isfinite(C).all()
                and C.min() >= -1e-15
                and np.abs(C.sum(axis=1) - 1.0).max() <= 1e-12):
            for k, cond in enumerate(C):
                try:
                    check.cond_dist(cond)
                except ValueError as exc:
                    raise ValueError(f"conds: row {k}: {exc}") from None

    @property
    def n(self):
        return self.conds.shape[1]


# the name that callers, the README tour and the benchmark build with
finite_distribution = FiniteDistribution


def save_distribution(dist, path):
    """Write the tabular form: header ``weight,p1,...,pn``, followed by
    ``x1,...,xd`` when the distribution has features, one row per atom."""
    table = np.column_stack([dist.weights, dist.conds]
                            + ([] if dist.xs is None else [dist.xs]))
    with open(path, "w") as fh:
        fh.write(",".join(_distribution_columns(
            dist.n, table.shape[1] - 1 - dist.n)) + "\n")
        for row in table.tolist():
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _distribution_columns(n, d):
    return (["weight"] + [f"p{i + 1}" for i in range(n)]
            + [f"x{j + 1}" for j in range(d)])


def load_distribution(path):
    """Read the tabular form that ``save_distribution`` writes; a file
    without ``x`` columns loads with ``xs`` None."""
    with open(path) as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        n = sum(c.startswith("p") for c in cols)
        d = len(cols) - 1 - n
        if n < 2 or cols != _distribution_columns(n, d):
            raise ValueError(f"bad distribution header: {header!r}; expected "
                             f"weight,p1,...,pn with n >= 2, then "
                             f"x1,...,xd if any")
        rows = []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != len(cols):
                raise ValueError(f"line {line_no}: expected {len(cols)} fields")
            row = []
            for col, (name, v) in enumerate(zip(cols, fields), start=1):
                try:
                    row.append(float(v))
                except ValueError:
                    raise ValueError(f"line {line_no}, column {col} ({name}): "
                                     f"{v!r} is not a number") from None
            rows.append(row)
    table = np.array(rows).reshape(-1, len(cols))
    return finite_distribution(table[:, 0], table[:, 1:n + 1],
                               table[:, n + 1:] if d else None)


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
            raise ValueError(f"kind: unknown hypothesis kind {self.kind!r}")
        check.integer(self.n, "n", 2)
        if self.label_lams is not None and check.reals(
                self.label_lams, "label_lams", "(0, inf]").shape != (self.n,):
            raise ValueError(f"label_lams must hold one half-width per label, "
                             f"got {self.label_lams!r}")
        linear = self.kind == "linear"
        check.integer(self.feature_dim, "feature_dim", 1 if linear else 0)
        if linear:
            check.real(self.weight_bound, "weight_bound", "(0, inf]")
        else:
            check.real(self.lam, "lam", "(0, inf]")

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
    """Conditional risk ``sum_y p_y * loss(scores, y, tau)``: a one-row call
    of ``weighted_cond_value``, the objective that the box oracle
    minimizes, so ``calibration_gap`` subtracts the oracle's minimum from
    the same function."""
    s = check.scores(scores)
    p = check.cond_dist(p, s.shape[0])
    return float(weighted_cond_value(s[None], p[None], check.tau(tau))[0])


def excess_risks(dists, assignments, taus):
    """Zero-one and surrogate excess risks of each instance ``(dists[i],
    assignments[i], taus[i])``, as two arrays: ``sum_k w_k (max p_k -
    p_k[predict(s_k)])`` and ``sum_k w_k (C(s_k, p_k) - C*(p_k))`` with the
    closed best-in-class value ``C*``. The assignments are finite arrays of
    the conditionals' shape and the taus checked. The atoms of all
    instances with one label count go through one ``weighted_cond_value``
    call, each at its instance's tau, and each instance sums its atoms
    left to right, so its values do not depend on the rest of the batch.
    """
    lhs, arg = np.zeros(len(dists)), np.zeros(len(dists))
    taus = np.asarray(taus, dtype=np.float64)
    n = np.array([dist.n for dist in dists])
    for label_count in sorted(set(n.tolist())):
        group = np.flatnonzero(n == label_count)
        atoms = np.array([len(dists[g].weights) for g in group])
        C = np.concatenate([dists[g].conds for g in group])
        S = np.concatenate([assignments[g] for g in group])
        w = np.concatenate([dists[g].weights for g in group])
        atom_tau = np.repeat(taus[group], atoms)
        P = np.maximum(C, 0.0)
        rows = np.arange(len(C))
        zero_one = w * (C.max(axis=1) - C[rows, losses.predict_batch(S)])
        excess = w * (weighted_cond_value(S, P, atom_tau[:, None])
                      - cond_risk_star_closed_rows(P, atom_tau))
        lhs[group] = _run_sums(zero_one, atoms)
        arg[group] = _run_sums(excess, atoms)
    return lhs, arg


def _run_sums(terms, sizes):
    """Sums of the consecutive runs of ``terms`` of lengths ``sizes``, each
    added left to right from 0, so a run's sum does not depend on the
    others: term k of each run goes in column k of a table whose columns
    are added in order."""
    runs = np.repeat(np.arange(len(sizes)), sizes)
    col = np.arange(len(terms)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    table = np.zeros((len(sizes), sizes.max()))
    table[runs, col] = terms
    sums = np.zeros(len(sizes))
    for k in range(table.shape[1]):
        sums += table[:, k]
    return sums


def cond_risk_star_closed(p, tau):
    """Best-in-class conditional risk for a symmetric complete set.

    Shannon entropy at ``tau = 1``; the power-sum form (a Renyi-entropy
    expression, with the convention ``0 ** r = 0``) for ``tau < 2``; and
    ``(1 - max(p)) / (tau - 1)`` for ``tau >= 2``. The last branch is the
    degenerate-vertex limit: in softmax coordinates the conditional risk is
    concave once the loss exponent ``tau - 1`` exceeds 1, so the infimum
    sits at a simplex vertex rather than at the interior stationary point.
    A one-row call of ``cond_risk_star_closed_rows``.
    """
    return float(cond_risk_star_closed_rows(check.cond_dist(p)[None],
                                            np.array([check.tau(tau)]))[0])


def cond_risk_star_closed_rows(P, tau):
    """``cond_risk_star_closed`` of each row of ``P`` (R, n) at its own
    ``tau`` (R,); the rows are conditionals that ``check.cond_dist`` has
    passed and clipped at 0, and the taus are checked. Sums run left to
    right over a row (``losses._rows_sum``), terms of zero probability
    adding 0."""
    out = np.empty(P.shape[0])
    vertex = tau >= 2.0 - TAU_BRANCH_TOL
    one = ~vertex & (np.abs(tau - 1.0) < TAU_BRANCH_TOL)
    power = ~(vertex | one)
    if vertex.any():
        out[vertex] = (1.0 - P[vertex].max(axis=1)) / (tau[vertex] - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(P)
        if one.any():
            p = P[one]
            out[one] = -losses._rows_sum(np.where(p > 0.0, p * logs[one],
                                                  0.0))
    if power.any():
        # expm1((2 - tau) * log sum_y p_y ** r) / (1 - tau), zeros adding 0
        t = tau[power]
        lse = losses._rows_lse((1.0 / (2.0 - t))[:, None] * logs[power])
        out[power] = np.expm1((2.0 - t) * lse) / (1.0 - t)
    return out


def optimal_scores(p, tau, lam=UNBOUNDED_BOX_LAM):
    """Score vector attaining the complete-set conditional risk minimum.

    Proportional in exp-space to ``p ** (1 / (2 - tau))``; labels with zero
    probability sit at ``-lam``. For ``tau >= 2`` the minimizer is the
    degenerate limit: top label at ``+lam``, everything else at ``-lam``.
    A one-row call of ``optimal_scores_rows``.
    """
    return optimal_scores_rows(check.cond_dist(p)[None],
                               np.array([check.tau(tau)]), lam)[0]


def optimal_scores_rows(P, tau, lam=UNBOUNDED_BOX_LAM):
    """``optimal_scores`` of each row of ``P`` (R, n) at its own ``tau``
    (R,); the rows are conditionals that ``check.cond_dist`` has passed and
    clipped at 0, and the taus are checked."""
    S = np.empty(P.shape)
    vertex = tau >= 2.0 - TAU_BRANCH_TOL
    if vertex.any():
        S[vertex] = -lam
        S[np.flatnonzero(vertex), losses.predict_batch(P[vertex])] = lam
    power = ~vertex
    if power.any():
        with np.errstate(divide="ignore"):
            s = (1.0 / (2.0 - tau[power]))[:, None] * np.log(P[power])
        s[~np.isfinite(s)] = -np.inf
        s -= s.max(axis=1, keepdims=True)
        S[power] = np.maximum(s, -lam)
    return S


def pgd_starts(C, lam, seeds):
    """The ``ORACLE_STARTS`` deterministic starts of each row of the weights
    ``C`` (B, n), as one (B * ORACLE_STARTS, n) array, row ``b``'s block
    first to last: zeros, the corners that favour the largest and the
    smallest weight (the first of tied ones), and five drawn uniformly from
    ``[-lam, lam]`` by ``np.random.default_rng(seeds[b])``, bit for bit the
    draws of five ``uniform(-lam, lam, n)`` calls on that generator.
    ``minimize_weighted_cond_risk_batch`` checks the arguments.
    """
    B, n = C.shape
    starts = np.empty((B, ORACLE_STARTS, n))
    starts[:, 0] = 0.0
    starts[:, 1:3] = -lam
    rows = np.arange(B)
    starts[rows, 1, C.argmax(axis=1)] = lam
    starts[rows, 2, C.argmin(axis=1)] = lam
    for b, seed in enumerate(seeds):
        np.random.default_rng(seed).random(out=starts[b, 3:])
    # uniform's own arithmetic: low + (high - low) * U
    starts[:, 3:] *= 2.0 * lam
    starts[:, 3:] -= lam
    return starts.reshape(B * ORACLE_STARTS, n)


def minimize_weighted_cond_risk(c, tau, lam, *, seed=0, max_iter=10000):
    """Minimize ``sum_y c[y] * loss(s, y, tau)`` over the box ``[-lam, lam]^n``.

    ``c`` may carry negative entries (used with negated coefficients to
    compute suprema). Deterministic given ``seed``. A batch of one: the
    ``pgd_starts`` of ``seed`` run as the rows of one lockstep projected
    Newton call, and the first best start wins.
    """
    return minimize_weighted_cond_risk_batch(
        np.asarray(c, dtype=np.float64)[None], tau, lam,
        [check.integer(seed, "seed")], max_iter=max_iter)[0]


def minimize_weighted_cond_risk_batch(C, tau, lam, seeds, *, max_iter=10000):
    """``minimize_weighted_cond_risk`` for each row of ``C`` on one box.

    Row ``b`` is solved from the ``pgd_starts`` of ``seeds[b]``, every
    start of every row one row of a single ``newton_box_min`` call; each
    start takes bit for bit the steps that the sequential reference
    ``pgd_box_weighted_min`` takes from it. Per row the best start is the
    first minimum in start order (a NaN value never wins), and the row has
    converged when every start has. Returns one ``BruteResult`` per row.
    """
    C = check.floats(C, "C")
    tau = check.tau(tau)
    seeds = list(seeds)
    if C.ndim != 2 or C.shape[0] != len(seeds) or C.shape[1] < 1:
        raise ValueError(f"C must be a (B, n) array with n >= 1 and one seed "
                         f"per row, got shape {C.shape} and {len(seeds)} "
                         f"seeds")
    check.reals(C, "C")
    lam = check.real(lam, "lam", "[0, inf)")
    # the random starts are drawn uniformly from [-lam, lam]
    if not math.isfinite(2.0 * lam):
        raise ValueError(f"lam: score box half-width {lam:g} is too wide to "
                         f"search")
    for seed in seeds:
        check.integer(seed, "seeds", 0)
    check.integer(max_iter, "max_iter", 1)
    if not seeds:
        return []
    B, n = C.shape
    f, x, conv = newton_box_min(
        WeightedCondRisk(np.repeat(C, ORACLE_STARTS, axis=0), tau),
        pgd_starts(C, lam, seeds), lam, max_iter, ORACLE_GTOL)
    f = f.reshape(B, ORACLE_STARTS)
    x = x.reshape(B, ORACLE_STARTS, n)
    best_f = np.full(B, np.inf)
    best_x = np.full((B, n), np.nan)
    for si in range(ORACLE_STARTS):
        lower = f[:, si] < best_f
        best_f[lower] = f[lower, si]
        best_x[lower] = x[lower, si]
    conv = conv.reshape(B, ORACLE_STARTS).all(axis=1)
    return [BruteResult(float(v), s, bool(ok))
            for v, s, ok in zip(best_f, best_x, conv)]


def cond_risk_star_brute(p, tau, spec, *, seed=0, max_iter=10000):
    """Independent oracle: minimize the conditional risk over a score box.

    Multi-start safeguarded projected Newton descent (an Armijo search on
    the projected Newton arc), the ``ORACLE_STARTS`` starts of ``seed`` in
    lockstep through ``minimize_weighted_cond_risk``; ``converged`` is
    False when any start was still running at ``max_iter`` (a warning, not
    an error).
    """
    p = check.cond_dist(p)
    if spec.kind != "score_box":
        raise ValueError("spec: the brute-force oracle needs a score_box spec")
    check.label_count(spec.n, p.shape[0], "spec")
    return minimize_weighted_cond_risk(p, tau, spec.box_lam(), seed=seed,
                                       max_iter=max_iter)


def cond_risk_star(p, tau, spec, **kw):
    """Closed form when the spec is complete, brute force otherwise."""
    check.label_count(spec.n, check.cond_dist(p).shape[0], "spec")
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
    if dist.xs is None or dist.xs.shape[1] != spec.feature_dim:
        raise ValueError(f"dist: the linear spec needs {spec.feature_dim} "
                         f"features per support point")
    lams = []
    for x in dist.xs:
        lam = spec.weight_bound * (float(np.abs(x).sum()) + 1.0)
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
        self.terms = [(np.hstack([np.kron(eye, x[None, :]), eye]),
                       WeightedCondRisk(w * cond, tau))
                      for w, cond, x in zip(dist.weights.tolist(), dist.conds,
                                            dist.xs)]

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
    tau = check.tau(tau)
    check.label_count(spec.n, dist.n, "spec")
    seed = check.integer(seed, "seed", 0)
    if spec.kind == "score_box":
        return 0.0
    lams = _linear_point_boxes(dist, spec)
    fits = [minimize_weighted_cond_risk(cond, tau, lam, seed=seed + 31 * k)
            for k, (cond, lam) in enumerate(zip(dist.conds, lams))]
    joint, converged = _linear_joint_minimum(dist, spec, tau, seed)
    gap = joint - sum(w * res.value
                      for w, res in zip(dist.weights.tolist(), fits))
    if not (converged and all(res.converged for res in fits)) or gap < -1e-9:
        warnings.warn(f"minimizability gap {gap:.3e}: a minimum did not "
                      f"converge or the joint one lies below the pointwise "
                      f"one", RuntimeWarning, stacklevel=2)
    return max(gap, 0.0)


def sum_exp_box_optimum(n, lam):
    """Pointwise optimum ``exp(-2 lam) * (n - 1)`` of the sum-exponential
    loss over the score box ``[-lam, lam]^n``."""
    return math.exp(-2.0 * lam) * (n - 1)


def gap_upper_bound_deterministic(spec, tau, r_star_tau0):
    """Deterministic-label gap bound: transform difference at the two risks.

    The pointwise optimum of the sum-exponential loss over the box is
    ``exp(-2 lam) * (n - 1)``; the bound is the outer transform evaluated at
    the supplied best-in-class sum-exponential risk minus the transform at
    that optimum. Non-increasing in ``tau``.
    """
    tau = check.tau(tau)
    if spec.kind != "score_box" or math.isinf(spec.lam):
        raise ValueError("spec: needs a score_box spec with finite lam")
    r_star_tau0 = check.real(r_star_tau0, "r_star_tau0")
    c0 = sum_exp_box_optimum(spec.n, spec.lam)
    if r_star_tau0 < c0 - 1e-15:
        raise ValueError(
            f"r_star_tau0={r_star_tau0} below the pointwise optimum {c0}"
        )
    return float(losses.phi_tau(r_star_tau0, tau) - losses.phi_tau(c0, tau))
