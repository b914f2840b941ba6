"""Adversarial losses for the comp-sum family.

Provides the worst-case zero-one loss over a perturbation ball, the
ramp-margin comp-sum loss with projected-gradient inner maximization, the
smooth adversarial loss (clean loss at scaled scores plus a worst-case
score-difference deviation term), a local margin-consistency check decided
once per hypothesis set by a constant witness, and exact enumeration
oracles for one-dimensional linear instances used to certify the
adversarial consistency bound.

Each PGD attack maximizes an objective of the scores, written once as a
function ``objective(scores, rows) -> (values, d values / d scores)`` of
the scores of the batch rows ``rows`` (all rows by default);
``pgd_maximize`` runs the model on the rows it still attacks and chains
the score gradient to the inputs. PGD values are lower bounds on the true
suprema; the exact oracles are the reference where enumeration is
possible.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _checks as check
from . import losses, risk
from .losses import phi_tau, phi_tau_deriv, predict_batch
from .models import LinearModel

SUPPORTED_P_NORMS = (1.0, 2.0, math.inf)

# OpenBLAS multiplies a matrix in blocks of this many rows and rounds a
# last, partial block (and a lone row) through other kernels. An attack
# that drops rows keeps whole blocks ahead of the batch's own partial one,
# so each kept row is rounded as in the full batch, unless BLAS picks
# another kernel for the smaller matrix.
_BLAS_BLOCK = 4


@dataclass(frozen=True)
class PerturbationBall:
    """Input-space ball ``{x': ||x - x'||_p <= gamma}``.

    ``gamma = 0`` is accepted as the degenerate ball (clean evaluation).
    A NaN or infinite radius is refused: no attacked point would ever
    beat the clean one, and the robust accuracy would read as the clean.
    """

    p_norm: float
    gamma: float

    def __post_init__(self):
        if check.real(self.p_norm, "p_norm", "[1, inf]") \
                not in SUPPORTED_P_NORMS:
            raise ValueError(f"p_norm must be one of {SUPPORTED_P_NORMS}")
        check.real(self.gamma, "gamma", "[0, inf)")


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
        check.integer(self.n, "n", 2)
        check.real(self.rho, "rho", "(0, inf)")
        nu_min = math.sqrt(self.n - 1) / self.rho
        if self.nu is None:
            object.__setattr__(self, "nu", max(1.0, nu_min))
        elif check.real(self.nu, "nu", "(0, inf)") < nu_min - 1e-12:
            raise ValueError(f"nu must be at least the required "
                             f"sqrt(n - 1) / rho = {nu_min}, got {self.nu}")
        check.integer(self.pgd_steps, "pgd_steps", 1)
        check.integer(self.restarts, "restarts", 1)
        check.integer(self.seed, "seed", 0)
        if self.pgd_step_size is not None:
            check.real(self.pgd_step_size, "pgd_step_size", "(0, inf)")

    def step_size(self, ball):
        if self.pgd_step_size is not None:
            return self.pgd_step_size
        return 2.5 * ball.gamma / self.pgd_steps


def rho_margin(u, rho):
    """Clamped ramp ``min(max(0, 1 - u / rho), 1)``: 1 below 0, 0 above rho."""
    rho = check.real(rho, "rho", "(0, inf)")
    return np.clip(1.0 - check.reals(u, "u", "[-inf, inf]") / rho, 0.0, 1.0)


def rho_margin_subgrad(u, rho):
    """Subgradient of the ramp: ``-1/rho`` on (0, rho), ``-1/(2 rho)`` at
    the kinks, 0 outside. The kink convention keeps attacks deterministic."""
    u = np.asarray(u, dtype=np.float64)
    g = np.where((u > 0) & (u < rho), -1.0 / rho, 0.0)
    g = np.where((u == 0.0) | (u == rho), -0.5 / rho, g)
    return g


# ---------------------------------------------------------------------------
# projected-gradient attack engine
# ---------------------------------------------------------------------------

def _l1_project_rows(delta, radius):
    """Row-wise Euclidean projection onto the l1 ball of the given radius,
    in place; returns ``delta``.

    All rows outside the ball are sorted at once (Duchi et al., 2008):
    with ``u`` a row's magnitudes in descending order and ``css`` their
    running sums, ``k`` is the last index with ``u_k > (css_k - r) / k``
    and the magnitudes shrink by ``theta = (css_k - r) / k``.
    """
    mag = np.abs(delta)
    out = np.flatnonzero(mag.sum(axis=1) > radius)
    if out.size == 0:
        return delta
    v = mag[out]
    u = np.sort(v, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    ks = np.arange(1, v.shape[1] + 1)
    cond = u - (css - radius) / ks > 0
    # true at k = 1 whenever radius > 0; forced so that radius 0 (or a
    # radius lost in rounding) projects to the centre instead of failing
    cond[:, 0] = True
    k = ks[-1] - np.argmax(cond[:, ::-1], axis=1)
    theta = (css[np.arange(out.size), k - 1] - radius) / k
    delta[out] = np.sign(delta[out]) * np.maximum(v - theta[:, None], 0.0)
    return delta


def _project_delta(delta, ball):
    """Project each row of ``delta`` into the ball around 0, in place;
    returns ``delta``."""
    if ball.p_norm == math.inf:
        return np.clip(delta, -ball.gamma, ball.gamma, out=delta)
    if ball.p_norm == 2.0:
        norms = np.linalg.norm(delta, axis=1, keepdims=True)
        delta *= np.minimum(1.0, ball.gamma / np.maximum(norms, 1e-300))
        return delta
    return _l1_project_rows(delta, ball.gamma)


def project_to_ball(Xp, X, ball):
    """Project perturbed rows back into the per-row ball around X."""
    return X + _project_delta(Xp - X, ball)


def _steepest_ascent(g, p_norm):
    """Unit step of steepest ascent for the given ball geometry, written
    over the gradient ``g``; returns ``g``."""
    if p_norm == math.inf:
        return np.sign(g, out=g)
    if p_norm == 2.0:
        g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
        return g
    rows = np.arange(g.shape[0])
    idx = np.argmax(np.abs(g), axis=1)
    top = np.sign(g[rows, idx])
    g.fill(0.0)
    g[rows, idx] = top
    return g


def pgd_maximize(model, objective, X, clean, ball, adv, rng=None,
                 start=None, stop=None):
    """Maximize ``objective`` at the model's scores over per-row balls by
    projected ascent.

    ``objective(scores, rows)`` returns the values and their gradient with
    respect to ``scores``, whose rows are the batch rows ``rows`` (an index
    array into ``X``). Each iterate costs one ``model.forward_vjp`` (one
    hidden-layer pass) and one objective call; a step taken from it pulls
    the score gradient back through that same pass. The clean points' pass
    ``clean = model.forward_vjp(X)`` comes from the caller, and the clean
    points count toward the best values. Restart 0 starts at ``start``
    (points inside the ball) when given, else at the clean points: an
    objective whose gradient vanishes at ``X``, such as the deviation,
    needs a start off it. Further restarts start uniformly inside the
    (projected) ball, drawn for the whole batch. The best value seen at any
    iterate is retained per row, so enlarging the budget never lowers the
    estimate. Returns (best values, best points).

    A row leaves the attack early by two rules, so a full budget is at
    most ``restarts * (pgd_steps + 1) - 1`` passes beyond the clean one,
    plus one for ``start``:

    - **Fixed point.** A row whose projected step returns its iterate bit
      for bit leaves the current restart: the step depends on that row
      alone, so every later step would repeat it. Its best value and point
      are the full budget's.
    - **Settled.** With ``stop``, a row whose best value exceeds ``stop``,
      at the clean points or later, leaves all remaining restarts. It
      returns a value above ``stop`` and a point that attains it, not
      necessarily the full budget's best.

    A pass runs on the rows still attacked. The arrays are compacted only
    once a tenth of their rows have left (rows that have left ride along
    until then), and in whole blocks of ``_BLAS_BLOCK`` rows.

    Each step is computed in the fresh input-gradient buffer that
    ``back.inputs`` returns and becomes the next iterate, so ``X``, the
    caller's clean pass and earlier iterates are never written.
    """
    rng = np.random.default_rng(adv.seed) if rng is None else rng
    X = np.asarray(X, dtype=np.float64)
    every = slice(None)
    scores, back = clean
    v, ds = objective(scores, every)
    best_v = np.asarray(v, dtype=np.float64).copy()
    best_X = X.copy()
    if ball.gamma == 0.0:
        return best_v, best_X
    step = adv.step_size(ball)
    tail = X.shape[0] % _BLAS_BLOCK

    def attack_pass(rows, Xp):
        """One pass at the iterates ``Xp`` of the batch rows ``rows``;
        returns what the step from them pulls back through."""
        scores, back = model.forward_vjp(Xp)
        v, ds = objective(scores, rows)
        upd = np.flatnonzero(v > best_v[rows])
        at = upd if rows is every else rows[upd]
        best_v[at] = v[upd]
        best_X[at] = Xp[upd]
        return back, ds

    def unsettled(rows):
        return np.ones(X.shape[0], bool)[rows] if stop is None else \
            best_v[rows] <= stop

    for r in range(adv.restarts):
        noise = None if r == 0 else rng.uniform(-ball.gamma, ball.gamma,
                                                size=X.shape)
        live = unsettled(every)
        if not live.any():
            continue
        # restart 0 steps first from the clean points, with their pass
        rows, Xc, Xp = every, X, X
        if r > 0 or start is not None:
            keep = _blocked_rows(live, tail)
            if keep is not None:
                rows = np.flatnonzero(keep)
            Xc = X[rows]
            Xp = start[rows] if r == 0 else project_to_ball(
                Xc + noise[rows], Xc, ball)
            back, ds = attack_pass(rows, Xp)
            live = unsettled(rows)
        for _ in range(adv.pgd_steps):
            # project_to_ball(Xp + step * ascent, Xc, ball), one buffer
            d = _steepest_ascent(back.inputs(ds), ball.p_norm)
            d *= step
            d += Xp
            d -= Xc
            Xn = _project_delta(d, ball)
            Xn += Xc
            live &= (Xn.view(np.int64) != Xp.view(np.int64)).any(axis=1)
            left = live.size - np.count_nonzero(live)
            if left == live.size:
                break
            keep = None if 10 * left < live.size else \
                _blocked_rows(live, tail)
            if keep is not None:
                at = np.flatnonzero(keep)
                rows = at if rows is every else rows[at]
                Xc, Xn, live = Xc[at], Xn[at], live[at]
            Xp = Xn
            back, ds = attack_pass(rows, Xp)
            if stop is not None:
                live &= best_v[rows] <= stop
    return best_v, best_X


def _blocked_rows(live, tail):
    """Mask of the rows an attack keeps, or None where it would drop less
    than a tenth of them: the ``live`` rows, padded with rows that have
    left so that the rows ahead of the last ``tail`` (all kept) come in
    whole blocks of ``_BLAS_BLOCK``, and at least one block where ``tail``
    rows follow."""
    head = live.size - tail
    kept = np.count_nonzero(live[:head])
    pad = -kept % _BLAS_BLOCK or (_BLAS_BLOCK if tail and not kept else 0)
    if 10 * (head - kept - pad) < live.size:
        return None
    keep = live.copy()
    keep[head:] = True
    keep[np.flatnonzero(~keep[:head])[:pad]] = True
    return keep


# ---------------------------------------------------------------------------
# attack objectives and the adversarial losses built on them
# ---------------------------------------------------------------------------

def _ramp_objective(Y, tau, rho):
    """Ramp-margin comp-sum loss: the outer transform of the summed ramps
    at the score margins of each row's label."""

    def objective(scores, rows=slice(None)):
        y = Y[rows]
        at = np.arange(scores.shape[0])
        margins = scores[at, y][:, None] - scores
        ramps = rho_margin(margins, rho)
        ramps[at, y] = 0.0
        inner = ramps.sum(axis=1)
        ramp_g = rho_margin_subgrad(margins, rho)
        ramp_g[at, y] = 0.0
        ds = -ramp_g
        ds[at, y] = ramp_g.sum(axis=1)
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
    Y = np.asarray(Y)
    base_diff = base_scores[np.arange(Y.size), Y][:, None] - base_scores

    def objective(scores, rows=slice(None)):
        y = Y[rows]
        at = np.arange(scores.shape[0])
        dev = (scores[at, y][:, None] - scores) - base_diff[rows]
        dev[at, y] = 0.0
        norms = np.linalg.norm(dev, axis=1, keepdims=True)
        u = dev / np.maximum(norms, 1e-300)
        ds = -u
        ds[at, y] = u.sum(axis=1)
        return norms[:, 0], ds

    return objective


def _margin_objective(Y):
    """Margin violation: best competing score minus the label's score,
    with the competitor chosen by the highest-index tie rule."""

    def objective(scores, rows=slice(None)):
        y = Y[rows]
        at = np.arange(scores.shape[0])
        masked = scores.copy()
        masked[at, y] = -np.inf
        comp = predict_batch(masked)
        ds = np.zeros_like(scores)
        ds[at, comp] = 1.0
        ds[at, y] -= 1.0
        return masked[at, comp] - scores[at, y], ds

    return objective


def _one_example(model, x, y):
    """One example as a one-row batch ``(X, Y)``: ``x`` a finite scalar or
    vector of length ``model.dim`` at which the model's score differences
    are finite, ``y`` a label of the model."""
    x = check.reals(x, "x")
    if x.ndim > 1 or x.size != model.dim:
        raise ValueError(f"x must be a scalar or a vector of length "
                         f"{model.dim}, got shape {x.shape}")
    X = x.reshape(1, model.dim)
    with np.errstate(over="ignore"):
        spread = np.ptp(model.forward(X))
    if not np.isfinite(spread):
        raise ValueError("x: the model's score differences at x overflow")
    return X, np.array([check.label(y, model.n_labels, "y")])


def adv_comp_rho_loss_batch(model, X, Y, tau, adv, ball, rng=None):
    """PGD estimate of the worst ramp-margin comp-sum loss over the ball."""
    objective = _ramp_objective(check.labels(Y, model.n_labels, len(X)),
                                check.tau(tau), adv.rho)
    return pgd_maximize(model, objective, X, model.forward_vjp(X), ball, adv,
                        rng)[0]


def adv_comp_rho_loss(model, x, y, tau, adv, ball):
    """Worst ramp-margin comp-sum loss of one example (PGD lower bound).

    Value lies in ``[0, phi_tau(n - 1)]``; at ``gamma = 0`` it is exactly
    the pointwise ramp-margin loss.
    """
    X, Y = _one_example(model, x, y)
    return float(adv_comp_rho_loss_batch(model, X, Y, tau, adv, ball)[0])


def smooth_adv_comp_loss_batch(model, X, Y, tau, adv, ball, rng=None,
                               grad=False):
    """Smooth adversarial comp-sum loss of each row: the clean loss at
    scores scaled by ``1 / rho`` plus ``nu`` times the worst
    score-difference deviation over the ball (PGD estimate).

    The deviation and its gradient are 0 at the clean points, so the
    attack's restart 0 starts from them jittered by ``1e-3`` standard
    normal noise drawn from ``rng`` (``default_rng(adv.seed)`` when None)
    and projected into the ball, as the TRADES attack does (Zhang et al.,
    ICML 2019); a zero-radius ball draws nothing. One clean pass serves
    both terms and the attack.

    Returns the per-row losses. With ``grad``, returns instead the batch's
    mean loss, each term averaged on its own, and the parameter gradient
    of that mean with the attacked points held fixed: the gradient pulls
    back through the clean pass and through one more pass at the attacked
    points.
    """
    tau = check.tau(tau)
    Y = check.labels(Y, model.n_labels, len(X))
    rng = np.random.default_rng(adv.seed) if rng is None else rng
    clean = model.forward_vjp(X)
    scores, back = clean
    deviation = deviation_objective(scores, Y)
    start = None if ball.gamma == 0.0 else project_to_ball(
        X + 1e-3 * rng.standard_normal(X.shape), X, ball)
    dev, X_adv = pgd_maximize(model, deviation, X, clean, ball, adv, rng,
                              start)
    scaled = scores / adv.rho
    clean_loss = losses.comp_sum_loss_batch(scaled, Y, tau)
    if not grad:
        return clean_loss + adv.nu * dev
    ds_clean = losses.comp_sum_grad_batch(scaled, Y, tau) / (
        adv.rho * X.shape[0])
    scores_adv, back_adv = model.forward_vjp(X_adv)
    dev, ds_dev = deviation(scores_adv)
    scale = adv.nu / X.shape[0]
    # the deviation's gradient at the clean points is minus its gradient
    # at the attacked ones
    return (float(clean_loss.mean() + adv.nu * dev.mean()),
            back.params(ds_clean - scale * ds_dev)
            + back_adv.params(scale * ds_dev))


def smooth_adv_comp_loss(model, x, y, tau, adv, ball):
    """Smooth adversarial comp-sum loss of one example.

    At ``gamma = 0`` the deviation term vanishes and the value is exactly
    the clean loss at the scaled scores. Dominates the ramp-margin
    adversarial loss whenever both inner suprema are exact.
    """
    X, Y = _one_example(model, x, y)
    return float(smooth_adv_comp_loss_batch(model, X, Y, tau, adv, ball)[0])


def adv_zero_one_batch(model, X, Y, clean, ball, attack, rng=None):
    """Worst-case zero-one losses (PGD lower bound, attacking the margin
    from the clean pass ``clean = model.forward_vjp(X)``): 1 where any
    attacked or clean point is misclassified under the highest-index tie
    rule.

    A positive margin violation misclassifies its point under any tie
    rule, so the attack stops at it (``stop=0``): a row misclassified at
    the clean point needs no attack, and one whose attack reaches such a
    point leaves it. The verdicts are those of the full budget.
    """
    Y = check.labels(Y, model.n_labels, len(X))
    _, Xbest = pgd_maximize(model, _margin_objective(Y), X, clean, ball,
                            attack, rng, stop=0.0)
    wrong_clean = predict_batch(clean[0]) != Y
    wrong_adv = predict_batch(model.forward(Xbest)) != Y
    return (wrong_clean | wrong_adv).astype(np.int64)


def adv_zero_one(model, x, y, ball, attack):
    """Worst-case zero-one loss of one example; exact at ``gamma = 0``."""
    X, Y = _one_example(model, x, y)
    return int(adv_zero_one_batch(model, X, Y, model.forward_vjp(X), ball,
                                  attack)[0])


# ---------------------------------------------------------------------------
# local margin consistency of hypothesis sets
# ---------------------------------------------------------------------------

@dataclass
class RhoConsistencyResult:
    passed: bool
    reason: str
    witness: object = None


def _staircase_rows(n, rho, bound):
    """The staircase levels ``-0.5 * (n - 1) * rho + rho * arange(n)`` of
    each ``rho`` (R,), and two masks: whose span fits inside ``[-bound,
    bound]``, and whose adjacent levels stay at least ``rho`` apart in
    floating point, with relative tolerances (the staircase's rounding
    scales with rho). Rounding is monotone, so adjacent gaps of at least
    ``rho`` keep every pairwise gap as large and the levels ascending."""
    # a span that overflows fits no finite bound
    with np.errstate(over="ignore", invalid="ignore"):
        span = (n - 1) * rho
        levels = -0.5 * span[:, None] + rho[:, None] * np.arange(n)
        fits = span <= 2.0 * bound * (1.0 + 1e-12)
        spaced = (np.diff(levels, axis=1)
                  >= (rho * (1.0 - 1e-12))[:, None]).all(axis=1)
    return levels, fits, spaced


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
    rho = check.real(rho, "rho", "(0, inf)")
    n = spec.n
    if spec.kind == "score_box":
        bound, reason = spec.lam, "staircase witness with spacing rho"
        failure = (f"cannot fit {n} levels spaced {rho} inside "
                   f"[-{spec.lam}, {spec.lam}]")
    else:
        bound, reason = spec.weight_bound, "constant staircase witness"
        failure = (f"bias bound {spec.weight_bound} below required "
                   f"{(n - 1) * rho / 2}")
    levels, fits, spaced = _staircase_rows(n, np.array([rho]),
                                           np.array([float(bound)]))
    if not fits[0]:
        return RhoConsistencyResult(False, failure)
    if not spaced[0]:
        return RhoConsistencyResult(
            False, f"staircase gaps fall below {rho} in floating point")
    witness = levels[0] if spec.kind == "score_box" else \
        LinearModel(np.zeros((n, spec.feature_dim)), levels[0])
    return RhoConsistencyResult(True, reason, witness)


# ---------------------------------------------------------------------------
# exact oracles for one-dimensional linear instances: one row per example,
# its model's scores ``W * x + B`` (W, B (R, n)) at its input and its label
# (X, Y (R,)), and each parameter a number or one per row
# ---------------------------------------------------------------------------

def _column(a):
    """A number or one value per row as a column that broadcasts against
    the rows."""
    return np.reshape(a, (-1, 1))


def _phi_rows(u, tau):
    """``phi_tau(u, tau)`` entry by entry, ``tau`` broadcasting against
    ``u``; ``u`` finite and nonnegative."""
    return losses._phi_of_gap_array(np.log1p(u), tau)


def adv_zero_one_exact_rows(W, B, X, Y, gamma):
    """Exact worst-case zero-one loss of each row: an affine score family
    wins on an interval, so the two ball endpoints decide it under the
    highest-index tie rule."""
    wrong = [predict_batch(W * _column(t) + B) != Y
             for t in (X - gamma, X + gamma)]
    return (wrong[0] | wrong[1]).astype(np.float64)


def sup_ramp_exact_rows(W, B, X, Y, rho, gamma):
    """Exact supremum over each row's interval ``[x - gamma, x + gamma]``
    of the summed ramps at the score margins of its label.

    Each ramp of an affine margin is piecewise linear in the input, so the
    supremum of the sum sits at an endpoint or at a breakpoint inside the
    interval, where the margin against some label crosses 0 or ``rho``.
    Breakpoints outside it (or of a constant margin) are replaced by the
    lower endpoint.
    """
    at = np.arange(len(Y))
    rho = _column(rho)
    lo, hi = _column(X - gamma), _column(X + gamma)
    slope = W[at, Y][:, None] - W
    inter = B[at, Y][:, None] - B
    with np.errstate(divide="ignore", invalid="ignore"):
        ts = np.hstack([(target - inter) / slope for target in (0.0, rho)])
    ts = np.hstack([lo, hi, np.where((lo < ts) & (ts < hi), ts, lo)])
    S = W[:, None, :] * ts[:, :, None] + B[:, None, :]
    ramps = np.clip(1.0 - (S[at, :, Y][:, :, None] - S) / rho[:, :, None],
                    0.0, 1.0)
    ramps[at, :, Y] = 0.0
    R, C, n = ramps.shape
    return losses._rows_sum(ramps.reshape(R * C, n)).reshape(R, C).max(1)


def deviation_sup_exact_rows(W, Y, gamma):
    """Exact worst deviation norm of each row: affine differences make it
    ``gamma * ||w_y - w_j||_2`` over the competing labels ``j``."""
    at = np.arange(len(Y))
    others = np.arange(W.shape[1] - 1)
    others = others + (others >= Y[:, None])
    D = W[at, Y][:, None] - W[at[:, None], others]
    # each squared norm as np.linalg.norm takes it: a stacked matmul makes
    # one BLAS dot per row
    return gamma * np.sqrt((D[:, None, :] @ D[:, :, None])[:, 0, 0])


def smooth_adv_exact_rows(W, B, X, Y, tau, rho, nu, gamma):
    """Exact smooth adversarial loss of each row: the clean comp-sum loss
    at the scores scaled by ``1 / rho`` plus ``nu`` times the worst
    deviation; ``tau`` checked."""
    S = (W * _column(X) + B) / _column(rho)
    v = np.maximum(losses._rows_lse(S) - S[np.arange(len(Y)), Y], 0.0)
    return (losses._phi_of_gap_array(v, tau)
            + nu * deviation_sup_exact_rows(W, Y, gamma))


def clean_rho_loss(model, x, y, tau, rho):
    """Pointwise ramp-margin comp-sum loss (no perturbation)."""
    X, Y = _one_example(model, x, y)
    objective = _ramp_objective(Y, check.tau(tau), rho)
    return float(objective(model.forward(X))[0][0])


def _cstar_adv_rho_rows(P, tau):
    """``cstar_adv_rho_closed`` of each row of ``P`` (R, n), conditionals
    checked and clipped at 0, at its tau (R,)."""
    n = P.shape[1]
    coeffs = _phi_rows(np.arange(n - 1, -1, -1, dtype=np.float64),
                       tau[:, None])
    Q = np.sort(P, axis=1)
    # each row's dot as ``q @ coeffs`` takes it: one BLAS dot per row
    return (Q[:, None, :] @ coeffs[:, :, None])[:, 0, 0]


def cstar_adv_rho_closed(p, tau):
    """Best-in-class conditional sup-ramp risk for a symmetric locally
    margin-consistent set: ascending-sorted probabilities dotted with the
    transform of the count of strictly-higher labels."""
    return float(_cstar_adv_rho_rows(check.cond_dist(p)[None],
                                     np.array([check.tau(tau)]))[0])


def _best_threshold_adv01(dist, gamma):
    """Exact best-in-class expected adversarial zero-one risk over
    one-dimensional two-class threshold classifiers.

    The candidate thresholds lie below, above and between each pair of
    adjacent distinct interval ends; each is scored in both orientations
    at once, an atom's label costing its probability unless its whole
    interval gets that label, summed over the atoms left to right.
    """
    lo = dist.xs[:, 0] - gamma
    hi = dist.xs[:, 0] + gamma
    edges = np.sort(np.concatenate([lo, hi]))
    edges = edges[np.concatenate([[True], edges[1:] != edges[:-1]])]
    t = np.concatenate([[edges[0] - 1.0, edges[-1] + 1.0],
                        (edges[:-1] + edges[1:]) / 2.0])[:, None]
    above, below = lo > t, hi < t
    c0, c1 = dist.conds[:, 0], dist.conds[:, 1]
    # label 1 predicted above the threshold, then below it
    risks = [dist.weights * (c1 * ~ok1 + c0 * ~ok0)
             for ok1, ok0 in ((above, below), (below, above))]
    return min(float(losses._rows_sum(r).min()) for r in risks)


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
    the bound. Refuses a distribution without one feature per support
    point; hypothesis sets, models and attack parameters (``adv.n``) of
    another label count; sets of another feature dimension; and sets that
    fail the local margin consistency check. A batch of one.
    """
    return verify_adv_bound_batch([dist], [spec], [model], [tau], [adv],
                                  [ball])[0]


def verify_adv_bound_batch(dists, specs, models, taus, advs, balls):
    """``verify_adv_bound`` of each instance ``(dists[i], specs[i],
    models[i], taus[i], advs[i], balls[i])``; their reports.

    Every instance is checked first, as ``verify_adv_bound`` checks it, and
    the first that fails raises. The rows of all instances with one label
    count, one per atom and label, go through one call of each exact row
    form at their instance's parameters, and each instance sums its terms
    left to right in atom, then label order, skipping labels of zero
    probability, so its report does not depend on the rest of the batch.
    """
    check.lengths(dists=dists, specs=specs, models=models, taus=taus,
                  advs=advs, balls=balls)
    taus = np.array([check.tau(tau) for tau in taus])
    for dist, spec, model, adv in zip(dists, specs, models, advs):
        if not isinstance(model, LinearModel) or model.dim != 1:
            raise ValueError("model: the adversarial bound needs a "
                             "one-dimensional linear model")
        if dist.xs is None or dist.xs.shape[1] != 1:
            raise ValueError("dist: the adversarial bound needs one feature "
                             "per support point")
        check.label_count(spec.n, dist.n, "spec")
        if spec.kind == "linear" and spec.feature_dim != 1:
            raise ValueError(f"spec: {spec} does not describe "
                             f"one-dimensional instances")
        check.label_count(model.n_labels, dist.n, "model")
        check.label_count(adv.n, dist.n, "adv.n")
    rho = np.array([adv.rho for adv in advs], dtype=np.float64)
    nu = np.array([adv.nu for adv in advs], dtype=np.float64)
    gamma = np.array([ball.gamma for ball in balls], dtype=np.float64)
    bound = np.array([spec.lam if spec.kind == "score_box" else
                      spec.weight_bound for spec in specs], dtype=np.float64)
    ns = np.array([dist.n for dist in dists])
    consistent = np.ones(len(dists), dtype=bool)
    # per instance: worst-case zero-one, sup-ramp and smooth risks, and
    # the expected conditional optima of zero-one and sup-ramp
    r01, r_rho, r_smooth, e01, e_rho = np.zeros((5, len(dists)))
    for n in sorted(set(ns.tolist())):
        group = np.flatnonzero(ns == n)
        _, fits, spaced = _staircase_rows(n, rho[group], bound[group])
        consistent[group] = fits & spaced
        atoms = np.array([len(dists[i].weights) for i in group])
        atom_inst = np.repeat(group, atoms)
        C = np.concatenate([dists[i].conds for i in group])
        w = np.concatenate([dists[i].weights for i in group])
        e01[group] = risk._run_sums(w * (1.0 - C.max(axis=1)), atoms)
        e_rho[group] = risk._run_sums(
            w * _cstar_adv_rho_rows(np.maximum(C, 0.0), taus[atom_inst]),
            atoms)
        # rows: atom by atom, each atom's labels in order
        at = np.repeat(np.repeat(np.arange(group.size), atoms), n)
        inst = group[at]
        W = np.array([models[i].W[:, 0] for i in group])[at]
        B = np.array([models[i].b for i in group])[at]
        X = np.repeat(np.concatenate([dists[i].xs[:, 0] for i in group]), n)
        Y = np.tile(np.arange(n), len(C))
        values = (
            adv_zero_one_exact_rows(W, B, X, Y, gamma[inst]),
            _phi_rows(sup_ramp_exact_rows(W, B, X, Y, rho[inst],
                                          gamma[inst]), taus[inst]),
            smooth_adv_exact_rows(W, B, X, Y, taus[inst], rho[inst],
                                  nu[inst], gamma[inst]))
        wy = np.repeat(w, n) * C.ravel()
        for total, v in zip((r01, r_rho, r_smooth), values):
            total[group] = risk._run_sums(
                np.where(C.ravel() != 0.0, wy * v, 0.0), atoms * n)
    bad = np.flatnonzero(~consistent)
    if bad.size:
        result = check_local_rho_consistency(specs[bad[0]], advs[bad[0]].rho)
        raise ValueError(f"spec: hypothesis set is not locally "
                         f"margin-consistent: {result.reason}")

    phi1 = _phi_rows(np.ones(len(dists)), taus)
    lhs = r01 - e01
    rhs = (r_rho - e_rho) / phi1
    rhs_smooth = (r_smooth - e_rho) / phi1
    reports = []
    for i, dist in enumerate(dists):
        gap01, flags = math.nan, ["gap01_skipped:n>2"]
        if dist.n == 2:
            gap01, flags = _best_threshold_adv01(dist, gamma[i]) - e01[i], []
        reports.append(AdvBoundReport(
            float(taus[i]), dist.n, float(lhs[i]), float(rhs[i]),
            float(rhs[i] - lhs[i]), float(rhs_smooth[i]), float(gap01),
            flags))
    return reports
