"""Comp-sum loss family: outer transform, losses and exact score gradients.

The family composes a concave outer transform (indexed by ``tau``) with a
sum of exponentiated score differences. Special members: ``tau = 0`` is the
sum-exponential loss, ``tau = 1`` the multinomial logistic loss (negative
log-softmax), ``tau`` in (1, 2) the generalized cross-entropy, ``tau = 2``
the mean absolute error loss.

All functions are pure and safe for concurrent use. Labels are 0-based
indices into the score vector. Ties in argmax resolve to the highest index.
"""

import math

import numpy as np

# The outer transform is defined for every tau >= 0; values beyond this cap
# are rejected because the family saturates and float powers degrade.
TAU_MAX = 100.0

# Branch window: closed special forms replace the generic formula here.
TAU_BRANCH_TOL = 1e-9

# Largest exponent with a finite float64 exp(); arguments are saturated
# there so extreme score gaps degrade to the float ceiling instead of inf.
EXP_CAP = 709.0


def check_tau(tau):
    """Validate and return the family parameter as a float."""
    tau = float(tau)
    if not math.isfinite(tau) or tau < 0.0:
        raise ValueError(f"tau must be a finite nonnegative real, got {tau}")
    if tau > TAU_MAX:
        raise ValueError(f"tau is capped at {TAU_MAX}, got {tau}")
    return tau


def check_scores(scores):
    """Validate a score vector: 1-D, length >= 2, all entries finite."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.shape[0] < 2:
        raise ValueError("scores must be a 1-D array with at least 2 entries")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    return s


def check_label(y, n):
    y = int(y)
    if not 0 <= y < n:
        raise ValueError(f"label index {y} outside [0, {n})")
    return y


def predict(scores):
    """Argmax label with ties resolved to the highest index."""
    s = np.asarray(scores)
    return int(np.flatnonzero(s == s.max())[-1])


def predict_batch(scores):
    """Row-wise argmax with highest-index tie-breaking."""
    s = np.asarray(scores)
    n = s.shape[1]
    return n - 1 - np.argmax(s[:, ::-1], axis=1)


def phi_tau(u, tau):
    """Outer transform of the family at ``u >= 0``.

    Equals ``((1 + u)**(1 - tau) - 1) / (1 - tau)`` with the log branch at
    ``tau = 1``; computed via expm1/log1p so the two branches agree through
    the switch window. Nonnegative, concave, non-decreasing and bounded by
    ``u``.
    """
    tau = check_tau(tau)
    u = np.asarray(u, dtype=np.float64)
    if not np.all(np.isfinite(u)):
        raise ValueError("u must be finite")
    if np.any(u < 0):
        raise ValueError("u must be nonnegative")
    v = np.log1p(u)
    if abs(tau - 1.0) < TAU_BRANCH_TOL:
        out = v
    else:
        out = np.expm1(np.minimum((1.0 - tau) * v, EXP_CAP)) / (1.0 - tau)
    return out if out.ndim else float(out)


def phi_tau_deriv(u, tau):
    """Derivative of the outer transform: ``(1 + u)**(-tau)``, in (0, 1]."""
    tau = check_tau(tau)
    u = np.asarray(u, dtype=np.float64)
    if not np.all(np.isfinite(u)):
        raise ValueError("u must be finite")
    if np.any(u < 0):
        raise ValueError("u must be nonnegative")
    out = np.exp(-tau * np.log1p(u))
    return out if out.ndim else float(out)


def _logsumexp(a):
    """Max-shifted ``log(sum(exp(a)))`` of a 1-D array; a non-finite
    maximum is returned as it is."""
    m = np.max(a)
    if not np.isfinite(m):
        return m
    return m + math.log(np.exp(a - m).sum())


def _logsumexp_rows(S):
    """Max-shifted ``log(sum(exp(row)))`` of each row of a 2-D array."""
    m = S.max(axis=1)
    return m + np.log(np.exp(S - m[:, None]).sum(axis=1))


def _phi_of_gap_array(v, tau):
    """Vectorized loss from log-sum gaps ``v = logsumexp(h) - h_y >= 0``."""
    if abs(tau - 1.0) < TAU_BRANCH_TOL:
        return np.asarray(v, dtype=np.float64) + 0.0
    return np.expm1(np.minimum((1.0 - tau) * v, EXP_CAP)) / (1.0 - tau)


def comp_sum_loss(scores, y, tau):
    """Loss of label ``y`` under score vector ``scores``.

    Computed as the outer transform of ``exp(logsumexp(h) - h_y) - 1`` with
    max-subtraction stabilization, which keeps the value finite for any
    finite scores.
    """
    s = check_scores(scores)
    y = check_label(y, s.shape[0])
    return float(comp_sum_loss_all_labels(s, tau)[y])


def comp_sum_loss_all_labels(scores, tau):
    """Vector of losses for every label at once (shared logsumexp)."""
    s = check_scores(scores)
    tau = check_tau(tau)
    v = np.maximum(_logsumexp(s) - s, 0.0)
    return _phi_of_gap_array(v, tau)


def comp_sum_grad(scores, y, tau):
    """Exact gradient of ``comp_sum_loss`` with respect to the scores.

    Equals ``softmax(h)[y]**(tau - 1) * (softmax(h) - onehot(y))``; for
    ``tau = 1`` this is the familiar softmax-minus-onehot.
    """
    s = check_scores(scores)
    y = check_label(y, s.shape[0])
    return comp_sum_grad_batch(s[None], [y], tau)[0]


def comp_sum_loss_batch(scores, Y, tau):
    """Row-wise losses for a batch of score vectors and labels."""
    s = np.asarray(scores, dtype=np.float64)
    Y = np.asarray(Y)
    tau = check_tau(tau)
    lse = _logsumexp_rows(s)
    v = np.maximum(lse - s[np.arange(s.shape[0]), Y], 0.0)
    return _phi_of_gap_array(v, tau)


def comp_sum_grad_batch(scores, Y, tau):
    """Row-wise exact score gradients for a batch."""
    s = np.asarray(scores, dtype=np.float64)
    Y = np.asarray(Y)
    tau = check_tau(tau)
    rows = np.arange(s.shape[0])
    lse = _logsumexp_rows(s)
    sm = np.exp(s - lse[:, None])
    wy = np.exp(np.minimum((tau - 1.0) * (s[rows, Y] - lse), EXP_CAP))
    g = wy[:, None] * sm
    g[rows, Y] -= wy
    return g


def loss_upper_bound(tau, n, lam=None):
    """Upper bound on the loss over score boxes.

    With a finite score bound ``lam`` the inner sum is at most
    ``(n - 1) * exp(2 * lam)`` and the bound is the transform of that value.
    Without a bound, the transform saturates at ``1 / (tau - 1)`` for
    ``tau > 1`` and is unbounded (``inf``) for ``tau <= 1``.
    """
    tau = check_tau(tau)
    n = int(n)
    if n < 2:
        raise ValueError("n must be >= 2")
    if lam is not None:
        lam = float(lam)
        if not lam > 0:
            raise ValueError("lam must be positive")
        v_max = np.logaddexp(0.0, math.log(n - 1) + 2.0 * lam)
        return float(_phi_of_gap_array(np.float64(v_max), tau))
    if tau > 1.0 + TAU_BRANCH_TOL:
        return 1.0 / (tau - 1.0)
    return math.inf
