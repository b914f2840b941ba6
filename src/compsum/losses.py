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

from . import _checks as check

# Branch window: closed special forms replace the generic formula here.
TAU_BRANCH_TOL = 1e-9

# Largest exponent with a finite float64 exp(); arguments are saturated
# there so extreme score gaps degrade to the float ceiling instead of inf.
EXP_CAP = 709.0


def predict(scores):
    """Argmax label with ties resolved to the highest index."""
    s = check.floats(scores, "scores")
    top = np.flatnonzero(s == s.max()) if s.ndim == 1 and s.size else ()
    if not len(top):
        raise ValueError("scores must be a non-empty 1-D array without NaN")
    return int(top[-1])


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
    tau = check.tau(tau)
    u = check.reals(u, "u", "[0, inf)")
    v = np.log1p(u)
    if abs(tau - 1.0) < TAU_BRANCH_TOL:
        out = v
    else:
        out = np.expm1(np.minimum((1.0 - tau) * v, EXP_CAP)) / (1.0 - tau)
    return out if out.ndim else float(out)


def phi_tau_deriv(u, tau):
    """Derivative of the outer transform: ``(1 + u)**(-tau)``, in (0, 1]."""
    tau = check.tau(tau)
    u = check.reals(u, "u", "[0, inf)")
    out = np.exp(-tau * np.log1p(u))
    return out if out.ndim else float(out)


def _rows_sum(a):
    """Row sums added column by column, left to right.

    The fixed order keeps a row's sum independent of how many rows share
    the array, so one-row and many-row calls agree bit for bit. One
    accumulate call is cheaper for a few rows, a loop over the columns for
    many.
    """
    if a.shape[0] <= 64:
        return np.add.accumulate(a, axis=1)[:, -1]
    out = np.zeros(a.shape[0])
    for j in range(a.shape[1]):
        out += a[:, j]
    return out


def _rows_lse(S):
    """Max-shifted ``log(sum(exp(row)))`` of each row of a 2-D array, the
    sum taken by ``_rows_sum``: the package's one log-sum-exp."""
    m = S.max(axis=1)
    return m + np.log(_rows_sum(np.exp(S - m[:, None])))


def _phi_of_gap_array(v, tau):
    """Vectorized loss from log-sum gaps ``v = logsumexp(h) - h_y >= 0``.

    ``tau`` is a float, or an array that broadcasts against ``v``, such as
    a column of one tau per row; each entry then takes its own branch.
    """
    if isinstance(tau, np.ndarray):
        one = np.abs(tau - 1.0) < TAU_BRANCH_TOL
        return np.where(one, v + 0.0, np.expm1(np.minimum(
            (1.0 - tau) * v, EXP_CAP)) / np.where(one, 1.0, 1.0 - tau))
    if abs(tau - 1.0) < TAU_BRANCH_TOL:
        return np.asarray(v, dtype=np.float64) + 0.0
    return np.expm1(np.minimum((1.0 - tau) * v, EXP_CAP)) / (1.0 - tau)


def comp_sum_loss(scores, y, tau):
    """Loss of label ``y`` under score vector ``scores``.

    The outer transform of ``exp(logsumexp(h) - h_y) - 1``, with the
    log-sum-exp max-shifted so the value stays finite for any finite
    scores; a one-row call of ``comp_sum_loss_batch``.
    """
    s = check.scores(scores)
    y = check.label(y, s.shape[0], "y")
    return float(comp_sum_loss_batch(s[None], [y], tau)[0])


def comp_sum_grad(scores, y, tau):
    """Exact gradient of ``comp_sum_loss`` with respect to the scores.

    Equals ``softmax(h)[y]**(tau - 1) * (softmax(h) - onehot(y))``; for
    ``tau = 1`` this is the familiar softmax-minus-onehot.
    """
    s = check.scores(scores)
    y = check.label(y, s.shape[0], "y")
    return comp_sum_grad_batch(s[None], [y], tau)[0]


def comp_sum_loss_batch(scores, Y, tau):
    """Row-wise losses for a batch of score vectors and labels."""
    s = np.asarray(scores, dtype=np.float64)
    Y = check.labels(Y, s.shape[1], s.shape[0])
    tau = check.tau(tau)
    lse = _rows_lse(s)
    v = np.maximum(lse - s[np.arange(s.shape[0]), Y], 0.0)
    return _phi_of_gap_array(v, tau)


def comp_sum_grad_batch(scores, Y, tau):
    """Row-wise exact score gradients for a batch."""
    s = np.asarray(scores, dtype=np.float64)
    Y = check.labels(Y, s.shape[1], s.shape[0])
    tau = check.tau(tau)
    rows = np.arange(s.shape[0])
    lse = _rows_lse(s)
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
    tau = check.tau(tau)
    n = check.integer(n, "n", 2)
    if lam is not None:
        lam = check.real(lam, "lam", "(0, inf]")
        v_max = np.logaddexp(0.0, math.log(n - 1) + 2.0 * lam)
        return float(_phi_of_gap_array(np.float64(v_max), tau))
    if tau > 1.0 + TAU_BRANCH_TOL:
        return 1.0 / (tau - 1.0)
    return math.inf
