"""Consistency transform of the comp-sum family and companions.

``t_tau`` maps a zero-one conditional gap ``beta`` to the smallest
achievable surrogate conditional gap; it is convex, increasing, vanishes at
zero and is continuous in ``tau`` across the branch switches at 1 and 2.
``gamma_tau`` is its numerical inverse. Both are one-row calls of the row
forms ``t_tau_rows`` and ``gamma_tau_rows``, which take one ``tau`` and one
``n`` per row; the inverse bisects every row in lockstep.
``t_tilde``/``gamma_tilde`` are the tightest-order polynomial lower bound
and the matching closed-form upper bound of the inverse. ``psi_tau`` is the
two-argument generalization whose minimum over the first argument is
attained at 1, where it reduces to ``t_tau``.
"""

import math

import numpy as np

from . import _checks as check
from .losses import TAU_BRANCH_TOL

_LOG2 = math.log(2.0)


def _check_rows(x, name, interval, tau, n):
    """Check a rows form's arguments and broadcast them to three contiguous
    1-D arrays: ``x`` by ``check.reals`` on ``interval`` and under
    ``name``, then ``tau`` and ``n``. The first bad entry raises."""
    rows = [check.reals(x, name, interval),
            check.reals(tau, "tau", check.TAU_RANGE),
            check.integers(n, "n", 2)]
    if not rows[0].shape == rows[1].shape == rows[2].shape:
        rows = [np.array(a) for a in np.broadcast_arrays(*rows)]
    return [a.reshape(-1) for a in rows]


def _log_half_power_sum(la, lb, inv_r):
    """log of ((e^la + e^lb) / 2) ** inv_r computed fully in log space."""
    return inv_r * (np.logaddexp(la, lb) - _LOG2)


def _t_tilde_rows(beta, tau, n):
    """``t_tilde`` at each row of the 1-D arrays ``beta``, ``tau``, ``n``."""
    npow = n ** (tau - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(tau < 1.0, beta * beta / (2.0 ** tau * (2.0 - tau)),
                        np.where(tau < 2.0, beta * beta / (2.0 * npow),
                                 beta / ((tau - 1.0) * npow)))


def _t_tau_core(tau, n):
    """``T_tau`` of the rows ``(tau[i], n[i])``, checked 1-D arrays, as a
    function of one ``beta`` per row. Each row's branch and constants are
    set here once, so a bisection evaluates only the function step after
    step. The branches: the log form at ``tau = 1``; the linear form for
    ``tau >= 2``; otherwise the ``(2 - tau)``-power of the mean of
    ``(1 +/- beta) ** (1 / (2 - tau))``, in log space so the exponent
    blow-up near ``tau = 2`` stays finite. Below ``beta = 1e-5`` and
    ``tau < 2`` the exact branches lose the quadratic signal to
    cancellation, and the polynomial form of ``t_tilde``, relatively
    accurate to O(beta^2) there, takes over.
    """
    one = np.abs(tau - 1.0) < TAU_BRANCH_TOL
    lin = tau >= 2.0 - TAU_BRANCH_TOL
    curved = ~lin
    under = curved & ~one & (tau < 1.0)
    scale = (tau - 1.0) * n ** (tau - 1.0)

    def log_form(idx):
        def form(b):
            t2 = np.where(b >= 1.0, 0.0, 0.5 * (1.0 - b) * np.log1p(-b))
            return np.maximum(0.5 * (1.0 + b) * np.log1p(b) + t2, 0.0)
        return form

    def power_form(idx):
        g = 2.0 - tau[idx]
        r = 1.0 / g

        def core(b):
            return _log_half_power_sum(r * np.log1p(b), r * np.log1p(-b), g)
        return core

    def under_form(idx):
        core = power_form(idx)
        # -(2 ** (1 - tau) / (1 - tau)): the factor of -expm1(core)
        lead = -(2.0 ** (1.0 - tau[idx]) / (1.0 - tau[idx]))
        return lambda b: np.maximum(lead * np.expm1(core(b)), 0.0)

    def over_form(idx):
        core, denom = power_form(idx), scale[idx]
        return lambda b: np.maximum(np.expm1(core(b)) / denom, 0.0)

    def linear_form(idx):
        denom = scale[idx]
        return lambda b: b / denom

    forms = []
    for mask, make in ((one, log_form), (under, under_form),
                       (curved & ~one & ~under, over_form),
                       (lin, linear_form)):
        count = np.count_nonzero(mask)
        if count:
            idx = slice(None) if count == mask.size else np.flatnonzero(mask)
            forms.append((idx, make(idx)))
    any_curved = np.count_nonzero(curved) > 0

    def t_of(beta):
        """The rows' values at ``beta``. Call it under
        ``np.errstate(divide="ignore", invalid="ignore")``: at ``beta = 1``
        the log and power forms take ``log1p(-1)``."""
        out = np.empty(beta.shape)
        for idx, form in forms:
            out[idx] = form(beta[idx])
        if any_curved and beta.min() < 1e-5:
            small = curved & (beta > 0.0) & (beta < 1e-5)
            out[small] = _t_tilde_rows(beta[small], tau[small], n[small])
        return out

    return t_of


def t_tau_rows(beta, tau, n):
    """``t_tau`` at each row ``(beta[i], tau[i], n[i])``; the arguments
    broadcast to one 1-D shape."""
    beta, tau, n = _check_rows(beta, "beta", "[0, 1]", tau, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _t_tau_core(tau, n)(beta)


def t_tau(beta, tau, n):
    """Consistency transform at ``beta`` in [0, 1]: a one-row call of
    ``t_tau_rows``."""
    return float(t_tau_rows([beta], [tau], [n])[0])


def t_tau_max(tau, n):
    """Largest value of the transform, attained at ``beta = 1``."""
    return t_tau(1.0, tau, n)


def gamma_tau_rows(t, tau, n):
    """``gamma_tau`` at each row ``(t[i], tau[i], n[i])``; the arguments
    broadcast to one 1-D shape.

    The ``tau >= 2`` rows are linear and inverted in closed form, and
    ``t = 0`` maps to 0. Every other row is bisected on the monotone
    ``t_tau``, all rows in lockstep and each by the rule of a bisection of
    its own: at most 200 steps from ``[0, 1]``, stopping once ``hi - lo
    <= 1e-16``. A row whose step leaves its bracket unchanged is frozen
    too, since every later step would repeat that one. Bisection runs to
    interval convergence (residuals end up far below 1e-13 of the target);
    an absolute-residual early stop would return the wrong preimage for
    targets near zero. A ``t`` above the attainable maximum raises with
    that maximum reported.
    """
    t, tau, n = _check_rows(t, "t", "[0, inf]", tau, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        tmax = _t_tau_core(tau, n)(np.ones(t.shape))
    over = t > tmax * (1.0 + 1e-12)
    if over.any():
        i = np.flatnonzero(over)[0]
        raise ValueError(f"t={float(t[i])} exceeds the attainable maximum "
                         f"t_tau(1)={float(tmax[i])}")
    out = np.zeros(t.shape)
    lin = (tau >= 2.0 - TAU_BRANCH_TOL) & (t != 0.0)
    out[lin] = np.minimum(
        (tau[lin] - 1.0) * n[lin] ** (tau[lin] - 1.0) * t[lin], 1.0)
    rows = np.flatnonzero((tau < 2.0 - TAU_BRANCH_TOL) & (t != 0.0))
    if rows.size:
        with np.errstate(divide="ignore", invalid="ignore"):
            out[rows] = _bisect_rows(t[rows], tau[rows], n[rows])
    return out


def _bisect_rows(t, tau, n):
    """The bisection of ``gamma_tau_rows`` on its 1-D rows, in lockstep."""
    out = np.empty(t.shape)
    live = np.arange(t.size)
    lo, hi = np.zeros(t.size), np.ones(t.size)
    t_of = _t_tau_core(tau, n)
    for step in range(200):
        mid = 0.5 * (lo + hi)
        lower = t_of(mid) < t
        new_lo = np.where(lower, mid, lo)
        new_hi = np.where(lower, hi, mid)
        # a bracket halves from width 1, exactly while its ends are
        # multiples of 2**-50, and holds no double but its ends only
        # below 2**-53: no row stops in the first 50 steps
        if step < 50:
            lo, hi = new_lo, new_hi
            continue
        done = (new_hi - new_lo <= 1e-16) | ((new_lo == lo) & (new_hi == hi))
        lo, hi = new_lo, new_hi
        if done.any():
            out[live[done]] = 0.5 * (lo[done] + hi[done])
            if done.all():
                return out
            keep = ~done
            live, lo, hi, t, tau, n = (
                a[keep] for a in (live, lo, hi, t, tau, n))
            t_of = _t_tau_core(tau, n)
    out[live] = 0.5 * (lo + hi)
    return out


def gamma_tau(t, tau, n):
    """Inverse of the transform: a one-row call of ``gamma_tau_rows``."""
    return float(gamma_tau_rows([t], [tau], [n])[0])


def t_tilde(beta, tau, n):
    """Tightest-order polynomial lower bound of the transform."""
    return float(_t_tilde_rows(*_check_rows([beta], "beta", "[0, 1]", [tau],
                                            [n]))[0])


def gamma_tilde(t, tau, n):
    """Closed-form upper bound of the inverse transform."""
    t = check.real(t, "t", "[0, inf)")
    tau = check.tau(tau)
    n = check.integer(n, "n", 2)
    if tau < 1.0:
        return math.sqrt(2.0 ** tau * (2.0 - tau) * t)
    if tau < 2.0:
        return math.sqrt(2.0 * n ** (tau - 1.0) * t)
    return (tau - 1.0) * n ** (tau - 1.0) * t


def psi_tau(alpha, beta, tau, n):
    """Two-argument transform; ``psi_tau(1, beta) == t_tau(beta)``.

    ``alpha`` is the combined mass of the top conditional label and the
    predicted label, ``beta`` their difference; requires
    ``0 <= beta <= alpha <= 1``. Lower bounded by ``t_tau(beta)`` with the
    minimum over ``alpha`` at 1.
    """
    alpha = check.real(alpha, "alpha")
    beta = check.real(beta, "beta")
    tau = check.tau(tau)
    n = check.integer(n, "n", 2)
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not 0.0 <= value <= 1.0 + 1e-12:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    alpha = min(alpha, 1.0)
    if not beta <= alpha + 1e-15:
        raise ValueError(f"alpha must be at least beta, got alpha={alpha}, "
                         f"beta={beta}")
    beta = min(beta, alpha)
    if alpha == 0.0:
        return 0.0

    if abs(tau - 1.0) < TAU_BRANCH_TOL:
        hi, lo = alpha + beta, alpha - beta
        t1 = 0.0 if hi == 0.0 else 0.5 * hi * math.log(hi / alpha)
        t2 = 0.0 if lo == 0.0 else 0.5 * lo * math.log(lo / alpha)
        return t1 + t2
    if tau >= 2.0 - TAU_BRANCH_TOL:
        return beta / ((tau - 1.0) * n ** (tau - 1.0))

    r = 1.0 / (2.0 - tau)
    with np.errstate(divide="ignore"):
        la = r * np.log(alpha + beta)
        lb = r * np.log(alpha - beta) if alpha > beta else -np.inf
    core = float(_log_half_power_sum(la, lb, 2.0 - tau))
    # bracket = alpha - mean_power computed relative to alpha for precision
    rel = math.expm1(core - math.log(alpha))
    if tau < 1.0:
        return max(2.0 ** (1.0 - tau) / (1.0 - tau) * (-alpha * rel), 0.0)
    return max(alpha * rel / ((tau - 1.0) * n ** (tau - 1.0)), 0.0)
