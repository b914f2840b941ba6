"""Consistency transform of the comp-sum family and companions.

``t_tau`` maps a zero-one conditional gap ``beta`` to the smallest
achievable surrogate conditional gap; it is convex, increasing, vanishes at
zero and is continuous in ``tau`` across the branch switches at 1 and 2.
``gamma_tau`` is its numerical inverse. ``t_tilde``/``gamma_tilde`` are the
tightest-order polynomial lower bound and the matching closed-form upper
bound of the inverse. ``psi_tau`` is the two-argument generalization whose
minimum over the first argument is attained at 1, where it reduces to
``t_tau``.
"""

import math

import numpy as np

from .losses import TAU_BRANCH_TOL, check_tau

_LOG2 = math.log(2.0)


def _check_beta(beta):
    beta = float(beta)
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return beta


def _check_n(n):
    n = int(n)
    if n < 2:
        raise ValueError("n must be >= 2")
    return n


def _log_half_power_sum(la, lb, inv_r):
    """log of ((e^la + e^lb) / 2) ** inv_r computed fully in log space."""
    return inv_r * (np.logaddexp(la, lb) - _LOG2)


def t_tau(beta, tau, n):
    """Consistency transform at ``beta`` in [0, 1]."""
    return _t_tau_unchecked(_check_beta(beta), check_tau(tau), _check_n(n))


def _t_tau_unchecked(beta, tau, n):
    """``t_tau`` on arguments already validated (the bisection's core)."""
    if 0.0 < beta < 1e-5 and tau < 2.0 - TAU_BRANCH_TOL:
        # below this scale the exact branches lose the quadratic signal to
        # cancellation; the polynomial form is relatively accurate to
        # O(beta^2) here
        return _t_tilde_unchecked(beta, tau, n)

    if abs(tau - 1.0) < TAU_BRANCH_TOL:
        t1 = 0.5 * (1.0 + beta) * math.log1p(beta)
        t2 = 0.0 if beta >= 1.0 else 0.5 * (1.0 - beta) * math.log1p(-beta)
        return max(t1 + t2, 0.0)
    if tau >= 2.0 - TAU_BRANCH_TOL:
        return beta / ((tau - 1.0) * n ** (tau - 1.0))

    # shared generic core: the (2 - tau)-power of the mean of
    # (1 +/- beta) ** (1 / (2 - tau)), evaluated in log space so the
    # exponent blow-up near tau = 2 stays finite
    r = 1.0 / (2.0 - tau)
    la = r * np.log1p(beta)
    lb = r * np.log1p(-beta) if beta < 1.0 else -np.inf
    core = float(_log_half_power_sum(la, lb, 2.0 - tau))
    if tau < 1.0:
        return max(2.0 ** (1.0 - tau) / (1.0 - tau) * (-math.expm1(core)), 0.0)
    return max(math.expm1(core) / ((tau - 1.0) * n ** (tau - 1.0)), 0.0)


def t_tau_max(tau, n):
    """Largest value of the transform, attained at ``beta = 1``."""
    return t_tau(1.0, tau, n)


def gamma_tau(t, tau, n):
    """Inverse of the transform by bisection on the monotone ``t_tau``.

    Bisection runs to interval convergence (residuals end up far below
    1e-13 of the target); an absolute-residual early stop would return the
    wrong preimage for targets near zero. The ``tau >= 2`` branch is linear
    and inverted in closed form. Values of ``t`` above the attainable
    maximum raise with that maximum reported.
    """
    t = float(t)
    tau = check_tau(tau)
    n = _check_n(n)
    if not t >= 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    tmax = t_tau_max(tau, n)
    if t > tmax * (1.0 + 1e-12):
        raise ValueError(
            f"t={t} exceeds the attainable maximum t_tau(1)={tmax}"
        )
    if t == 0.0:
        return 0.0
    if tau >= 2.0 - TAU_BRANCH_TOL:
        return min((tau - 1.0) * n ** (tau - 1.0) * t, 1.0)

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _t_tau_unchecked(mid, tau, n) < t:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16:
            break
    return 0.5 * (lo + hi)


def t_tilde(beta, tau, n):
    """Tightest-order polynomial lower bound of the transform."""
    return _t_tilde_unchecked(_check_beta(beta), check_tau(tau), _check_n(n))


def _t_tilde_unchecked(beta, tau, n):
    if tau < 1.0:
        return beta * beta / (2.0 ** tau * (2.0 - tau))
    if tau < 2.0:
        return beta * beta / (2.0 * n ** (tau - 1.0))
    return beta / ((tau - 1.0) * n ** (tau - 1.0))


def gamma_tilde(t, tau, n):
    """Closed-form upper bound of the inverse transform."""
    t = float(t)
    tau = check_tau(tau)
    n = _check_n(n)
    if not t >= 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
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
    alpha = float(alpha)
    beta = float(beta)
    tau = check_tau(tau)
    n = _check_n(n)
    if not 0.0 <= alpha <= 1.0 + 1e-12:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    alpha = min(alpha, 1.0)
    if not 0.0 <= beta <= alpha + 1e-15:
        raise ValueError(f"need 0 <= beta <= alpha, got beta={beta}, alpha={alpha}")
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
