"""The projected Newton engine: box oracle and linear-gap joint minimum.

Every box minimization in the package takes safeguarded projected Newton
steps (Bertsekas 1982, SIAM J. Control Optim. 20:221) on an objective's
exact Hessian, one row of variables per start; an iteration,
``_newton_step``, is one Armijo search along the projected Newton arc, and
a start whose arc finds no decrease is numerically stationary and stops.
First-order steps stall where the objective flattens exponentially along
the score spread (tau near 1.2 to 1.75); Newton steps do not. An objective
gives each row's value, gradient and Hessian, and its restriction to some
rows. The box oracle's, ``WeightedCondRisk``, is ``sum_y c[y] * loss(s, y,
tau)``, whose value, score gradient and Hessian exist once each, row-wise.
``pgd_box_weighted_min`` solves one oracle problem, one start after
another on one-row arrays; ``newton_box_min`` runs rows in lockstep, for
``pgd_box_weighted_min_batch`` (every start of many oracle problems) and
for the joint minimum over a linear family's shared weights (``risk``).
From the same start both oracle kernels take the same steps, bit for bit.
"""

import numpy as np

from .losses import EXP_CAP, _phi_of_gap_array


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
    m = S.max(axis=1)
    return m + np.log(_rows_sum(np.exp(S - m[:, None])))


def weighted_cond_value(S, C, tau):
    """``sum_y C[r, y] * loss(S[r], y, tau)`` for each row ``r``: (R,)."""
    v = _rows_lse(S)[:, None] - S
    return _rows_sum(C * _phi_of_gap_array(v, tau))


def weighted_cond_value_grad(S, C, tau):
    """``weighted_cond_value`` with its exact score gradient rows:
    (values (R,), gradients (R, n))."""
    lse = _rows_lse(S)
    v = lse[:, None] - S
    # d(loss)/dv at v equals exp((1 - tau) * v), saturated like the value
    w = np.exp(np.minimum((1.0 - tau) * v, EXP_CAP))
    G = -C * w
    G += np.exp(S - lse[:, None]) * _rows_sum(C * w)[:, None]
    return _rows_sum(C * _phi_of_gap_array(v, tau)), G


def weighted_cond_hessian(S, C, tau):
    """Score Hessians of ``weighted_cond_value`` for each row: (R, n, n).

    With ``v_y = lse(s) - s_y``, ``dv_y/ds = sigma - e_y`` and
    ``d2v_y/ds2 = diag(sigma) - sigma sigma^T``, so
    ``H = sum_y c_y [phi''(v_y) (sigma - e_y)(sigma - e_y)^T
    + phi'(v_y) (diag(sigma) - sigma sigma^T)]``. ``phi' = exp((1 - tau) v)``
    saturates at ``EXP_CAP`` like the value and the gradient, and
    ``phi'' = (1 - tau) phi'`` is 0 where it does.
    """
    lse = _rows_lse(S)
    sig = np.exp(S - lse[:, None])
    a = (1.0 - tau) * (lse[:, None] - S)
    w = np.exp(np.minimum(a, EXP_CAP))
    u = C * np.where(a > EXP_CAP, 0.0, (1.0 - tau) * w)  # c_y phi''(v_y)
    b = (C * w).sum(axis=1)                              # sum_y c_y phi'(v_y)
    su = sig[:, :, None] * u[:, None, :]
    H = ((u.sum(axis=1) - b)[:, None, None] * (sig[:, :, None] * sig[:, None, :])
         - (su + su.transpose(0, 2, 1)))
    diag = np.arange(S.shape[1])
    H[:, diag, diag] += u + b[:, None] * sig
    return H


def _pg_norm(X, G, lam):
    """Norm of each row's unit-step projected-gradient move."""
    d = np.clip(X - G, -lam, lam) - X
    return np.sqrt(_rows_sum(d * d))


class WeightedCondRisk:
    """Row ``r`` minimizes ``sum_y C[r, y] * loss(S[r], y, tau)``."""

    def __init__(self, C, tau):
        self.C, self.tau = C, tau

    def value(self, S):
        return weighted_cond_value(S, self.C, self.tau)

    def value_grad(self, S):
        return weighted_cond_value_grad(S, self.C, self.tau)

    def hessian(self, S):
        return weighted_cond_hessian(S, self.C, self.tau)

    def rows(self, keep):
        return WeightedCondRisk(self.C[keep], self.tau)


def _newton_dirs(obj, X, G, lam, pgn):
    """Projected Newton directions (Bertsekas 1982) for each row.

    A coordinate within ``min(1e-6, pgn)`` of a bound whose gradient
    points out of the box is active: its row and column of the Hessian
    become the identity's and its gradient 0, so it does not move. The
    reduced Hessian can be singular (the oracle's loss ignores a common
    shift of the scores) and is indefinite for tau > 1 or negated ``c``, so
    its eigenvalues enter by magnitude, floored at ``1e-12 * max(1, max
    |eigenvalue|)``; the direction is then one of descent.
    """
    eps = np.minimum(1e-6, pgn)[:, None]
    active = (((X <= -lam + eps) & (G > 0.0))
              | ((X >= lam - eps) & (G < 0.0)))
    free = ~active
    H = obj.hessian(X)
    H *= free[:, :, None] & free[:, None, :]
    diag = np.arange(X.shape[1])
    H[:, diag, diag] += active
    g = G * free
    lam_h, V = np.linalg.eigh(H)
    mag = np.abs(lam_h)
    mag = np.maximum(mag, 1e-12 * np.maximum(1.0, mag.max(axis=1))[:, None])
    coef = (np.swapaxes(V, 1, 2) @ g[:, :, None])[:, :, 0] / mag
    D = -(V @ coef[:, :, None])[:, :, 0]
    D[active] = 0.0
    return D


def _arc_search(obj, X, D, G, F, lam):
    """Armijo search along each row's projected arc ``P(x + alpha d)``.

    Every row tries ``alpha = 1, 1/2, 1/4, ...`` until ``g . (P(x + alpha
    d) - x)`` is negative and the value falls by at least ``1e-4`` times it,
    up to a rounding allowance of ``1e-15 |f|``. A row gives up, unaccepted,
    when ``alpha`` falls below 1e-12 or its projected step is zero. Returns
    (accepted, accepted points, their values).
    """
    accepted = np.zeros(X.shape[0], dtype=bool)
    xn = np.empty_like(X)
    fn = np.empty_like(F)
    pend = np.arange(X.shape[0])
    alpha = 1.0
    while pend.size and alpha >= 1e-12:
        z = np.clip(X + alpha * D, -lam, lam)
        d = z - X
        gd = _rows_sum(G * d)
        f = obj.value(z)
        ok = (gd < 0.0) & (f <= F + 1e-4 * gd + 1e-15 * np.abs(F))
        done = pend[ok]
        accepted[done] = True
        xn[done] = z[ok]
        fn[done] = f[ok]
        keep = ~ok & (_rows_sum(d * d) != 0.0)
        pend, X, D, G, F = pend[keep], X[keep], D[keep], G[keep], F[keep]
        obj = obj.rows(keep)
        alpha *= 0.5
    return accepted, xn, fn


def _newton_step(obj, X, G, F, lam, pgn):
    """One safeguarded projected Newton iteration for every row: the Armijo
    search along the projected Newton arc. Returns (moved, new points, their
    values); a row whose arc fails did not move and is numerically
    stationary."""
    D = _newton_dirs(obj, X, G, lam, pgn)
    return _arc_search(obj, X, D, G, F, lam)


def pgd_box_weighted_min(c, tau, lam, starts, max_iter, gtol):
    """Minimize sum_y c[y] * loss(s, y, tau) over the box [-lam, lam]^n.

    Multi-start safeguarded projected Newton descent with the stop tests of
    ``newton_box_min``, one start after another; one iteration is
    ``_newton_step`` on a single row of ``WeightedCondRisk``.

    ``starts`` is a (k, n) array of initial points (clipped into the box);
    starts run sequentially and the minimum is reduced in start order, so
    the result is deterministic for a given ``starts`` array. Returns
    (best value, best scores, all starts reached the tolerance).
    """
    k, n = starts.shape
    best_x = np.empty(n)
    best_f = np.inf
    all_conv = True

    x = np.empty(n)
    # one-row view; every start's value is taken on this same buffer,
    # which is how the benchmark's tracer counts starts
    X = x[None, :]
    obj = WeightedCondRisk(c[None, :], tau)

    for si in range(k):
        np.clip(starts[si], -lam, lam, out=x)
        F = obj.value(X)
        f_checkpoint = F[0]
        # every break is a converged stop; only the cap reaches ``else``
        for it in range(1, max_iter + 1):
            # value-stall criterion: no measurable progress over a window
            # counts as converged (the gradient test below can stay above
            # tolerance at float resolution on very flat objectives)
            if it % 64 == 0:
                if f_checkpoint - F[0] <= 1e-15 * (1.0 + abs(F[0])):
                    break
                f_checkpoint = F[0]
            _, G = obj.value_grad(X)
            pgn = _pg_norm(X, G, lam)
            if pgn[0] <= gtol:
                break
            moved, xn, fn = _newton_step(obj, X, G, F, lam, pgn)
            if not moved[0]:
                # the Newton arc finds no decrease: numerically stationary
                break
            x[:] = xn[0]
            F = fn
        else:
            all_conv = False
        if F[0] < best_f:
            best_f = float(F[0])
            best_x[:] = x

    return best_f, best_x, all_conv


def newton_box_min(obj, starts, lam, max_iter, gtol):
    """Minimize each row of ``obj`` over ``[-lam, lam]`` from the matching
    row of ``starts`` (clipped into the box), all rows in lockstep.

    A row stops when its unit-step projected-gradient norm is at most
    ``gtol``, when its Newton arc finds no decrease (numerically
    stationary), or when its value has not moved over a 64-iteration window
    (the gradient test can stay above tolerance at float resolution on very
    flat objectives); only a row still running at ``max_iter`` has not
    converged. Rows leave the arrays as they stop. Returns per row (values,
    points, converged).
    """
    R = starts.shape[0]
    f_out = np.empty(R)
    x_out = np.empty(starts.shape)
    conv_out = np.zeros(R, dtype=bool)

    rows = np.arange(R)
    x = np.clip(starts, -lam, lam)
    fx = obj.value(x)
    f_checkpoint = fx.copy()
    it = 0
    while rows.size and it < max_iter:
        it += 1
        # every row that stops inside the loop has converged; only rows
        # still running at the cap have not
        stop = np.zeros(rows.size, dtype=bool)
        if it % 64 == 0:
            stop = f_checkpoint - fx <= 1e-15 * (1.0 + np.abs(fx))
            f_checkpoint = fx.copy()
        _, g = obj.value_grad(x)
        pgn = _pg_norm(x, g, lam)
        stop |= pgn <= gtol

        live = np.flatnonzero(~stop)
        moved, xn, fn = _newton_step(obj.rows(live), x[live], g[live],
                                     fx[live], lam, pgn[live])
        stop[live[~moved]] = True
        a = live[moved]
        x[a] = xn[moved]
        fx[a] = fn[moved]

        if stop.any():
            done = rows[stop]
            f_out[done] = fx[stop]
            x_out[done] = x[stop]
            conv_out[done] = True
            keep = ~stop
            rows, x, obj = rows[keep], x[keep], obj.rows(keep)
            fx, f_checkpoint = fx[keep], f_checkpoint[keep]
    f_out[rows] = fx
    x_out[rows] = x
    return f_out, x_out, conv_out


def pgd_box_weighted_min_batch(C, tau, lam, starts, max_iter, gtol):
    """Lockstep form of ``pgd_box_weighted_min`` for B problems on one box.

    ``C`` is (B, n) and ``starts`` is (B, k, n); every start of every
    problem is one row of ``newton_box_min``, so every row takes bit for
    bit the steps that ``pgd_box_weighted_min`` takes from the same start.
    Per problem the best start is the first minimum in start order, and it
    converged when every start did.
    Returns (values (B,), scores (B, n), converged (B,)).
    """
    B, k, n = starts.shape
    f_out, x_out, conv_out = newton_box_min(
        WeightedCondRisk(np.repeat(C, k, axis=0), tau),
        starts.reshape(B * k, n), lam, max_iter, gtol)

    f_out = f_out.reshape(B, k)
    x_out = x_out.reshape(B, k, n)
    best_f = np.full(B, np.inf)
    best_x = np.full((B, n), np.nan)
    for si in range(k):
        lower = f_out[:, si] < best_f
        best_f[lower] = f_out[lower, si]
        best_x[lower] = x_out[lower, si]
    return best_f, best_x, conv_out.reshape(B, k).all(axis=1)
