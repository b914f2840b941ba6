"""Hot numeric kernels of the box oracle.

The brute-force conditional-risk oracle (and the Monte-Carlo complexity
estimator) minimizes ``sum_y c[y] * loss(s, y, tau)`` over a box
``[-lam, lam]^n`` from several starts by safeguarded projected Newton
steps (Bertsekas 1982, SIAM J. Control Optim. 20:221) on the closed-form
score Hessian, which is cheap at the label counts used here. First-order
steps stall where the objective flattens exponentially along the score
spread (tau near 1.2 to 1.75); Newton steps do not.

The weighted value, its score gradient and its Hessian exist once each,
row-wise: one row of scores per start. Two kernels run the same iteration,
``_newton_step``, on them: ``pgd_box_weighted_min`` solves one problem,
one start after another, on one-row arrays; ``pgd_box_weighted_min_batch``
runs every start of many problems in lockstep. From the same start both
take the same steps, bit for bit.
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


def _newton_dirs(X, G, C, tau, lam, pgn):
    """Projected Newton directions (Bertsekas 1982) for each row.

    A coordinate within ``min(1e-6, pgn)`` of a bound whose gradient
    points out of the box is active: its row and column of the Hessian
    become the identity's and its gradient 0, so it does not move. The
    reduced Hessian is singular along the all-ones direction (the loss
    ignores a common shift) and indefinite for tau > 1 or negated ``c``, so
    its eigenvalues enter by magnitude, floored at ``1e-12 * max(1,
    max |eigenvalue|)``; the direction is then one of descent.
    """
    eps = np.minimum(1e-6, pgn)[:, None]
    active = (((X <= -lam + eps) & (G > 0.0))
              | ((X >= lam - eps) & (G < 0.0)))
    free = ~active
    H = weighted_cond_hessian(X, C, tau)
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


def _arc_search(X, D, G, F, C, tau, lam):
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
        f = weighted_cond_value(z, C, tau)
        ok = (gd < 0.0) & (f <= F + 1e-4 * gd + 1e-15 * np.abs(F))
        done = pend[ok]
        accepted[done] = True
        xn[done] = z[ok]
        fn[done] = f[ok]
        keep = ~ok & (_rows_sum(d * d) != 0.0)
        pend, X, D, G, F, C = (pend[keep], X[keep], D[keep], G[keep],
                               F[keep], C[keep])
        alpha *= 0.5
    return accepted, xn, fn


def _backtrack(y, g, fy, step, c, tau, lam):
    """Projected-gradient backtracking for every row at once.

    Each row halves its own ``step`` (updated in place) until the quadratic
    majorization at its ``y`` holds. A row gives up, unaccepted, when its
    step falls below 1e-18 or its projected step is zero. Returns
    (accepted, accepted points, their values).
    """
    accepted = np.zeros(y.shape[0], dtype=bool)
    xn = np.empty_like(y)
    fn = np.empty_like(fy)
    pend = np.arange(y.shape[0])
    while pend.size:
        pend = pend[step[pend] >= 1e-18]
        yp, gp, sp = y[pend], g[pend], step[pend]
        z = np.clip(yp - sp[:, None] * gp, -lam, lam)
        d = z - yp
        gd = _rows_sum(gp * d)
        dn = _rows_sum(d * d)
        moved = dn != 0.0
        pend, z, gd, dn, sp = pend[moved], z[moved], gd[moved], dn[moved], sp[moved]
        f = weighted_cond_value(z, c[pend], tau)
        fyp = fy[pend]
        ok = f <= fyp + gd + dn / (2.0 * sp) + 1e-15 * np.abs(fyp)
        done = pend[ok]
        accepted[done] = True
        xn[done] = z[ok]
        fn[done] = f[ok]
        pend = pend[~ok]
        step[pend] *= 0.5
    return accepted, xn, fn


def _newton_step(X, G, F, C, tau, lam, pgn, step):
    """One safeguarded projected Newton iteration for every row.

    Rows whose Newton arc fails take a projected-gradient step instead:
    backtracking on the majorization condition from their own ``step``
    (updated in place), which grows by 1.3 after each accepted fallback,
    up to 1e8. Returns (moved, new points, their values); a row that did
    not move is numerically stationary.
    """
    D = _newton_dirs(X, G, C, tau, lam, pgn)
    moved, xn, fn = _arc_search(X, D, G, F, C, tau, lam)
    rest = np.flatnonzero(~moved)
    if rest.size:
        st = step[rest]
        ok, xg, fg = _backtrack(X[rest], G[rest], F[rest], st, C[rest], tau,
                                lam)
        step[rest] = np.where(ok & (st < 1e8), st * 1.3, st)
        moved[rest] = ok
        xn[rest[ok]] = xg[ok]
        fn[rest[ok]] = fg[ok]
    return moved, xn, fn


def pgd_box_weighted_min(c, tau, lam, starts, max_iter, gtol):
    """Minimize sum_y c[y] * loss(s, y, tau) over the box [-lam, lam]^n.

    Multi-start safeguarded projected Newton descent; one iteration is
    ``_newton_step`` on a single row, with the gradient from
    ``weighted_cond_value_grad``. A start stops when its unit-step
    projected-gradient norm is at most ``gtol``, when the value has not
    moved over a 64-iteration window, or when neither the Newton arc nor
    the projected-gradient fallback improves it (numerically stationary);
    only a start still running at ``max_iter`` has not converged.

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
    # one-row views; every start's value is taken on this same buffer,
    # which is how the benchmark's tracer counts starts
    X, C = x[None, :], c[None, :]

    for si in range(k):
        np.clip(starts[si], -lam, lam, out=x)
        F = weighted_cond_value(X, C, tau)
        f_checkpoint = F[0]
        step = np.ones(1)
        # every break is a converged stop; only the cap reaches ``else``
        for it in range(1, max_iter + 1):
            # value-stall criterion: no measurable progress over a window
            # counts as converged (the gradient test below can stay above
            # tolerance at float resolution on very flat objectives)
            if it % 64 == 0:
                if f_checkpoint - F[0] <= 1e-15 * (1.0 + abs(F[0])):
                    break
                f_checkpoint = F[0]
            _, G = weighted_cond_value_grad(X, C, tau)
            pgn = _pg_norm(X, G, lam)
            if pgn[0] <= gtol:
                break
            moved, xn, fn = _newton_step(X, G, F, C, tau, lam, pgn, step)
            if not moved[0]:
                # no representable step improves on x: numerically stationary
                break
            x[:] = xn[0]
            F = fn
        else:
            all_conv = False
        if F[0] < best_f:
            best_f = float(F[0])
            best_x[:] = x

    return best_f, best_x, all_conv


def pgd_box_weighted_min_batch(C, tau, lam, starts, max_iter, gtol):
    """Lockstep form of ``pgd_box_weighted_min`` for B problems on one box.

    ``C`` is (B, n) and ``starts`` is (B, k, n). Every start of every
    problem is one row. All rows take their iterations together through
    the same ``_newton_step``, each row with its own line search and
    fallback step, so every row takes bit for bit the steps that
    ``pgd_box_weighted_min`` takes from the same start, with the same stop
    tests. Rows leave the arrays as they stop. Per problem the best start
    is the first minimum in start order, and it converged when every start
    did.
    Returns (values (B,), scores (B, n), converged (B,)).
    """
    B, k, n = starts.shape
    R = B * k
    f_out = np.empty(R)
    x_out = np.empty((R, n))
    conv_out = np.zeros(R, dtype=bool)

    rows = np.arange(R)
    c = np.repeat(C, k, axis=0)
    x = np.clip(starts.reshape(R, n), -lam, lam)
    fx = weighted_cond_value(x, c, tau)
    f_checkpoint = fx.copy()
    step = np.ones(R)
    it = 0
    while rows.size and it < max_iter:
        it += 1
        # every row that stops inside the loop has converged; only rows
        # still running at the cap have not
        stop = np.zeros(rows.size, dtype=bool)
        if it % 64 == 0:
            stop = f_checkpoint - fx <= 1e-15 * (1.0 + np.abs(fx))
            f_checkpoint = fx.copy()
        _, g = weighted_cond_value_grad(x, c, tau)
        pgn = _pg_norm(x, g, lam)
        stop |= pgn <= gtol

        live = np.flatnonzero(~stop)
        live_step = step[live]
        moved, xn, fn = _newton_step(x[live], g[live], fx[live], c[live], tau,
                                     lam, pgn[live], live_step)
        step[live] = live_step
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
            rows, c, x = rows[keep], c[keep], x[keep]
            fx, f_checkpoint, step = fx[keep], f_checkpoint[keep], step[keep]
    f_out[rows] = fx
    x_out[rows] = x

    f_out = f_out.reshape(B, k)
    x_out = x_out.reshape(B, k, n)
    best_f = np.full(B, np.inf)
    best_x = np.full((B, n), np.nan)
    for si in range(k):
        lower = f_out[:, si] < best_f
        best_f[lower] = f_out[lower, si]
        best_x[lower] = x_out[lower, si]
    return best_f, best_x, conv_out.reshape(B, k).all(axis=1)
