"""Hot numeric kernels of the box oracle.

The box-constrained multi-start projected gradient descent behind the
brute-force conditional-risk oracle (and the Monte-Carlo complexity
estimator) dominates the runtime of the verification sweeps. It comes in
two forms that run the same algorithm: ``pgd_box_weighted_min`` solves one
problem, one start after another, in scalar Python; and
``pgd_box_weighted_min_batch`` runs every start of many problems in
lockstep as rows of numpy arrays.
"""

import math

import numpy as np

from .losses import EXP_CAP, _phi_of_gap_array


def phi_of_gap(v, tau):
    """Outer concave transform evaluated at an inner sum of exp(v) - 1.

    ``v = logsumexp(scores) - scores[y] >= 0`` is the stable representation
    of the inner sum; the transform reduces to ``expm1((1 - tau) * v) /
    (1 - tau)`` with the log branch at tau = 1.
    """
    if abs(tau - 1.0) < 1e-9:
        return v
    a = (1.0 - tau) * v
    if a > EXP_CAP:
        a = EXP_CAP
    return math.expm1(a) / (1.0 - tau)


def weighted_cond_value(s, c, tau):
    """sum_y c[y] * loss(s, y, tau) for a single score vector ``s``."""
    n = s.shape[0]
    m = s[0]
    for j in range(1, n):
        if s[j] > m:
            m = s[j]
    t = 0.0
    for j in range(n):
        t += math.exp(s[j] - m)
    lse = m + math.log(t)
    total = 0.0
    for y in range(n):
        total += c[y] * phi_of_gap(lse - s[y], tau)
    return total


def weighted_cond_value_grad(s, c, tau, g):
    """Value of ``weighted_cond_value`` with its exact score gradient in ``g``."""
    n = s.shape[0]
    m = s[0]
    for j in range(1, n):
        if s[j] > m:
            m = s[j]
    t = 0.0
    for j in range(n):
        t += math.exp(s[j] - m)
    lse = m + math.log(t)

    total = 0.0
    dot = 0.0
    for y in range(n):
        v = lse - s[y]
        total += c[y] * phi_of_gap(v, tau)
        # d(loss)/dv at v equals exp((1 - tau) * v), saturated like the value
        a = (1.0 - tau) * v
        if a > EXP_CAP:
            a = EXP_CAP
        w = math.exp(a)
        g[y] = -c[y] * w
        dot += c[y] * w
    for j in range(n):
        g[j] += math.exp(s[j] - lse) * dot
    return total


def pgd_box_weighted_min(c, tau, lam, starts, max_iter, gtol):
    """Minimize sum_y c[y] * loss(s, y, tau) over the box [-lam, lam]^n.

    Multi-start projected gradient descent with Nesterov extrapolation,
    backtracking line search on the majorization condition, and adaptive
    restart whenever momentum raises the objective. The acceleration is
    needed because the objective flattens exponentially along the score
    spread near tau = 2, where plain projected descent converges too slowly.

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
    xp = np.empty(n)
    y = np.empty(n)
    xn = np.empty(n)
    g = np.empty(n)

    for si in range(k):
        for j in range(n):
            v = starts[si, j]
            if v > lam:
                v = lam
            elif v < -lam:
                v = -lam
            x[j] = v
            xp[j] = v
        fx = weighted_cond_value(x, c, tau)
        t = 1.0
        step = 1.0
        conv = False
        it = 0
        f_checkpoint = fx
        while it < max_iter:
            it += 1
            # value-stall criterion: no measurable progress over a window
            # counts as converged (the gradient test below can stay above
            # tolerance at float resolution on very flat objectives)
            if it % 64 == 0:
                if f_checkpoint - fx <= 1e-15 * (1.0 + abs(fx)):
                    conv = True
                    break
                f_checkpoint = fx
            tn = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / tn
            for j in range(n):
                y[j] = x[j] + beta * (x[j] - xp[j])
            fy = weighted_cond_value_grad(y, c, tau, g)

            # unit-step projected-gradient stationarity at the extrapolated
            # point; once momentum has died down y ~= x and this is the
            # plain projected-gradient norm
            pg = 0.0
            for j in range(n):
                z = y[j] - g[j]
                if z > lam:
                    z = lam
                elif z < -lam:
                    z = -lam
                d = z - y[j]
                pg += d * d
            if math.sqrt(pg) <= gtol:
                conv = True
                break

            # backtrack until the quadratic majorization at y holds
            accepted = False
            fn = fy
            while step >= 1e-18:
                gd = 0.0
                dn = 0.0
                for j in range(n):
                    z = y[j] - step * g[j]
                    if z > lam:
                        z = lam
                    elif z < -lam:
                        z = -lam
                    xn[j] = z
                    d = z - y[j]
                    gd += g[j] * d
                    dn += d * d
                if dn == 0.0:
                    break
                fn = weighted_cond_value(xn, c, tau)
                if fn <= fy + gd + dn / (2.0 * step) + 1e-15 * abs(fy):
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                # no representable step improves on y: numerically stationary
                conv = True
                break

            if fn > fx:
                # momentum overshoot: drop it and retake from x next round
                t = 1.0
                for j in range(n):
                    xp[j] = x[j]
            else:
                for j in range(n):
                    xp[j] = x[j]
                    x[j] = xn[j]
                fx = fn
                t = tn
            if step < 1e8:
                step *= 1.3

        if not conv:
            all_conv = False
        if fx < best_f:
            best_f = fx
            for j in range(n):
                best_x[j] = x[j]

    return best_f, best_x, all_conv


# ---------------------------------------------------------------------------
# lockstep batch form
# ---------------------------------------------------------------------------

def _rows_sum(a):
    """Row sums accumulated column by column, in the scalar kernel's order."""
    out = np.zeros(a.shape[0])
    for j in range(a.shape[1]):
        out += a[:, j]
    return out


def _rows_lse(S):
    m = S.max(axis=1)
    return m + np.log(_rows_sum(np.exp(S - m[:, None])))


def weighted_cond_value_rows(S, C, tau):
    """``weighted_cond_value`` of each score row of ``S`` with its row of ``C``."""
    v = _rows_lse(S)[:, None] - S
    return _rows_sum(C * _phi_of_gap_array(v, tau))


def weighted_cond_value_grad_rows(S, C, tau):
    """Row-wise ``weighted_cond_value_grad``: (values, gradient rows)."""
    lse = _rows_lse(S)
    v = lse[:, None] - S
    w = np.exp(np.minimum((1.0 - tau) * v, EXP_CAP))
    G = -C * w
    G += np.exp(S - lse[:, None]) * _rows_sum(C * w)[:, None]
    return _rows_sum(C * _phi_of_gap_array(v, tau)), G


def _backtrack(y, g, fy, step, c, tau, lam):
    """Backtracking of ``pgd_box_weighted_min`` for every row at once.

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
        f = weighted_cond_value_rows(z, c[pend], tau)
        fyp = fy[pend]
        ok = f <= fyp + gd + dn / (2.0 * sp) + 1e-15 * np.abs(fyp)
        done = pend[ok]
        accepted[done] = True
        xn[done] = z[ok]
        fn[done] = f[ok]
        pend = pend[~ok]
        step[pend] *= 0.5
    return accepted, xn, fn


def pgd_box_weighted_min_batch(C, tau, lam, starts, max_iter, gtol):
    """Lockstep form of ``pgd_box_weighted_min`` for B problems on one box.

    ``C`` is (B, n) and ``starts`` is (B, k, n). Every start of every
    problem is one row. All rows take their outer iterations together, and
    each row backtracks on its own step, so every row follows the path of
    the scalar kernel from the same start: the same Nesterov step,
    backtracking, adaptive restart, step growth, stall test every 64
    iterations, projected-gradient tolerance and iteration cap. Rows leave
    the arrays as they stop. Per problem the best start is the first
    minimum in start order, and it converged when every start did.
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
    xp = x.copy()
    fx = weighted_cond_value_rows(x, c, tau)
    f_checkpoint = fx.copy()
    t = np.ones(R)
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
        tn = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / tn
        y = x + beta[:, None] * (x - xp)
        fy, g = weighted_cond_value_grad_rows(y, c, tau)
        d = np.clip(y - g, -lam, lam) - y
        stop |= np.sqrt(_rows_sum(d * d)) <= gtol

        live = np.flatnonzero(~stop)
        live_step = step[live]
        accepted, xn, fn = _backtrack(y[live], g[live], fy[live], live_step,
                                      c[live], tau, lam)
        step[live] = live_step
        stop[live[~accepted]] = True

        a = live[accepted]
        fn, xn = fn[accepted], xn[accepted]
        better = ~(fn > fx[a])
        xp[a] = x[a]
        x[a[better]] = xn[better]
        fx[a[better]] = fn[better]
        # momentum overshoot (fn > fx) restarts the momentum from x
        t[a] = np.where(better, tn[a], 1.0)
        step[a] = np.where(step[a] < 1e8, step[a] * 1.3, step[a])

        if stop.any():
            done = rows[stop]
            f_out[done] = fx[stop]
            x_out[done] = x[stop]
            conv_out[done] = True
            keep = ~stop
            rows, c, x, xp = rows[keep], c[keep], x[keep], xp[keep]
            fx, f_checkpoint, t, step = (fx[keep], f_checkpoint[keep],
                                         t[keep], step[keep])
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
