"""The projected Newton engine: box oracle, linear gap and lemma infimum.

Every box minimization in the package takes safeguarded projected Newton
steps (Bertsekas 1982, SIAM J. Control Optim. 20:221) on an objective's
exact Hessian, one row of variables per start; an iteration,
``_newton_step``, is one Armijo search along the projected Newton arc, and
a start whose arc finds no decrease is numerically stationary and stops.
First-order steps stall where the objective flattens exponentially along
the score spread (tau near 1.2 to 1.75); Newton steps do not. An objective
gives each row's value, gradient and Hessian, and its restriction to some
rows. The box oracle's, ``WeightedCondRisk``, is ``sum_y c[y] * loss(s, y,
tau)``, whose value, score gradient and Hessian exist once each, row-wise,
on the log-sum-exp and the fixed-order row sums of ``losses``; the
conditional risk ``risk.cond_risk`` is a one-row call of the value.
Every box problem runs from the starts of ``box_starts`` on the lockstep
``newton_box_min``, which picks each problem's best start: the box
oracle's problems (``risk.minimize_weighted_cond_risk_batch``), the joint
minimum over a linear family's shared weights (``risk``) and the lemma
infimum over the closed supremum form (``bounds``). The sequential reference
``pgd_box_weighted_min`` runs one start after another on one-row arrays
and takes the same steps bit for bit; no package code calls it, the tests
compare against it and the benchmark's tracer wraps it.
"""

import numpy as np

from .losses import EXP_CAP, _phi_of_gap_array, _rows_lse, _rows_sum


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

    The sequential reference: multi-start safeguarded projected Newton
    descent with the stop tests of ``newton_box_min``, one start after
    another; one iteration is ``_newton_step`` on one ``WeightedCondRisk`` row.

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


def box_starts(fixed, seeds, draws, lo, hi):
    """Problem ``b``'s starts: its fixed ones ``fixed[b]`` (f, d), then the
    draws of ``draws`` ``uniform(lo, hi, d)`` calls on
    ``np.random.default_rng(seeds[b])``, bit for bit; (B, f + draws, d)."""
    B, f, d = fixed.shape
    starts = np.concatenate([fixed, np.empty((B, draws, d))], axis=1)
    for b, seed in enumerate(seeds):
        np.random.default_rng(seed).random(out=starts[b, f:])
    # uniform's own arithmetic: low + (high - low) * U
    starts[:, f:] *= hi - lo
    starts[:, f:] += lo
    return starts


def newton_box_min(obj, starts, lam, max_iter, gtol):
    """Minimize each row ``b`` of ``obj`` over ``[-lam, lam]`` from its
    starts ``starts[b]`` (k, d), clipped into the box, each start one row
    of one lockstep run. A start stops when its unit-step projected-gradient
    norm is at most ``gtol``, when its Newton arc finds no decrease
    (numerically stationary), or when its value has not moved over a
    64-iteration window (the gradient test can stay above tolerance at float
    resolution on very flat objectives); only a start still running at
    ``max_iter`` has not converged. Starts leave the arrays as they stop.
    Returns per problem the first least value in start order (a NaN never
    wins; with none below inf, inf at a NaN point), its point, and whether
    every start converged.
    """
    B, k, d = starts.shape
    obj = obj.rows(np.repeat(np.arange(B), k))
    f_out = np.empty((B, k))
    x_out = np.empty((B, k, d))
    conv_out = np.zeros((B, k), dtype=bool)

    rows = np.arange(B * k)
    x = np.clip(starts.reshape(-1, d), -lam, lam)
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
            f_out.flat[done] = fx[stop]
            x_out.reshape(-1, d)[done] = x[stop]
            conv_out.flat[done] = True
            keep = ~stop
            rows, x, obj = rows[keep], x[keep], obj.rows(keep)
            fx, f_checkpoint = fx[keep], f_checkpoint[keep]
    f_out.flat[rows] = fx
    x_out.reshape(-1, d)[rows] = x
    best_f, best_x = np.full(B, np.inf), np.full((B, d), np.nan)
    for si in range(k):
        lower = f_out[:, si] < best_f
        best_f[lower], best_x[lower] = f_out[lower, si], x_out[lower, si]
    return best_f, best_x, conv_out.all(axis=1)
