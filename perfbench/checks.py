"""Correctness checks of the benchmark's outputs.

Every check returns a list of error strings (empty when the output is
right). The reference formulas here are written out from the paper's
closed forms and do not call ``compsum``, so a fault in the package cannot
pass its own check.
"""

import math

import numpy as np

# tolerances, as the acceptance criteria and suites state them
ORACLE_TOL = 1e-6          # |brute - closed|
ORACLE_BELOW_TOL = 1e-9    # brute may not undercut the closed form by more
GOLDEN_TOL = 1e-9          # scalar-kernel values recorded for the bench cases
TIGHTNESS_TOL = 1e-9
BOUNDS_SLACK_TOL = 1e-9
ADV_SLACK_TOL = 1e-6
ROUNDTRIP_TOL = 1e-12


# -- reference formulas ------------------------------------------------------

def t_tau_ref(beta, tau):
    """Consistency transform for tau in [0, 1] (the tightness range)."""
    if tau == 1.0:
        hi = (1.0 + beta) * math.log1p(beta)
        lo = 0.0 if beta == 1.0 else (1.0 - beta) * math.log1p(-beta)
        return 0.5 * (hi + lo)
    r = 1.0 / (2.0 - tau)
    mean = 0.5 * ((1.0 + beta) ** r + (1.0 - beta) ** r)
    return 2.0 ** (1.0 - tau) / (1.0 - tau) * (1.0 - mean ** (2.0 - tau))


def t_tau_linear_ref(beta, tau, n):
    """Consistency transform for tau >= 2, where it is linear."""
    return beta / ((tau - 1.0) * n ** (tau - 1.0))


def phi_ref(u, tau):
    """Outer transform of the comp-sum family."""
    if tau == 1.0:
        return math.log1p(u)
    return ((1.0 + u) ** (1.0 - tau) - 1.0) / (1.0 - tau)


def gap_bound_ref(lam, n, r_star, tau):
    """Deterministic-case gap bound: phi(r*) - phi(c*), c* = e^{-2 lam}(n-1)."""
    c0 = math.exp(-2.0 * lam) * (n - 1)
    return phi_ref(r_star, tau) - phi_ref(c0, tau)


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# -- oracle ------------------------------------------------------------------

def check_oracle_value(value, closed, golden=None):
    errors = []
    if not abs(value - closed) <= ORACLE_TOL:
        errors.append(f"brute {value!r} misses closed {closed!r} by "
                      f"{value - closed:.3e}")
    elif value < closed - ORACLE_BELOW_TOL:
        errors.append(f"brute {value!r} below closed {closed!r} by "
                      f"{closed - value:.3e}")
    if golden is not None and not abs(value - golden) <= GOLDEN_TOL:
        errors.append(f"brute {value!r} differs from the scalar kernel's "
                      f"{golden!r} by {value - golden:.3e}")
    return errors


# -- learning bound ----------------------------------------------------------

def check_learning_bounds(results, tau, n):
    """``results`` maps a seed to [(m, result), ...] in increasing m."""
    errors = []
    tmax = t_tau_linear_ref(1.0, tau, n)
    for seed, rows in results.items():
        prev = math.inf
        for m, r in rows:
            where = f"seed {seed}, m={m}"
            if not 0.0 <= r.bound <= 1.0:
                errors.append(f"{where}: bound {r.bound} outside [0, 1]")
            if r.realized_excess > r.bound:
                errors.append(f"{where}: realized excess {r.realized_excess}"
                              f" above the bound {r.bound}")
            if r.bound > prev:
                errors.append(f"{where}: bound {r.bound} rose above {prev}")
            prev = r.bound
            if r.m_gap != 0.0:
                errors.append(f"{where}: score-box gap {r.m_gap} is not 0")
            if r.vacuous:
                if r.bound != 1.0 or not r.arg > tmax:
                    errors.append(f"{where}: vacuous bound {r.bound} at "
                                  f"argument {r.arg} (range {tmax})")
            elif not _close(t_tau_linear_ref(r.bound, tau, n), r.arg,
                            ROUNDTRIP_TOL):
                errors.append(f"{where}: transform of bound {r.bound} is "
                              f"{t_tau_linear_ref(r.bound, tau, n)}, not "
                              f"the argument {r.arg}")
    return errors


# -- verify ------------------------------------------------------------------

def parse_csv(text):
    """(header fields, data rows as field lists); '#' lines are dropped."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def check_cli_run(suite, code, stdout):
    errors = []
    if code != 0:
        errors.append(f"verify --suite {suite} exited {code}")
    if "violations=0" not in stdout.split():
        errors.append(f"verify --suite {suite} reported {stdout.strip()!r}")
    return errors


def check_tightness_rows(header, rows, expect_rows):
    errors = []
    if header != ["tau", "beta", "zero_one_side", "surrogate_side",
                  "expected_surrogate"]:
        return [f"tightness header {header}"]
    if len(rows) != expect_rows:
        errors.append(f"tightness has {len(rows)} rows, not {expect_rows}")
    for row in rows:
        tau, beta, zo, sur, expected = map(float, row)
        ref = t_tau_ref(beta, tau)
        if abs(zo - beta) > TIGHTNESS_TOL:
            errors.append(f"tightness tau={tau} beta={beta}: zero-one side "
                          f"{zo}")
        if abs(sur - ref) > TIGHTNESS_TOL:
            errors.append(f"tightness tau={tau} beta={beta}: surrogate side "
                          f"{sur}, closed form {ref}")
        if not _close(expected, ref, ROUNDTRIP_TOL):
            errors.append(f"tightness tau={tau} beta={beta}: expected "
                          f"{expected}, closed form {ref}")
    return errors


def check_gap_rows(header, rows, expect_rows):
    if header[:4] != ["config", "lam", "n", "r_star"]:
        return [f"gaps header {header}"]
    taus = [float(h[len("mtilde_tau"):]) for h in header[4:]]
    errors = []
    if len(rows) != expect_rows:
        errors.append(f"gaps has {len(rows)} rows, not {expect_rows}")
    for row in rows:
        lam, n, r_star = float(row[1]), int(row[2]), float(row[3])
        for tau, cell in zip(taus, row[4:]):
            ref = gap_bound_ref(lam, n, r_star, tau)
            if not _close(float(cell), ref, 1e-9):
                errors.append(f"gaps config {row[0]} tau={tau}: {cell}, "
                              f"closed form {ref}")
    return errors


def check_slack_rows(header, rows, tol, smooth):
    """``slack = rhs - lhs`` exactly, ``slack >= -tol`` and, when
    ``smooth``, ``rhs_smooth >= rhs``. Rows without numbers (the gated
    non-symmetric fixture) must carry a precondition flag."""
    col = {name: i for i, name in enumerate(header)}
    errors = []
    for row in rows:
        lhs, rhs, slack = (float(row[col[k]]) for k in ("lhs", "rhs", "slack"))
        if math.isnan(slack):
            if "precondition_unmet" not in row[col["flags"]]:
                errors.append(f"row without a slack and without a flag: {row}")
            continue
        if slack != rhs - lhs:
            errors.append(f"slack {slack} is not rhs - lhs = {rhs - lhs}")
        if slack < -tol:
            errors.append(f"slack {slack} below -{tol}")
        if smooth and not float(row[col["rhs_smooth"]]) >= rhs:
            errors.append(f"rhs_smooth {row[col['rhs_smooth']]} below rhs "
                          f"{rhs}")
    return errors


# -- train -------------------------------------------------------------------

def read_checkpoint(data):
    """(kind, parameter arrays) from checkpoint bytes: an ASCII header line
    ``compsum-model <kind> <dims...>``, then little-endian float64."""
    head, _, body = data.partition(b"\n")
    fields = head.decode("ascii").split()
    if len(fields) < 2 or fields[0] != "compsum-model":
        raise ValueError(f"bad checkpoint header {head!r}")
    kind, dims = fields[1], [int(v) for v in fields[2:]]
    flat = np.frombuffer(body, dtype="<f8").astype(np.float64)
    if kind == "mlp":
        dim, hidden, n = dims
        shapes = [(dim, hidden), (hidden,), (hidden, n), (n,)]
    elif kind == "linear":
        dim, n = dims
        shapes = [(n, dim), (n,)]
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    sizes = [int(np.prod(s)) for s in shapes]
    if flat.size != sum(sizes):
        raise ValueError(f"checkpoint holds {flat.size} floats, expected "
                         f"{sum(sizes)}")
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return kind, [p.reshape(s) for p, s in zip(parts, shapes)]


def clean_accuracy(ckpt_bytes, X, y):
    """Clean accuracy by a forward pass of our own; argmax ties go to the
    highest label, as everywhere in the package."""
    kind, params = read_checkpoint(ckpt_bytes)
    if kind == "mlp":
        W1, b1, W2, b2 = params
        scores = np.tanh(X @ W1 + b1) @ W2 + b2
    else:
        W, b = params
        scores = X @ W.T + b
    pred = scores.shape[1] - 1 - np.argmax(scores[:, ::-1], axis=1)
    return float((pred == y).mean())


def check_metrics_rows(name, header, rows, epochs, adversarial):
    errors = []
    if header != ["epoch", "lr", "train_loss", "clean_acc", "robust_acc",
                  "checkpoint_flag"]:
        return [f"{name}: metrics header {header}"]
    if [int(r[0]) for r in rows] != list(range(epochs)):
        errors.append(f"{name}: epochs {[r[0] for r in rows]}, expected "
                      f"0..{epochs - 1}")
    for r in rows:
        vals = [float(v) for v in r[1:4]]
        if adversarial:
            vals.append(float(r[4]))
        if not all(math.isfinite(v) for v in vals):
            errors.append(f"{name}: epoch {r[0]} has a non-finite value")
        elif adversarial and vals[3] > vals[2]:
            errors.append(f"{name}: epoch {r[0]} robust accuracy {vals[3]} "
                          f"above clean {vals[2]}")
    return errors


def check_evaluation(name, ckpt_bytes, X, y, metrics, rows, adversarial):
    """The checkpoint's clean accuracy, recomputed, must equal evaluate's
    figure and the metrics row of the epoch it came from (the last epoch
    for standard training, the last flagged one for adversarial)."""
    errors = []
    clean, robust = metrics["clean_acc"], metrics["robust_acc"]
    if robust > clean:
        errors.append(f"{name}: robust accuracy {robust} above clean {clean}")
    acc = clean_accuracy(ckpt_bytes, X, y)
    if acc != clean:
        errors.append(f"{name}: checkpoint accuracy {acc} but evaluate "
                      f"reported {clean}")
    src = [r for r in rows if r[5] == "1"][-1] if adversarial else rows[-1]
    if acc != float(src[3]):
        errors.append(f"{name}: checkpoint accuracy {acc} but epoch {src[0]} "
                      f"recorded {src[3]}")
    return errors


def check_adversarial_gain(standard_robust, adversarial_robust):
    if adversarial_robust > standard_robust:
        return []
    return [f"adversarial training's robust accuracy {adversarial_robust} "
            f"does not beat standard training's {standard_robust}"]
