"""Risk-module tests: closed forms against the brute-force oracle, gaps,
finite distributions."""

import dataclasses
import inspect
import math
import re

import numpy as np
import pytest

from compsum import _checks, _kernels, bounds, losses, risk
from compsum.risk import (
    cond_risk,
    cond_risk_star_brute,
    cond_risk_star_closed,
    finite_distribution,
    gap_upper_bound_deterministic,
    linear_family,
    minimizability_gap,
    minimize_weighted_cond_risk,
    minimize_weighted_cond_risk_batch,
    score_box,
)


class TestCondRisk:
    def test_uniform_two_label_logistic(self):
        assert cond_risk([0.0, 0.0], [0.5, 0.5], 1.0) == pytest.approx(
            math.log(2))

    def test_degenerate_distribution(self):
        s = [1.0, 2.0, 0.0]
        assert cond_risk(s, [0, 1, 0], 1.3) == pytest.approx(
            losses.comp_sum_loss(s, 1, 1.3))

    def test_independent_summation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.choice([2, 3, 5]))
            s = rng.normal(size=n)
            p = rng.dirichlet(np.ones(n))
            direct = sum(p[y] * losses.comp_sum_loss(s, y, 0.8)
                         for y in range(n))
            assert cond_risk(s, p, 0.8) == pytest.approx(direct, abs=1e-14)

    def test_is_a_one_row_call_of_the_oracle_objective(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.choice([2, 3, 5, 10, 16]))
            s = rng.normal(scale=3.0, size=n)
            p = rng.dirichlet(np.ones(n))
            tau = float(rng.uniform(0.0, 3.0))
            assert cond_risk(s, p, tau) == _kernels.weighted_cond_value(
                s[None], p[None], tau)[0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cond_risk([0.0, 0.0], [0.5, 0.3, 0.2], 1.0)

    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            cond_risk([0.0, 0.0], [0.6, 0.6], 1.0)


@pytest.mark.parametrize("p", [[math.nan, 1.0], [0.5, math.nan],
                               [math.nan, math.nan]])
@pytest.mark.parametrize("call", [
    _checks.cond_dist,
    lambda p: cond_risk([0.0, 0.0], p, 1.0),
    lambda p: cond_risk_star_closed(p, 1.0),
], ids=["check_cond_dist", "cond_risk", "cond_risk_star_closed"])
def test_nan_probability_raises(call, p):
    with pytest.raises(ValueError, match="must be finite"):
        call(p)


class TestClosedForm:
    def test_uniform_entropy(self):
        for n in (2, 4, 10):
            assert cond_risk_star_closed([1 / n] * n, 1.0) == pytest.approx(
                math.log(n))

    def test_mae_branch(self):
        assert cond_risk_star_closed([0.7, 0.3], 2.0) == pytest.approx(0.3)

    def test_onehot_vanishes(self):
        for tau in (0.0, 0.5, 1.0, 2.0, 3.0):
            assert cond_risk_star_closed([1.0, 0.0, 0.0], tau) == \
                pytest.approx(0.0, abs=1e-15)

    def test_above_two_is_vertex_value(self):
        # concave in softmax coordinates above tau = 2: the infimum is the
        # degenerate vertex limit, not the interior stationary point
        p = [0.5, 0.3, 0.15, 0.05]
        assert cond_risk_star_closed(p, 3.0) == pytest.approx(0.25)

    def test_continuity_in_tau_at_two(self):
        p = [0.55, 0.3, 0.15]
        base = cond_risk_star_closed(p, 2.0)
        assert cond_risk_star_closed(p, 2.0 - 1e-7) == pytest.approx(
            base, abs=1e-5)
        assert cond_risk_star_closed(p, 2.0 + 1e-7) == pytest.approx(
            base, abs=1e-5)

    def test_rows_forms_equal_one_call_per_row(self):
        # each row at its own tau, zero probabilities and n >= 8 included
        rng = np.random.default_rng(12)
        for n in (2, 3, 5, 9):
            P = rng.dirichlet(np.ones(n), size=40)
            P[::5, 0] = 0.0
            P /= P.sum(axis=1, keepdims=True)
            taus = rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 3.0], 40)
            stars = risk.cond_risk_star_closed_rows(P, taus)
            scores = risk.optimal_scores_rows(P, taus, lam=12.0)
            for p, tau, star, s in zip(P, taus, stars, scores):
                assert star == cond_risk_star_closed(p, tau)
                assert np.array_equal(s, optimal_scores(p, tau, lam=12.0))


class TestBruteOracle:
    def test_matches_entropy(self):
        res = cond_risk_star_brute([0.7, 0.3], 1.0, score_box(2, 30.0), seed=0)
        expected = 0.7 * math.log(1 / 0.7) + 0.3 * math.log(1 / 0.3)
        assert res.value == pytest.approx(expected, abs=1e-9)

    def test_onehot_drains_to_floor(self):
        res = cond_risk_star_brute([0.0, 1.0, 0.0], 0.5,
                                   score_box(3, 20.0), seed=0)
        assert res.value == pytest.approx(0.0, abs=1e-6)
        assert res.scores[1] > res.scores[0]

    def test_oversized_box_is_refused(self):
        # 2 * lam overflows, so no start can be drawn from [-lam, lam]
        with pytest.raises(ValueError, match="too wide"):
            cond_risk_star_brute([0.5, 0.5], 1.0, score_box(2, 1e308))

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(2)
        for i in range(40):
            n = int(rng.choice([2, 3, 5, 10]))
            tau = float(rng.uniform(0.0, 3.0))
            p = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
            if abs(2 - tau) > 1e-9 and \
                    abs(1 / (2 - tau)) * math.log(p.max() / p.min()) > 48.0:
                continue
            res = cond_risk_star_brute(p, tau, score_box(n, 30.0), seed=i)
            assert res.value == pytest.approx(
                cond_risk_star_closed(p, tau), abs=1e-6)

    def test_box_infimum_converges_to_closed_form(self):
        # completeness in practice: the box value decreases to the
        # complete-set value as the box grows
        p = np.array([0.6, 0.3, 0.1])
        closed = cond_risk_star_closed(p, 0.5)
        prev = math.inf
        for lam in (5.0, 15.0, 30.0):
            v = cond_risk_star_brute(p, 0.5, score_box(3, lam), seed=1).value
            assert v >= closed - 1e-9
            assert v <= prev + 1e-12
            prev = v
        assert prev == pytest.approx(closed, abs=1e-8)

    def test_deterministic_case_closed_form(self):
        # deterministic labels: the box optimum is the transform of
        # exp(-2 lam) * (n - 1)
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.choice([2, 3, 5]))
            lam = float(rng.uniform(0.5, 3.0))
            tau = float(rng.uniform(0.0, 2.5))
            p = np.zeros(n)
            p[int(rng.integers(0, n))] = 1.0
            res = cond_risk_star_brute(p, tau, score_box(n, lam), seed=5)
            expected = losses.phi_tau(math.exp(-2 * lam) * (n - 1), tau)
            assert res.value == pytest.approx(expected, abs=1e-8)

    def test_signed_weights_supremum(self):
        # negated coefficients turn the minimizer into a supremum oracle
        c = np.array([0.5, -0.5])
        res = minimize_weighted_cond_risk(-c, 1.0, 2.0, seed=0)
        sup = -res.value
        assert sup > 0.0

    def test_requires_score_box(self):
        with pytest.raises(ValueError):
            cond_risk_star_brute([0.5, 0.5], 1.0, linear_family(2, 1), seed=0)


class TestBatchOracle:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_single_problem_oracle(self, n):
        rng = np.random.default_rng(n)
        C = rng.dirichlet(np.ones(n), size=6)
        C[1::2] *= -1.0  # negated rows: suprema
        lam = 3.0
        seeds = [10 * n + b for b in range(6)]
        for tau in (0.5, 1.0, 1.5, 2.5):
            batch = minimize_weighted_cond_risk_batch(C, tau, lam, seeds)
            assert len(batch) == len(C)
            for c, seed, got in zip(C, seeds, batch):
                want = minimize_weighted_cond_risk(c, tau, lam, seed=seed)
                assert got.value == want.value
                assert np.array_equal(got.scores, want.scores)
                assert got.converged == want.converged
                if tau <= 1.0 and c[0] < 0:
                    # for tau <= 1 the weighted loss is convex in the
                    # scores, and a convex function peaks at a box vertex
                    assert np.all(np.abs(want.scores) == lam)

    def test_matches_single_problem_oracle_ten_labels(self):
        rng = np.random.default_rng(10)
        C = rng.dirichlet(np.ones(10), size=3) * 0.9 + 0.01
        seeds = [3, 4, 5]
        batch = minimize_weighted_cond_risk_batch(C, 1.6, 30.0, seeds)
        for c, seed, got in zip(C, seeds, batch):
            want = minimize_weighted_cond_risk(c, 1.6, 30.0, seed=seed)
            assert got.converged and want.converged
            assert got.value == want.value
            assert np.array_equal(got.scores, want.scores)
            assert abs(got.value - cond_risk_star_closed(c, 1.6)) <= 1e-9

    def test_batch_of_one_equals_the_reference(self):
        c = np.array([0.2, 0.5, 0.3])
        (got,) = minimize_weighted_cond_risk_batch([c], 1.3, 5.0, [4])
        (starts,) = risk.pgd_starts(c[None], 5.0, [4])
        value, scores, conv = _kernels.pgd_box_weighted_min(
            c, 1.3, 5.0, starts, 10000, risk.ORACLE_GTOL)
        assert got.value == value
        assert np.array_equal(got.scores, scores)
        assert got.converged == conv

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
    def test_mixed_batch_rows_equal_their_own_calls(self, monkeypatch, tau):
        # convex rows (nonnegative weights) and the rest interleaved: one
        # engine call per start rule, each row as it is alone
        C = np.array([[0.5, 0.3, 0.2], [0.5, -0.3, 0.2], [0.0, 1.0, 0.0],
                      [-0.5, -0.3, -0.2], [0.7, 0.0, 0.3], [0.1, 0.2, -0.3]])
        seeds = [4, 5, 6, 7, 8, 9]
        shapes = engine_shapes(monkeypatch)
        batch = minimize_weighted_cond_risk_batch(C, tau, 3.0, seeds)
        assert shapes == [(3, 1, 3), (3, 8, 3)]
        for c, seed, got in zip(C, seeds, batch):
            want = minimize_weighted_cond_risk(c, tau, 3.0, seed=seed)
            assert got.value == want.value
            assert np.array_equal(got.scores, want.scores)
            assert got.converged == want.converged

    def test_empty_batch_and_shape_errors(self):
        assert minimize_weighted_cond_risk_batch(np.zeros((0, 2)), 1.0, 1.0,
                                                 []) == []
        with pytest.raises(ValueError):
            minimize_weighted_cond_risk_batch([[0.5, 0.5]], 1.0, 1.0, [0, 1])

    @pytest.mark.parametrize("C, lam, seeds, field", [
        ([[0.5, np.nan]], 1.0, [0], "C"),
        ([[0.5, 0.5], [np.inf, 0.5]], 1.0, [0, 1], "C"),
        (np.zeros((1, 0)), 1.0, [0], "C"),
        ([0.5, 0.5], 1.0, [0], "C"),
        ([[0.5, 0.5]], -1.0, [0], "lam"),
        ([[0.5, 0.5]], np.nan, [0], "lam"),
        ([[0.5, 0.5]], 1e308, [0], "lam"),
        ([[0.5, 0.5]], 1.0, [1.5], "seeds"),
        ([[0.5, 0.5]], 1.0, [-1], "seeds"),
        ([[0.5, 0.5]], 1.0, [True], "seeds"),
        ([[0.5, 0.5]], 1.0, ["0"], "seeds"),
    ])
    def test_bad_input_names_the_argument(self, C, lam, seeds, field):
        with pytest.raises(ValueError, match=f"^{field}[ :]"):
            minimize_weighted_cond_risk_batch(C, 1.0, lam, seeds)


def reference_starts(c, lam, rng):
    """One problem's starts built row by row, as the oracle built them
    before its starts came from one array per batch: zeros, the corners
    of the largest and the smallest weight, five ``uniform`` calls."""
    n = len(c)
    hi = np.full(n, -lam)
    hi[int(np.argmax(c))] = lam
    lo = np.full(n, -lam)
    lo[int(np.argmin(c))] = lam
    return np.stack([np.zeros(n), hi, lo] + [
        rng.uniform(-lam, lam, size=n) for _ in range(risk.ORACLE_STARTS - 3)])


@pytest.mark.parametrize("n", [2, 3, 5, 10])
@pytest.mark.parametrize("lam", [0.0, 1e-3, 1.5, 7.25, 30.0, 1e300])
def test_batch_starts_equal_the_per_problem_reference(n, lam):
    rng = np.random.default_rng(n)
    C = rng.dirichlet(np.ones(n), size=6)
    C[1] = 1.0 / n  # every weight tied
    C[2, :2] = C[2].max()  # tied maxima, the first wins
    C[3] *= -1.0
    seeds = [0, 1, 7, 2**40 + 3, 12345, n]
    starts = risk.pgd_starts(C, lam, seeds)
    want = np.stack([reference_starts(c, lam, np.random.default_rng(s))
                     for c, s in zip(C, seeds)])
    assert starts.shape == (6, risk.ORACLE_STARTS, n)
    assert np.array_equal(starts, want)
    assert np.array_equal(np.signbit(starts), np.signbit(want))


def optimal_scores(p, tau, lam=risk.UNBOUNDED_BOX_LAM):
    """The closed-form minimizer of one conditional, as a one-row call."""
    return risk.optimal_scores_rows(np.array([p], dtype=np.float64),
                                    np.array([tau], dtype=np.float64), lam)[0]


def stationarity_residual(p, tau):
    """Independent oracle: the score-sum form of the risk derivative.

    For each label, ``p_y (1 - S_y) / S_y^tau + sum_{y' != y} p_{y'} /
    (S_{y'}^{tau-1} S_y)`` must vanish at the optimal sums.
    """
    p = np.asarray(p, dtype=np.float64)
    r = 1.0 / (2.0 - tau)
    S = (p ** r).sum() / p ** r
    res = np.empty_like(p)
    for y in range(p.size):
        other = sum(p[j] / (S[j] ** (tau - 1.0) * S[y])
                    for j in range(p.size) if j != y)
        res[y] = p[y] * (1.0 - S[y]) / S[y] ** tau + other
    return res


def criterion2_draw(gen_seed, index):
    """The ``index``-th (0-based) accepted (p, tau) draw of the acceptance
    criterion-2 generator with generator seed ``gen_seed``."""
    rng = np.random.default_rng(gen_seed)
    count = -1
    while True:
        n = int(rng.choice([2, 3, 5, 10]))
        tau = float(rng.uniform(0.0, 3.0))
        p = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
        if abs(2.0 - tau) > 1e-9 and \
                abs(1.0 / (2.0 - tau)) * math.log(p.max() / p.min()) > 48.0:
            continue
        count += 1
        if count == index:
            return p, tau


def count_grad_evals(monkeypatch):
    """Count the oracle's gradient evaluations from here on: ``[rows,
    iterations]``, one row per start of each lockstep iteration, which
    evaluates every start's gradient in one call."""
    calls = [0, 0]
    original = _kernels.weighted_cond_value_grad

    def counted(S, C, tau):
        calls[0] += S.shape[0]
        calls[1] += 1
        return original(S, C, tau)

    monkeypatch.setattr(_kernels, "weighted_cond_value_grad", counted)
    return calls


def engine_shapes(monkeypatch):
    """Record the starts' shape of each oracle engine call from here on."""
    shapes = []
    engine = _kernels.newton_box_min

    def counted(obj, starts, lam, max_iter, gtol):
        shapes.append(starts.shape)
        return engine(obj, starts, lam, max_iter, gtol)

    monkeypatch.setattr(risk, "newton_box_min", counted)
    return shapes


# the 30 ``oracle`` benchmark instances: criterion-2 draws 1-20 seeded with
# their draw number, and the former backend-bench cases 0-9 (generator seed
# 0) seeded with their case number
ORACLE_INSTANCES = ([(20240811, k - 1, k) for k in range(1, 21)]
                    + [(0, k, k) for k in range(10)])


@pytest.mark.parametrize("gen_seed, index, seed", ORACLE_INSTANCES)
def test_oracle_equals_the_sequential_reference(gen_seed, index, seed):
    p, tau = criterion2_draw(gen_seed, index)
    res = cond_risk_star_brute(p, tau, score_box(len(p), 30.0), seed=seed)
    ((_, starts),) = risk.oracle_starts(p[None], tau, 30.0, [seed])
    value, scores, conv = _kernels.pgd_box_weighted_min(
        p, tau, 30.0, starts[0], 10000, risk.ORACLE_GTOL)
    assert res.value == value
    assert np.array_equal(res.scores, scores)
    assert res.converged == conv


def test_oracle_round_work(monkeypatch):
    # the ``oracle`` benchmark round: its 12 instances at tau <= 1 are
    # convex and run one start each, the other 18 eight (897 iterations and
    # 4 375 rows when all 30 ran eight)
    calls = count_grad_evals(monkeypatch)
    for gen_seed, index, seed in ORACLE_INSTANCES:
        p, tau = criterion2_draw(gen_seed, index)
        assert cond_risk_star_brute(p, tau, score_box(len(p), 30.0),
                                    seed=seed).converged
    assert calls == [2093, 540]


@pytest.mark.parametrize("p", [
    [0.7, 0.3, 0.0], [1.0, 0.0], [0.0, 1.0, 0.0], [0.3, 0.3, 0.0, 0.4],
    [0.5, 0.0, 0.25, 0.25, 0.0], [0.0] * 9 + [1.0]])
def test_zero_weight_conditionals_reach_the_minimum(p):
    # the one convex start against the eight starts, and against every
    # start of both rules run to a gradient test a thousand times tighter;
    # started at 0 in place of lam, [0.3, 0.3, 0, 0.4] at tau 0.5 and lam
    # 12 stops 1.4e-10 above the minimum, and the one-hot ten labels
    # 8.4e-13 above it at lam 30
    p = np.array(p)
    for tau in (0.0, 0.5, 1.0):
        for lam in (1.0, 12.0, 30.0):
            res = minimize_weighted_cond_risk(p, tau, lam, seed=3)
            obj = _kernels.WeightedCondRisk(p[None], tau)
            ((_, one),) = risk.oracle_starts(p[None], tau, lam, [3])
            eight = risk.pgd_starts(p[None], lam, [3])
            (eight_value,), _, _ = _kernels.newton_box_min(
                obj, eight, lam, 10000, risk.ORACLE_GTOL)
            (least,), _, _ = _kernels.newton_box_min(
                obj, np.concatenate([one, eight], axis=1), lam, 10000,
                1e-3 * risk.ORACLE_GTOL)
            assert res.converged
            assert one.shape == (1, 1, len(p))
            assert res.value <= eight_value + 1e-13
            assert res.value <= least + 1e-13


class _StepObjective:
    """Every row is ``f(x) = NaN`` for ``x < 0``, ``floor(x)`` on
    ``[0, 4)`` (gradient 0) and ``x`` from 4 on (gradient 1)."""

    def value(self, X):
        x = X[:, 0]
        with np.errstate(invalid="ignore"):
            return np.where(x < 0.0, np.nan, np.where(x >= 4.0, x,
                                                       np.floor(x)))

    def value_grad(self, X):
        return self.value(X), (X >= 4.0) * 1.0

    def hessian(self, X):
        return np.ones((X.shape[0], 1, 1))

    def rows(self, keep):
        return self


def test_engine_picks_the_first_least_start_and_needs_every_start():
    starts = np.array([
        [-0.5, 2.2, 1.3, 1.7],  # NaN first, then 2 and a tie at 1
        [2.2, 1.3, 1.7, -0.5],  # the tie first, NaN last
        [0.5, 0.9, 4.5, 2.0],  # 4.5 steps to 3.5 and is cut by the cap
    ])[:, :, None]
    f, x, conv = _kernels.newton_box_min(_StepObjective(), starts, 10.0, 1,
                                         1e-10)
    assert f.tolist() == [1.0, 1.0, 0.0]
    assert x.tolist() == [[1.3], [1.3], [0.5]]
    assert conv.tolist() == [True, True, False]
    # without the cap every start converges
    assert _kernels.newton_box_min(_StepObjective(), starts, 10.0, 10000,
                                   1e-10)[2].tolist() == [True, True, True]


def test_one_problem_is_one_lockstep_call(monkeypatch):
    def sequential(*args):
        raise AssertionError("the one-problem kernel ran")

    rows = []
    engine = _kernels.newton_box_min

    def counted(obj, starts, lam, max_iter, gtol):
        rows.append(starts.shape)
        return engine(obj, starts, lam, max_iter, gtol)

    monkeypatch.setattr(risk, "pgd_box_weighted_min", sequential)
    monkeypatch.setattr(risk, "newton_box_min", counted)
    res = minimize_weighted_cond_risk(np.array([0.45, 0.3, 0.15, 0.1]), 1.6,
                                      30.0, seed=2)
    assert res.converged
    assert rows == [(1, risk.ORACLE_STARTS, 4)] == [(1, 8, 4)]


@pytest.mark.parametrize("c, tau, shape", [
    ([0.45, 0.3, 0.15, 0.1], 1.0, (1, 1, 4)),
    ([0.45, 0.3, 0.25, 0.0], 0.0, (1, 1, 4)),
    ([0.45, -0.3, 0.15, 0.1], 0.5, (1, 8, 4)),
    ([0.45, 0.3, 0.15, 0.1], 1.0 + 1e-9, (1, 8, 4)),
])
def test_convex_problem_runs_one_start(monkeypatch, c, tau, shape):
    # nonnegative weights at tau <= 1 run one start and draw nothing
    shapes, generators = engine_shapes(monkeypatch), []
    default_rng = np.random.default_rng

    def counted_rng(seed):
        generators.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    res = minimize_weighted_cond_risk(np.array(c), tau, 30.0, seed=2)
    assert res.converged
    assert shapes == [shape]
    assert generators == ([] if shape[1] == 1 else [2])


def test_one_problem_kernel_call_pattern(monkeypatch):
    # the benchmark's tracer wraps the one-problem kernel with this
    # signature, and counts oracle starts and gradient evaluations through
    # two module globals: the value is called exactly once per start on the
    # first buffer it sees, and every gradient call follows the first start
    assert list(inspect.signature(risk.pgd_box_weighted_min).parameters) == [
        "c", "tau", "lam", "starts", "max_iter", "gtol"]
    events, start_buf = [], []
    value = _kernels.weighted_cond_value
    value_grad = _kernels.weighted_cond_value_grad

    def counted_value(S, C, tau):
        if not start_buf:
            start_buf.append(S)
        if S is start_buf[0]:
            events.append("start")
        return value(S, C, tau)

    def counted_grad(S, C, tau):
        events.append("grad")
        return value_grad(S, C, tau)

    monkeypatch.setattr(_kernels, "weighted_cond_value", counted_value)
    monkeypatch.setattr(_kernels, "weighted_cond_value_grad", counted_grad)
    c = np.array([0.45, 0.3, 0.15, 0.1])
    (starts,) = risk.pgd_starts(c[None], 30.0, [2])
    _, _, conv = risk.pgd_box_weighted_min(c, 1.6, 30.0, starts, 10000,
                                           1e-10)
    assert conv
    assert events.count("start") == 8
    assert events[0] == "start"
    assert events.count("grad") > 8


class TestHessian:
    def central_differences(self, S, C, tau, h=1e-5):
        fd = np.empty(S.shape + (S.shape[1],))
        for j in range(S.shape[1]):
            e = np.zeros(S.shape[1])
            e[j] = h
            fd[:, :, j] = (_kernels.weighted_cond_value_grad(S + e, C, tau)[1]
                           - _kernels.weighted_cond_value_grad(S - e, C, tau)[1]
                           ) / (2.0 * h)
        return fd

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
    def test_matches_central_differences(self, tau):
        rng = np.random.default_rng(int(10 * tau))
        for n in (2, 3, 5, 10):
            S = rng.normal(scale=2.0, size=(6, n))
            C = rng.dirichlet(np.ones(n), size=6)
            C[1::2] *= -1.0  # negated rows: suprema
            H = _kernels.weighted_cond_hessian(S, C, tau)
            assert H.shape == (6, n, n)
            assert np.array_equal(H, np.swapaxes(H, 1, 2))
            fd = self.central_differences(S, C, tau)
            for got, want in zip(H, fd):
                assert np.abs(got - want).max() <= 1e-7 * max(
                    1.0, np.abs(want).max())

    def test_saturated_row_matches_saturated_gradient(self):
        # label 1 sits 805 below the top: (1 - tau) v passes EXP_CAP, its
        # loss and derivative saturate, and phi'' drops out
        S = np.array([[0.0, -800.0, 5.0], [0.3, -0.2, 0.1]])
        C = np.array([[0.3, 0.5, 0.2], [-0.3, 0.5, -0.2]])
        H = _kernels.weighted_cond_hessian(S, C, 0.0)
        assert np.all(np.isfinite(H))
        fd = self.central_differences(S, C, 0.0)
        for got, want in zip(H, fd):
            assert np.abs(got - want).max() <= 1e-7 * np.abs(want).max()


class TestNewtonOracle:
    @pytest.mark.parametrize("gen_seed, index, seed", [
        (20240811, 15, 16),  # criterion-2 draw 16: n = 10, tau ~ 1.663
        (0, 7, 7),           # former backend-bench case 7: n = 5, tau ~ 1.351
    ])
    def test_formerly_capped_instances_converge(self, gen_seed, index, seed):
        # both ran starts to the 10 000-iteration cap under first-order steps
        p, tau = criterion2_draw(gen_seed, index)
        res = cond_risk_star_brute(p, tau, score_box(len(p), 30.0), seed=seed)
        assert res.converged
        assert abs(res.value - cond_risk_star_closed(p, tau)) <= 1e-9

    @pytest.mark.parametrize("p, tau, lam, top, bottom", [
        ([0.7, 0.2, 0.1], 0.5, 0.5, 0, 2),
        ([0.6, 0.25, 0.1, 0.05], 0.0, 1.0, None, 3),
        ([0.4, 0.35, 0.25], 2.5, 1.0, 0, 2),
        ([0.6, 0.25, 0.1, 0.05], 0.0, 0.5, 0, 3),
    ])
    def test_boundary_minimizer_in_few_steps(self, monkeypatch, p, tau, lam,
                                             top, bottom):
        # minimizers on the box boundary: the coordinates held at a bound
        # leave the Newton system, and the remaining steps converge fast
        # (about 5 gradient evaluations per start; without the active set,
        # 10 to 40)
        calls = count_grad_evals(monkeypatch)
        res = minimize_weighted_cond_risk(np.array(p), tau, lam, seed=3)
        assert res.converged
        if top is None:
            # the complete-set minimizer's spread, 0.5 log 12, fits in the
            # box: the minimizers form a segment along the common shift of
            # the scores, and no point of it is forced onto a bound
            assert abs(res.value - cond_risk_star_closed(p, tau)) <= 1e-12
        else:
            assert res.scores[top] == lam
            assert res.scores[bottom] == -lam
        assert calls[0] <= 8 * 7

    def test_interior_minimizer_matches_closed_form(self, monkeypatch):
        p = np.array([0.5, 0.3, 0.15, 0.05])
        calls = count_grad_evals(monkeypatch)
        for tau in (0.3, 1.0, 1.7):
            res = cond_risk_star_brute(p, tau, score_box(4, 30.0), seed=2)
            assert res.converged
            assert abs(res.value - cond_risk_star_closed(p, tau)) <= 1e-12
            assert np.abs((res.scores - res.scores.mean())
                          - (optimal_scores(p, tau)
                             - optimal_scores(p, tau).mean())).max() <= 1e-6
        assert calls[0] <= 3 * 8 * 80

    def test_failed_newton_arc_is_a_converged_stop(self, monkeypatch):
        # one start's Newton arc finds no decrease at the box vertex (5, -5);
        # that start stops there as numerically stationary
        failed = [0]
        arc_search = _kernels._arc_search

        def counted(*args):
            accepted, xn, fn = arc_search(*args)
            failed[0] += int((~accepted).sum())
            return accepted, xn, fn

        monkeypatch.setattr(_kernels, "_arc_search", counted)
        c = np.array([0.04, -0.06])
        res = minimize_weighted_cond_risk(c, 1.0, 5.0, seed=1)
        assert failed[0] >= 1
        assert res.converged
        assert np.array_equal(res.scores, [5.0, -5.0])
        exact = 0.04 * math.log1p(math.exp(-10.0)) \
            - 0.06 * math.log1p(math.exp(10.0))
        assert abs(res.value - exact) <= 1e-12
        failed[0] = 0
        for got in minimize_weighted_cond_risk_batch([c, c], 1.0, 5.0, [1, 1]):
            assert got.value == res.value
            assert np.array_equal(got.scores, res.scores)
            assert got.converged
        assert failed[0] >= 2

    def test_iteration_cap_is_not_converged(self):
        p = np.array([0.7, 0.2, 0.1])
        assert not minimize_weighted_cond_risk(p, 1.5, 30.0,
                                               max_iter=1).converged
        batch = minimize_weighted_cond_risk_batch([p, p], 1.5, 30.0, [0, 1],
                                                  max_iter=1)
        assert not any(res.converged for res in batch)


class TestOptimalScores:
    def test_stationary_point_residual(self):
        # the power-sum scores are stationary on both sides of tau = 2
        # (above it they are a stationary point but not the minimum)
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.choice([2, 3, 5]))
            p = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
            tau = float(rng.uniform(0.0, 1.9)) if rng.random() < 0.7 \
                else float(rng.uniform(2.1, 3.0))
            assert np.max(np.abs(stationarity_residual(p, tau))) <= 1e-8

    def test_zero_calibration_gap_at_optimum(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.choice([2, 3, 5]))
            p = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
            tau = float(rng.uniform(0.0, 1.9))
            s = optimal_scores(p, tau)
            assert cond_risk(s, p, tau) - cond_risk_star_closed(p, tau) == \
                pytest.approx(0.0, abs=1e-9)

    def test_gap_nonnegative_everywhere(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.choice([2, 3]))
            p = rng.dirichlet(np.ones(n))
            s = rng.normal(scale=2.0, size=n)
            assert cond_risk(s, p, 1.0) - cond_risk_star_closed(p, 1.0) >= \
                -1e-9

    def test_onehot_matching_argmax_with_margin(self):
        p = np.array([0.0, 1.0])
        s = np.array([-10.0, 10.0])
        assert cond_risk(s, p, 1.0) - cond_risk_star_closed(p, 1.0) == \
            pytest.approx(0.0, abs=1e-8)


class TestMinimizabilityGap:
    def test_score_box_decomposes(self):
        dist = finite_distribution([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]])
        assert minimizability_gap(dist, score_box(2, 5.0), 1.0) == 0.0

    def test_score_box_runs_no_oracle(self, monkeypatch):
        def no_oracle(*args):
            raise AssertionError("the score-box gap ran the box oracle")

        monkeypatch.setattr(risk, "pgd_box_weighted_min", no_oracle)
        monkeypatch.setattr(risk, "newton_box_min", no_oracle)
        dist = finite_distribution([0.3, 0.7], [[0.9, 0.1], [0.2, 0.8]])
        for spec in (score_box(2, 1.5), score_box(2)):
            gap = minimizability_gap(dist, spec, 1.7, seed=4)
            assert gap == 0.0 and type(gap) is float
        with pytest.raises(ValueError):
            minimizability_gap(dist, score_box(2, 1.5), -1.0)

    def test_linear_needs_finite_weight_bound(self, monkeypatch):
        def no_oracle(*args):
            raise AssertionError("the box oracle ran on an unbounded box")

        monkeypatch.setattr(risk, "pgd_box_weighted_min", no_oracle)
        monkeypatch.setattr(risk, "newton_box_min", no_oracle)
        dist = finite_distribution([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]],
                                   xs=[[1.0], [-1.0]])
        for bound in (math.inf, 1e308):
            with pytest.raises(ValueError, match="finite weight_bound"):
                minimizability_gap(dist, linear_family(2, 1, bound), 1.0)

    def test_unknown_keyword_raises(self):
        # the gap takes no oracle options; a keyword it would silently
        # drop (max_iter reaches the per-point oracle elsewhere) is an error
        dist = finite_distribution([0.5, 0.5], [[0.85, 0.15], [0.2, 0.8]],
                                   xs=[[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(TypeError, match="bogus"):
            minimizability_gap(dist, score_box(2, 1.0), 1.0, bogus=1)
        with pytest.raises(TypeError, match="max_iter"):
            minimizability_gap(dist, linear_family(2, 2, weight_bound=50.0),
                               1.0, max_iter=1)

    @pytest.mark.filterwarnings("error")
    def test_linear_conflict_is_positive(self):
        # two points with identical features but opposite labels force a
        # shared score vector, whose best is the uniform one: the gap is
        # log 2 - H(0.9, 0.1)
        dist = finite_distribution([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]],
                                   xs=[[1.0], [1.0]])
        gap = minimizability_gap(dist, linear_family(2, 1, weight_bound=10.0),
                                 1.0)
        assert abs(gap - 0.368064207168497) <= 1e-12

    @pytest.mark.filterwarnings("error")
    def test_linear_with_separable_features_vanishes(self):
        # distinguishable features let the joint optimum match the
        # pointwise optima
        dist = finite_distribution([0.5, 0.5], [[0.85, 0.15], [0.2, 0.8]],
                                   xs=[[1.0, 0.0], [0.0, 1.0]])
        gap = minimizability_gap(dist, linear_family(2, 2, weight_bound=50.0),
                                 1.0, seed=3)
        assert abs(gap) <= 1e-12

    @pytest.mark.filterwarnings("error")
    def test_nonnegative(self):
        # two points, six scores and nine affine parameters: the true gap is
        # 0, and both minima are found
        rng = np.random.default_rng(7)
        for i in range(5):
            dist = finite_distribution(
                [0.3, 0.7], rng.dirichlet(np.ones(3), size=2),
                xs=rng.normal(size=(2, 2)))
            gap = minimizability_gap(dist, linear_family(3, 2, weight_bound=5.0),
                                     1.5, seed=i)
            assert 0.0 <= gap <= 1e-12

    @pytest.mark.parametrize("kernel", ["newton_box_min",
                                        "minimize_weighted_cond_risk_batch"])
    def test_unconverged_solve_warns(self, monkeypatch, kernel):
        # an unconverged joint (the newton_box_min call on the linear risk)
        # or per-point (minimize_weighted_cond_risk_batch) solve makes the
        # gap a warned estimate
        original = getattr(risk, kernel)

        def unconverged(obj, *args, **kw):
            out = original(obj, *args, **kw)
            if kernel == "minimize_weighted_cond_risk_batch":
                return [dataclasses.replace(res, converged=False)
                        for res in out]
            if isinstance(obj, risk._LinearRisk):
                return out[:2] + (np.zeros_like(out[2]),)
            return out

        monkeypatch.setattr(risk, kernel, unconverged)
        dist = finite_distribution([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]],
                                   xs=[[1.0], [1.0]])
        with pytest.warns(RuntimeWarning, match="did not converge") as rec:
            gap = minimizability_gap(
                dist, linear_family(2, 1, weight_bound=10.0), 1.0)
        assert len(rec) == 1
        assert abs(gap - 0.368064207168497) <= 1e-12


class TestDeterministicGapBound:
    def test_identity_at_tau_zero(self):
        spec = score_box(5, 2.0)
        c0 = math.exp(-4.0) * 4
        assert gap_upper_bound_deterministic(spec, 0.0, 0.5) == pytest.approx(
            0.5 - c0)

    def test_large_box_limit(self):
        spec = score_box(5, 200.0)
        assert gap_upper_bound_deterministic(spec, 1.0, 0.5) == pytest.approx(
            losses.phi_tau(0.5, 1.0), abs=1e-12)

    def test_domain_error(self):
        spec = score_box(5, 1.0)
        with pytest.raises(ValueError):
            gap_upper_bound_deterministic(spec, 1.0, 1e-9)

    def test_ordering_in_tau(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            lam = float(rng.uniform(0.5, 5.0))
            n = int(rng.choice([2, 3, 5, 10]))
            spec = score_box(n, lam)
            r = math.exp(-2 * lam) * (n - 1) + float(rng.exponential(1.0))
            vals = [gap_upper_bound_deterministic(spec, t, r)
                    for t in (0.0, 1.0, 1.5, 2.0)]
            assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))


class TestJensenChain:
    def test_transformed_best_risk_bounded(self):
        # best-in-class risk of the composed loss is at most the transform
        # of the best-in-class inner-loss risk
        rng = np.random.default_rng(9)
        for i in range(15):
            n = int(rng.choice([2, 3]))
            K = int(rng.integers(1, 4))
            dist = finite_distribution(rng.dirichlet(np.ones(K)),
                                       rng.dirichlet(np.ones(n), size=K))
            spec = score_box(n, 6.0)
            tau = float(rng.uniform(0.0, 2.0))
            pairs = list(zip(dist.weights, dist.conds))
            r_tau = sum(w * cond_risk_star_brute(cond, tau, spec, seed=i).value
                        for w, cond in pairs)
            r_zero = sum(w * cond_risk_star_brute(cond, 0, spec, seed=i).value
                         for w, cond in pairs)
            assert r_tau <= losses.phi_tau(r_zero, tau) + 1e-9


class TestFiniteDistribution:
    def test_holds_checked_arrays(self):
        weights, conds = [0.25, 0.75], [[0.2, 0.8], [1.0, 0.0]]
        dist = finite_distribution(weights, conds, xs=[[1.0], [-2.0]])
        assert dist.n == 2
        assert np.array_equal(dist.weights, weights)
        assert np.array_equal(dist.conds, conds)
        assert np.array_equal(dist.xs, [[1.0], [-2.0]])
        assert finite_distribution(weights, conds).xs is None

    @pytest.mark.parametrize("weights, conds, xs, match", [
        ([math.nan, 1.0], [[0.5, 0.5]] * 2, None, "finite and nonnegative"),
        ([math.inf, 0.0], [[0.5, 0.5]] * 2, None, "finite and nonnegative"),
        ([-0.5, 1.5], [[0.5, 0.5]] * 2, None, "finite and nonnegative"),
        ([0.5, 0.4], [[0.5, 0.5]] * 2, None, "sum to"),
        ([], [], None, "got shapes"),
        ([1.0], [0.5, 0.5], None, "got shapes"),
        ([0.5, 0.5], [[0.5, 0.5]] * 3, None, "got shapes"),
        ([0.5, 0.5], [[0.5, 0.5]], None, "got shapes"),
        ([0.5, 0.5], [[0.5, 0.5]] * 2, [[0.0]], "got shapes"),
        ([0.5, 0.5], [[0.5, 0.5]] * 2, [[0.0], [math.nan]], "finite"),
        ([1.0], [[0.5, math.nan]], None, "must be finite"),
    ], ids=["nan-weight", "inf-weight", "negative-weight", "sum", "no-atoms",
            "1d-conds", "extra-row", "missing-row", "short-xs", "nan-xs",
            "nan-cond"])
    def test_invalid_input_raises(self, weights, conds, xs, match):
        with pytest.raises(ValueError, match=match):
            finite_distribution(weights, conds, xs)

    @pytest.mark.parametrize("bad", [[0.6, 0.6], [1.2, -0.2], [0.5, math.inf],
                                     [1.0 + 2e-12, 0.0]])
    def test_first_bad_row_raises_its_own_message(self, bad):
        # the rows are checked at once, then the first bad one on its own
        with pytest.raises(ValueError) as caught:
            _checks.cond_dist(bad)
        with pytest.raises(ValueError, match=re.escape(str(caught.value))):
            finite_distribution([0.25, 0.25, 0.5],
                                [[0.5, 0.5], bad, [0.6, 0.6]])

    @pytest.mark.parametrize("xs", [None, [[1.0, 0.0], [0.0, 1.0]]],
                             ids=["no-xs", "two-features"])
    def test_linear_gap_needs_its_features(self, xs):
        dist = finite_distribution([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]], xs)
        with pytest.raises(ValueError, match="1 features per support point"):
            minimizability_gap(dist, linear_family(2, 1, 2.0), 1.0)


class TestSpecValidation:
    def test_symmetry_and_completeness_flags(self):
        assert score_box(3).is_complete
        assert score_box(3).is_symmetric
        assert not score_box(3, 5.0).is_complete
        assert score_box(3, 5.0).is_symmetric
        asym = score_box(3, 5.0).__class__("score_box", 3, lam=5.0,
                                           label_lams=(1.0, 2.0, 3.0))
        assert not asym.is_symmetric
        assert linear_family(3, 2).is_symmetric
        assert not linear_family(3, 2).is_complete

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            score_box(1)
        with pytest.raises(ValueError):
            score_box(3, -1.0)
        with pytest.raises(ValueError):
            linear_family(3, 0)


TWO_LABELS = finite_distribution([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]],
                                 xs=[[1.0], [-1.0]])


@pytest.mark.parametrize("call, name", [
    (lambda: cond_risk_star_brute([0.5, 0.5], 1.0, score_box(3, 2.0)),
     "spec"),
    (lambda: minimizability_gap(TWO_LABELS, score_box(3, 2.0), 1.0), "spec"),
    (lambda: minimizability_gap(TWO_LABELS, linear_family(3, 1, 1.0), 1.0),
     "spec"),
    (lambda: bounds.verify_h_consistency_bound(
        TWO_LABELS, np.zeros((2, 2)), score_box(3), 1.0), "spec"),
    (lambda: bounds.verify_h_consistency_bound(
        TWO_LABELS, [[math.nan, 0.0], [0.0, 0.0]], score_box(2), 1.0),
     "assignment"),
    (lambda: bounds.verify_h_consistency_bound(
        TWO_LABELS, [[-math.inf, 0.0], [0.0, 0.0]], score_box(2), 1.0),
     "assignment"),
    (lambda: bounds.learning_bound(TWO_LABELS, score_box(3, 1.5), 2.0, m=10,
                                   delta=0.05, seed=0), "spec"),
    (lambda: linear_family(2, 1, math.nan), "weight_bound"),
    (lambda: linear_family(2, 1, True), "weight_bound"),
    (lambda: linear_family(2, 1, "x"), "weight_bound"),
    (lambda: score_box(3, True), "lam"),
    (lambda: score_box(3, math.nan), "lam"),
    (lambda: bounds.hbar_mu_scores([1.0, 0.0], math.nan, 0), "mu"),
], ids=["brute", "gap_score_box", "gap_linear",
        "bound_spec", "bound_nan", "bound_inf", "learning_bound",
        "linear_nan_bound", "linear_bool_bound", "linear_str_bound",
        "box_bool_lam", "box_nan_lam", "hbar_nan_mu"])
def test_spec_and_distribution_must_agree(call, name):
    with pytest.raises(ValueError, match=f"^{name}"):
        call()
