"""Each correctness check of the benchmark passes the package's real output
and rejects a deliberately wrong value."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import checks
from compsum import suites
from compsum.models import init_mlp, save_model
from compsum.risk import cond_risk_star_brute, cond_risk_star_closed, score_box
from compsum.train import evaluate, gaussian_mixture_dataset


def _parsed(header, rows):
    """A suite's (header, rows) as the CLI would write and we would read."""
    return checks.parse_csv(header + "\n" + "\n".join(rows) + "\n")


def _set(row, col, value):
    fields = row.split(",")
    fields[col] = repr(value)
    return ",".join(fields)


class TestOracle:
    p = np.array([0.5, 0.3, 0.2])

    def test_real_value_passes(self):
        closed = cond_risk_star_closed(self.p, 1.0)
        value = cond_risk_star_brute(self.p, 1.0, score_box(3, 30.0)).value
        assert checks.check_oracle_value(value, closed, golden=value) == []

    def test_closed_form_off_by_1e5_is_rejected(self):
        closed = cond_risk_star_closed(self.p, 1.0)
        assert checks.check_oracle_value(closed, closed + 1e-5)

    def test_value_below_closed_form_is_rejected(self):
        assert checks.check_oracle_value(1.0 - 2e-9, 1.0)

    def test_golden_mismatch_is_rejected(self):
        assert checks.check_oracle_value(1.0, 1.0, golden=1.0 + 1e-8)


def _lb(bound, arg, realized=0.0, m_gap=0.0, vacuous=False):
    return SimpleNamespace(bound=bound, arg=arg, realized_excess=realized,
                           m_gap=m_gap, vacuous=vacuous)


class TestLearningBound:
    # tau = 2, n = 2: the transform is beta / 2 and its range ends at 1/2
    good = {0: [(50, _lb(1.0, 0.6, vacuous=True)), (200, _lb(0.6, 0.3)),
                (800, _lb(0.3, 0.15))]}

    def _with(self, k, **change):
        rows = list(self.good[0])
        m, r = rows[k]
        fields = {"bound": r.bound, "arg": r.arg,
                  "realized": r.realized_excess, "m_gap": r.m_gap,
                  "vacuous": r.vacuous}
        fields.update(change)
        rows[k] = (m, _lb(**fields))
        return {0: rows}

    def test_consistent_bounds_pass(self):
        assert checks.check_learning_bounds(self.good, 2.0, 2) == []

    @pytest.mark.parametrize("k, change", [
        (1, {"bound": 1.2, "arg": 0.6}),          # outside [0, 1]
        (2, {"realized": 0.4}),                   # excess above the bound
        (2, {"bound": 0.7, "arg": 0.35}),         # rises with m
        (1, {"m_gap": 1e-12}),                    # score-box gap not 0
        (1, {"arg": 0.3 + 1e-5}),                 # does not invert
        (0, {"arg": 0.4}),                        # vacuous inside the range
    ])
    def test_wrong_value_is_rejected(self, k, change):
        assert checks.check_learning_bounds(self._with(k, **change), 2.0, 2)


class TestVerify:
    def test_cli_exit_and_violations(self):
        assert checks.check_cli_run("gaps", 0, "suite=gaps checks emitted=3 "
                                               "violations=0\n") == []
        assert checks.check_cli_run("gaps", 2, "violations=0")
        assert checks.check_cli_run("gaps", 0, "violations=1")

    def test_tightness_rows(self):
        header, rows, _ = suites.run_tightness_suite()
        assert checks.check_tightness_rows(*_parsed(header, rows),
                                           105) == []
        for col in (3, 4):  # surrogate side, expected surrogate
            bad = list(rows)
            value = float(bad[30].split(",")[col]) + 1e-5
            bad[30] = _set(bad[30], col, value)
            assert checks.check_tightness_rows(*_parsed(header, bad), 105)
        assert checks.check_tightness_rows(*_parsed(header, rows[:-1]),
                                           105)

    def test_gap_rows(self):
        header, rows, _ = suites.run_gaps_suite(count=5)
        assert checks.check_gap_rows(*_parsed(header, rows), 5) == []
        bad = list(rows)
        bad[2] = _set(bad[2], 5, float(bad[2].split(",")[5]) * (1 + 1e-5))
        assert checks.check_gap_rows(*_parsed(header, bad), 5)

    def test_bounds_slack_rows(self):
        header, rows, _ = suites.run_bounds_suite(count=20)
        header_f, parsed = _parsed(header, rows)
        assert checks.check_slack_rows(header_f, parsed, 1e-9, False) == []
        bad = [list(r) for r in parsed]
        bad[0][4] = repr(float(bad[0][4]) + 1e-5)   # slack != rhs - lhs
        assert checks.check_slack_rows(header_f, bad, 1e-9, False)
        bad = [list(r) for r in parsed]
        bad[0][2] = repr(float(bad[0][3]) + 1.0)    # lhs above rhs
        bad[0][4] = repr(float(bad[0][3]) - float(bad[0][2]))
        assert checks.check_slack_rows(header_f, bad, 1e-9, False)

    def test_adversarial_rows(self):
        header, rows, _ = suites.run_adversarial_suite(count=10)
        header_f, parsed = _parsed(header, rows)
        assert checks.check_slack_rows(header_f, parsed, 1e-6, True) == []
        bad = [list(r) for r in parsed]
        bad[0][5] = repr(float(bad[0][3]) - 1e-5)   # rhs_smooth below rhs
        assert checks.check_slack_rows(header_f, bad, 1e-6, True)


class TestTrain:
    @pytest.fixture
    def trained(self, tmp_path):
        data = gaussian_mixture_dataset(n_classes=3, dim=4, n_train=50,
                                        n_test=200, seed=3)
        ckpts = []
        for seed in (0, 1):
            path = tmp_path / f"m{seed}.ckpt"
            model = init_mlp(4, 8, 3, seed=seed)
            save_model(model, path)
            ckpts.append((path.read_bytes(),
                          evaluate(model, data.X_test, data.y_test)))
        return data, ckpts

    def _rows(self, acc, epochs=3, robust=""):
        return [[str(e), "0.1", "0.5", repr(acc), robust, "1"]
                for e in range(epochs)]

    def test_recomputed_accuracy_matches(self, trained):
        data, [(ckpt, ev), _] = trained
        metrics = {"clean_acc": ev["clean_acc"], "robust_acc": 0.0}
        assert checks.check_evaluation("m", ckpt, data.X_test, data.y_test,
                                       metrics, self._rows(ev["clean_acc"]),
                                       False) == []

    def test_swapped_checkpoint_is_rejected(self, trained):
        data, [(_, ev0), (ckpt1, ev1)] = trained
        assert ev0["clean_acc"] != ev1["clean_acc"]
        metrics = {"clean_acc": ev0["clean_acc"], "robust_acc": 0.0}
        assert checks.check_evaluation("m", ckpt1, data.X_test, data.y_test,
                                       metrics, self._rows(ev0["clean_acc"]),
                                       False)

    def test_robust_above_clean_is_rejected(self, trained):
        data, [(ckpt, ev), _] = trained
        metrics = {"clean_acc": ev["clean_acc"],
                   "robust_acc": ev["clean_acc"] + 0.01}
        assert checks.check_evaluation("m", ckpt, data.X_test, data.y_test,
                                       metrics, self._rows(ev["clean_acc"]),
                                       False)

    def test_metrics_rows(self):
        header = ["epoch", "lr", "train_loss", "clean_acc", "robust_acc",
                  "checkpoint_flag"]
        rows = self._rows(0.9, robust="0.8")
        assert checks.check_metrics_rows("m", header, rows, 3, True) == []
        assert checks.check_metrics_rows("m", header, rows[:2], 3, True)
        bad = [list(r) for r in rows]
        bad[1][2] = "inf"
        assert checks.check_metrics_rows("m", header, bad, 3, True)
        bad = [list(r) for r in rows]
        bad[1][4] = "0.95"
        assert checks.check_metrics_rows("m", header, bad, 3, True)

    def test_adversarial_gain(self):
        assert checks.check_adversarial_gain(0.7, 0.75) == []
        assert checks.check_adversarial_gain(0.7, 0.7)


def test_reference_transform_matches_known_values():
    # at beta = 1 the transform is log 2 for tau = 1 and
    # 2 * (1 - (2 ** 0.5 / 2) ** 2) = 1 for tau = 0
    assert math.isclose(checks.t_tau_ref(1.0, 1.0), math.log(2.0))
    assert math.isclose(checks.t_tau_ref(1.0, 0.0), 1.0)
    assert checks.phi_ref(1.0, 1.0) == math.log(2.0)
