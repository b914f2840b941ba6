"""CLI tests: commands, config handling, exit codes, output hygiene."""

import hashlib
import math
import os

import pytest

from compsum.cli import main
from compsum.config import ConfigError, parse_config_text
from compsum.models import init_linear, init_mlp, save_model
from compsum.transform import gamma_tilde, t_tau

BASE_CFG = """
# small, fast config
seed = 5
data.kind = gaussian_mixture
data.classes = 3
data.dim = 5
data.train = 300
data.test = 150
data.noise = 1.0
train.epochs = 4
train.batch_size = 64
"""

# one adversarial epoch on a small margin task
MARGIN_ADV_CFG = """
seed = 1
data.kind = margin_task
data.dim = 5
data.train = 80
data.test = 60
train.mode = adversarial
train.epochs = 1
train.batch_size = 32
adv.pgd_steps = 2
eval.attack_steps = 3
"""


class TestConfigParsing:
    def test_defaults_and_overrides(self):
        v = parse_config_text("train.tau = 1.5\nadv.rho = 0.7\n")
        assert v["train.tau"] == 1.5
        assert v["adv.rho"] == 0.7
        assert v["train.epochs"] == 30  # default preserved

    def test_comments_and_blanks(self):
        v = parse_config_text("# comment\n\nseed = 9  # trailing\n")
        assert v["seed"] == 9

    def test_unknown_key_lists_valid_ones(self):
        with pytest.raises(ConfigError, match="valid keys"):
            parse_config_text("train.learning_rate = 0.1\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ConfigError, match=":3:"):
            parse_config_text("seed = 1\n\nwhat is this\n")

    def test_bad_value_diagnosed(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("train.epochs = many\n")

    def test_tau_sweep_list(self):
        v = parse_config_text("train.tau_sweep = 0, 1, 2\n")
        assert v["train.tau_sweep"] == (0.0, 1.0, 2.0)


class TestTransformTable:
    def test_columns_and_inequalities(self, tmp_path):
        out = tmp_path / "tt.csv"
        code = main(["transform-table", "--taus", "0,1,2", "--n", "10",
                     "--grid", "21", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,beta,T,T_tilde,t,Gamma,Gamma_tilde"
        for line in lines[1:]:
            tau, beta, T, Tt, t, G, Gt = (float(v) for v in line.split(","))
            assert Tt <= T + 1e-12
            assert G <= Gt + 1e-9
            assert abs(G - beta) <= 1e-9  # round trip built into the rows
            if tau == 1.0:
                assert G <= math.sqrt(2 * t) + 1e-9
            if beta == 0.0:
                assert T == 0.0 and t == 0.0 and G == 0.0

    def test_gamma_tilde_column_matches_library(self, tmp_path):
        out = tmp_path / "tt.csv"
        main(["transform-table", "--taus", "1.5", "--n", "4", "--grid", "5",
              "--out", str(out)])
        for line in out.read_text().splitlines()[1:]:
            tau, beta, T, Tt, t, G, Gt = (float(v) for v in line.split(","))
            assert Gt == pytest.approx(gamma_tilde(t, 1.5, 4))
            assert T == pytest.approx(t_tau(beta, 1.5, 4))


    @pytest.mark.parametrize("grid", ["0", "-1"])
    def test_nonpositive_grid_is_usage_error(self, tmp_path, capsys, grid):
        out = tmp_path / "tt.csv"
        code = main(["transform-table", "--grid", grid, "--out", str(out)])
        assert code == 1
        assert "--grid: must be a positive integer" in capsys.readouterr().err
        assert not out.exists()


class TestTausOption:
    @pytest.mark.parametrize("command, taus", [
        ("transform-table", ""), ("transform-table", " , "),
        ("gaps", ""), ("gaps", " "),
    ])
    def test_no_tau_exits_one_without_output(self, tmp_path, capsys,
                                             command, taus):
        # both used to exit 0 with a header-only CSV
        out = tmp_path / "t.csv"
        assert main([command, "--taus", taus, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --taus needs at least one value, got {taus!r}\n"
        assert not out.exists()


class TestVerifyCommand:
    def test_tightness_suite_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["verify", "--suite", "tightness", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "violations=0" in capsys.readouterr().out

    def test_gaps_suite(self, tmp_path):
        code = main(["verify", "--suite", "gaps", "--count", "20",
                     "--out", str(tmp_path / "g.csv")])
        assert code == 0

    def test_unknown_suite_is_usage_error(self):
        assert main(["verify", "--suite", "nonsense"]) == 1

    @pytest.mark.parametrize("suite,argv,flag", [
        ("tightness", ["--count", "5", "--seed", "9"], "--count"),
        ("tightness", ["--seed", "9"], "--seed"),
        ("lemmas", ["--count", "5"], "--count"),
    ])
    def test_flag_the_suite_does_not_take_is_usage_error(
            self, tmp_path, capsys, suite, argv, flag):
        out = tmp_path / "r.csv"
        code = main(["verify", "--suite", suite, "--out", str(out)] + argv)
        assert code == 1
        assert f"suite {suite} does not take {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_bounds_suite_small(self, tmp_path):
        code = main(["verify", "--suite", "bounds", "--count", "200",
                     "--out", str(tmp_path / "b.csv")])
        assert code == 0

    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, seed):
        out = tmp_path / "g.csv"
        code = main(["verify", "--suite", "gaps", "--seed", seed,
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "--seed: must be a nonnegative integer" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_nonpositive_count_is_usage_error(self, tmp_path, capsys, count):
        out = tmp_path / "b.csv"
        code = main(["verify", "--suite", "bounds", "--count", count,
                     "--out", str(out)])
        assert code == 1
        assert "--count: must be a positive integer" in capsys.readouterr().err
        assert not out.exists()


class TestGapsCommand:
    def test_table_is_non_increasing(self, tmp_path):
        out = tmp_path / "gaps.csv"
        code = main(["gaps", "--lam", "2.0", "--n", "5", "--r-star", "1.0",
                     "--taus", "0,0.5,1,1.5,2", "--out", str(out)])
        assert code == 0
        vals = [float(line.split(",")[-1])
                for line in out.read_text().splitlines()[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("args, message", [
        (["--r-star=nan"], "error: --r-star must be finite"),
        (["--r-star=inf"], "error: --r-star must be finite"),
        (["--r-star=-1"], "error: --r-star -1 lies below"),
        # a box that is refused is named before the risk is compared to it
        (["--lam=-1000", "--r-star=-1"], "error: lam must be positive"),
    ], ids=["nan", "inf", "-1", "lam"])
    def test_bad_r_star_exits_one(self, tmp_path, capsys, args, message):
        out = tmp_path / "gaps.csv"
        assert main(["gaps", *args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "Traceback" not in err
        assert not out.exists()


class TestTrainCommand:
    def test_deterministic_bytes(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CFG)
        out1 = tmp_path / "m1.csv"
        out2 = tmp_path / "m2.csv"
        assert main(["train", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "epoch,lr,train_loss,clean_acc,robust_acc,checkpoint_flag"

    def test_tau_sweep_emits_per_tau_files(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CFG + "train.tau_sweep = 1, 2\n")
        out = tmp_path / "sweep.csv"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (tmp_path / "sweep_tau1.csv").exists()
        assert (tmp_path / "sweep_tau2.csv").exists()
        assert (tmp_path / "sweep_tau2.ckpt").exists()

    def test_adversarial_run_populates_robust_column(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CFG + "train.mode = adversarial\n"
                                  "adv.gamma = 0.2\nadv.pgd_steps = 3\n"
                                  "eval.attack_steps = 5\n")
        out = tmp_path / "adv.csv"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        robust = [row.split(",")[4] for row in rows]
        assert all(r != "" for r in robust)

    def test_diverged_run_is_reported_and_exits_one(self, tmp_path, capsys):
        # at this rate tau = 0 overflows in its first epoch; tau = 1 does not
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CFG + "train.tau_sweep = 0, 1\n"
                                  "train.lr0 = 1e6\n")
        out = tmp_path / "div.csv"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["train: tau=0 diverged at epoch 0"]
        assert (tmp_path / "div_tau0.csv").read_text().splitlines() == [
            "epoch,lr,train_loss,clean_acc,robust_acc,checkpoint_flag",
            "0,1000000,inf,,,0"]
        for name in ("div_tau0.ckpt", "div_tau1.csv", "div_tau1.ckpt"):
            assert (tmp_path / name).exists()

    def test_bad_config_exits_one_without_outputs(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("train.zap = 1\n")
        out = tmp_path / "m.csv"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert not (tmp_path / "m.ckpt").exists()
        # no stray temp files left behind
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == 1

    @pytest.mark.parametrize("line, field", [
        ("train.epochs = 0", "epochs"),
        ("train.epochs = -2", "epochs"),
        ("train.batch_size = 0", "batch_size"),
        ("train.lr0 = 0", "lr0"),
        ("train.holdout_frac = 1.5", "holdout_frac"),
        ("model.hidden = 0", "hidden"),
        ("data.dim = 0", "dim"),
        ("data.train = 0", "n_train"),
        ("data.train = 1", "holdout_frac"),
        ("data.test = 0", "n_test"),
        ("data.classes = 1", "n_classes"),
        ("eval.attack_steps = 0", "eval_attack_steps"),
        ("data.noise = -1", "noise"),
    ])
    def test_bad_size_exits_one_without_traceback(self, tmp_path, capsys,
                                                  line, field):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CFG + line + "\n")
        out = tmp_path / "m.csv"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        # the key that feeds the refused argument, then the library's words
        key = ("train.holdout_frac" if field == "holdout_frac"
               else line.split(" =")[0])
        assert err.startswith(f"config error: {key}: {field} must ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "1"])
    def test_bad_weight_avg_decay_exits_one(self, tmp_path, capsys, value):
        # averaging wrote parameters that no metrics row described; the key
        # is gone, so every value of it is an unknown key
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MARGIN_ADV_CFG + f"train.weight_avg_decay = {value}\n")
        out = tmp_path / "m.csv"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}:")
        assert "unknown key 'train.weight_avg_decay'" in err
        assert not out.exists()
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("line, field", [
        ("adv.gamma = nan", "gamma"),
        ("adv.gamma = inf", "gamma"),
        ("adv.rho = inf", "rho"),
        ("adv.nu = inf", "nu"),
        ("adv.pgd_step_size = -0.1", "pgd_step_size"),
        ("adv.pgd_step_size = inf", "pgd_step_size"),
    ])
    def test_bad_attack_value_exits_one(self, tmp_path, capsys, line, field):
        # a NaN radius used to train and report robust_acc == clean_acc
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MARGIN_ADV_CFG + line + "\n")
        out = tmp_path / "m.csv"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {line.split(' =')[0]}: {field}")
        assert "Traceback" not in err
        assert not out.exists()
        assert not (tmp_path / "m.ckpt").exists()

    def test_nan_step_size_is_refused(self, tmp_path, capsys):
        # NaN used to select the default step; an unset key does that now
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MARGIN_ADV_CFG + "adv.pgd_step_size = nan\n")
        out = tmp_path / "m.csv"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: adv.pgd_step_size: pgd_step_size must be finite "
            "and positive\n")
        assert not out.exists()


class TestEvaluateCommand:
    def test_round_trip_with_checkpoint(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CFG)
        out = tmp_path / "m.csv"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        code = main(["evaluate", "--config", str(cfg),
                     "--checkpoint", str(tmp_path / "m.ckpt")])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[-2] == "clean_acc"
        assert 0.0 <= float(printed[-1]) <= 1.0

    def test_robust_with_bad_radius_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MARGIN_ADV_CFG)
        assert main(["train", "--config", str(cfg), "--out",
                     str(tmp_path / "m.csv")]) == 0
        capsys.readouterr()
        bad = tmp_path / "bad.cfg"
        bad.write_text(MARGIN_ADV_CFG + "adv.gamma = nan\n")
        assert main(["evaluate", "--config", str(bad), "--robust",
                     "--checkpoint", str(tmp_path / "m.ckpt")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "config error: adv.gamma: gamma must be finite")
        assert captured.out == ""

    def test_robust_with_zero_attack_steps_names_them(self, tmp_path,
                                                      capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MARGIN_ADV_CFG)
        assert main(["train", "--config", str(cfg), "--out",
                     str(tmp_path / "m.csv")]) == 0
        capsys.readouterr()
        bad = tmp_path / "bad.cfg"
        bad.write_text(MARGIN_ADV_CFG + "eval.attack_steps = 0\n")
        assert main(["evaluate", "--config", str(bad), "--robust",
                     "--checkpoint", str(tmp_path / "m.ckpt")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "config error: eval.attack_steps: eval_attack_steps must")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("body", [b"compsum-model\n",
                                      b"compsum-model\n\0\0\0\0\0\0\0\0",
                                      b"\n", b"compsum-model mlp 2 x 3\n"])
    def test_bad_checkpoint_header_is_an_error(self, tmp_path, capsys, body):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CFG)
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(body)
        assert main(["evaluate", "--config", str(cfg),
                     "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad checkpoint header")
        assert repr(body.split(b"\n")[0].decode()) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("model, key", [
        (init_linear(5, 4, seed=0), "data.classes"),  # BASE_CFG: 3 labels
        (init_mlp(7, 8, 3, seed=0), "data.dim"),      # BASE_CFG: dim 5
    ], ids=["classes", "dim"])
    def test_checkpoint_config_mismatch_exits_one(self, tmp_path, capsys,
                                                  model, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CFG)
        save_model(model, tmp_path / "m.ckpt")
        assert main(["evaluate", "--config", str(cfg),
                     "--checkpoint", str(tmp_path / "m.ckpt")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: checkpoint ")
        assert f"({key})" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_non_finite_checkpoint_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CFG)
        model = init_linear(5, 3, seed=0)
        model.flat[4] = math.nan
        save_model(model, tmp_path / "m.ckpt")
        assert main(["evaluate", "--config", str(cfg),
                     "--checkpoint", str(tmp_path / "m.ckpt")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: checkpoint ")
        assert "non-finite parameters" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("mode", ["standard", "adversarial"])
    def test_checkpoint_is_the_model_its_row_describes(self, tmp_path, capsys,
                                                       mode):
        # standard training writes the last epoch's model, adversarial the
        # last flagged epoch's (here epoch 4 of 0-5); with one restart the
        # attack starts at the clean point and draws nothing, so evaluate
        # repeats the row's figures exactly
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 1\ndata.kind = margin_task\ndata.dim = 5\n"
                       "data.train = 80\ndata.test = 60\n"
                       f"train.mode = {mode}\ntrain.epochs = 6\n"
                       "train.batch_size = 32\nadv.pgd_steps = 2\n"
                       "adv.restarts = 1\neval.attack_steps = 3\n")
        out = tmp_path / "m.csv"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        if mode == "adversarial":
            row = [r for r in rows if r[5] == "1"][-1]
            assert row is not rows[-1]
        else:
            row = rows[-1]
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg), "--robust",
                     "--checkpoint", str(tmp_path / "m.ckpt")]) == 0
        clean, robust = capsys.readouterr().out.splitlines()[-1].split(",")
        # a standard row records no robust accuracy
        assert [clean, robust if mode == "adversarial" else ""] == row[3:5]

    def test_missing_checkpoint_is_config_error(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CFG)
        assert main(["evaluate", "--config", str(cfg)]) == 1


class TestUsageErrors:
    def test_no_command(self):
        assert main([]) == 1

    def test_threads_flag_is_gone(self, capsys):
        # it set OMP_NUM_THREADS after numpy had loaded, so it did nothing
        assert main(["verify", "--suite", "tightness", "--threads", "2"]) == 1
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    def test_help_exits_zero_and_lists_commands(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for cmd in ("transform-table", "verify", "gaps", "train", "evaluate"):
            assert cmd in out


class TestAdversarialSuitePins:
    """The adversarial suite's output, pinned bit for bit as float64 numpy
    on OpenBLAS computes it (another BLAS may round a dot product
    differently)."""

    def _csv(self, tmp_path, *args):
        out = tmp_path / "adv.csv"
        assert main(["verify", "--suite", "adversarial", "--out", str(out),
                     *args]) == 0
        return out.read_bytes()

    def test_default_summary_line(self, tmp_path):
        text = self._csv(tmp_path).decode()
        assert text.splitlines()[-1] == "# min_slack=-3.331e-16"

    def test_seed_3_count_200_csv(self, tmp_path):
        text = self._csv(tmp_path, "--count", "200", "--seed", "3")
        assert text.decode().splitlines()[-1] == "# min_slack=-3.331e-16"
        assert hashlib.sha256(text).hexdigest() == (
            "0a4c7c96d7a22d6d26e29d0898c4a62d829591a0a7d70fc9b24cb269f66213c0")
