"""The config contract of ``compsum train``: every key takes each of a
fixed set of bad numbers, and the run refuses the file under the key,
writing nothing, or trains and writes a finite checkpoint, or, for a valid
value whose run overflows, reports the divergence and writes a finite
checkpoint that ``compsum evaluate`` reads. A key that no command
reads under the file's data kind, model kind or training mode is refused by
name."""

import numpy as np
import pytest

from compsum.cli import main
from compsum.config import CONFIG_KEYS

VALUES = ["nan", "inf", "-inf", "-1", "0", "1e308"]

GM = ("seed = 0\ndata.classes = 3\ndata.dim = 3\ndata.train = 40\n"
      "data.test = 20\nmodel.hidden = 4\ntrain.epochs = 1\n")
MARGIN = ("seed = 0\ndata.kind = margin_task\ndata.dim = 3\n"
          "data.train = 40\ndata.test = 20\nmodel.hidden = 4\n"
          "train.epochs = 1\n")
ADV = MARGIN + "train.mode = adversarial\nadv.pgd_steps = 2\n" \
    "eval.attack_steps = 2\n"

# key -> the values that train to a finite checkpoint; every other value
# is refused, but for the values of DIVERGES
RUNS = {
    "seed": ["0"],
    "data.center_scale": ["0", "1e308"],
    "data.noise": ["0"],
    "data.center": ["-1", "0", "1e308"],
    "data.sigma": ["0"],
    "train.tau": ["0"],
    "train.tau_sweep": ["0"],
    "train.lr0": ["1e308"],
    "train.lr_grid": ["1e308"],
    "train.momentum": ["0"],
    "train.weight_decay": ["0"],
    "train.holdout_frac": ["0"],
    "adv.rho": ["1e308"],
    "adv.nu": ["1e308"],
    "adv.gamma": ["0", "1e308"],
    "adv.p_norm": ["inf"],
    "adv.pgd_step_size": ["1e308"],
}
# key -> the valid values whose run overflows: reported as diverged (a
# scale that overflows the data itself is refused)
DIVERGES = {"train.weight_decay": ["1e308"]}


def _base(key):
    if key in ("data.center", "data.sigma"):
        return MARGIN
    return ADV if key.startswith(("adv.", "eval.")) else GM


def _train(workdir, text, capsys):
    """Exit code, stderr and the outputs of ``compsum train`` on ``text``."""
    workdir.mkdir()
    cfg = workdir / "c.cfg"
    cfg.write_text(text)
    code = main(["train", "--config", str(cfg), "--out",
                 str(workdir / "m.csv")])
    outputs = sorted(p.name for p in workdir.iterdir() if p != cfg)
    return code, capsys.readouterr().err, outputs


def _finite_checkpoint(path):
    body = path.read_bytes().split(b"\n", 1)[1]
    return bool(np.isfinite(np.frombuffer(body, "<f8")).all())


def _refused(key, code, err, outputs):
    return (code == 1 and err.startswith(f"config error: {key}: ")
            and "Traceback" not in err and outputs == [])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("key", list(CONFIG_KEYS))
def test_each_bad_number_is_refused_by_key_or_trains(tmp_path, capsys, key):
    wrong = []
    for i, value in enumerate(VALUES):
        code, err, outputs = _train(tmp_path / str(i),
                                    _base(key) + f"{key} = {value}\n", capsys)
        ckpts = [tmp_path / str(i) / name for name in outputs
                 if name.endswith(".ckpt")]
        if value in RUNS.get(key, ()):
            ok = code == 0 and len(ckpts) == 1 and \
                _finite_checkpoint(ckpts[0])
        elif value in DIVERGES.get(key, ()):
            # a diverged run's checkpoint holds its last finite parameters
            ok = code == 1 and err.endswith(
                "train: tau=1 diverged at epoch 0\n") and len(ckpts) == 1 \
                and _finite_checkpoint(ckpts[0]) and main([
                    "evaluate", "--config", str(tmp_path / str(i) / "c.cfg"),
                    "--checkpoint", str(ckpts[0])]) == 0
            capsys.readouterr()
        else:
            ok = _refused(key, code, err, outputs)
        if not ok:
            wrong.append(f"{value}: exit {code}, {outputs}, {err!r}")
    assert not wrong, wrong


# (base config, the lines added, the key refused)
UNREAD = [
    (MARGIN, "data.center_scale = 2.0", "data.center_scale"),
    (MARGIN, "data.noise = 1.0", "data.noise"),
    (MARGIN, "data.classes = 5", "data.classes"),
    (GM, "data.center = 0.8", "data.center"),
    (GM, "data.sigma = 0.4", "data.sigma"),
    (ADV, "train.lr_grid = 0.1, 0.01", "train.lr_grid"),
    (GM, "train.tau = 1.5\ntrain.tau_sweep = 0, 1", "train.tau"),
    (GM, "model.kind = linear", "model.hidden"),
]


@pytest.mark.parametrize("base, lines, key", UNREAD,
                         ids=[key for _, _, key in UNREAD])
def test_key_no_command_reads_is_refused(tmp_path, capsys, base, lines,
                                         key):
    code, err, outputs = _train(tmp_path / "run", base + lines + "\n",
                                capsys)
    assert _refused(key, code, err, outputs), err
    assert "c.cfg:" in err  # with the line that set it


@pytest.mark.parametrize("base, lines", [
    # evaluate --robust reads the attack keys in either mode
    (MARGIN, "data.classes = 2\nadv.gamma = 0.5\nadv.nu = 1.0\n"
             "eval.attack_steps = 3"),
    (GM, "train.tau_sweep = 0.5"),
    (GM, "model.kind = linear\nmodel.hidden = 4\nmodel.kind = mlp"),
], ids=["margin-attack-keys", "sweep", "hidden-read-by-mlp"])
def test_keys_some_command_reads_are_accepted(tmp_path, capsys, base, lines):
    code, err, outputs = _train(tmp_path / "run", base + lines + "\n",
                                capsys)
    assert (code, err) == (0, "")
    assert len([name for name in outputs if name.endswith(".ckpt")]) == 1


@pytest.mark.parametrize("line, key", [
    ("train.mode = adverserial", "train.mode"),
    ("data.noise = 5", "data.noise"),
    ("adv.nu = nan", "adv.nu"),
    ("data.dim = 0", "data.dim"),
])
def test_evaluate_refuses_the_file_train_refuses(tmp_path, capsys, line,
                                                 key):
    # evaluate used to skip the attack on a misspelt mode
    run = tmp_path / "run"
    assert _train(run, ADV, capsys)[0] == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text(ADV + line + "\n")
    assert main(["evaluate", "--config", str(bad), "--robust",
                 "--checkpoint", str(run / "m.ckpt")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {key}: ")
    assert captured.out == ""


@pytest.mark.parametrize("key", ["train.weight_avg_decay", "eval.checkpoint"])
def test_removed_keys_are_unknown(tmp_path, capsys, key):
    code, err, outputs = _train(tmp_path / "run", ADV + f"{key} = 0.5\n",
                                capsys)
    assert (code, outputs) == (1, [])
    assert f"unknown key {key!r}" in err


@pytest.mark.parametrize("base, explicit", [
    (GM, "train.weight_decay = 1e-4"),
    (ADV, f"train.weight_decay = 5e-4\nadv.nu = 1.0\n"
          f"adv.pgd_step_size = {2.5 * 0.3 / 2!r}"),
], ids=["standard", "adversarial"])
def test_unset_keys_take_the_library_defaults(tmp_path, capsys, base,
                                              explicit):
    # an unset key leaves the argument to the library (a NaN is refused)
    runs = [tmp_path / "unset", tmp_path / "explicit"]
    for run, text in zip(runs, [base, base + explicit + "\n"]):
        assert _train(run, text, capsys)[:2] == (0, "")
    for name in ("m.csv", "m.ckpt"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
