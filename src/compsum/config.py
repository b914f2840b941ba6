"""Flat ``key = value`` config files with dotted namespaces, and the one
place where their keys become library arguments.

A file is checked once, when it is read. An unknown key, a value that does
not parse, a choice outside its list and a key that no command reads under
the file's data kind, model kind and training mode are refused with the
line number. ``build`` then makes every object the file describes, for
every command alike; a constructor's refusal is raised again under the key
that fed the refused argument, with the library's words kept after it:
``data.noise: noise must be finite and nonnegative``. Chosen over nested
formats for diff-friendliness.
"""

from dataclasses import dataclass, replace
from functools import partial

from . import _checks as check
from .adversarial import AdvParams, PerturbationBall
from .train import (
    TrainConfig,
    gaussian_mixture_dataset,
    holdout_size,
    make_model,
    margin_task_dataset,
)


class ConfigError(ValueError):
    pass


def _parse_float_list(v):
    return tuple(float(x) for x in v.split(",") if x.strip())


def _choice(*options):
    def parse(v):
        if v not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return v
    return parse


# key -> (parser, default); a default of None leaves the argument to the
# library: the per-mode weight decay, AdvParams's nu and step size
CONFIG_KEYS = {
    "seed": (int, 0),
    "data.kind": (_choice("gaussian_mixture", "margin_task"),
                  "gaussian_mixture"),
    "data.classes": (int, 10),
    "data.dim": (int, 20),
    "data.train": (int, 5000),
    "data.test": (int, 1000),
    "data.center_scale": (float, 2.0),
    "data.noise": (float, 2.5),
    "data.center": (float, 0.8),
    "data.sigma": (float, 0.4),
    "model.kind": (_choice("mlp", "linear"), "mlp"),
    "model.hidden": (int, 64),
    "train.mode": (_choice("standard", "adversarial"), "standard"),
    "train.tau": (float, 1.0),
    "train.tau_sweep": (_parse_float_list, ()),
    "train.lr0": (float, 0.1),
    "train.lr_grid": (_parse_float_list, ()),
    "train.momentum": (float, 0.9),
    "train.weight_decay": (float, None),
    "train.epochs": (int, 30),
    "train.batch_size": (int, 128),
    "train.schedule": (_choice("cosine", "constant"), "cosine"),
    "train.holdout_frac": (float, 0.1),
    "adv.rho": (float, 1.0),
    "adv.nu": (float, None),
    "adv.gamma": (float, 0.3),
    "adv.p_norm": (float, float("inf")),
    "adv.pgd_steps": (int, 10),
    "adv.pgd_step_size": (float, None),
    "adv.restarts": (int, 1),
    "eval.attack_steps": (int, 40),
}

# key -> the setting under which no command reads it
UNREAD = {
    "data.center_scale": ("data.kind", "margin_task"),
    "data.noise": ("data.kind", "margin_task"),
    "data.center": ("data.kind", "gaussian_mixture"),
    "data.sigma": ("data.kind", "gaussian_mixture"),
    "train.lr_grid": ("train.mode", "adversarial"),
    "model.hidden": ("model.kind", "linear"),
}

WEIGHT_DECAY = {"standard": 1e-4, "adversarial": 5e-4}  # when unset


def parse_config_text(text, path="<config>"):
    """Parse config text into a dict with defaults filled in."""
    values = {k: default for k, (_, default) in CONFIG_KEYS.items()}
    lines = {}  # key -> the line that set it
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', "
                              f"got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in CONFIG_KEYS:
            valid = ", ".join(sorted(CONFIG_KEYS))
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}; "
                              f"valid keys: {valid}")
        parser, _ = CONFIG_KEYS[key]
        try:
            values[key] = parser(val)
        except ValueError as exc:
            raise ConfigError(f"{key}: {path}:{line_no}: bad value {val!r}: "
                              f"{exc}") from None
        lines[key] = line_no

    def refuse(key, why):
        if key in lines:
            raise ConfigError(f"{key}: {path}:{lines[key]}: {why}")
    for key, (other, value) in UNREAD.items():
        if values[other] == value:
            refuse(key, f"no command reads it when {other} = {value}")
    if values["data.kind"] == "margin_task" and values["data.classes"] != 2:
        refuse("data.classes", f"the margin task has 2 classes, not "
                               f"{values['data.classes']}")
    if values["train.tau_sweep"]:
        refuse("train.tau", "no command reads it beside train.tau_sweep")
    return values


def load_config(path):
    with open(path) as fh:
        return parse_config_text(fh.read(), path=path)


def _make(ctor, values, keys, **fixed):
    """``ctor`` called with ``fixed`` and, for each ``argument: key`` of
    ``keys``, the key's value; a refusal of an argument that a key feeds is
    raised again under that key."""
    try:
        return ctor(**fixed, **{arg: values[key] for arg, key in keys.items()})
    except ValueError as exc:
        key = keys.get(check.argument(exc))
        if key is None:
            raise
        raise ConfigError(f"{key}: {exc}") from None


_DATA = {
    "gaussian_mixture": (gaussian_mixture_dataset, {
        "n_classes": "data.classes", "dim": "data.dim",
        "n_train": "data.train", "n_test": "data.test",
        "center_scale": "data.center_scale", "noise": "data.noise",
        "seed": "seed"}),
    "margin_task": (margin_task_dataset, {
        "n_train": "data.train", "n_test": "data.test", "dim": "data.dim",
        "center": "data.center", "sigma": "data.sigma", "seed": "seed"}),
}
_ATTACK = {"rho": "adv.rho", "nu": "adv.nu", "pgd_steps": "adv.pgd_steps",
           "pgd_step_size": "adv.pgd_step_size", "restarts": "adv.restarts",
           "seed": "seed"}
_TRAIN = {"lr0": "train.lr0", "momentum": "train.momentum",
          "weight_decay": "train.weight_decay", "epochs": "train.epochs",
          "batch_size": "train.batch_size", "schedule": "train.schedule",
          "seed": "seed", "holdout_frac": "train.holdout_frac",
          "eval_attack_steps": "eval.attack_steps"}


@dataclass(frozen=True)
class Setup:
    """Everything a config describes, built before any command works."""
    data: object
    runs: tuple       # (tau, TrainConfig): one per train.tau_sweep entry
    lr_grid: tuple    # initial rates to choose from; empty: train.lr0
    new_model: object  # a fresh model of model.kind per call
    ball: PerturbationBall
    attack: AdvParams  # the evaluation attack: eval.attack_steps steps


def build(values):
    """The ``Setup`` of a parsed config, each argument checked by the
    library under the key that feeds it."""
    ctor, keys = _DATA[values["data.kind"]]
    data = _make(ctor, values, keys)
    new_model = partial(_make, make_model, values,
                        {"kind": "model.kind", "hidden": "model.hidden",
                         "seed": "seed"},
                        dim=data.X_train.shape[1], n_classes=data.n_classes)
    new_model()  # model.hidden is checked before any work
    adv = _make(AdvParams, values, _ATTACK, n=data.n_classes)
    ball = _make(PerturbationBall, values,
                 {"p_norm": "adv.p_norm", "gamma": "adv.gamma"})
    mode = values["train.mode"]
    if values["train.weight_decay"] is None:
        values = {**values, "train.weight_decay": WEIGHT_DECAY[mode]}
    sweep = values["train.tau_sweep"]
    tau_key = "train.tau_sweep" if sweep else "train.tau"
    robust = dict(adversarial=adv, ball=ball) if mode == "adversarial" \
        else {}
    runs = tuple((tau, _make(TrainConfig, {**values, tau_key: tau},
                             {**_TRAIN, "tau": tau_key}, **robust))
                 for tau in sweep or (values["train.tau"],))
    cfg = runs[0][1]
    for lr in values["train.lr_grid"]:
        _make(partial(replace, cfg), {"train.lr_grid": lr},
              {"lr0": "train.lr_grid"})
    _make(holdout_size, values, {"holdout_frac": "train.holdout_frac"},
          rows=data.y_train.shape[0])
    return Setup(data, runs, values["train.lr_grid"], new_model, ball,
                 replace(adv, pgd_steps=cfg.eval_attack_steps))
