"""Flat ``key = value`` config files with dotted namespaces.

Unknown keys are rejected with the full list of valid keys; parse errors
carry the line number. Chosen over nested formats for diff-friendliness.
"""

import math

from .adversarial import AdvParams, PerturbationBall
from .train import TrainConfig


class ConfigError(ValueError):
    pass


def _parse_float_list(v):
    return tuple(float(x) for x in v.split(",") if x.strip())


# key -> (parser, default)
CONFIG_KEYS = {
    "seed": (int, 0),
    "data.kind": (str, "gaussian_mixture"),
    "data.classes": (int, 10),
    "data.dim": (int, 20),
    "data.train": (int, 5000),
    "data.test": (int, 1000),
    "data.center_scale": (float, 2.0),
    "data.noise": (float, 2.5),
    "data.center": (float, 0.8),
    "data.sigma": (float, 0.4),
    "model.kind": (str, "mlp"),
    "model.hidden": (int, 64),
    "train.mode": (str, "standard"),
    "train.tau": (float, 1.0),
    "train.tau_sweep": (_parse_float_list, ()),
    "train.lr0": (float, 0.1),
    "train.lr_grid": (_parse_float_list, ()),
    "train.momentum": (float, 0.9),
    "train.weight_decay": (float, math.nan),  # nan: 1e-4 standard, 5e-4 adversarial
    "train.epochs": (int, 30),
    "train.batch_size": (int, 128),
    "train.schedule": (str, "cosine"),
    "train.holdout_frac": (float, 0.1),
    "train.weight_avg_decay": (float, 0.0),
    "adv.rho": (float, 1.0),
    "adv.nu": (float, math.nan),  # nan selects the theory-compliant default
    "adv.gamma": (float, 0.3),
    "adv.p_norm": (float, math.inf),
    "adv.pgd_steps": (int, 10),
    "adv.pgd_step_size": (float, math.nan),  # nan selects 2.5*gamma/steps
    "adv.restarts": (int, 1),
    "eval.attack_steps": (int, 40),
    "eval.checkpoint": (str, ""),
}


def parse_config_text(text, path="<config>"):
    """Parse config text into a dict with defaults filled in."""
    values = {k: default for k, (_, default) in CONFIG_KEYS.items()}
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
            raise ConfigError(f"{path}:{line_no}: bad value for {key}: {exc}")
    return values


def load_config(path):
    with open(path) as fh:
        return parse_config_text(fh.read(), path=path)


def adv_params_from(values, n):
    nu = values["adv.nu"]
    step = values["adv.pgd_step_size"]
    return AdvParams(
        n=n,
        rho=values["adv.rho"],
        nu=None if math.isnan(nu) else nu,
        pgd_steps=values["adv.pgd_steps"],
        pgd_step_size=None if math.isnan(step) else step,
        restarts=values["adv.restarts"],
        seed=values["seed"],
    )


def ball_from(values):
    return PerturbationBall(values["adv.p_norm"], values["adv.gamma"])


def train_config_from(values, tau=None, adversarial=None, ball=None):
    wd = values["train.weight_decay"]
    if math.isnan(wd):
        wd = 5e-4 if adversarial is not None else 1e-4
    return TrainConfig(
        tau=values["train.tau"] if tau is None else tau,
        lr0=values["train.lr0"],
        momentum=values["train.momentum"],
        weight_decay=wd,
        epochs=values["train.epochs"],
        batch_size=values["train.batch_size"],
        schedule=values["train.schedule"],
        seed=values["seed"],
        holdout_frac=values["train.holdout_frac"],
        weight_avg_decay=values["train.weight_avg_decay"],
        eval_attack_steps=values["eval.attack_steps"],
        adversarial=adversarial,
        ball=ball,
    )
