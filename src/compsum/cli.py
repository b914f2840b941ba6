"""Command-line interface.

Commands: ``transform-table``, ``verify``, ``gaps``, ``train``,
``evaluate``. Exit codes: 0 ok, 1 usage or config error or a diverged
training run, 2 verification failure. Output files are written to a
temporary sibling and renamed on success, so rejected runs never leave
partial outputs; a diverged run still writes its metrics and checkpoint.
"""

import argparse
import dataclasses
import inspect
import math
import os
import sys

import numpy as np

from . import _checks as check
from . import config as cfgmod
from . import risk, suites, transform
from .config import ConfigError
from .models import load_model, save_model, write_atomic
from .train import (
    evaluate,
    gaussian_mixture_dataset,
    make_model,
    margin_task_dataset,
    train_adv_comp_sum,
    train_standard,
    train_standard_best_lr,
)

METRICS_HEADER = "epoch,lr,train_loss,clean_acc,robust_acc,checkpoint_flag"


def _fmt(v):
    """``suites.fmt_number``, with NaN written as an empty field."""
    return "" if math.isnan(v) else suites.fmt_number(v)


def write_csv(path, header, rows):
    """Write header plus rows atomically (temp file, rename on success)."""
    write_atomic(path, "".join(line + "\n" for line in [header, *rows])
                 .encode())


def _metrics_rows(history):
    rows = []
    for h in history:
        rows.append(",".join([
            str(h["epoch"]), _fmt(float(h["lr"])), _fmt(float(h["train_loss"])),
            _fmt(float(h["clean_acc"])), _fmt(float(h["robust_acc"])),
            str(h["checkpoint_flag"]),
        ]))
    return rows


def _build_dataset(values):
    kind = values["data.kind"]
    if kind == "gaussian_mixture":
        return gaussian_mixture_dataset(
            n_classes=values["data.classes"], dim=values["data.dim"],
            n_train=values["data.train"], n_test=values["data.test"],
            center_scale=values["data.center_scale"],
            noise=values["data.noise"], seed=values["seed"])
    if kind == "margin_task":
        return margin_task_dataset(
            n_train=values["data.train"], n_test=values["data.test"],
            dim=values["data.dim"], center=values["data.center"],
            sigma=values["data.sigma"], seed=values["seed"])
    raise ConfigError(f"unknown data.kind {kind!r}")


def _taus(text):
    """The comma-separated values of ``--taus``; at least one."""
    taus = cfgmod._parse_float_list(text)
    if not taus:
        raise ValueError(f"--taus needs at least one value, got {text!r}")
    return taus


def cmd_transform_table(args):
    taus = _taus(args.taus)
    n = args.n
    grid = args.grid
    header = "tau,beta,T,T_tilde,t,Gamma,Gamma_tilde"
    rows = []
    for tau in taus:
        for beta in np.linspace(0.0, 1.0, grid):
            tval = transform.t_tau(beta, tau, n)
            rows.append(",".join(_fmt(v) for v in (
                tau, beta, tval, transform.t_tilde(beta, tau, n),
                tval, transform.gamma_tau(tval, tau, n),
                transform.gamma_tilde(tval, tau, n))))
    write_csv(args.out, header, rows)
    return 0


def cmd_verify(args):
    runner = suites.SUITES[args.suite]
    accepted = inspect.signature(runner).parameters
    kwargs = {name: getattr(args, name) for name in ("count", "seed")
              if getattr(args, name) is not None}
    for name in kwargs:
        if name not in accepted:
            raise ValueError(f"suite {args.suite} does not take --{name}")
    header, rows, violations = runner(**kwargs)
    if args.out:
        write_csv(args.out, header, rows)
    for v in violations:
        print(f"VIOLATION: {v}", file=sys.stderr)
    print(f"suite={args.suite} checks emitted={len(rows)} "
          f"violations={len(violations)}")
    return 2 if violations else 0


def cmd_gaps(args):
    check.real(args.r_star, "--r-star")
    # no sum-exponential risk lies below the box's pointwise optimum; the
    # table itself refuses a box with lam <= 0
    if args.lam > 0:
        floor = risk.sum_exp_box_optimum(args.n, args.lam)
        if args.r_star < floor - 1e-15:
            raise ValueError(f"--r-star {args.r_star:g} lies below the "
                             f"box's pointwise optimum exp(-2 lam) (n - 1) "
                             f"= {floor:.6g}")
    header, rows = suites.gap_table(args.lam, args.n, args.r_star,
                                    _taus(args.taus))
    write_csv(args.out, header, rows)
    return 0


def _train_single(values, data, tau, out_path, checkpoint_path):
    adversarial = None
    ball = None
    if values["train.mode"] == "adversarial":
        adversarial = cfgmod.adv_params_from(values, data.n_classes)
        ball = cfgmod.ball_from(values)
    elif values["train.mode"] != "standard":
        raise ConfigError(f"unknown train.mode {values['train.mode']!r}")
    cfg = cfgmod.train_config_from(values, tau=tau, adversarial=adversarial,
                                   ball=ball)

    def factory():
        return make_model(values["model.kind"], data.X_train.shape[1],
                          data.n_classes, hidden=values["model.hidden"],
                          seed=values["seed"])

    if adversarial is not None:
        model, history = train_adv_comp_sum(data, factory(), cfg)
    elif values["train.lr_grid"]:
        model, history, _ = train_standard_best_lr(
            data, factory, cfg, lr_grid=values["train.lr_grid"])
    else:
        model, history = train_standard(data, factory(), cfg)
    write_csv(out_path, METRICS_HEADER, _metrics_rows(history))
    save_model(model, checkpoint_path)
    return history


def cmd_train(args):
    values = cfgmod.load_config(args.config)
    if args.seed is not None:
        values["seed"] = args.seed
    data = _build_dataset(values)
    out = args.out or "metrics.csv"
    base, ext = os.path.splitext(out)
    sweep = values["train.tau_sweep"]
    runs = []
    if sweep:
        for tau in sweep:
            tag = f"{base}_tau{tau:g}"
            runs.append((tau, _train_single(values, data, tau,
                                            tag + (ext or ".csv"),
                                            tag + ".ckpt")))
    else:
        tau = values["train.tau"]
        runs.append((tau, _train_single(values, data, tau, out,
                                        base + ".ckpt")))
    diverged = [(tau, h[-1]["epoch"]) for tau, h in runs
                if h and h[-1].get("diverged")]
    for tau, epoch in diverged:
        print(f"train: tau={tau:g} diverged at epoch {epoch}", file=sys.stderr)
    return 1 if diverged else 0


def cmd_evaluate(args):
    values = cfgmod.load_config(args.config)
    if args.seed is not None:
        values["seed"] = args.seed
    ckpt = args.checkpoint or values["eval.checkpoint"]
    if not ckpt:
        raise ConfigError("evaluate needs --checkpoint or eval.checkpoint")
    model = load_model(ckpt)
    data = _build_dataset(values)
    if model.n_labels != data.n_classes:
        raise ConfigError(f"checkpoint scores {model.n_labels} labels, but "
                          f"the config's data has {data.n_classes} "
                          f"(data.classes)")
    if model.dim != data.X_test.shape[1]:
        raise ConfigError(f"checkpoint takes {model.dim} inputs, but the "
                          f"config's data has {data.X_test.shape[1]} "
                          f"(data.dim)")
    ball = None
    attack = None
    if values["train.mode"] == "adversarial" or args.robust:
        ball = cfgmod.ball_from(values)
        attack = cfgmod.adv_params_from(values, data.n_classes)
        check.sizes(eval_attack_steps=values["eval.attack_steps"])
        attack = dataclasses.replace(attack,
                                     pgd_steps=values["eval.attack_steps"])
    metrics = evaluate(model, data.X_test, data.y_test, ball, attack)
    header = ",".join(metrics.keys())
    row = ",".join(_fmt(float(v)) for v in metrics.values())
    if args.out:
        write_csv(args.out, header, row.split("\n"))
    print(header)
    print(row)
    return 0


def _add_common(p, out_default=None):
    p.add_argument("--out", default=out_default, help="output CSV path")
    p.add_argument("--seed", type=_int_at_least(0, "nonnegative"),
                   default=None, help="override the config seed")


def _int_at_least(floor, what):
    """argparse type for counts and seeds: an integer of at least
    ``floor``, refused as not a ``what`` integer."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = floor - 1
        if value < floor:
            raise argparse.ArgumentTypeError(
                f"must be a {what} integer, got {text!r}")
        return value
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="compsum",
        description="comp-sum losses, consistency transforms, gap "
                    "calculators and their verification harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform-table",
                       help="emit beta/T/T_tilde/t/Gamma/Gamma_tilde grids")
    p.add_argument("--taus", default="0,0.5,1,1.5,2")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--grid", type=_int_at_least(1, "positive"), default=51)
    _add_common(p, out_default="transform_table.csv")
    p.set_defaults(func=cmd_transform_table)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(suites.SUITES))
    p.add_argument("--count", type=_int_at_least(1, "positive"), default=None,
                   help="instance count override")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gaps", help="emit the deterministic-case gap-bound "
                                    "table over tau")
    p.add_argument("--lam", type=float, default=2.0)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--r-star", dest="r_star", type=float, default=1.0)
    p.add_argument("--taus", default="0,0.5,1,1.5,2")
    _add_common(p, out_default="gaps.csv")
    p.set_defaults(func=cmd_gaps)

    key_help = "config keys: " + ", ".join(sorted(cfgmod.CONFIG_KEYS))
    p = sub.add_parser("train", help="train per the config file",
                       epilog=key_help)
    p.add_argument("--config", required=True)
    _add_common(p, out_default="metrics.csv")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint",
                       epilog=key_help)
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--robust", action="store_true",
                   help="also attack with the config's ball")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit status 2 for usage errors; remap to 1
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
