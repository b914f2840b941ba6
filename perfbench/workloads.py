"""The four workloads. Each builds its inputs from the seed and runs whole
rounds of the same operations in a closed loop (one caller, waiting for each
result).

``run_round()`` returns the round's outputs; ``check(outputs)`` returns
``(items, failed, errors)``, where ``errors`` is empty when every output is
right. Checks run outside the timing.

``compsum`` must be importable before this module is imported (run.py puts
the checkout's ``src`` first on the path).
"""

import contextlib
import io
import json
import math
import os

import numpy as np

import checks
from compsum import bounds, cli, config, risk, train

HERE = os.path.dirname(os.path.abspath(__file__))

SIZES = {
    "oracle": {"full": {"criterion2": 20, "bench": 10},
               "tiny": {"criterion2": 3, "bench": 2}},
    "learning_bound": {"full": {"seeds": 2, "draws": 200},
                       "tiny": {"seeds": 1, "draws": 10}},
    "verify": {"full": {"bounds": 1000, "gaps": 100, "adversarial": 200},
               "tiny": {"bounds": 50, "gaps": 10, "adversarial": 20}},
    "train": {"full": {"gm_epochs": 10, "gm_train": 5000, "gm_test": 1000,
                       "margin_epochs": 12},
              "tiny": {"gm_epochs": 2, "gm_train": 500, "gm_test": 200,
                       "margin_epochs": 12}},
}


def _item(tracer, label):
    if tracer is not None:
        tracer.item = label


# -- oracle ------------------------------------------------------------------

def oracle_draws(gen_seed, count):
    """(p, tau) draws of the acceptance criterion-2 generator, which the
    former backend benchmark also used with generator seed 0."""
    rng = np.random.default_rng(gen_seed)
    out = []
    while len(out) < count:
        n = int(rng.choice([2, 3, 5, 10]))
        tau = float(rng.uniform(0.0, 3.0))
        p = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
        # keep the complete-set minimizer representable inside the box
        if abs(2.0 - tau) > 1e-9 and \
                abs(1.0 / (2.0 - tau)) * math.log(p.max() / p.min()) > 48.0:
            continue
        out.append((p, tau))
    return out


class Oracle:
    """``risk.cond_risk_star_brute`` over a fixed list of instances; the
    seed only orders them. An item fails when the oracle reports
    ``converged=False`` or its value misses the tolerance.

    Criterion 2 seeds the oracle with the 1-based draw number; the former
    backend benchmark seeded its starts with the 0-based case number, which
    the oracle's ``seed`` argument reproduces exactly."""

    def __init__(self, seed, size, workdir):
        with open(os.path.join(HERE, "oracle_golden.json")) as fh:
            golden = json.load(fh)
        cases = [(f"c2-{k}", p, tau, k) for k, (p, tau) in enumerate(
            oracle_draws(20240811, size["criterion2"]), start=1)]
        bench = [(f"bench-{k}", p, tau, k) for k, (p, tau) in enumerate(
            oracle_draws(0, size["bench"]))]
        self.golden = {label: golden[label] for label, *_ in bench}
        cases += bench
        order = np.random.default_rng(seed).permutation(len(cases))
        self.cases = [cases[i] for i in order]
        self.closed = {label: risk.cond_risk_star_closed(p, tau)
                       for label, p, tau, _ in self.cases}

    def run_round(self, tracer=None):
        out = []
        for label, p, tau, oseed in self.cases:
            _item(tracer, label)
            res = risk.cond_risk_star_brute(
                p, tau, risk.score_box(len(p), 30.0), seed=oseed)
            out.append((label, res.value, res.converged))
        return out

    def check(self, out):
        failed, errors = 0, []
        for label, value, converged in out:
            wrong = checks.check_oracle_value(value, self.closed[label],
                                              self.golden.get(label))
            errors += [f"{label}: {e}" for e in wrong]
            failed += bool(wrong) or not converged
        return len(out), failed, errors


# -- learning bound ----------------------------------------------------------

class LearningBound:
    """``bounds.learning_bound`` on the criterion-9 instance: two support
    points, n = 2, box half-width 1.5, tau = 2, delta = 0.05, for the
    bound seeds 0, 1, ... (criterion 9's monotonicity seeds) and m in
    (50, 200, 800); the workload seed only orders the bounds. The bound
    seed moved the time of a round by about 7%, so a seed-drawn set would
    add that to the run-to-run spread."""

    TAU, DELTA, MS = 2.0, 0.05, (50, 200, 800)

    def __init__(self, seed, size, workdir):
        self.dist = risk.finite_distribution([0.5, 0.5],
                                             [[0.95, 0.05], [0.1, 0.9]])
        self.spec = risk.score_box(2, 1.5)
        pairs = [(s, m) for s in range(size["seeds"]) for m in self.MS]
        order = np.random.default_rng(seed).permutation(len(pairs))
        self.pairs = [pairs[i] for i in order]
        self.draws = size["draws"]

    def run_round(self, tracer=None):
        out = {}
        for s, m in self.pairs:
            _item(tracer, f"seed{s}-m{m}")
            r = bounds.learning_bound(
                self.dist, self.spec, self.TAU, m=m, delta=self.DELTA,
                seed=s, n_sign_draws=self.draws)
            out.setdefault(s, []).append((m, r))
        return {s: sorted(rows, key=lambda row: row[0])
                for s, rows in out.items()}

    def check(self, out):
        items = sum(len(rows) for rows in out.values())
        return items, 0, checks.check_learning_bounds(out, self.TAU,
                                                      self.dist.n)


# -- CLI-driven workloads ------------------------------------------------------

def _cli(argv):
    """Run ``compsum`` in process; (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Verify:
    """``compsum verify`` for all five suites, writing CSVs. An item is one
    instance checked: bounds and adversarial count their instances (bounds
    plus its non-symmetric fixture), tightness its 5 x 21 grid, gaps its
    configs, lemmas its 60 supremum, 24 infimum and 40 psi instances and
    its conservation sweep."""

    TIGHTNESS_ROWS = 105
    LEMMA_ITEMS = 60 + 24 + 40 + 1

    def __init__(self, seed, size, workdir):
        self.size = size
        self.workdir = workdir
        seed_arg = ["--seed", str(seed)]
        self.argv = {
            "bounds": ["--count", str(size["bounds"])] + seed_arg,
            "tightness": [],
            "gaps": ["--count", str(size["gaps"])] + seed_arg,
            # its default seed: with 24 infimum searches of drawn dimension,
            # its time swings by a quarter from one seed to the next
            "lemmas": [],
            "adversarial": ["--count", str(size["adversarial"])] + seed_arg,
        }
        self.items = (size["bounds"] + 1 + self.TIGHTNESS_ROWS + size["gaps"]
                      + self.LEMMA_ITEMS + size["adversarial"])

    def run_round(self, tracer=None):
        out = {}
        for suite, extra in self.argv.items():
            _item(tracer, suite)
            path = os.path.join(self.workdir, f"verify_{suite}.csv")
            code, stdout = _cli(["verify", "--suite", suite, "--out", path]
                                + extra)
            with open(path) as fh:
                out[suite] = (code, stdout, fh.read())
        return out

    def check(self, out):
        errors = []
        for suite, (code, stdout, _) in out.items():
            errors += checks.check_cli_run(suite, code, stdout)
        csv = {suite: checks.parse_csv(text)
               for suite, (_, _, text) in out.items()}
        errors += checks.check_tightness_rows(*csv["tightness"],
                                              self.TIGHTNESS_ROWS)
        errors += checks.check_gap_rows(*csv["gaps"], self.size["gaps"])
        errors += checks.check_slack_rows(*csv["bounds"],
                                          checks.BOUNDS_SLACK_TOL, False)
        errors += checks.check_slack_rows(*csv["adversarial"],
                                          checks.ADV_SLACK_TOL, True)
        return self.items, 0, errors


# lr0 = 0.003: at the default 0.1 (and at 0.03 and 0.01) the tau = 0 run
# diverges within two epochs and leaves a one-row metrics file
GM_CONFIG = """\
seed = {seed}
data.kind = gaussian_mixture
data.train = {gm_train}
data.test = {gm_test}
train.mode = standard
train.tau_sweep = 0,1,2
train.lr0 = 0.003
train.epochs = {gm_epochs}
"""

MARGIN_CONFIG = """\
seed = {seed}
data.kind = margin_task
data.classes = 2
data.train = 400
data.test = 800
train.mode = {mode}
train.tau = 1.0
train.lr0 = 0.1
train.epochs = {margin_epochs}
train.batch_size = 64
train.weight_decay = 5e-4
adv.rho = 1.0
adv.nu = 1.0
adv.gamma = 0.3
adv.pgd_steps = 10
eval.attack_steps = 40
"""


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


class Train:
    """``compsum train`` then ``compsum evaluate --robust`` on each
    checkpoint: a Gaussian-mixture standard run with a tau sweep of 0, 1
    and 2, and a standard and an adversarial run on the margin task at its
    designed gamma (0.3). An item is one training epoch.

    The margin pair is the acceptance criterion-11 draw (data seed 0) at
    every workload seed: whether adversarial training wins on a 400-point
    draw after 12 epochs depends on the draw, so only a fixed draw gives a
    check that holds every time."""

    MARGIN_SEED = 0

    def __init__(self, seed, size, workdir):
        self.commands = []
        # (name, config, output base, dataset, epochs, adversarial)
        self.runs = []
        cfg = _write(workdir, "gm.cfg", GM_CONFIG.format(seed=seed, **size))
        self.commands.append(["train", "--config", cfg, "--out",
                              os.path.join(workdir, "gm.csv")])
        v = config.load_config(cfg)
        gm = train.gaussian_mixture_dataset(
            n_classes=v["data.classes"], dim=v["data.dim"],
            n_train=v["data.train"], n_test=v["data.test"],
            center_scale=v["data.center_scale"], noise=v["data.noise"],
            seed=v["seed"])
        for tau in (0, 1, 2):
            self.runs.append((f"gm_tau{tau}", cfg,
                              os.path.join(workdir, f"gm_tau{tau}"), gm,
                              size["gm_epochs"], False))
        margin = train.margin_task_dataset(n_train=400, n_test=800, dim=20,
                                           center=0.8, sigma=0.4,
                                           seed=self.MARGIN_SEED)
        for mode in ("standard", "adversarial"):
            name = f"margin_{mode}"
            cfg = _write(workdir, name + ".cfg", MARGIN_CONFIG.format(
                seed=self.MARGIN_SEED, mode=mode, **size))
            base = os.path.join(workdir, name)
            self.commands.append(["train", "--config", cfg, "--out",
                                  base + ".csv"])
            self.runs.append((name, cfg, base, margin, size["margin_epochs"],
                              mode == "adversarial"))

    def run_round(self, tracer=None):
        codes = []
        for argv in self.commands:
            _item(tracer, os.path.basename(argv[2]))
            codes.append((f"train {argv[2]}", _cli(argv)[0]))
        runs = {}
        for name, cfg, base, *_ in self.runs:
            _item(tracer, name)
            code, stdout = _cli(["evaluate", "--config", cfg, "--checkpoint",
                                 base + ".ckpt", "--robust"])
            codes.append((f"evaluate {name}", code))
            with open(base + ".csv") as fh:
                metrics_csv = fh.read()
            with open(base + ".ckpt", "rb") as fh:
                ckpt = fh.read()
            runs[name] = (stdout, metrics_csv, ckpt)
        return {"codes": codes, "runs": runs}

    def check(self, out):
        errors = [f"{what} exited {code}" for what, code in out["codes"]
                  if code != 0]
        items = 0
        robust = {}
        for name, _, _, data, epochs, adversarial in self.runs:
            stdout, metrics_csv, ckpt = out["runs"][name]
            header, rows = checks.parse_csv(metrics_csv)
            items += len(rows)
            errors += checks.check_metrics_rows(name, header, rows, epochs,
                                                adversarial)
            lines = stdout.strip().splitlines()
            try:
                metrics = dict(zip(lines[-2].split(","),
                                   map(float, lines[-1].split(","))))
            except (IndexError, ValueError):
                errors.append(f"{name}: evaluate printed {stdout!r}")
                continue
            errors += checks.check_evaluation(name, ckpt, data.X_test,
                                              data.y_test, metrics, rows,
                                              adversarial)
            robust[name] = metrics["robust_acc"]
        if len(robust) == len(self.runs):
            errors += checks.check_adversarial_gain(
                robust["margin_standard"], robust["margin_adversarial"])
        return items, 0, errors


WORKLOADS = {
    "oracle": Oracle,
    "learning_bound": LearningBound,
    "verify": Verify,
    "train": Train,
}
