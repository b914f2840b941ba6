"""Span recorder for the traced run.

The tracer wraps public functions of ``compsum`` at the place where their
callers look them up (a module attribute, or an entry of the suite table)
and restores every original when it is removed. Nothing inside the package
is edited. Each call becomes a span ``[name, start, end, parent, item]``;
spans stay in memory and are written out when the run ends.

A few counters are kept next to the spans, at the same boundaries:
gradient evaluations per oracle start, ``t_tau`` evaluations per
``gamma_tau`` call and rows through the batched losses.
"""

import contextlib
import functools
import json
import time

import numpy as np

NAME, START, END, PARENT = range(4)  # then the item label


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self.converged = {}          # oracle span index -> converged flag
        self.epochs = {}             # train span index -> epochs completed
        self.starts_per_call = {}    # oracle span index -> starts seen
        self.grad_evals = []         # gradient evaluations, one per start
        self.loss_rows = 0
        self.gamma_t_calls = 0
        self._patches = []
        self._start_buf = None
        self._in_kernel = False

    # -- recording -------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, self.item]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        span[START] = time.perf_counter()
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _current(self):
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, _lookup(owner, attr)))
        _assign(owner, attr, replacement)

    def wrap(self, owner, attr, name, after=None):
        """Record a span around every call of ``owner.attr``; ``after``
        sees (span index, args, result)."""
        original = _lookup(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            idx = len(self.spans) - 1
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(idx, args, result)
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr, before):
        """Call ``before(args)`` ahead of every call of ``owner.attr``,
        without a span (for functions called hundreds of thousands of
        times)."""
        original = _lookup(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            before(args)
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            _assign(owner, attr, original)
        self._patches.clear()

    # -- layer instrumentation ---------------------------------------------

    def install(self):
        """Wrap each layer at its callers' lookup sites."""
        from compsum import _kernels, adversarial, bounds, cli, risk, suites
        from compsum import train, transform

        # box oracle: the kernel as risk looks it up, with start and
        # gradient-evaluation counts from the kernel's own module globals
        self._patch(risk, "pgd_box_weighted_min",
                    self._kernel_wrapper(risk.pgd_box_weighted_min))
        self.count(_kernels, "weighted_cond_value", self._on_value)
        self.count(_kernels, "weighted_cond_value_grad", self._on_grad)
        self.wrap(risk, "minimizability_gap", "gap")

        # transform: gamma_tau where bounds and cli look it up; t_tau
        # counted only while a gamma_tau call is open
        self.wrap(bounds, "gamma_tau", "gamma_tau")
        self.wrap(transform, "gamma_tau", "gamma_tau")
        self.count(transform, "t_tau", self._on_t_tau)

        # losses
        for attr in ("comp_sum_loss_batch", "comp_sum_grad_batch"):
            self.wrap(train, attr, "loss_batch", after=self._on_loss_batch)
        self.wrap(bounds, "cond_risk", "cond_risk")
        self.wrap(risk, "cond_risk", "cond_risk")

        # bounds
        self.wrap(bounds, "verify_h_consistency_bound", "bound_check")
        self.wrap(bounds, "verify_lemma_inf", "lemma_inf")
        self.wrap(bounds, "lemma_sup_grid", "lemma_sup_grid")
        self.wrap(bounds, "learning_bound", "learning_bound")

        # adversarial: PGD from the training step (train's import) and from
        # evaluation (margin_attack_batch's module global)
        self.wrap(adversarial, "verify_adv_bound", "adv_bound")
        self.wrap(train, "pgd_maximize", "pgd")
        self.wrap(adversarial, "pgd_maximize", "pgd")

        # training and evaluation
        for attr in ("train_standard", "train_adv_comp_sum",
                     "train_standard_best_lr"):
            self.wrap(cli, attr, "train", after=self._on_train)
        self.wrap(train, "evaluate", "evaluate")
        self.wrap(cli, "evaluate", "evaluate")

        # suites and CLI output
        for name in list(suites.SUITES):
            self.wrap(suites.SUITES, name, f"suite.{name}")
        self.wrap(cli, "write_csv", "csv_write")

    def _kernel_wrapper(self, original):
        @functools.wraps(original)
        def kernel(c, tau, lam, starts, max_iter, gtol):
            span = self._open("oracle")
            idx = len(self.spans) - 1
            first = len(self.grad_evals)
            self._in_kernel, self._start_buf = True, None
            try:
                result = original(c, tau, lam, starts, max_iter, gtol)
            finally:
                self._in_kernel = False
                self._close(span)
            self.converged[idx] = bool(result[2])
            self.starts_per_call[idx] = (len(self.grad_evals) - first,
                                         int(np.shape(starts)[0]))
            return result

        return kernel

    def _on_value(self, args):
        # the kernel evaluates the value alone at each start's initial
        # point, always in the same buffer, and in another buffer during
        # backtracking: the first buffer seen marks every start
        if not self._in_kernel:
            return
        if self._start_buf is None:
            self._start_buf = args[0]
        if args[0] is self._start_buf:
            self.grad_evals.append(0)

    def _on_grad(self, args):
        if self._in_kernel and self.grad_evals:
            self.grad_evals[-1] += 1

    def _on_t_tau(self, args):
        if self._current() == "gamma_tau":
            self.gamma_t_calls += 1

    def _on_loss_batch(self, idx, args, result):
        self.loss_rows += int(np.shape(args[0])[0])

    def _on_train(self, idx, args, result):
        self.epochs[idx] = len(result[1])

    # -- analysis ----------------------------------------------------------

    def _has_ancestor(self, idx, name):
        parent = self.spans[idx][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def self_times(self):
        """Per span name: calls, total seconds and self seconds (duration
        minus the time covered by direct children)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out = {}
        for i, s in enumerate(self.spans):
            row = out.setdefault(s[NAME], {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0})
            dur = s[END] - s[START]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def layer_metrics(self, rounds):
        """Per-layer metrics, per round of the workload."""
        durs = {}
        idx_by = {}
        for i, s in enumerate(self.spans):
            durs.setdefault(s[NAME], []).append(s[END] - s[START])
            idx_by.setdefault(s[NAME], []).append(i)

        def total(name):
            return sum(durs.get(name, ()))

        def calls(name):
            return len(durs.get(name, ()))

        def mean(name, scale):
            n = calls(name)
            return scale * total(name) / n if n else 0.0

        def pct(values, q):
            return float(np.percentile(values, q)) if len(values) else 0.0

        oracle = idx_by.get("oracle", [])
        oracle_ms = [1e3 * d for d in durs.get("oracle", [])]
        evals = self.grad_evals
        eval_idx = [i for i in idx_by.get("evaluate", [])
                    if self._has_ancestor(i, "train")]
        train_eval_s = sum(self.spans[i][END] - self.spans[i][START]
                           for i in eval_idx)
        pgd_eval = pgd_train = 0.0
        for i in idx_by.get("pgd", []):
            d = self.spans[i][END] - self.spans[i][START]
            if self._has_ancestor(i, "evaluate"):
                pgd_eval += d
            else:
                pgd_train += d
        gamma_calls = calls("gamma_tau")
        r = float(rounds)
        m = {
            "oracle.calls": len(oracle) / r,
            "oracle.busy_s": total("oracle") / r,
            "oracle.call_ms_p50": pct(oracle_ms, 50),
            "oracle.call_ms_p99": pct(oracle_ms, 99),
            "oracle.nonconverged": sum(
                1 for i in oracle if not self.converged.get(i, True)) / r,
            "oracle.grad_evals_per_start_p50": pct(evals, 50),
            "oracle.grad_evals_per_start_max": float(max(evals, default=0)),
            "gap.oracle_calls": sum(
                1 for i in oracle if self._has_ancestor(i, "gap")) / r,
            "gamma_tau.calls": gamma_calls / r,
            "gamma_tau.us_per_call": mean("gamma_tau", 1e6),
            "gamma_tau.t_tau_calls_per_call":
                self.gamma_t_calls / gamma_calls if gamma_calls else 0.0,
            "loss_batch.rows": self.loss_rows / r,
            "loss_batch.ns_per_row":
                1e9 * total("loss_batch") / self.loss_rows
                if self.loss_rows else 0.0,
            "cond_risk.calls": calls("cond_risk") / r,
            "cond_risk.us_per_call": mean("cond_risk", 1e6),
            "bound_check.us_per_call": mean("bound_check", 1e6),
            "lemma_inf.ms_per_call": mean("lemma_inf", 1e3),
            "lemma_sup_grid.ms_per_call": mean("lemma_sup_grid", 1e3),
            "learning_bound.ms_per_call": mean("learning_bound", 1e3),
            "adv_bound.ms_per_call": mean("adv_bound", 1e3),
            "pgd.train_s": pgd_train / r,
            "pgd.eval_s": pgd_eval / r,
            "train.epochs": sum(self.epochs.values()) / r,
            "train.eval_calls": len(eval_idx) / r,
            "train.eval_s": train_eval_s / r,
            "train.step_s": (total("train") - train_eval_s) / r,
            "cli.csv_write_ms": 1e3 * total("csv_write") / r,
        }
        for name in ("bounds", "tightness", "gaps", "lemmas", "adversarial"):
            m[f"suite.{name}_s"] = total(f"suite.{name}") / r
        return m

    def start_count_mismatches(self):
        """Oracle calls whose counted starts differ from the starts given;
        non-empty means the per-start counts cannot be trusted."""
        return [i for i, (seen, given) in self.starts_per_call.items()
                if seen != given]

    def write(self, path, extra):
        doc = dict(extra)
        doc["self_times"] = self.self_times()
        doc["span_fields"] = ["name", "start", "end", "parent", "item"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _lookup(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _assign(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)
