"""Comp-sum losses, consistency transforms, gap calculators, adversarial
variants, and the numerical verification harness built on them."""

from .adversarial import (
    AdvParams,
    PerturbationBall,
    check_local_rho_consistency,
    rho_margin,
    verify_adv_bound,
    verify_adv_bound_batch,
)
from .bounds import (
    BoundReport,
    build_tightness_instance,
    hbar_mu_scores,
    learning_bound,
    lemma_sup_closed,
    lemma_sup_grid,
    tightness_sides,
    verify_h_consistency_bound,
    verify_h_consistency_bound_batch,
    verify_lemma_inf,
    verify_lemma_inf_batch,
)
from .losses import (
    comp_sum_grad,
    comp_sum_loss,
    loss_upper_bound,
    phi_tau,
    phi_tau_deriv,
    predict,
)
from .risk import (
    FiniteDistribution,
    HypothesisSpec,
    cond_risk,
    cond_risk_star_brute,
    cond_risk_star_closed,
    finite_distribution,
    gap_upper_bound_deterministic,
    linear_family,
    minimizability_gap,
    score_box,
)
from .train import (
    TrainConfig,
    evaluate,
    gaussian_mixture_dataset,
    margin_task_dataset,
    train_adv_comp_sum,
    train_standard,
)
from .transform import (
    gamma_tau,
    gamma_tau_rows,
    gamma_tilde,
    psi_tau,
    t_tau,
    t_tau_rows,
    t_tilde,
)

__version__ = "0.1.0"


def backend_name():
    """Name of the kernel backend; the numpy kernels are the only one."""
    return "numpy"


__all__ = [
    "backend_name", "__version__",
    "phi_tau", "phi_tau_deriv", "comp_sum_loss", "comp_sum_grad",
    "loss_upper_bound", "predict",
    "t_tau", "gamma_tau", "t_tau_rows", "gamma_tau_rows", "t_tilde",
    "gamma_tilde", "psi_tau",
    "FiniteDistribution", "HypothesisSpec",
    "finite_distribution", "score_box", "linear_family",
    "cond_risk", "cond_risk_star_closed", "cond_risk_star_brute",
    "minimizability_gap",
    "gap_upper_bound_deterministic",
    "BoundReport", "verify_h_consistency_bound",
    "verify_h_consistency_bound_batch",
    "build_tightness_instance", "tightness_sides",
    "hbar_mu_scores", "lemma_sup_closed", "lemma_sup_grid",
    "verify_lemma_inf", "verify_lemma_inf_batch", "learning_bound",
    "PerturbationBall", "AdvParams", "rho_margin",
    "check_local_rho_consistency", "verify_adv_bound",
    "verify_adv_bound_batch",
    "TrainConfig", "gaussian_mixture_dataset", "margin_task_dataset",
    "train_standard", "train_adv_comp_sum", "evaluate",
]
