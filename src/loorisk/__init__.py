"""Out-of-sample risk estimation for penalized GLMs.

Exact leave-one-out (LO), its single-factorization approximation (ALO) and
K-fold cross validation, together with oracle out-of-sample errors,
finite-sample error-bound constants, assumption audits, and seeded
Monte-Carlo experiment runners.
"""

__version__ = "0.1.0"

from .bounds import (
    AssumptionAudit,
    BoundReport,
    audit_assumptions,
    check_perturb_lemma,
    compute_Cb,
    compute_Cb_tilde,
    compute_Cv_from_parts,
    compute_Cv_logistic,
    pick_audit_indices,
)
from .datagen import (
    CovSpec,
    SimConfig,
    derive_seed,
    gen_beta_star,
    gen_design,
    gen_replicate,
    gen_response,
    substream,
)
from .experiments import (
    ExperimentResult,
    fit_loglog_slope,
    mse_of_estimator,
    run_figure1,
    run_table1,
    run_table2,
)
from .losses import LossSpec, loss_derivative_bound, loss_eval
from .oracles import (
    TrueModel,
    err_out_linear,
    err_out_logistic,
    err_out_monte_carlo,
    gauss_hermite_expectation,
)
from .regularizers import (
    RegSpec,
    prox_step,
    reg_eval,
    reg_value,
    strong_convexity_lower,
)
from .reporting import write_results
from .risk import RiskReport, alo, fold_assignments, kfold_cv, lo_exact, refits
from .solver import (
    Dataset,
    FitResult,
    ModelSpec,
    SolverError,
    SolverOpts,
    fit,
    fit_leave_one_out,
    objective,
)

__all__ = [
    "AssumptionAudit",
    "BoundReport",
    "CovSpec",
    "Dataset",
    "ExperimentResult",
    "FitResult",
    "LossSpec",
    "ModelSpec",
    "RegSpec",
    "RiskReport",
    "SimConfig",
    "SolverError",
    "SolverOpts",
    "TrueModel",
    "alo",
    "audit_assumptions",
    "check_perturb_lemma",
    "compute_Cb",
    "compute_Cb_tilde",
    "compute_Cv_from_parts",
    "compute_Cv_logistic",
    "derive_seed",
    "err_out_linear",
    "err_out_logistic",
    "err_out_monte_carlo",
    "fit",
    "fit_leave_one_out",
    "fit_loglog_slope",
    "fold_assignments",
    "gauss_hermite_expectation",
    "gen_beta_star",
    "gen_design",
    "gen_replicate",
    "gen_response",
    "kfold_cv",
    "lo_exact",
    "loss_derivative_bound",
    "loss_eval",
    "mse_of_estimator",
    "objective",
    "pick_audit_indices",
    "prox_step",
    "reg_eval",
    "reg_value",
    "refits",
    "run_figure1",
    "run_table1",
    "run_table2",
    "strong_convexity_lower",
    "substream",
    "write_results",
]
