"""Auditing the regularity conditions behind the error bounds on real fits.

The bound constants assume a uniform cap on the loss derivative and a
curvature floor along the segment between the full fit and each
leave-one-out fit.  Both are checkable numerically: the derivative cap by
direct evaluation, the curvature floor by eigenvalue scans over a t-grid,
and the resulting perturbation bound row by row.
"""

from loorisk import (
    Dataset,
    LossSpec,
    ModelSpec,
    RegSpec,
    SimConfig,
    audit_assumptions,
    check_perturb_lemma,
    fit,
    gen_replicate,
    pick_audit_indices,
    refits,
)

config = SimConfig(
    ns=(60,), p=60, k=6, sigma="identity/n", family="logistic",
    reps=1, seed=42,
)
model = ModelSpec(LossSpec("logistic"), RegSpec("ridge"), lam=0.1)

X, _, y, _ = gen_replicate(config, 60, 0)
data = Dataset(X, y)
full = fit(data, model)

loo = dict(refits(data, model, pick_audit_indices(data.n, 15), full))

audit = audit_assumptions(data, model, full, loo, t_grid_size=11)
print(f"derivative cap  c0_emp = {audit.c0_emp:.4f}   "
      "(logistic derivative never exceeds 1; the bound formulas use 2)")
print(f"curvature floor nu_emp = {audit.nu_emp:.4f}   "
      f"(ridge guarantees >= lambda = {model.lam})")
print("moment estimates:", {k: f"{v:.3g}" for k, v in audit.tilde_moments.items()})
print()

rows = check_perturb_lemma(data, model, full, loo, audit.nu_emp)
print(f"{'row':>4s}  {'|b_loo - b|':>11s}  {'bound':>9s}  {'slack':>9s}")
for row in rows[:8]:
    print(f"{row['i']:4d}  {row['lhs']:11.5f}  {row['rhs']:9.5f}  "
          f"{row['slack']:9.5f}")
held = sum(r["holds"] for r in rows)
print(f"perturbation bound holds on {held}/{len(rows)} audited rows")
