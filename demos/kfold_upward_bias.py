"""K-fold cross validation is biased upward when p >> n; LO is not.

A K-fold estimate scores models trained on (1 - 1/K) n rows, and in high
dimensions every row carries real information, so the fold models are
genuinely worse than the full fit.  Leave-one-out trains on n - 1 rows and
tracks the oracle closely.  This is the desk-scale version of the
comparison, run through the figure1 study; estimates are in
full-squared-error units.
"""

from loorisk import LossSpec, ModelSpec, RegSpec, SimConfig, run_figure1

config = SimConfig(
    ns=(50,), p=200, k=10, sigma="identity", noise_var=2.0,
    beta_dist="constant:0.7453559924999299",  # Var(x' beta*) = 50/9
    family="linear", reps=12, seed=3, k_folds=(3, 5, 7),
)
model = ModelSpec(LossSpec("squared"), RegSpec("elastic_net", mix=0.5), lam=1.0)

print(f"{'estimator':>10s}  {'mean':>7s}  {'se':>6s}")
for row in run_figure1(config, model).rows:
    print(f"{row['estimator']:>10s}  {row['mse']:7.3f}  {row['mse_se']:6.3f}")

print()
print("The bias shrinks as K grows and vanishes for LO, which stays within")
print("sampling noise of the oracle out-of-sample error.")
