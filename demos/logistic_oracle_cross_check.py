"""Two independent routes to the logistic out-of-sample error.

Under a Gaussian design the expected logistic loss of a fixed coefficient
vector reduces to two one-dimensional Gaussian integrals, evaluated here
by Gauss-Hermite quadrature.  A Monte-Carlo estimate from fresh draws of
y_o and of the pair (x_o beta_star, x_o beta_hat) serves as the check.  The
response and the loss see x_o only through that pair, which is bivariate
normal, so drawing it has the same law as drawing x_o.  The Monte-Carlo
oracle shares its covariance algebra with the quadrature; the test suite
checks that algebra against full draws of x_o.
"""

import numpy as np

from loorisk import (
    CovSpec,
    LossSpec,
    ModelSpec,
    RegSpec,
    TrueModel,
    err_out_logistic,
    err_out_monte_carlo,
)

rng = np.random.default_rng(1)
p = 25
A = rng.standard_normal((p, p)) / p
cov = CovSpec("matrix", matrix=A @ A.T + np.eye(p) / p)
truth = TrueModel(rng.standard_normal(p), cov, family="logistic")
model = ModelSpec(LossSpec("logistic"), RegSpec("ridge"), lam=0.1)

print(f"{'beta_hat':>18s}  {'quadrature':>10s}  {'monte carlo':>11s}  {'gap/se':>7s}")
for label, beta_hat in [
    ("zero", np.zeros(p)),
    ("truth", truth.beta_star),
    ("perturbed truth", truth.beta_star + 0.7 * rng.standard_normal(p)),
    ("random", rng.standard_normal(p)),
]:
    quad = err_out_logistic(beta_hat, truth, quad_order=64)
    mc, se = err_out_monte_carlo(beta_hat, truth, model, m=2_000_000, seed=5)
    # at beta_hat = 0 every draw scores exactly log 2, so se is 0
    ratio = f"{abs(mc - quad) / se:7.2f}" if se > 0 else "  exact"
    print(f"{label:>18s}  {quad:10.6f}  {mc:11.6f}  {ratio}")

print()
print("At beta_hat = 0 the quadrature value is exactly log 2 =",
      f"{np.log(2.0):.6f}; every gap sits within Monte-Carlo noise.")
